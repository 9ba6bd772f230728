"""The one constrained inverse iteration behind both minimizers and the
ball's lambda_21:

    minimize x.A x  on  sum weights |Phi x|^p = 1,  A symmetric positive definite,

with Phi the identity unless the caller gives a map.  At p = 2 it is
inverse power iteration for the smallest eigenvalue of the pencil
(A, Phi^T diag(weights) Phi).  Every caller hands its forms to the banded
Cholesky factorization in the layout of `upper_bands`."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# converged when max|r| <= RESIDUAL_TOL * max|A x|
RESIDUAL_TOL = 1e-6
MAX_HALVINGS = 25


@dataclass(frozen=True)
class IterationResult:
    x: np.ndarray
    value: float
    iterations: int
    residual: float
    status: str  # residual | stalled | max_iters


def upper_bands(A, u: int) -> np.ndarray:
    """Symmetric A with u superdiagonals in LAPACK's upper band layout,
    ab[u + i - j, j] = A[i, j], as `scipy.linalg.cholesky_banded` takes it."""
    ab = np.zeros((u + 1, A.shape[0]))
    for k in range(u + 1):
        ab[u - k, k:] = A.diagonal(k)
    return ab


def inverse_iteration(
    A,
    solve: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    weights: np.ndarray,
    p: float,
    max_iters: int,
    phi=None,
) -> IterationResult:
    """Step along -solve(r), solve ~ A^{-1} and r = A x - value * Phi^T
    (weights |Phi x|^(p-2) Phi x), halving the step until the value
    decreases or the residual drops below 0.999 of its old size (near the
    fixed point the value change is below rounding); if no halving is
    accepted the status is `stalled`.  `phi` (None: the identity) maps an
    iterate to the values the constraint weighs.  A residual that is not
    finite raises ValueError before it reaches `solve`."""

    def normalize(v: np.ndarray) -> Optional[np.ndarray]:
        y = v if phi is None else phi @ v
        m = float(weights @ np.abs(y) ** p)
        return v / m ** (1.0 / p) if m > 0.0 and np.isfinite(m) else None

    def state(v: np.ndarray):
        Av = A @ v
        value = float(v @ Av)
        y = v if phi is None else phi @ v
        g = weights * np.abs(y) ** (p - 2.0) * y
        r = Av - value * (g if phi is None else phi.T @ g)
        res = float(np.abs(r).max()) / max(float(np.abs(Av).max()), 1e-300)
        return v, value, r, res

    x, value, r, res = state(normalize(x0))
    status, iterations = "max_iters", 0
    # `iterations` counts residual checks, the last one included
    for iterations in range(1, max_iters + 1):
        if res <= RESIDUAL_TOL:
            break
        # the callers' solves skip the scan for non-finite entries; a
        # non-finite entry of r makes res non-finite
        if not math.isfinite(res):
            raise ValueError("array must not contain infs or NaNs")
        d = solve(r)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            cand = normalize(x - t * d)
            if cand is not None:
                cand_state = state(cand)
                if cand_state[1] < value or cand_state[3] < 0.999 * res:
                    x, value, r, res = cand_state
                    break
            t *= 0.5
        else:
            status = "stalled"
            break
    if res <= RESIDUAL_TOL:
        status = "residual"
    return IterationResult(x=x, value=value, iterations=iterations,
                           residual=res, status=status)

"""Minimization of the reduced line quotient

    mu_q = inf  int(|w''|^2 + 2 gbar |w'|^2 + gam^2 |w|^2) / (int |w|^q)^{2/q}

by one preconditioned inverse iteration (`descent`) on even profiles, with
an independent multistart damped-Newton oracle on all profiles and the
scaling/concavity laws as cross-checks."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .descent import inverse_iteration
from .errors import GridError, ParameterDomainError, UnconvergedResultError
from .grids import LineGrid, LineProfile
from .params import (conjugate_exponent, derive_params, gamma_alpha, gbar_alpha,
                     radial_closed_forms, scaling_relation)
from .quadrature import sphere_area

# inverse-iteration steps of one minimization
MAX_ITERS = 400


@dataclass(frozen=True)
class MinimizationConfig:
    grid: LineGrid = field(default_factory=lambda: LineGrid(12.0, 2001))


@dataclass(frozen=True)
class MinimizationResult:
    mu_q: float
    s_q_rad: float
    profile: LineProfile
    iterations: int
    el_residual: float
    converged: bool
    degenerate: bool = False
    status: str = "residual"  # residual | stalled | max_iters


def _stencil(grid: LineGrid, gbar: float, gam: float):
    """The four numbers of the line form h (D2^T D2 + 2 gbar D1^T D1 +
    gam^2 I) on the interior unknowns, which is Toeplitz but for its end
    rows: the diagonal, the end rows' diagonal, and the first and second
    off-diagonals.  Each is computed with the floating-point operations of
    that sparse expression, so the form matches it bit for bit: D2 is a =
    1/h^2 off its diagonal and b = -2a on it, and with tau = ((2 gbar) t) t,
    t = 1/(2h), 2 gbar D1^T D1 is 2 tau on the diagonal (tau on the end
    rows) and -tau on the second off-diagonal."""
    h = grid.h
    a = 1.0 / h**2
    b = -2.0 * a
    t = 1.0 / (2.0 * h)
    tau = ((2.0 * gbar) * t) * t
    return (h * (a * a + b * b + a * a + 2.0 * tau + gam**2),
            h * (b * b + a * a + tau + gam**2), h * (b * a + a * b), h * (a * a - tau))


def _pentadiagonal(diag: np.ndarray, e1: float, e2: float, grid: LineGrid):
    """The symmetric DIA array with main diagonal `diag` and the constant
    bands e1 and e2 beside it, refused if an entry overflowed on `grid`.
    A DIA product sums each row in ascending column order, as the CSR
    product of the sparse formula does."""
    data = np.empty((5, diag.size))
    data[[0, 4]], data[[1, 3]], data[2] = e2, e1, diag
    if not np.all(np.isfinite(data)):
        raise GridError(f"the line form overflows on the grid with spacing "
                        f"h={grid.h!r} (L={grid.L}, N={grid.N})")
    return sp.dia_array((data, [-2, -1, 0, 1, 2]), shape=(diag.size, diag.size))


def _full_form(grid: LineGrid, gbar: float, gam: float):
    """The line form on the N - 2 interior unknowns, between the hard zeros
    at s = -L and L, as a DIA array, and their nodes."""
    d, d_end, e1, e2 = _stencil(grid, gbar, gam)
    diag = np.full(grid.N - 2, d)
    diag[[0, -1]] = d_end
    return _pentadiagonal(diag, e1, e2, grid), grid.s[1:-1]


def _even_form(grid: LineGrid, gbar: float, gam: float):
    """The line form on the even vectors, P^T A P with P the map
    x_full[c +- k] = x[k] of the K = (N - 1)/2 unknowns on s >= 0 to the
    M = 2c + 1 interior ones, as a DIA array; its banded Cholesky solve;
    the weights (h, 2h, ..., 2h) of the mass h sum |P x|^q; the nodes; and
    the unfold, P x between the hard zeros, exactly even.  Each entry is
    twice the entry of A (A[c, c] alone at (0, 0)), and the pair
    A[c - 1, c + 1], A[c + 1, c - 1], which both fold onto (1, 1), adds
    2 e2 there; on K = 2 that is the end row's entry."""
    d, d_end, e1, e2 = _stencil(grid, gbar, gam)
    K = (grid.N - 1) // 2
    diag = np.full(K, 2.0 * d)
    diag[-1] = 2.0 * d_end
    # a sum of two finite entries can overflow: refused with the rest
    with np.errstate(over="ignore"):
        diag[1] += 2.0 * e2
    diag[0] = d
    A = _pentadiagonal(diag, 2.0 * e1, 2.0 * e2, grid)
    # DIA rows 4, 3, 2 are the upper bands in LAPACK's layout
    cb = sla.cholesky_banded(A.data[:1:-1], lower=False)
    weights = np.full(K, 2.0 * grid.h)
    weights[0] = grid.h
    return (A, lambda r: sla.cho_solve_banded((cb, False), r, check_finite=False),
            weights, grid.s[K:-1], lambda x: np.pad(np.concatenate((x[:0:-1], x)), 1))


def line_data(n: int, alpha: float) -> Tuple[bool, float, float]:
    """All that `minimize_mu_q` reads of alpha: whether the problem is
    degenerate, and the floats gbar and gamma.  Both depend on alpha only
    through (alpha - 2)^2, so alpha and 4 - alpha share them when their
    floats round alike, and with them one solve.  It is degenerate (a zero
    infimum) iff the float gamma is 0.0: at alpha = 4 - n and n, and at
    the alphas next to them whose (alpha - 2)^2 rounds to (n - 2)^2, which
    read the same gbar and gamma as 4 - n or n."""
    a = float(alpha)
    gam = float(gamma_alpha(n, a))
    return gam == 0.0, float(gbar_alpha(n, a)), gam


def _refuse_degenerate(n: int, alpha: float) -> None:
    """Refuse the degenerate alphas of `line_data`, which have no minimizer."""
    if line_data(n, alpha)[0]:
        raise ParameterDomainError(f"gamma rounds to 0 at alpha={alpha!r} (4 - n or n, "
                                   "or next to one): the degenerate line problem "
                                   "that minimize_mu_q answers with 0")


def minimize_mu_q(n: int, alpha: float, q: float, cfg: MinimizationConfig) -> MinimizationResult:
    """Inverse iteration (`descent.inverse_iteration`) on the even vectors
    with h*sum|w|^q = 1, on `_even_form`'s folded form, its solve as
    preconditioner, its mass weights, and the sech^2 bump on its nodes as
    start; the profile is the iterate's unfold.  The residual rule reads
    the folded residual P^T r, 2 r off the centre node.  The value is the
    kernel's x.(Ax): the profile's quotient, an upper bound on the discrete
    infimum, up to rounding that cancels terms of size 1/h^4 (3.9e-8 of the
    value at (5, 0, 3) on the default grid, 2.3e-6 at N = 8001)."""
    params = derive_params(n, float(alpha), float(q))
    grid = cfg.grid
    degenerate, gbar, gam = line_data(n, alpha)
    if degenerate:
        zero = LineProfile(grid=grid, values=np.zeros(grid.N), params=params)
        return MinimizationResult(
            mu_q=0.0, s_q_rad=0.0, profile=zero,
            iterations=0, el_residual=0.0, converged=True, degenerate=True,
        )
    A, solve, weights, nodes, unfold = _even_form(grid, gbar, gam)
    q = float(q)
    with np.errstate(over="ignore"):  # sech^2 reads 0.0 where cosh^2 overflows
        x0 = 1.0 / np.cosh(nodes) ** 2
    # the form is finite, and inverse_iteration refuses a non-finite residual
    run = inverse_iteration(A, solve, x0, weights, q, MAX_ITERS)

    return MinimizationResult(
        mu_q=run.value,
        s_q_rad=sphere_area(n) ** ((q - 2.0) / q) * run.value,
        profile=LineProfile(grid=grid, values=unfold(run.x), params=params),
        iterations=run.iterations,
        el_residual=run.residual,
        converged=run.status == "residual",
        status=run.status,
    )


# ---------------------------------------------------------------------------
# brute-force oracle

_ORACLE_STARTS = 200
_ORACLE_MAX_STEPS = 100
_ORACLE_STEP_TOL = 1e-14  # a step that lowers the best value by this much, relative, ends the run
_ORACLE_HALVINGS = 40  # cap on the backtracking halvings of one step
_ORACLE_CHUNK = 25  # starts whose Hessians are assembled at a time


def brute_force_oracle(n: int, alpha: float, q: float, coarse_grid: LineGrid) -> float:
    """Multistart damped Newton on the same discrete quotient, over the full
    (not only even) interior unknowns, run in the Cholesky-whitened basis
    z = C^T w (A = C C^T, w = U z) where the quadratic form is |z|^2.

    All 200 starts (three bumps and 197 seeded normal vectors) advance in
    lockstep on f(z) = log|z|^2 - (2/q) log m, m = h sum |w_i|^q, kept on
    |z| = 1.  Each step solves the Newton system, with z z^T added to the
    Hessian so that the scale direction is not singular, falls back to the
    gradient where the Newton direction does not descend, and halves the
    step, at most 40 times, until the value drops strictly.  The run ends
    when a step lowers the best value by at most 1e-14 relative, or after
    100 steps (Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 3
    and 6).  The rule reads the best value only, so a start still
    descending toward a lower state ends with the rest.  Deterministic:
    fixed internal seeds, best value wins.  Overflow is a `GridError`.

    Its domain is the points whose minimizer the N <= 41 grid resolves, as
    criterion 04's.  At (n, alpha, q) = (6, 1, 4) and (8, -2, 3.5) it finds
    states at the hard zero s = -L, below the even solver's value, that
    grid refinement does not keep.  It refuses the degenerate alphas of
    `line_data` (gamma rounds to 0: 4 - n, n and the alphas next to them),
    where `minimize_mu_q` answers its zero result."""
    if coarse_grid.N > 41:
        raise ParameterDomainError("oracle grids are capped at N = 41")
    _refuse_degenerate(n, alpha)
    params = derive_params(n, float(alpha), float(q))
    gam = float(params.gamma)
    gbar = float(params.gbar)
    h = coarse_grid.h
    q = float(q)
    A, s = _full_form(coarse_grid, gbar, gam)
    M = s.size

    C = np.linalg.cholesky(A.toarray())  # A = C C^T, z = C^T w
    U = sla.solve_triangular(C, np.eye(M), lower=True, trans="T")  # w = U z

    K = _ORACLE_STARTS
    W0 = np.empty((K, M))
    with np.errstate(over="ignore"):  # sech^2 reads 0.0 where cosh^2 overflows
        W0[0] = 1.0 / np.cosh(s) ** 2
    W0[1] = np.exp(-(s**2))
    W0[2] = 1.0 - (s / coarse_grid.L) ** 2
    rng = np.random.default_rng(0)
    W0[3:] = rng.standard_normal((K - 3, M))

    def quotient(Z):
        W = Z @ U.T
        mass = np.maximum(h * np.sum(np.abs(W) ** q, axis=1), 1e-300)
        return np.einsum("ij,ij->i", Z, Z) / mass ** (2.0 / q), W, mass

    def normalized(Z):
        norms = np.linalg.norm(Z, axis=1)
        Z = Z / norms[:, None]
        vals, W, mass = quotient(Z)
        if not np.all(np.isfinite(norms) & np.isfinite(mass) & np.isfinite(vals)):
            raise GridError(f"the line quotient overflows on the grid with spacing "
                            f"h={h!r} (L={coarse_grid.L}, N={coarse_grid.N})")
        return Z, vals, W, mass

    Z, vals, W, mass = normalized(W0 @ C)
    eye = np.eye(M)
    for _ in range(_ORACLE_MAX_STEPS):
        a = np.abs(W) ** (q - 2.0)
        Ug = (a * W) @ U  # U^T g, g = |w|^(q-2) w
        grad = 2.0 * Z - (2.0 * h / mass)[:, None] * Ug
        step = np.empty_like(Z)
        for c in range(0, K, _ORACLE_CHUNK):
            k = slice(c, c + _ORACLE_CHUNK)
            z, r = Z[k], h / mass[k]
            # the Hessian of f on |z| = 1 plus z z^T, built in place; v v^T
            # is its term (2 q h^2 / m^2) (U^T g)(U^T g)^T
            v = Ug[k] * (math.sqrt(2.0 * q) * r)[:, None]
            hess = U.T @ (a[k][:, :, None] * U)
            hess *= (-2.0 * (q - 1.0) * r)[:, None, None]
            hess += v[:, :, None] * v[:, None, :]
            hess -= 3.0 * z[:, :, None] * z[:, None, :]
            hess += 2.0 * eye
            step[k] = np.linalg.solve(hess, -grad[k][:, :, None])[:, :, 0]
        slope = np.einsum("ij,ij->i", step, grad)
        step = np.where((slope < 0.0)[:, None], step, -grad)
        prev_best = float(np.min(vals))
        rest = np.arange(K)  # the starts whose value has not dropped yet
        for t in 0.5 ** np.arange(_ORACLE_HALVINGS):
            trial = Z[rest] + t * step[rest]
            take = quotient(trial)[0] < vals[rest]
            Z[rest[take]] = trial[take]
            rest = rest[~take]
            if rest.size == 0:
                break
        Z, vals, W, mass = normalized(Z)
        if prev_best - float(np.min(vals)) <= _ORACLE_STEP_TOL * abs(prev_best):
            break

    return float(np.min(vals))


# ---------------------------------------------------------------------------
# consistency laws


@dataclass(frozen=True)
class ConsistencyReport:
    conjugate_relerr: Optional[float]
    sandwich_ok: bool
    concavity_ok: bool
    asymptotic_ratio_err: Optional[Tuple[float, float]]
    n2_ratio_const_err: Optional[float]


def _scaled_grid(n: int, alpha: float, base: LineGrid) -> LineGrid:
    """Shrink the truncation window to the natural concentration scale of
    large-|alpha| minimizers (the conjugate exponent sits near 2)."""
    scale = abs(alpha - 2.0) / (n - 2 if n >= 3 else 2)
    if scale <= 1.0:
        return base
    return LineGrid(max(base.L / scale, 1.5), base.N)


def consistency_suite(n: int, alpha: float, q: float, cfg: MinimizationConfig) -> ConsistencyReport:
    """The scaling, sandwich, concavity and asymptotic laws at (n, alpha, q);
    the degenerate alphas of `line_data` are refused."""
    q = float(q)
    alpha = float(alpha)
    _refuse_degenerate(n, alpha)
    # one converged solve per line problem, exponent and grid: the one at
    # (n, alpha, q) serves the conjugacy and sandwich laws, a concavity
    # point p = q and, at alpha = 2, the asymptotic reference
    solves = {}

    def solve(a: float, p: float = q, grid: LineGrid = cfg.grid) -> MinimizationResult:
        key = (line_data(n, a), p, grid)
        if key not in solves:
            res = minimize_mu_q(n, a, p, replace(cfg, grid=grid))
            if not res.converged:
                raise UnconvergedResultError(
                    f"solver did not converge at alpha={a}, q={p} ({res.status})")
            solves[key] = res
        return solves[key]

    conjugate_relerr: Optional[float] = None
    if n >= 3 and alpha != 2.0:
        at = float(conjugate_exponent(n, alpha))
        if at != 4.0 - n:
            tau = float(scaling_relation(n, alpha, at).tau)
            s_a = solve(alpha).s_q_rad
            # the rescaled minimizer is |tau| times wider; match the window
            grid_t = LineGrid(cfg.grid.L * abs(tau), cfg.grid.N)
            s_t = solve(at, grid=grid_t).s_q_rad
            pred = abs(tau) ** (3.0 + 2.0 / q) * s_t
            conjugate_relerr = abs(s_a - pred) / s_a

    # sandwich bound against a nearby exponent: comparing through the
    # rescaling identity and the second/first-order ratio constant gives
    #   [1 -+ 4|g|/(n-at)^2] S(at)  bracketing  |tau(at,alpha)|^{3+2/q} S(alpha)
    # with the same window on both sides
    at = alpha + 0.1
    sandwich_ok = True
    if at != 4.0 - n and at != float(n):
        g = abs(float(scaling_relation(n, alpha, at).g))
        tau_rev = float(scaling_relation(n, at, alpha).tau)
        s_a = solve(alpha).s_q_rad
        s_t = solve(at).s_q_rad
        mid = abs(tau_rev) ** (3.0 + 2.0 / q) * s_a
        lo = (1.0 - 4.0 * g / (n - at) ** 2) * s_t
        hi = (1.0 + 4.0 * g / (n - at) ** 2) * s_t
        slack = 1e-6 * s_t
        sandwich_ok = (lo <= mid + slack) and (mid <= hi + slack)

    # discrete concavity of p -> p log S(p), S(p) = sqrt(mu_p)
    p_lo = max(2.2, q - 1.0)
    p_grid = np.linspace(p_lo, q + 1.0, 5)
    f = []
    for p in p_grid:
        f.append(0.5 * p * math.log(solve(alpha, float(p)).mu_q))
    f = np.asarray(f)
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    concavity_ok = bool(np.all(second <= 1e-6))

    asymptotic_ratio_err: Optional[Tuple[float, float]] = None
    if n >= 3:
        s2 = solve(2.0).s_q_rad
        ref = s2 / (n - 2) ** (3.0 + 2.0 / q)
        errs = []
        for a_big in (30.0, 60.0):
            s_big = solve(a_big, grid=_scaled_grid(n, a_big, cfg.grid)).s_q_rad
            ratio = s_big / abs(a_big - 2.0) ** (3.0 + 2.0 / q)
            errs.append(abs(ratio - ref) / ref)
        asymptotic_ratio_err = (errs[0], errs[1])

    n2_ratio_const_err: Optional[float] = None
    if n == 2:
        ratios = []
        for a in (-6.0, 0.0, 10.0):
            s_a = solve(a, grid=_scaled_grid(2, a, cfg.grid)).s_q_rad
            ratios.append(s_a / abs(a - 2.0) ** (3.0 + 2.0 / q))
        ratios = np.asarray(ratios)
        n2_ratio_const_err = float((ratios.max() - ratios.min()) / ratios.mean())

    return ConsistencyReport(
        conjugate_relerr=conjugate_relerr,
        sandwich_ok=sandwich_ok,
        concavity_ok=concavity_ok,
        asymptotic_ratio_err=asymptotic_ratio_err,
        n2_ratio_const_err=n2_ratio_const_err,
    )


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class ScanRow:
    alpha: float
    mu_q: float
    s_q_rad: float
    s2_rad: float
    rellich: float
    sq_positive: bool
    bs_closed_form: bool
    bs_certificate: bool
    converged: bool


def scan_row(n: int, q: float, alpha: float,
             res: MinimizationResult | Exception) -> ScanRow:
    """The `scan` row of alpha from `res`, the line solve of an alpha with
    the same `line_data` (the profile's alpha is not read), or the
    exception that solve raised, which is raised again after the row's
    closed forms.  The closed forms, the Rellich constant and the
    predicates come from alpha itself."""
    from .phase import closed_form_breaking, symmetry_certificate
    from .spectrum import full_sphere, positivity_predicates, rellich_constant

    model = full_sphere(n)
    forms = radial_closed_forms(n, alpha)
    preds = positivity_predicates(model, alpha)
    if isinstance(res, Exception):
        raise res
    bs_cf = closed_form_breaking(n, alpha, q)
    bs_cert = False
    # the second-variation test needs q > 2; below it closed_form_breaking
    # is False as well
    if res.converged and not res.degenerate and q > 2:
        bs_cert = symmetry_certificate(res).certified_broken
    return ScanRow(
        alpha=float(alpha),
        mu_q=res.mu_q,
        s_q_rad=res.s_q_rad,
        s2_rad=float(forms.s2_rad),
        rellich=float(rellich_constant(model, alpha)),
        sq_positive=preds.sq_positive,
        bs_closed_form=bs_cf,
        bs_certificate=bs_cert,
        converged=res.converged,
    )

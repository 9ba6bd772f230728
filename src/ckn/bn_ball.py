"""Clamped radial minimization on the unit ball:

    s_lambda = inf ( int_B |Delta u|^2 - lambda int_B |grad u|^2 )
                   / ( int_B |u|^(2**) )^(2/2**)

over radial u with u(1) = u'(1) = 0, together with the eigenvalue
lambda_21 = inf int|Delta u|^2 / int|grad u|^2 (>= n^2/4), Pohozaev
residuals of the associated Euler-Lagrange problem, and a lambda probe
for critical-dimension behavior.

Discretization: the origin plus log-spaced nodes r_1 = R_MIN < ... <
r_M = 1, with three-point stencils; the clamped end is eliminated
(u_M = 0, ghost u_(M+1) = u_(M-1)), and regularity at the origin uses
even reflection (u_(-1) = u_1, Delta u(0) = 2n (u_1-u_0)/r_1^2). The
boundary row Delta u(1) = 2 u_(M-1)/h^2 enters the energy with its
half-cell weight; dropping it would lose the clamped stiffness."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .descent import inverse_iteration, upper_bands
from .errors import (ConsistencyError, DegenerateIdentityError,
                     ParameterDomainError, UnconvergedResultError)
from .grids import RadialProfile
from .params import require_n5, sstar
from .quadrature import sphere_area


# the innermost nonzero node of the ball grid
R_MIN = 1e-6


@dataclass(frozen=True)
class BNConfig:
    n: int = 6
    lam: float = 1.0
    N_r: int = 2001

    def __post_init__(self):
        require_n5(self.n)
        if not math.isfinite(self.lam):
            raise ParameterDomainError(f"lambda={self.lam!r} must be finite")
        if self.N_r < 9:
            raise ParameterDomainError("need at least 9 radial nodes")


@dataclass(frozen=True)
class BNReport:
    s_lambda: float
    lambda21: float
    profile: RadialProfile
    sstar_num: float
    attained_evidence: str
    converged: bool
    iterations: int
    el_residual: float
    pohozaev_A_residual: float = float("nan")
    r3_residual: Optional[float] = None
    status: str = "residual"  # residual | stalled | max_iters


def _bn_nodes(N_r: int) -> np.ndarray:
    """Geometric radial grid: the origin node plus log-spaced nodes from
    R_MIN up to the clamped end r = 1.

    Log spacing resolves a concentrating bubble with the same number of
    nodes at every scale above R_MIN, which is what lets the minimization
    track the (non-attained) concentration limit instead of stalling an
    O(grid) distance above it."""
    M = N_r - 1
    r = np.empty(M + 1)
    r[0] = 0.0
    r[1:] = np.exp(np.linspace(math.log(R_MIN), 0.0, M))
    return r


def _assemble_bn(n: int, r: np.ndarray):
    """Maps D: u -> Delta u and C: u -> u_r at the nodes.

    Three-point stencils on the (generally nonuniform) grid; even
    reflection at the origin and a ghost node enforcing u'(1) = 0 at the
    clamped end."""
    M = r.size - 1
    h = np.diff(r)
    hm, hp = h[:-1], h[1:]  # spacing below and above r_j, j = 1..M-1
    den = hm * hp * (hm + hp)
    # weights of u'' and u' on the nodes j-1, j, j+1
    s2 = (2.0 * hp / den, -2.0 * (hm + hp) / den, 2.0 * hm / den)
    s1 = (-(hp**2) / den, (hp**2 - hm**2) / den, hm**2 / den)
    c1 = (n - 1) / r[1:-1]
    lap = [s2[k] + c1 * s1[k] for k in range(3)]
    # origin: Delta u(0) = 2n (u_1 - u_0)/r_1^2; clamped end: u_M = 0 and
    # the mirrored ghost give Delta u(1) = 2 u_(M-1)/h^2.  Built on all M+1
    # nodes; dropping column M eliminates u_M.
    a = 2.0 * n / r[1] ** 2
    D = sp.diags([np.append(lap[0], 2.0 / h[-1] ** 2),
                  np.concatenate(([-a], lap[1], [0.0])),
                  np.append(a, lap[2])], [-1, 0, 1], format="csr")[:, :M]
    C = sp.diags([np.append(s1[0], 0.0), np.concatenate(([0.0], s1[1], [0.0])),
                  np.append(0.0, s1[2])], [-1, 0, 1], format="csr")[:, :M]
    return D, C


def _cell_weights(n: int, r: np.ndarray, radial_power: float = 0.0) -> np.ndarray:
    """Cell-average weights omega_n * int_cell s^(n-1+radial_power) ds, one
    per node, the cells split at the midpoints.

    They are strictly positive even at r = 0 — with a zero weight on the
    origin row a discrete fundamental-solution mode slips through the
    Laplacian for free and collapses the lambda_21 quotient."""
    mid = np.concatenate(([0.0], 0.5 * (r[:-1] + r[1:]), [1.0]))
    pw = n + radial_power
    return sphere_area(n) * (mid[1:] ** pw - mid[:-1] ** pw) / pw


def _gram(A: sp.csr_matrix, w: np.ndarray) -> sp.csr_matrix:
    """The form u -> sum_j w_j (A u)_j^2."""
    return (A.T @ sp.diags(w) @ A).tocsr()


def _quadratic_forms(n: int, r: np.ndarray):
    """Energy form with the oscillation penalty sum w_j (delta^2 (Delta
    u))_j^2 over the interior nodes, the gradient form, the map C: u -> u_r
    it weighs, and the weights.

    The penalty is O(spacing^4) relative on resolved profiles but O(1) on
    grid-scale spikes. Without it a two-node bubble beats the Sobolev
    constant: pointwise finite differences underestimate the Delta-energy
    of an unresolved peak while the |u|^(2**) mass sees its full height."""
    D, C = _assemble_bn(n, r)
    w = _cell_weights(n, r)
    T = D[:-2] - 2.0 * D[1:-1] + D[2:]
    return _gram(D, w) + _gram(T, w[1:-1]), _gram(C, w), C, w


def _make_spd_solver(A: sp.csr_matrix):
    """Banded Cholesky solve with symmetric Jacobi scaling.

    The r^(n-1) measure makes the raw forms ill-conditioned by many orders
    of magnitude near the origin; scaling to unit diagonal keeps the
    factorization accurate on fine grids.  The penalty's delta^2 widens the
    forms to four bands above the diagonal."""
    s = 1.0 / np.sqrt(A.diagonal())
    cb = cholesky_banded(upper_bands(sp.diags(s) @ A @ sp.diags(s), 4))
    pbtrs, = get_lapack_funcs(("pbtrs",), (cb,))

    def solve(rhs: np.ndarray) -> np.ndarray:
        # LAPACK's banded Cholesky solve, as cho_solve_banded calls it: the
        # factor is finite, and inverse_iteration refuses a non-finite rhs
        x, info = pbtrs(cb, s * rhs, lower=0, overwrite_b=1)
        if info != 0:
            raise ValueError(f"banded Cholesky solve failed (pbtrs info {info})")
        return s * x

    return solve


# inverse iterations lambda_21 may take; it needs 14-18 on 201-4001 nodes
LAMBDA21_MAX_ITERS = 100


def _lambda21(B: sp.csr_matrix, C: sp.csr_matrix, w: np.ndarray) -> float:
    """Smallest eigenvalue of int|Delta u|^2 / int|grad u|^2: the shared
    inverse iteration at p = 2 on sum w (C u)^2 = 1, from a sine start."""
    M = B.shape[0]
    x0 = np.sin(math.pi * np.arange(1, M + 1) / (M + 1))
    run = inverse_iteration(B, _make_spd_solver(B), x0, w, 2.0,
                            LAMBDA21_MAX_ITERS, phi=C)
    if run.status != "residual":
        raise UnconvergedResultError(
            f"lambda21 iteration {run.status} after {run.iterations} steps "
            f"(residual {run.residual:.3g})")
    return run.value


@dataclass(frozen=True)
class BallForms:
    """What a minimization on the ball reads that does not depend on
    lambda: the nodes `_bn_nodes(N_r)`, the energy and gradient forms B and
    G and the cell weights w of `_quadratic_forms` on them at dimension n,
    and lambda_21."""
    n: int
    r: np.ndarray
    B: sp.csr_matrix
    G: sp.csr_matrix
    w: np.ndarray
    lambda21: float


def ball_forms(n: int, N_r: int = 2001) -> BallForms:
    """The lambda-independent data of the ball problem at (n, N_r), built
    once for every lambda it serves.  A lambda_21 below its floor n^2/4
    means the discretization is wrong, whatever lambda is asked for."""
    r = _bn_nodes(N_r)
    B, G, C, w = _quadratic_forms(n, r)
    lambda21 = _lambda21(B, C, w)
    if not lambda21 >= 0.25 * n**2 * (1.0 - 1e-6):
        raise ConsistencyError(f"lambda21={lambda21} below n^2/4={0.25 * n**2}")
    return BallForms(n, r, B, G, w, lambda21)


def bn_lambda21(n: int, N_r: int = 2001) -> float:
    """lambda_21 on the grid `_bn_nodes(N_r)`."""
    return ball_forms(n, N_r).lambda21


def _bn_inits(n: int, r: np.ndarray) -> List[np.ndarray]:
    """Deterministic starting profiles: a broad clamped bump plus truncated
    bubbles at several concentration scales."""
    inits = [(1.0 - r[:-1] ** 2) ** 3]
    cut = np.clip((0.75 - r[:-1]) / 0.25, 0.0, 1.0)
    chi = cut**2 * (3.0 - 2.0 * cut)
    for eps in (0.2, 0.1, 0.05, 0.02, 1e-3, 1e-4):
        inits.append(chi * np.power(1.0 + (r[:-1] / eps) ** 2, 0.5 * (4 - n)))
    return inits


# iterations every start runs before only the lowest continues; chosen so
# that s_lambda stays within 1e-7 relative of running all starts to the end
# (10 and 40 both miss that at n = 5, lambda = 0)
TOURNAMENT_ITERS = 20
# iterations the minimization may take in all, the tournament included
MAX_ITERS = 600


def minimize_bn(cfg: BNConfig, forms: Optional[BallForms] = None) -> BNReport:
    """The minimization at cfg, on `forms` = `ball_forms(cfg.n, cfg.N_r)`,
    which a lambda sweep builds once and passes to each of its rows; by
    default they are built here."""
    if forms is None:
        forms = ball_forms(cfg.n, cfg.N_r)
    elif (forms.n, forms.r.size) != (cfg.n, cfg.N_r):
        raise ValueError(f"forms of (n, N_r) = ({forms.n}, {forms.r.size}) "
                         f"given for ({cfg.n}, {cfg.N_r})")
    n, lam, r, lambda21 = cfg.n, float(cfg.lam), forms.r, forms.lambda21
    if lam >= lambda21:
        raise ParameterDomainError(
            f"lambda={lam} >= lambda21={lambda21:.6f}: quotient not coercive"
        )

    A = (forms.B - lam * forms.G).tocsr()
    solve = _make_spd_solver(A)
    # the clamped node u_M = 0 carries no mass
    weights, p = forms.w[:-1], 2.0 * n / (n - 4)
    k = TOURNAMENT_ITERS
    best = min((inverse_iteration(A, solve, u0, weights, p, k)
                for u0 in _bn_inits(n, r)),
               key=lambda run: run.value)  # ties to the earliest start
    if best.status == "max_iters":
        rest = inverse_iteration(A, solve, best.x, weights, p, MAX_ITERS - k)
        best = replace(rest, iterations=k + rest.iterations)
    u, S = best.x, best.value
    # a stall at a residual floor <= 1e-3 still counts as converged: the
    # n = 5, lambda = 0 run of criterion 09a stalls there (the infimum is not
    # attained) and must read converged
    converged = best.status == "residual" or (
        best.status == "stalled" and best.residual <= 1e-3)
    if u[np.argmax(np.abs(u))] < 0:
        u = -u

    sstar_num = sstar(n)

    if S < sstar_num * (1.0 - 3e-3):
        evidence = "dips-below"
    elif abs(S - sstar_num) <= 3e-3 * sstar_num:
        evidence = "flat-at-sstar"
    else:
        evidence = "inconclusive"

    profile = RadialProfile(nodes=r, values=np.append(u, 0.0), n=n)
    report = BNReport(
        s_lambda=S,
        lambda21=lambda21,
        profile=profile,
        sstar_num=sstar_num,
        attained_evidence=evidence,
        converged=converged,
        iterations=best.iterations,
        el_residual=best.residual,
        status=best.status,
    )
    # the identities hold for a minimizer, and below S** the infimum is
    # attained; at S** minimizing sequences may concentrate and the profile
    # solves nothing (Brezis-Nirenberg)
    if lam > 0.0 and converged and evidence == "dips-below":
        res = pohozaev_residuals(report, lam)
        report = replace(
            report,
            pohozaev_A_residual=res["res_A"],
            r3_residual=res.get("res_r3"),
        )
    return report


def pohozaev_residuals(report: BNReport, lam: float) -> dict:
    """Residuals of the boundary identity 2 lambda int|grad u|^2 =
    omega_n u_rr(1)^2 on the multiplier-normalized solution, plus the
    five-term r^3 identity in dimension 5."""
    n, lam = report.profile.n, float(lam)
    if lam == 0.0:
        raise DegenerateIdentityError(
            "the boundary identity degenerates to u_rr(1) = 0 at lambda = 0; "
            "no solution exists there"
        )
    if not report.converged:
        raise ParameterDomainError("residuals need a converged minimizer")
    two_ss = 2.0 * n / (n - 4)
    # v has unit critical mass and multiplier s_lambda; u = S^(1/(2**-2)) v
    # solves the Euler-Lagrange problem with multiplier 1
    scale = report.s_lambda ** (1.0 / (two_ss - 2.0))
    vals = np.asarray(report.profile.values, dtype=float) * scale
    nodes = np.asarray(report.profile.nodes, dtype=float)
    M = vals.size - 1
    u = vals[:-1]

    # the identities hold for the unpenalized forms
    D, C = _assemble_bn(n, nodes)
    w = _cell_weights(n, nodes)
    grad_sq = float(u @ (_gram(C, w) @ u))
    # one-sided u_rr(1) using u(1) = u'(1) = 0 and two interior values
    d1 = nodes[M] - nodes[M - 1]
    d2 = nodes[M] - nodes[M - 2]
    lhs_mat = np.array([[d1**2 / 2.0, -(d1**3) / 6.0], [d2**2 / 2.0, -(d2**3) / 6.0]])
    u_rr1 = float(np.linalg.solve(lhs_mat, np.array([vals[M - 1], vals[M - 2]]))[0])
    lhs = 2.0 * lam * grad_sq
    res_A = abs(lhs - sphere_area(n) * u_rr1**2) / abs(lhs)
    out = {"res_A": res_A}

    if n == 5:
        w2 = _cell_weights(n, nodes, radial_power=2.0)
        t1 = 5.0 * float(u @ (_gram(D, w2) @ u))
        t2 = 6.0 * grad_sq
        t3 = 2.0 * lam * grad_sq
        t4 = lam * float(u @ (_gram(C, w2) @ u))
        t5 = 1.4 * float(w2[:-1] @ np.abs(u) ** 10.0)
        scale_r3 = max(abs(t) for t in (t1, t2, t3, t4, t5))
        out["res_r3"] = abs(t1 - t2 - t3 + t4 + t5) / scale_r3
    return out


@dataclass(frozen=True)
class ProbeRow:
    lam: float
    s_lambda: float
    sstar_num: float
    below_sstar: bool
    pohozaev_A: float
    converged: bool


def dimension_probe(cfg: BNConfig, forms: Optional[BallForms] = None) -> ProbeRow:
    """The probe row of one minimization at (cfg.n, cfg.lam), on `forms`
    as `minimize_bn` takes them."""
    rep = minimize_bn(cfg, forms)
    return ProbeRow(
        lam=float(cfg.lam),
        s_lambda=rep.s_lambda,
        sstar_num=rep.sstar_num,
        below_sstar=rep.attained_evidence == "dips-below",
        pohozaev_A=rep.pohozaev_A_residual,
        converged=rep.converged,
    )

"""Clamped radial minimization on the unit ball:

    s_lambda = inf ( int_B |Delta u|^2 - lambda int_B |grad u|^2 )
                   / ( int_B |u|^(2**) )^(2/2**)

over radial u with u(1) = u'(1) = 0, together with the eigenvalue
lambda_21 = inf int|Delta u|^2 / int|grad u|^2 (>= n^2/4), Pohozaev
residuals of the associated Euler-Lagrange problem, and a lambda probe
for critical-dimension behavior.

Discretization: uniform nodes r_j = j h on [0, 1]; the clamped end is
eliminated (u_M = 0, ghost u_(M+1) = u_(M-1)), and regularity at the
origin uses even reflection (u_(-1) = u_1, Delta u(0) = 2n (u_1-u_0)/h^2).
The boundary row Delta u(1) = 2 u_(M-1)/h^2 enters the energy with its
half trapezoid weight; dropping it would lose the clamped stiffness."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .descent import inverse_iteration
from .errors import (ConsistencyError, DegenerateIdentityError,
                     ParameterDomainError)
from .grids import RadialProfile
from .params import require_n5, sstar
from .quadrature import sphere_area


@dataclass(frozen=True)
class BNConfig:
    n: int = 6
    lam: float = 1.0
    N_r: int = 2001
    r_min: float = 1e-6
    stab: float = 1.0
    max_iters: int = 600

    def __post_init__(self):
        require_n5(self.n)
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

    def as_dict(self) -> dict:
        """Every field but the profile."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "profile"}


def _bn_nodes(N_r: int, r_min: float) -> np.ndarray:
    """Geometric radial grid: the origin node plus log-spaced nodes from
    r_min up to the clamped end r = 1.

    Log spacing resolves a concentrating bubble with the same number of
    nodes at every scale above r_min, which is what lets the minimization
    track the (non-attained) concentration limit instead of stalling an
    O(grid) distance above it."""
    if not 0.0 < r_min < 0.1:
        raise ParameterDomainError(f"need 0 < r_min < 0.1, got {r_min}")
    M = N_r - 1
    r = np.empty(M + 1)
    r[0] = 0.0
    r[1:] = np.exp(np.linspace(math.log(r_min), 0.0, M))
    return r


def _assemble_bn(n: int, r: np.ndarray, radial_power: float = 0.0):
    """Maps D: u -> Delta u and C: u -> u_r at the nodes, plus cell-average
    weights omega_n * int_cell s^(n-1+radial_power) ds.

    Three-point stencils on the (generally nonuniform) grid; even
    reflection at the origin and a ghost node enforcing u'(1) = 0 at the
    clamped end. The weights are strictly positive even at r = 0 — with a
    zero weight on the origin row a discrete fundamental-solution mode
    slips through the Laplacian for free and collapses the lambda_21
    quotient."""
    M = r.size - 1
    rows_d, cols_d, vals_d = [], [], []
    # origin: Delta u(0) = 2n (u_1 - u_0)/r_1^2
    rows_d += [0, 0]
    cols_d += [0, 1]
    vals_d += [-2.0 * n / r[1] ** 2, 2.0 * n / r[1] ** 2]
    rows_c, cols_c, vals_c = [], [], []
    for j in range(1, M):
        hm = r[j] - r[j - 1]
        hp = r[j + 1] - r[j]
        den = hm * hp * (hm + hp)
        # second derivative
        s2 = (2.0 * hp / den, -2.0 * (hm + hp) / den, 2.0 * hm / den)
        # first derivative
        s1 = (-(hp**2) / den, (hp**2 - hm**2) / den, (hm**2) / den)
        c1 = (n - 1) / r[j]
        for k, col in enumerate((j - 1, j, j + 1)):
            if col <= M - 1:
                rows_d.append(j)
                cols_d.append(col)
                vals_d.append(s2[k] + c1 * s1[k])
                rows_c.append(j)
                cols_c.append(col)
                vals_c.append(s1[k])
    # clamped end: u_M = 0, mirrored ghost -> Delta u(1) = 2 u_(M-1)/h^2
    h_end = r[M] - r[M - 1]
    rows_d.append(M)
    cols_d.append(M - 1)
    vals_d.append(2.0 / h_end**2)
    D = sp.csr_matrix((vals_d, (rows_d, cols_d)), shape=(M + 1, M))
    C = sp.csr_matrix((vals_c, (rows_c, cols_c)), shape=(M + 1, M))

    mid = np.empty(M + 2)
    mid[0] = 0.0
    mid[1:-1] = 0.5 * (r[:-1] + r[1:])
    mid[-1] = 1.0
    pw = n + radial_power
    w = sphere_area(n) * (mid[1:] ** pw - mid[:-1] ** pw) / pw
    return D, C, w


def _quadratic_forms(n: int, r: np.ndarray, radial_power: float = 0.0, stab: float = 0.0):
    """Energy and gradient forms; `stab` adds the oscillation penalty
    stab * sum w_j (delta^2 (Delta u))_j^2.

    The penalty is O(spacing^4) relative on resolved profiles but O(1) on
    grid-scale spikes. Without it a two-node bubble beats the Sobolev
    constant: pointwise finite differences underestimate the Delta-energy
    of an unresolved peak while the |u|^(2**) mass sees its full height."""
    D, C, w = _assemble_bn(n, r, radial_power)
    W = sp.diags(w)
    B = (D.T @ W @ D).tocsr()
    if stab > 0.0:
        M = r.size - 1
        rows, cols, vals = [], [], []
        for j in range(1, M):
            for col, val in ((j - 1, 1.0), (j, -2.0), (j + 1, 1.0)):
                rows.append(j)
                cols.append(col)
                vals.append(val)
        S2 = sp.csr_matrix((vals, (rows, cols)), shape=(M + 1, M + 1))
        T = (S2 @ D).tocsr()
        B = (B + stab * (T.T @ W @ T)).tocsr()
    G = (C.T @ W @ C).tocsr()
    return B, G, w


def _to_banded_upper(A: sp.csr_matrix, bandwidth: int) -> np.ndarray:
    m = A.shape[0]
    ab = np.zeros((bandwidth + 1, m))
    Ad = A.todia()
    for off, data in zip(Ad.offsets, Ad.data):
        if 0 <= off <= bandwidth:
            ab[bandwidth - off, :] = data
    return ab


def _make_spd_solver(A: sp.csr_matrix, bandwidth: int = 2):
    """Banded Cholesky solve with symmetric Jacobi scaling.

    The r^(n-1) measure makes the raw forms ill-conditioned by many orders
    of magnitude near the origin; scaling to unit diagonal keeps the
    factorization accurate on fine grids."""
    d = A.diagonal()
    s = 1.0 / np.sqrt(d)
    As = (sp.diags(s) @ A @ sp.diags(s)).tocsr()
    cb = cholesky_banded(_to_banded_upper(As, bandwidth))

    def solve(rhs: np.ndarray) -> np.ndarray:
        return s * cho_solve_banded((cb, False), s * rhs)

    return solve


def bn_lambda21(
    n: int,
    N_r: int = 2001,
    r_min: float = 1e-6,
    stab: float = 1.0,
    max_iters: int = 400,
    tol: float = 1e-12,
) -> float:
    """Smallest eigenvalue of int|Delta u|^2 / int|grad u|^2 by power
    iteration on the inverse pencil."""
    r = _bn_nodes(N_r, r_min)
    M = r.size - 1
    B, G, _ = _quadratic_forms(n, r, stab=stab)
    solve = _make_spd_solver(B, bandwidth=4)
    x = np.sin(math.pi * np.arange(1, M + 1) / (M + 1))
    rho_old = 0.0
    for _ in range(max_iters):
        y = solve(G @ x)
        nrm = math.sqrt(float(y @ (G @ y)))
        x = y / nrm
        num = float(x @ (B @ x))
        den = float(x @ (G @ x))
        rho = num / den
        if abs(rho - rho_old) <= tol * abs(rho):
            break
        rho_old = rho
    return rho


def _bn_inits(n: int, r: np.ndarray) -> List[np.ndarray]:
    """Deterministic starting profiles: a broad clamped bump plus truncated
    bubbles at several concentration scales."""
    inits = [(1.0 - r[:-1] ** 2) ** 3]
    cut = np.clip((0.75 - r[:-1]) / 0.25, 0.0, 1.0)
    chi = cut**2 * (3.0 - 2.0 * cut)
    for eps in (0.2, 0.1, 0.05, 0.02, 1e-3, 1e-4):
        inits.append(chi * np.power(1.0 + (r[:-1] / eps) ** 2, 0.5 * (4 - n)))
    return inits


def minimize_bn(cfg: BNConfig) -> BNReport:
    n, lam = cfg.n, float(cfg.lam)
    r = _bn_nodes(cfg.N_r, cfg.r_min)
    lambda21 = bn_lambda21(n, cfg.N_r, cfg.r_min, cfg.stab)
    if not lambda21 >= 0.25 * n**2 * (1.0 - 1e-6):
        raise ConsistencyError(f"lambda21={lambda21} below n^2/4={0.25 * n**2}")
    if lam >= lambda21:
        raise ParameterDomainError(
            f"lambda={lam} >= lambda21={lambda21:.6f}: quotient not coercive"
        )

    B, G, w = _quadratic_forms(n, r, stab=cfg.stab)
    A = (B - lam * G).tocsr()
    solve = _make_spd_solver(A, bandwidth=4)
    # the clamped node u_M = 0 carries no mass
    runs = [inverse_iteration(A, solve, u0, w[:-1], 2.0 * n / (n - 4), cfg.max_iters)
            for u0 in _bn_inits(n, r)]
    best = min(runs, key=lambda run: run.value)  # ties to the earliest start
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
    if lam > 0.0 and converged:
        res = pohozaev_residuals(report, cfg)
        report = replace(
            report,
            pohozaev_A_residual=res["res_A"],
            r3_residual=res.get("res_r3"),
        )
    return report


def pohozaev_residuals(report: BNReport, cfg: BNConfig) -> dict:
    """Residuals of the boundary identity 2 lambda int|grad u|^2 =
    omega_n u_rr(1)^2 on the multiplier-normalized solution, plus the
    five-term r^3 identity in dimension 5."""
    n, lam = cfg.n, float(cfg.lam)
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

    B, G, w = _quadratic_forms(n, nodes)
    grad_sq = float(u @ (G @ u))
    # one-sided u_rr(1) using u(1) = u'(1) = 0 and two interior values
    d1 = nodes[M] - nodes[M - 1]
    d2 = nodes[M] - nodes[M - 2]
    lhs_mat = np.array([[d1**2 / 2.0, -(d1**3) / 6.0], [d2**2 / 2.0, -(d2**3) / 6.0]])
    u_rr1 = float(np.linalg.solve(lhs_mat, np.array([vals[M - 1], vals[M - 2]]))[0])
    lhs = 2.0 * lam * grad_sq
    res_A = abs(lhs - sphere_area(n) * u_rr1**2) / abs(lhs)
    out = {"res_A": res_A}

    if n == 5:
        B2, G2, w2 = _quadratic_forms(n, nodes, radial_power=2.0)
        t1 = 5.0 * float(u @ (B2 @ u))
        t2 = 6.0 * grad_sq
        t3 = 2.0 * lam * grad_sq
        t4 = lam * float(u @ (G2 @ u))
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


def dimension_probe(
    n: int, lambda_values: Sequence[float], cfg: Optional[BNConfig] = None
) -> List[ProbeRow]:
    if cfg is None:
        cfg = BNConfig(n=n)
    rows: List[ProbeRow] = []
    for lam in lambda_values:
        run = replace(cfg, n=n, lam=float(lam))
        rep = minimize_bn(run)
        rows.append(
            ProbeRow(
                lam=float(lam),
                s_lambda=rep.s_lambda,
                sstar_num=rep.sstar_num,
                below_sstar=rep.attained_evidence == "dips-below",
                pohozaev_A=rep.pohozaev_A_residual,
                converged=rep.converged,
            )
        )
    return rows

"""Perturbed critical minimization on the unit ball: grid assembly, the
second-order eigenvalue, the minimizer, and the integral identities."""
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ckn import bn_ball
from ckn.bn_ball import (BNConfig, BNReport, _bn_nodes, _quadratic_forms,
                         bn_lambda21, dimension_probe, minimize_bn,
                         pohozaev_residuals)
from ckn.descent import inverse_iteration, upper_bands
from ckn.errors import (DegenerateIdentityError, ParameterDomainError,
                        UnconvergedResultError)
from ckn.grids import RadialProfile

QUICK = dict(N_r=801)


def test_nodes_geometric_and_anchored():
    r = _bn_nodes(801)
    assert r[0] == 0.0
    assert r[1] == pytest.approx(1e-6, rel=1e-12)
    assert r[-1] == 1.0
    assert np.all(np.diff(r) > 0)
    # interior spacing is geometric
    ratios = np.diff(np.log(r[1:]))
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_config_refuses_a_non_finite_lambda(lam):
    with pytest.raises(ParameterDomainError):
        BNConfig(n=6, lam=lam)


@pytest.mark.parametrize("n,frozen", [(5, 33.217), (6, 40.705), (7, 48.829)])
def test_lambda21_frozen_values(n, frozen):
    lam = bn_lambda21(n, N_r=1201)
    assert lam == pytest.approx(frozen, rel=5e-3)
    assert lam >= n**2 / 4.0 * (1.0 - 1e-6)


def test_lambda21_stable_under_refinement():
    a = bn_lambda21(6, N_r=801)
    b = bn_lambda21(6, N_r=1601)
    assert abs(a - b) / b <= 5e-3


@pytest.mark.parametrize("N_r", [201, 801])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lambda21_matches_dense_pencil(n, N_r):
    B, G, _, _ = _quadratic_forms(n, _bn_nodes(N_r))
    m = B.shape[0]
    top = sla.eigh(G.toarray(), B.toarray(), eigvals_only=True,
                   subset_by_index=[m - 1, m - 1])[0]
    assert bn_lambda21(n, N_r=N_r) == pytest.approx(1.0 / top, rel=1e-7)


def _lambda21_error(n, N_r):
    """Relative error of `bn_lambda21` against its closed form: the square
    of the first positive zero of J_{n/2}, the clamped ball's radial
    buckling load."""
    import mpmath
    exact = float(mpmath.besseljzero(mpmath.mpf(n) / 2, 1) ** 2)
    return (bn_lambda21(n, N_r=N_r) - exact) / exact


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lambda21_against_the_closed_form(n):
    # at the default grid the FD value lies below j_{n/2,1}^2 by 2.0e-5 (n = 5)
    # to 6.2e-5 (n = 8), and the error falls at the O(h^2) rate
    coarse, fine = _lambda21_error(n, 2001), _lambda21_error(n, 4001)
    assert -1e-4 <= coarse < 0.0
    assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("n", [5, 7])
def test_spd_solver_matches_cho_solve_banded(n):
    # the closure calls LAPACK's pbtrs itself; scipy's wrapper is the reference
    B, G, _, _ = _quadratic_forms(n, _bn_nodes(401))
    s = 1.0 / np.sqrt(B.diagonal())
    cb = sla.cholesky_banded(upper_bands(sp.diags(s) @ B @ sp.diags(s), 4))
    for form in (B, G):
        rhs = form @ np.sin(np.arange(1, B.shape[0] + 1))
        rhs_copy = rhs.copy()
        x = bn_ball._make_spd_solver(B)(rhs)
        assert np.array_equal(x, s * sla.cho_solve_banded((cb, False), s * rhs))
        assert np.array_equal(rhs, rhs_copy)


def test_lambda21_stops_on_the_residual_rule(monkeypatch):
    solves = []
    make = bn_ball._make_spd_solver

    def counting(A):
        solve = make(A)

        def wrapped(rhs):
            solves.append(1)
            return solve(rhs)
        return wrapped

    monkeypatch.setattr(bn_ball, "_make_spd_solver", counting)
    bn_lambda21(6)
    assert 0 < len(solves) <= 30


def test_lambda21_cap_raises(monkeypatch):
    monkeypatch.setattr(bn_ball, "LAMBDA21_MAX_ITERS", 2)
    with pytest.raises(UnconvergedResultError):
        bn_lambda21(6, N_r=201)


def test_minimize_refuses_forms_of_another_grid():
    forms = bn_ball.ball_forms(6, 201)
    with pytest.raises(ValueError, match="given for"):
        minimize_bn(BNConfig(n=6, lam=1.0, N_r=401), forms)
    with pytest.raises(ValueError, match="given for"):
        minimize_bn(BNConfig(n=7, lam=1.0, N_r=201), forms)


def test_minimize_assembles_the_forms_once(monkeypatch):
    calls = []
    assemble = bn_ball._quadratic_forms

    def counting(n, r):
        calls.append(n)
        return assemble(n, r)

    monkeypatch.setattr(bn_ball, "_quadratic_forms", counting)
    minimize_bn(BNConfig(n=6, lam=1.0, N_r=201))
    assert calls == [6]


def _full_multistart(cfg):
    """Every start of `_bn_inits` run to bn_ball.MAX_ITERS and the lowest kept,
    ties to the earliest: the reference `minimize_bn`'s tournament
    stands for."""
    n = cfg.n
    r = _bn_nodes(cfg.N_r)
    B, G, _, w = _quadratic_forms(n, r)
    A = (B - cfg.lam * G).tocsr()
    solve = bn_ball._make_spd_solver(A)
    runs = [inverse_iteration(A, solve, u0, w[:-1], 2.0 * n / (n - 4),
                              bn_ball.MAX_ITERS)
            for u0 in bn_ball._bn_inits(n, r)]
    return min(runs, key=lambda run: run.value)


def _assert_report_is(rep, ref):
    assert rep.s_lambda == ref.value
    assert rep.iterations == ref.iterations
    assert rep.status == ref.status
    assert rep.el_residual == ref.residual
    u = -ref.x if ref.x[np.argmax(np.abs(ref.x))] < 0 else ref.x
    np.testing.assert_array_equal(rep.profile.values[:-1], u)


# the rows where a 10- or a 40-iteration tournament misses the full
# multistart by more than 1e-7 (both at (5, 0)), and the largest move of the
# 20-iteration one (3.4e-8 at (6, 10))
@pytest.mark.parametrize("n,lam", [(5, 0.0), (6, 10.0), (7, 1.0)])
def test_tournament_matches_the_full_multistart(n, lam):
    cfg = BNConfig(n=n, lam=lam, N_r=2001)
    rep, ref = minimize_bn(cfg), _full_multistart(cfg)
    assert abs(rep.s_lambda - ref.value) <= 1e-7 * ref.value


def test_tournament_winner_done_inside_the_tournament_is_final():
    # at (7, 0) the winner meets the residual rule after 8 iterations
    cfg = BNConfig(n=7, lam=0.0, N_r=2001)
    rep, ref = minimize_bn(cfg), _full_multistart(cfg)
    assert (ref.status, ref.iterations) == ("residual", 8)
    _assert_report_is(rep, ref)


def test_only_the_tournament_winner_runs_on(monkeypatch):
    budgets = []

    def recording(A, solve, x0, weights, p, max_iters, **kwargs):
        budgets.append(max_iters)
        return inverse_iteration(A, solve, x0, weights, p, max_iters, **kwargs)

    monkeypatch.setattr(bn_ball, "inverse_iteration", recording)
    rep = minimize_bn(BNConfig(n=6, lam=10.0, N_r=401))
    # lambda_21's iteration, seven starts, one continuation
    k, total = bn_ball.TOURNAMENT_ITERS, bn_ball.MAX_ITERS
    assert budgets == [bn_ball.LAMBDA21_MAX_ITERS] + [k] * 7 + [total - k]
    assert k < rep.iterations <= total


def test_minimize_rejects_supercritical_lambda():
    with pytest.raises(ParameterDomainError):
        minimize_bn(BNConfig(n=6, lam=60.0, **QUICK))


def test_minimize_subcritical_dips_below():
    rep = minimize_bn(BNConfig(n=6, lam=10.0, **QUICK))
    assert rep.converged
    assert rep.s_lambda < rep.sstar_num
    assert rep.attained_evidence == "dips-below"
    assert rep.profile.values[-1] == 0.0  # clamped boundary


def test_minimize_lambda0_flat_at_sstar():
    # full resolution: the residual floor scales with the grid here
    rep = minimize_bn(BNConfig(n=5, lam=0.0, N_r=2001))
    assert rep.converged
    # the infimum is not attained: the discrete value sits just above S**
    assert rep.s_lambda >= rep.sstar_num * (1.0 - 5e-3)
    assert rep.s_lambda <= rep.sstar_num * (1.0 + 5e-3)
    assert rep.attained_evidence in ("flat-at-sstar", "inconclusive")


def test_determinism():
    cfg = BNConfig(n=6, lam=10.0, **QUICK)
    a = minimize_bn(cfg)
    b = minimize_bn(cfg)
    assert a.s_lambda == b.s_lambda
    np.testing.assert_array_equal(a.profile.values, b.profile.values)


def test_pohozaev_halves_under_refinement():
    res = []
    for N in (501, 1001, 2001):
        rep = minimize_bn(BNConfig(n=6, lam=10.0, N_r=N))
        assert rep.converged
        res.append(rep.pohozaev_A_residual)
    assert res[1] <= 0.75 * res[0]
    assert res[2] <= 0.75 * res[1]


def test_pohozaev_rejects_degenerate_lambda():
    rep = minimize_bn(BNConfig(n=6, lam=0.0, **QUICK))
    with pytest.raises(DegenerateIdentityError):
        pohozaev_residuals(rep, 0.0)


def test_pohozaev_flags_manufactured_non_solution():
    """A profile that solves nothing must leave a large identity residual."""
    cfg = BNConfig(n=6, lam=10.0, **QUICK)
    good = minimize_bn(cfg)
    r = good.profile.nodes
    fake = RadialProfile(nodes=r, values=np.where(r < 1.0, (1.0 - r**2), 0.0),
                         n=6)
    bogus = BNReport(
        s_lambda=1.0, lambda21=good.lambda21, profile=fake,
        sstar_num=good.sstar_num, attained_evidence="dips-below",
        converged=True, iterations=1, el_residual=0.0,
    )
    res = pohozaev_residuals(bogus, cfg.lam)
    assert res["res_A"] > 0.1
    assert res["res_A"] > 10.0 * good.pohozaev_A_residual


def test_n5_r3_identity_reported():
    rep = minimize_bn(BNConfig(n=5, lam=20.0, N_r=1001))
    assert rep.converged
    assert rep.attained_evidence == "dips-below"
    assert rep.r3_residual is not None
    assert rep.r3_residual <= 1e-2


def test_dimension_probe_rows():
    flat = dimension_probe(BNConfig(n=6, lam=0.0, **QUICK))
    dips = dimension_probe(BNConfig(n=6, lam=10.0, **QUICK))
    assert [flat.lam, dips.lam] == [0.0, 10.0]
    assert not flat.below_sstar
    assert dips.below_sstar
    assert math.isnan(flat.pohozaev_A)  # identity undefined at lambda = 0

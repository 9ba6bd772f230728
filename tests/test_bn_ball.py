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
from ckn.descent import upper_bands
from ckn.errors import (DegenerateIdentityError, ParameterDomainError,
                        UnconvergedResultError)
from ckn.grids import RadialProfile

QUICK = dict(N_r=801, max_iters=400)


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


def test_minimize_assembles_the_forms_once(monkeypatch):
    calls = []
    assemble = bn_ball._quadratic_forms

    def counting(n, r):
        calls.append(n)
        return assemble(n, r)

    monkeypatch.setattr(bn_ball, "_quadratic_forms", counting)
    minimize_bn(BNConfig(n=6, lam=1.0, N_r=201))
    assert calls == [6]


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
    rep = minimize_bn(BNConfig(n=5, lam=0.0, N_r=2001, max_iters=600))
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
        rep = minimize_bn(BNConfig(n=6, lam=10.0, N_r=N, max_iters=600))
        assert rep.converged
        res.append(rep.pohozaev_A_residual)
    assert res[1] <= 0.75 * res[0]
    assert res[2] <= 0.75 * res[1]


def test_pohozaev_rejects_degenerate_lambda():
    rep = minimize_bn(BNConfig(n=6, lam=0.0, **QUICK))
    with pytest.raises(DegenerateIdentityError):
        pohozaev_residuals(rep, BNConfig(n=6, lam=0.0, **QUICK))


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
    res = pohozaev_residuals(bogus, cfg)
    assert res["res_A"] > 0.1
    assert res["res_A"] > 10.0 * good.pohozaev_A_residual


def test_n5_r3_identity_reported():
    rep = minimize_bn(BNConfig(n=5, lam=20.0, N_r=1001, max_iters=600))
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

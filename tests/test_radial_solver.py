"""Constrained minimization of the one-dimensional quotient: solver vs
brute-force oracle and the closed-form bubble curve, symmetry, degeneracies,
and the sweep machinery."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ckn.descent import upper_bands
from ckn.errors import GridError, ParameterDomainError
from ckn.grids import LineGrid, alpha_grid
from ckn.params import bubble_curve, conjugate_exponent, derive_params, scaling_relation
from ckn.radial_solver import (MinimizationConfig, _even_form, _full_form,
                               _scaled_grid, brute_force_oracle,
                               consistency_suite, minimize_mu_q, scan_row)

COARSE = LineGrid(12.0, 41)


def _line_operators(grid: LineGrid):
    """Central differences (D2, D1) for w'' and w' on the interior unknowns
    (hard zeros at both ends): the FD rule of the line solver's form."""
    h = grid.h
    one = np.ones(grid.N - 2)
    D2 = sp.diags([one[:-1], -2.0 * one, one[:-1]], [-1, 0, 1]) / h**2
    D1 = sp.diags([-one[:-1], one[:-1]], [-1, 1]) / (2.0 * h)
    return D2, D1


# (5, 0, 3) is criterion 04's point, where that check allows 1e-4
@pytest.mark.parametrize("n, alpha, q", [(7, -1.0, 2.5), (5, 0.0, 3.0)])
def test_solver_matches_brute_force_oracle(n, alpha, q):
    cfg = MinimizationConfig(grid=COARSE)
    res = minimize_mu_q(n, alpha, q, cfg)
    oracle = brute_force_oracle(n, alpha, q, COARSE)
    assert res.converged
    # measured: -3.4e-12 and -5.8e-13
    assert abs(res.mu_q - oracle) / oracle <= 1e-9


@pytest.mark.parametrize("n, alpha, q", [(7, -1.0, 2.5), (6, 1.0, 2.5)])
def test_brute_force_oracle_does_not_depend_on_the_step_cap(monkeypatch, n, alpha, q):
    # the run stops on its best-value rule well before the cap
    import ckn.radial_solver

    capped = brute_force_oracle(n, alpha, q, COARSE)
    monkeypatch.setattr(ckn.radial_solver, "_ORACLE_MAX_STEPS",
                        2 * ckn.radial_solver._ORACLE_MAX_STEPS)
    assert brute_force_oracle(n, alpha, q, COARSE) == capped


# points with q* <= 2** where the window L = 12 does not truncate the profile
BUBBLE_POINTS = [(5, 1.0), (6, 3.0), (7, 0.5), (7, 2.5), (8, 1.0), (6, 0.0)]


@pytest.mark.parametrize("n, alpha", BUBBLE_POINTS)
def test_solver_matches_the_bubble_curve_at_second_order(n, alpha):
    q, mu, _, _ = bubble_curve(n, alpha)
    errors = []
    for N in (2001, 4001):
        res = minimize_mu_q(n, alpha, q, MinimizationConfig(grid=LineGrid(12.0, N)))
        assert res.converged
        errors.append((res.mu_q - mu) / mu)
    # default grid: -3.4e-6 to -2.0e-5; halving h divides the error by 3.9-4.0
    assert abs(errors[0]) <= 3e-5
    assert 3.5 <= errors[0] / errors[1] <= 4.5


@pytest.mark.parametrize("n, alpha", BUBBLE_POINTS)
def test_solver_profile_is_the_bubble(n, alpha):
    q, _, kappa, N = bubble_curve(n, alpha)
    res = minimize_mu_q(n, alpha, q, MinimizationConfig())
    grid = res.profile.grid
    bubble = np.cosh(kappa * grid.s) ** (-(N - 4.0) / 2.0)
    bubble /= (grid.h * np.sum(bubble**q)) ** (1.0 / q)  # the solver's unit mass
    # at most 4.5e-5 on the default grid
    assert np.max(np.abs(res.profile.values - bubble)) <= 1e-4 * np.max(bubble)


@pytest.mark.parametrize("n, alpha", [(5, 0.0), (7, -1.0), (6, 1.0)])
def test_brute_force_oracle_at_q2_is_the_lowest_eigenvalue(n, alpha):
    # at q = 2 the quotient is the Rayleigh quotient of A / h
    params = derive_params(n, alpha, 2.0)
    A = _full_form(COARSE, float(params.gbar), float(params.gamma))[0]
    lowest = sla.eigvalsh(A.toarray())[0] / COARSE.h
    oracle = brute_force_oracle(n, alpha, 2.0, COARSE)
    assert abs(oracle - lowest) / lowest <= 1e-12  # at most 1.6e-15 measured


def test_alpha_reflection_bitwise():
    cfg = MinimizationConfig()
    a = minimize_mu_q(5, 0.0, 3.0, cfg)
    b = minimize_mu_q(5, 4.0, 3.0, cfg)
    assert a.mu_q == b.mu_q  # the assembled forms are identical


def test_assembled_form_is_built_from_the_line_operators():
    D2, D1 = _line_operators(COARSE)
    A = _full_form(COARSE, 2.5, -1.5)[0]
    B = COARSE.h * (D2.T @ D2 + 5.0 * D1.T @ D1 + 2.25 * np.eye(COARSE.N - 2))
    assert np.array_equal(A.toarray(), B)


def _form_windows():
    """The default grid, a coarse and a wide fine one, and the |tau|-scaled
    and `_scaled_grid` windows that consistency_suite(5, 6, q) solves on."""
    base = MinimizationConfig().grid
    tau = float(scaling_relation(5, 6.0, float(conjugate_exponent(5, 6.0))).tau)
    return [base, COARSE, LineGrid(24.0, 8001),
            LineGrid(base.L * abs(tau), base.N), _scaled_grid(5, 30.0, base)]


# mirror pairs alpha, 4 - alpha, and |alpha| up to 1e30
FORM_ALPHAS = [0.0, 4.0, 1.0, 3.0, -0.5, 4.5, 2.0, 0.1, 3.9, 60.0, -56.0,
               1e30, -1e30]


@pytest.mark.parametrize("grid", _form_windows(), ids=lambda g: f"{g.L:g},{g.N}")
@pytest.mark.parametrize("n", [2, 5, 7])
def test_assembled_form_matches_the_sparse_formula_bit_for_bit(grid, n):
    # the entries and the order in which A @ x sums each row fix the
    # solver's iterates, so they must not move by a bit
    D2, D1 = _line_operators(grid)
    x = np.random.default_rng(grid.N).standard_normal(grid.N - 2)
    P2 = D2.T @ D2
    bands = {}
    for alpha in FORM_ALPHAS:
        params = derive_params(n, alpha, 3.0)
        gbar, gam = float(params.gbar), float(params.gamma)
        ref = (grid.h * (P2 + 2.0 * gbar * D1.T @ D1
                         + gam**2 * sp.identity(grid.N - 2))).tocsr()
        A = _full_form(grid, gbar, gam)[0]
        assert np.array_equal(A @ x, ref @ x)
        for k in range(-2, 3):
            assert np.array_equal(A.diagonal(k), ref.diagonal(k))
        if grid.N <= 41:
            assert np.array_equal(A.toarray(), ref.toarray())
        bands[alpha] = upper_bands(A, 2)
    for alpha in FORM_ALPHAS:
        if 4.0 - alpha in bands:
            assert np.array_equal(bands[alpha], bands[4.0 - alpha])


def _even_map(grid):
    """P: x_full[c +- k] = x[k], from the unknowns on s >= 0 to the even
    vectors on the M = 2c + 1 interior nodes."""
    c = (grid.N - 3) // 2
    k = np.arange(c + 1)
    rows = np.concatenate((c + k, c - k[1:]))
    cols = np.concatenate((k, k[1:]))
    return sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(2 * c + 1, c + 1))


# N = 5 and 7 (K = 2 and 3) are the corners where (1, 1) is the last
# diagonal entry and where the second band has one entry
@pytest.mark.parametrize("grid", [LineGrid(12.0, 5), LineGrid(12.0, 7), COARSE,
                                  MinimizationConfig().grid],
                         ids=lambda g: f"{g.L:g},{g.N}")
@pytest.mark.parametrize("n", [2, 5, 7])
def test_folded_form_is_the_form_on_even_vectors(grid, n):
    # entry (k, k + j) sums two mirrored entries, so it is exact; (1, 1)
    # adds the cross pair A[c - 1, c + 1] as well, within 1 ulp
    P = _even_map(grid)
    folds = {}
    for alpha in FORM_ALPHAS:
        params = derive_params(n, alpha, 3.0)
        gbar, gam = float(params.gbar), float(params.gamma)
        ref = upper_bands((P.T @ _full_form(grid, gbar, gam)[0] @ P).toarray(), 2)
        folded = upper_bands(_even_form(grid, gbar, gam)[0], 2)
        assert abs(folded[2, 1] - ref[2, 1]) <= np.spacing(abs(ref[2, 1]))
        ref[2, 1] = folded[2, 1]
        assert np.array_equal(folded, ref)
        folds[alpha] = folded
    for alpha in FORM_ALPHAS:
        if 4.0 - alpha in folds:
            assert np.array_equal(folds[alpha], folds[4.0 - alpha])


def test_oracle_refuses_an_overflowing_form_as_the_solver_does():
    grid = LineGrid(3.84e29, 5)
    with pytest.raises(GridError, match="the line form overflows") as solver:
        minimize_mu_q(5, 3e70, 3.0, MinimizationConfig(grid=grid))
    with pytest.raises(GridError) as oracle:
        brute_force_oracle(5, 3e70, 3.0, grid)
    assert str(oracle.value) == str(solver.value)


def test_oracle_refuses_a_finite_form_whose_quotient_overflows():
    # the full form is finite (largest entry 1.2e308) where the folded one
    # is not, but the whitened starts' norms |C^T w| overflow
    grid = LineGrid(3.84e29, 5)
    with pytest.raises(GridError, match="the line form overflows"):
        minimize_mu_q(5, 1e70, 3.0, MinimizationConfig(grid=grid))
    with np.errstate(over="ignore"), pytest.raises(
            GridError, match="the line quotient overflows"):
        brute_force_oracle(5, 1e70, 3.0, grid)
    # the starts are finite, but at q = 1000 a damped step leaves a norm,
    # mass or quotient that is not
    for n, alpha, grid in ((3, 1.5, LineGrid(400, 5)), (5, 0.0, LineGrid(100, 5))):
        with warnings.catch_warnings(), np.errstate(invalid="ignore"), pytest.raises(
                GridError, match="the line quotient overflows"):
            warnings.simplefilter("ignore", UserWarning)  # q above 2n/(n-4)
            brute_force_oracle(n, alpha, 1000.0, grid)


def test_the_sech2_start_overflows_silently_on_a_wide_grid():
    # cosh(s)^2 overflows for |s| > 355; the start reads 0.0 there, with no
    # warning from either solver
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_mu_q(7, -2.975, 4.0, MinimizationConfig(grid=LineGrid(400.0, 4001)))
        oracle = brute_force_oracle(5, 0.0, 3.0, LineGrid(400.0, 41))
    assert res.converged and res.mu_q > 0.0
    assert np.isfinite(oracle) and oracle > 0.0


@pytest.mark.parametrize("grid", [LineGrid(1e70, 5), COARSE], ids=["1e70,5", "12,41"])
@pytest.mark.parametrize("alpha", [-1.0, 5.0, float(np.nextafter(-1.0, 0.0))])
def test_oracle_refuses_the_degenerate_alpha(grid, alpha):
    # minimize_mu_q answers alpha = 4 - n and n, and the alphas next to
    # them where gamma rounds to 0, with its zero result
    res = minimize_mu_q(5, alpha, 3.0, MinimizationConfig(grid=grid))
    assert res.degenerate and res.mu_q == 0.0
    with pytest.raises(ParameterDomainError, match="gamma rounds to 0"):
        brute_force_oracle(5, alpha, 3.0, grid)
    # at q = 10 on a wide grid it would overflow h sum |w|^10: the
    # refusal comes first
    with pytest.raises(ParameterDomainError, match="gamma rounds to 0"):
        brute_force_oracle(5, alpha, 10.0, LineGrid(1e60, 5))


# K = 2 and 3 unknowns, and the default grid
@pytest.mark.parametrize("grid", [LineGrid(12.0, 5), LineGrid(12.0, 7),
                                  MinimizationConfig().grid],
                         ids=lambda g: f"{g.L:g},{g.N}")
def test_folded_mass_is_the_mass_of_the_unfolded_profile(grid):
    _, _, weights, nodes, unfold = _even_form(grid, 2.5, -1.5)
    x = np.random.default_rng(grid.N).standard_normal(nodes.size)
    w = unfold(x)
    assert w.size == grid.N
    assert np.array_equal(w, w[::-1]) and w[0] == w[-1] == 0.0
    for q in (2.0, 3.0, 4.5):
        assert weights @ np.abs(x) ** q == pytest.approx(
            grid.h * np.sum(np.abs(w) ** q), rel=1e-14, abs=0.0)
    # the unfold puts each unknown at its node and at the mirror node
    np.testing.assert_allclose(unfold(nodes)[1:-1], np.abs(grid.s[1:-1]),
                               rtol=0.0, atol=1e-14 * grid.L)


def test_minimizer_profile_is_exactly_even():
    for n, alpha, q, grid in [(5, 0.0, 3.0, MinimizationConfig().grid),
                              (7, -1.0, 2.5, COARSE), (5, 1.0, 3.0, LineGrid(12.0, 7))]:
        values = minimize_mu_q(n, alpha, q, MinimizationConfig(grid=grid)).profile.values
        assert np.array_equal(values, values[::-1])
        assert values[0] == values[-1] == 0.0


# N = 5 and 7 leave the folded second band empty and with one entry
@pytest.mark.parametrize("N", [5, 7, 41])
def test_q2_value_is_the_lowest_eigenvalue_of_the_full_form(N):
    # the lowest eigenvector of the full form is even, so the solve on the
    # even half reaches its eigenvalue
    grid = LineGrid(12.0, N)
    params = derive_params(5, 0.0, 2.0)
    A = _full_form(grid, float(params.gbar), float(params.gamma))[0]
    lowest = sla.eigvalsh(A.toarray())[0] / grid.h
    res = minimize_mu_q(5, 0.0, 2.0, MinimizationConfig(grid=grid))
    assert res.converged
    assert abs(res.mu_q - lowest) <= 1e-8 * lowest


def test_reported_value_within_rounding_of_its_sums_of_squares():
    # the kernel reports x.(Ax), which cancels terms of size 1/h^4; on the
    # default grid that costs 3.9e-8 of the value at (5, 0, 3)
    res = minimize_mu_q(5, 0.0, 3.0, MinimizationConfig())
    grid, x = res.profile.grid, res.profile.values[1:-1]
    p = res.profile.params
    D2, D1 = _line_operators(grid)
    num = grid.h * np.sum((D2 @ x) ** 2 + 2.0 * float(p.gbar) * (D1 @ x) ** 2
                          + float(p.gamma) ** 2 * x**2)
    value = num / (grid.h * np.sum(np.abs(x) ** 3.0)) ** (2.0 / 3.0)
    assert res.mu_q == pytest.approx(value, rel=1e-7)


def test_degenerate_boundary_alpha():
    # alpha = 4 - n kills the zeroth-order coefficient: infimum 0, no minimizer
    res = minimize_mu_q(5, -1.0, 3.0, MinimizationConfig())
    assert res.degenerate
    assert res.mu_q == 0.0
    assert res.converged


def test_q2_quotient_bounded_below_and_decreasing_in_L():
    vals = []
    for L in (6.0, 12.0, 24.0):
        res = minimize_mu_q(5, 0.0, 2.0, MinimizationConfig(grid=LineGrid(L, 2001)))
        assert res.converged
        vals.append(res.mu_q)
    assert all(v >= 1.5625 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] - 1.5625 < 0.1


def test_minimize_mu_q_deterministic():
    cfg = MinimizationConfig()
    a = minimize_mu_q(5, 0.0, 3.0, cfg)
    b = minimize_mu_q(5, 0.0, 3.0, cfg)
    assert a.mu_q == b.mu_q
    np.testing.assert_array_equal(a.profile.values, b.profile.values)


def test_scan_row_fields_consistent():
    row = scan_row(5, 3.0, 0.0, minimize_mu_q(5, 0.0, 3.0, MinimizationConfig()))
    assert row.converged
    assert row.s2_rad == 1.5625
    assert row.rellich == 1.5625
    assert row.mu_q > 0.0
    from ckn.quadrature import sphere_area

    # S_q^rad = omega_n^((q-2)/q) mu_q
    assert row.s_q_rad == pytest.approx(
        sphere_area(5) ** (1.0 / 3.0) * row.mu_q, rel=1e-12
    )


def test_scan_rows_handle_degenerate_alpha():
    cfg = MinimizationConfig()
    rows = [scan_row(5, 3.0, a, minimize_mu_q(5, a, 3.0, cfg))
            for a in alpha_grid(-1.0, 1.0, 1.0)]
    assert len(rows) == 3
    assert [r.alpha for r in rows] == [-1.0, 0.0, 1.0]
    assert rows[0].mu_q == 0.0  # boundary case, degenerate but well-defined


def test_consistency_suite_n5():
    rep = consistency_suite(5, 6.0, 3.0, MinimizationConfig())
    assert rep.conjugate_relerr is not None and rep.conjugate_relerr <= 1e-3
    assert rep.sandwich_ok
    assert rep.concavity_ok
    # s(alpha)/|alpha-2|^(3+2/q) approaches s(2)/(n-2)^(3+2/q) as alpha
    # grows: the relative errors at alpha = 30, 60 are about 0.018, 0.0042
    e30, e60 = rep.asymptotic_ratio_err
    assert e30 <= 0.05 and e60 <= e30 / 3.0


def test_consistency_suite_solves_each_point_once(monkeypatch):
    """The conjugacy and sandwich laws, a concavity point p = q and, at
    alpha = 2, the asymptotic reference share the solve at (n, alpha, q)."""
    import ckn.radial_solver

    calls = []

    def counting(*args):
        calls.append(args[:3])
        return minimize_mu_q(*args)

    monkeypatch.setattr(ckn.radial_solver, "minimize_mu_q", counting)
    consistency_suite(5, 6.0, 3.0, MinimizationConfig())
    assert len(calls) == 11
    assert calls.count((5, 6.0, 3.0)) == 1
    # the concavity points linspace(3, 5, 5) hold p = q
    calls.clear()
    consistency_suite(5, 6.0, 4.0, MinimizationConfig())
    assert len(calls) == 10
    assert calls.count((5, 6.0, 4.0)) == 1
    calls.clear()
    consistency_suite(5, 2.0, 3.0, MinimizationConfig())
    assert len(calls) == 9
    assert calls.count((5, 2.0, 3.0)) == 1


@pytest.mark.parametrize("alpha", [-1.0, 5.0, float(np.nextafter(-1.0, 0.0))])
def test_consistency_suite_refuses_the_degenerate_alpha(alpha):
    # its laws would take the log of, or divide by, the zero result
    with pytest.raises(ParameterDomainError, match="gamma rounds to 0"):
        consistency_suite(5, alpha, 3.0, MinimizationConfig(grid=COARSE))


def test_consistency_suite_n2_ratio_constancy():
    rep = consistency_suite(2, 0.0, 3.0, MinimizationConfig())
    assert rep.n2_ratio_const_err is not None
    assert rep.n2_ratio_const_err <= 1e-3

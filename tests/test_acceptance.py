"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Each criterion is a self-contained check at its stated tolerance and runtime
budget.  The single deliberately red item is criterion 9's dip check at
(n=6, lambda=1): the continuum gap there is ~2.6e-9 in relative terms,
orders of magnitude below any reachable discretization floor, so no honest
finite-difference run can certify it.  See the FAIL message for the measured
numbers; the dip itself is demonstrated at larger lambda instead.
"""
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES


def _report(num: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_regression():
    """Exact rational closed forms on a 21x21 grid, plus two spot values."""
    from ckn.params import gamma_alpha, radial_closed_forms
    from ckn.spectrum import full_sphere, half_sphere, rellich_constant

    t0 = time.time()
    ok = True
    for n in range(5, 26):
        model = full_sphere(n)
        for j in range(21):
            alpha = Fraction(-10 + j, 2)
            g = gamma_alpha(n, alpha)
            forms = radial_closed_forms(n, alpha)
            ok &= forms.s2_rad == g * g
            ok &= forms.mu21_rad == Fraction(n - alpha, 2) ** 2
            rc = rellich_constant(model, alpha)
            best = min(
                (Fraction(k * (n - 2 + k)) + g) ** 2 for k in range(0, 40)
            )
            ok &= Fraction(rc) == best
    ok &= float(radial_closed_forms(5, 0.0).s2_rad) == 1.5625
    ok &= float(rellich_constant(half_sphere(5), 0.0)) == 27.5625
    dt = time.time() - t0
    ok &= dt < 1.0
    _report("01", ok, f"rational closed forms exact on 21x21 grid ({dt:.2f}s)")
    assert ok


def test_criterion_02_change_of_variables_identities():
    """Integral identities <= 1e-6 at (L=12, N=4001); discrete slope ~ 2."""
    from ckn.grids import LineGrid
    from ckn.operators import norm_identity_check
    from ckn.params import derive_params

    t0 = time.time()
    params = derive_params(5, 0.0, 3.0)

    def errors(N):
        return norm_identity_check(params, LineGrid(12.0, N))

    fine = errors(4001)
    ok = fine["q"] <= 1e-6 and fine["quad"] <= 1e-6
    e1, e2 = errors(1001), errors(2001)
    slopes = [math.log2(e1[k] / e2[k]) for k in ("q_discrete", "quad_discrete")]
    ok &= all(1.8 <= s <= 2.2 for s in slopes)
    dt = time.time() - t0
    ok &= dt < 10.0
    _report("02", ok,
            f"identities q={fine['q']:.1e} quad={fine['quad']:.1e}, "
            f"slopes {slopes[0]:.2f}/{slopes[1]:.2f} ({dt:.1f}s)")
    assert ok


def test_criterion_03_bubble_identity_suite():
    """Moment-ratio + expansion identities for n in 5..8, and sqrt(13)."""
    from ckn.critical import strictness_sign_check, talenti_identity_suite

    t0 = time.time()
    ok = True
    worst_default = 0.0
    for n in (5, 6, 7, 8):
        rep = talenti_identity_suite(n, (-3.0, -2.5, 1.0, 2.0))
        worst = max([rep.ratio_relerr] + list(rep.expansion_relerrs.values())
                    + list(rep.identity_relerrs.values()))
        worst_default = max(worst_default, worst)
    ok &= worst_default <= 1e-6

    rep = talenti_identity_suite(6, (-3.0, -2.5, 1.0, 2.0), doubled=True)
    worst_doubled = max([rep.ratio_relerr] + list(rep.expansion_relerrs.values())
                        + list(rep.identity_relerrs.values()))
    ok &= worst_doubled <= 1e-8

    endpoint = strictness_sign_check(5, 5.0)["interval"][1]
    ok &= endpoint == math.sqrt(13.0)
    dt = time.time() - t0
    ok &= dt < 30.0
    _report("03", ok,
            f"worst relerr {worst_default:.1e} (default) / "
            f"{worst_doubled:.1e} (doubled), endpoint sqrt(13) ({dt:.1f}s)")
    assert ok


def test_criterion_04_solver_oracle_equivalence():
    """Iterative minimizer vs brute force at N=41; symmetry; q=2 floor."""
    from ckn.grids import LineGrid
    from ckn.radial_solver import (MinimizationConfig, brute_force_oracle,
                                   minimize_mu_q)

    t0 = time.time()
    coarse = LineGrid(12.0, 41)
    res = minimize_mu_q(5, 0.0, 3.0, MinimizationConfig(grid=coarse))
    oracle = brute_force_oracle(5, 0.0, 3.0, coarse)
    rel = abs(res.mu_q - oracle) / oracle
    ok = res.converged and rel <= 1e-4

    a = minimize_mu_q(5, 0.0, 3.0, MinimizationConfig())
    b = minimize_mu_q(5, 4.0, 3.0, MinimizationConfig())
    ok &= a.mu_q == b.mu_q  # bitwise reflection symmetry

    vals = [
        minimize_mu_q(5, 0.0, 2.0, MinimizationConfig(grid=LineGrid(L, 2001))).mu_q
        for L in (6.0, 12.0, 24.0)
    ]
    ok &= all(v >= 1.5625 for v in vals) and vals[0] > vals[1] > vals[2]
    dt = time.time() - t0
    ok &= dt < 120.0
    _report("04", ok,
            f"oracle rel {rel:.1e}, reflection bitwise, q=2 floor "
            f"{vals[-1]:.4f} -> 1.5625 ({dt:.0f}s)")
    assert ok


def test_criterion_05_conjugacy_law():
    """Rescaling law S(alpha) = |tau|^(3+2/q) S(alpha~) at the conjugate pair
    (n, alpha <-> alpha~, q) = (5, 6 <-> 4.25, 3), tau = 4/3; n=2 ratio
    constancy.  At a conjugate pair g = 0, so u~(r) = u(r^(1/tau)) has
    mass(u) = mass(u~)/|tau| and energy(u) = |tau|^3 energy(u~), and this law
    is their consequence, checked through the solver."""
    from ckn.radial_solver import MinimizationConfig, consistency_suite

    t0 = time.time()
    cfg = MinimizationConfig()
    rep5 = consistency_suite(5, 6.0, 3.0, cfg)
    ok = rep5.conjugate_relerr is not None and rep5.conjugate_relerr <= 1e-3
    rep2 = consistency_suite(2, 0.0, 3.0, cfg)
    ok &= rep2.n2_ratio_const_err is not None and rep2.n2_ratio_const_err <= 1e-3
    dt = time.time() - t0
    ok &= dt < 120.0
    _report("05", ok,
            f"S(6) = |tau|^(3+2/q) S(4.25) rel {rep5.conjugate_relerr:.1e}, "
            f"n=2 spread {rep2.n2_ratio_const_err:.1e} ({dt:.1f}s)")
    assert ok


def test_criterion_06_concavity():
    """Second differences of p log S(p) <= +1e-6 on a 5-point grid."""
    from ckn.radial_solver import MinimizationConfig, consistency_suite

    t0 = time.time()
    rep = consistency_suite(5, 0.0, 3.0, MinimizationConfig())
    ok = rep.concavity_ok
    dt = time.time() - t0
    ok &= dt < 180.0
    _report("06", ok, f"p log S(p) concave on 5-point q-grid ({dt:.1f}s)")
    assert ok


def test_criterion_07_symmetry_breaking_certificates():
    """Far regime certified broken; symmetric regime xi floor."""
    from ckn.params import gamma_alpha
    from ckn.phase import closed_form_breaking, symmetry_certificate
    from ckn.radial_solver import MinimizationConfig, minimize_mu_q

    t0 = time.time()
    cfg = MinimizationConfig()
    far = minimize_mu_q(5, 14.0, 10.0, cfg)
    cert_far = symmetry_certificate(far)
    ok = abs(float(gamma_alpha(5, 14.0))) == 33.75
    ok &= closed_form_breaking(5, 14.0, 10.0)
    ok &= far.converged and cert_far.Q > 0.0 and cert_far.certified_broken

    sym = minimize_mu_q(5, 0.0, 3.0, cfg)
    cert_sym = symmetry_certificate(sym)
    ok &= cert_sym.xi >= 1.25 * (1.0 - 1e-6)
    dt = time.time() - t0
    ok &= dt < 60.0
    _report("07", ok,
            f"far Q={cert_far.Q:.3g}>0, symmetric xi={cert_sym.xi:.4f}>=1.25 "
            f"({dt:.1f}s)")
    assert ok


def test_criterion_08_shifted_weight_lemma():
    """Off-center weight loses at least C_a t^2 |grad u|^2 with C_a = 2."""
    from ckn.critical import shifted_weight_lemma_check
    from ckn.grids import RadialProfile

    t0 = time.time()
    r = np.linspace(0.0, 1.0, 2001)
    u = RadialProfile(nodes=r, values=(1.0 - r**2) ** 3, n=6)
    rep = shifted_weight_lemma_check(
        6, -3.0, u, t_values=(0.02, 0.04, 0.06, 0.08, 0.10)
    )
    ok = rep.C_a == 2.0
    ok &= rep.inequality_ok
    ok &= abs(rep.fitted_t1_coeff) <= 1e-3 * rep.f0
    dt = time.time() - t0
    ok &= dt < 60.0
    _report("08", ok,
            f"f(t) <= f(0) - 2 t^2 |grad u|^2, linear coeff "
            f"{abs(rep.fitted_t1_coeff):.2e} <= 1e-3 f0 ({dt:.1f}s)")
    assert ok


# --- criterion 9, split into its five sub-checks ---------------------------


def test_criterion_09a_n5_barrier():
    from ckn.bn_ball import BNConfig, minimize_bn

    t0 = time.time()
    rep = minimize_bn(BNConfig(n=5, lam=2.0))
    ok = rep.converged and rep.s_lambda >= rep.sstar_num * (1.0 - 5e-3)
    dt = time.time() - t0
    _report("09a", ok,
            f"n=5 lam=2: s={rep.s_lambda:.4f} >= (1-5e-3) S**="
            f"{rep.sstar_num:.4f} ({dt:.1f}s)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the continuum dip at (n=6, lambda=1) is ~2.6e-9 relative -- far "
    "below the ~1e-4 discretization floor of any desk-scale grid; the dip "
    "is instead demonstrated at lambda=10 (criterion 09d) and via the "
    "lambda=50 concentrating family",
)
def test_criterion_09b_n6_small_lambda_dip():
    from ckn.bn_ball import BNConfig, minimize_bn

    t0 = time.time()
    rep = minimize_bn(BNConfig(n=6, lam=1.0))
    ok = rep.converged and rep.s_lambda < rep.sstar_num
    dt = time.time() - t0
    margin = (rep.s_lambda - rep.sstar_num) / rep.sstar_num
    _report("09b", ok,
            f"n=6 lam=1: s/S** - 1 = {margin:+.1e} (needs < 0; continuum gap "
            f"-2.6e-9 is unresolvable) ({dt:.1f}s)")
    assert ok


def test_criterion_09c_lambda21_floor():
    from ckn.bn_ball import bn_lambda21

    t0 = time.time()
    vals = {n: bn_lambda21(n) for n in (5, 6, 7)}
    ok = all(v >= n**2 / 4.0 * (1.0 - 1e-6) for n, v in vals.items())
    dt = time.time() - t0
    _report("09c", ok,
            "lambda_21 = " + ", ".join(f"{v:.3f}(n={n})" for n, v in vals.items())
            + f" >= n^2/4 ({dt:.1f}s)")
    assert ok


def test_criterion_09d_pohozaev_halves():
    from ckn.bn_ball import BNConfig, minimize_bn

    t0 = time.time()
    res = []
    for N in (1001, 2001, 4001):
        rep = minimize_bn(BNConfig(n=6, lam=10.0, N_r=N))
        res.append(rep.pohozaev_A_residual)
    ok = rep.converged and rep.s_lambda < rep.sstar_num
    ok &= res[1] <= 0.55 * res[0] and res[2] <= 0.55 * res[1]
    dt = time.time() - t0
    _report("09d", ok,
            f"n=6 lam=10 dips below S**; res_A {res[0]:.3g} -> {res[1]:.3g} "
            f"-> {res[2]:.3g} halves under doubling ({dt:.1f}s)")
    assert ok


def test_criterion_09e_ueps_slope():
    from ckn.critical import ueps_family

    t0 = time.time()
    rep = ueps_family(7, 1.0, (0.2, 0.1, 0.05, 0.025))
    ok = abs(rep.slope_biharmonic - 3.0) <= 0.2
    dt = time.time() - t0
    _report("09e", ok,
            f"n=7 biharmonic-excess slope {rep.slope_biharmonic:.3f} "
            f"in 3 +/- 0.2 ({dt:.1f}s)")
    assert ok


def test_criterion_10_scan_determinism(tmp_path):
    """Byte-identical scan CSV regardless of the worker count."""
    from ckn.cli import dispatch

    t0 = time.time()
    base = ["scan", "--n", "5", "--q", "3", "--alpha-range", "0,2,0.25"]
    paths = [tmp_path / f"scan{j}.csv" for j in range(3)]
    jobs = ("1", "1", "4")
    for path, j in zip(paths, jobs):
        assert dispatch(base + ["--jobs", j, "--out", str(path)]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    dt = time.time() - t0
    ok &= dt < 60.0
    _report("10", ok, f"scan CSV byte-identical across runs and jobs ({dt:.1f}s)")
    assert ok

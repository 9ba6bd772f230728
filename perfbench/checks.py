"""Output checks. Every reference value is computed here, apart from ckn: in
exact `Fraction` arithmetic, from closed forms in the literature, or from a
property the method must have. Nothing is compared against saved output.

Each check takes the operation's parameters and output and returns one
`(op_id, problems)` pair per operation it covers; a CLI command that prints
a table covers one operation per row. An operation fails when its problem
list is not empty.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# Rows that fail every run because of a fault in ckn: `minimize_bn` accepts
# a stall as converged when el_residual <= max(100 grad_tol, 1e-3) and then
# reports a Pohozaev residual for a profile that solves nothing. Their only
# problem is the Pohozaev check; any other problem is unexpected.
KNOWN_FAULT = {("bn-probe", 5, 2.0), ("bn-probe", 5, 5.0),
               ("bn-probe", 6, 2.0), ("bn-probe", 7, 1.0)}
POHOZAEV = "pohozaev"

POHOZAEV_MAX = 0.1
LAMBDA0_BAND = 5e-3
CLOSED_FORM_RTOL = 1e-12
MIRROR_RTOL = 1e-12
ORACLE_RTOL = 1e-4
CONJUGACY_MAX = 1e-3
SLOPE_BAND = 0.2
# flags within this relative distance of their threshold may go either way
THRESHOLD_BAND = 1e-9


# ---------------------------------------------------------------------------
# closed forms


def sstar(n: int) -> float:
    """Biharmonic Sobolev constant
    S** = pi^2 n (n-4) (n^2-4) (Gamma(n/2)/Gamma(n))^(4/n)
    (Swanson 1992; Edmunds-Fortunato-Jannelli 1990)."""
    ratio = math.exp((4.0 / n) * (math.lgamma(0.5 * n) - math.lgamma(float(n))))
    return math.pi ** 2 * n * (n - 4) * (n * n - 4) * ratio


def sphere_area(n: int) -> float:
    """|S^(n-1)| = 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def gamma_exact(n: int, alpha: float) -> Fraction:
    """gamma = ((n-2)/2)^2 - ((alpha-2)/2)^2 at the exact value of the float."""
    a = Fraction(alpha)
    return Fraction(n - 2, 2) ** 2 - ((a - 2) / 2) ** 2


def rellich_exact(n: int, g: Fraction) -> Fraction:
    """min over k >= 0 of (k(n-2+k) + gamma)^2; the sphere levels grow
    with k, so the search stops once they pass -gamma."""
    best = None
    k = 0
    while True:
        d = k * (n - 2 + k) + g
        if best is None or d * d < best:
            best = d * d
        if d > 0:
            return best
        k += 1


def strictness_upper(n: int) -> float:
    """Upper end of the strictness interval, sqrt(4 + 2(n-2)^2(n-4)/(n-3))."""
    return math.sqrt(Fraction(4) + Fraction(2 * (n - 2) ** 2 * (n - 4), n - 3))


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def _near(x: float, threshold: float) -> bool:
    return abs(x - threshold) <= THRESHOLD_BAND * max(1.0, abs(threshold))


def _rc(out) -> list:
    return [] if out.rc == 0 else [f"exit code {out.rc}: {out.stderr.strip()[-200:]}"]


def _rows(out):
    return list(csv.DictReader(io.StringIO(out.stdout)))


def _bool(text: str) -> bool:
    return text == "true"


# ---------------------------------------------------------------------------
# ball-sweep


def check_bn_probe(params, out):
    """One operation per lambda. S** from its closed form, s_lambda
    non-increasing in lambda, the lambda = 0 row near S**, and a Pohozaev
    residual <= 0.1 on every converged row that reports one."""
    n, lams = params
    ref = sstar(n)
    rows = _rows(out) if out.rc == 0 else []
    results = []
    prev = None
    for i, lam in enumerate(lams):
        op_id = ("bn-probe", n, float(lam))
        if i >= len(rows):
            results.append((op_id, _rc(out) or ["row missing"]))
            continue
        row = rows[i]
        problems = []
        s = float(row["s_lambda"])
        if float(row["lambda"]) != float(lam):
            problems.append(f"lambda {row['lambda']} != {lam}")
        if not math.isfinite(s):
            problems.append("s_lambda is not finite")
        if _rel(float(row["sstar_num"]), ref) > CLOSED_FORM_RTOL:
            problems.append(f"sstar_num {row['sstar_num']} != closed form {ref!r}")
        if prev is not None and not s <= prev:
            problems.append(f"s_lambda {s!r} increased from {prev!r}")
        if lam == 0.0 and not abs(s - ref) <= LAMBDA0_BAND * ref:
            problems.append(f"lambda=0 row {s!r} not within {LAMBDA0_BAND} of S**")
        poh = float(row["pohozaev_A"])
        if _bool(row["converged"]) and math.isfinite(poh) and not poh <= POHOZAEV_MAX:
            problems.append(f"{POHOZAEV}: converged row has pohozaev_A {poh!r} > {POHOZAEV_MAX}")
        prev = s
        results.append((op_id, problems))
    return results


# ---------------------------------------------------------------------------
# radial-sweep


def _flag_problem(name: str, flag: bool, value: float, threshold: float):
    if _near(value, threshold) or flag == (value > threshold):
        return []
    return [f"{name}={flag} but {value!r} vs threshold {threshold!r}"]


def _bs_threshold(n: int, q: float) -> float:
    return (n - 1) * (1.0 + math.sqrt(q - 1.0)) / (q - 2.0)


def check_scan(params, out):
    """One operation per alpha row: s2_rad = gamma^2 and the Rellich
    constant in exact arithmetic, s_q_rad from mu_q, the closed-form
    symmetry-breaking flag, convergence, and mu_q(alpha) = mu_q(4 - alpha)."""
    n, q = params
    if out.rc != 0:
        return [(("scan", n, q, "command"), _rc(out))]
    rows = _rows(out)
    by_alpha = {float(r["alpha"]): r for r in rows}
    omega = sphere_area(n) ** ((q - 2.0) / q)
    thr = _bs_threshold(n, q)
    results = []
    for r in rows:
        a = float(r["alpha"])
        g = gamma_exact(n, a)
        scale = (1.0 + (n - 2) ** 2 / 4.0 + (a - 2.0) ** 2 / 4.0) ** 2
        problems = []
        mu = float(r["mu_q"])
        if not math.isfinite(mu):
            problems.append("mu_q is not finite")
        if not _bool(r["converged"]):
            problems.append("not converged")
        if abs(float(r["s2_rad"]) - float(g * g)) > 1e-12 * scale:
            problems.append(f"s2_rad {r['s2_rad']} != gamma^2 {float(g * g)!r}")
        rel = float(rellich_exact(n, g))
        if abs(float(r["rellich"]) - rel) > 4e-12 * scale:
            problems.append(f"rellich {r['rellich']} != {rel!r}")
        if _rel(float(r["s_q_rad"]), omega * mu) > CLOSED_FORM_RTOL and mu != 0.0:
            problems.append(f"s_q_rad {r['s_q_rad']} != omega^((q-2)/q) mu_q")
        problems += _flag_problem("bs_closed_form", _bool(r["bs_closed_form"]),
                                  abs(float(g)), thr)
        problems += _mirror_problem(a, mu, by_alpha)
        results.append((("scan", n, q, a), problems))
    return results


def _mirror_problem(a: float, mu: float, by_alpha: dict):
    m = by_alpha.get(4.0 - a)
    if m is None:
        near = [b for b in by_alpha if abs(b - (4.0 - a)) <= 1e-9]
        if not near:
            return []
        m = by_alpha[near[0]]
    b = float(m["alpha"])
    mu_m = float(m["mu_q"])
    # when 4 - alpha and both alpha - 2 are exact, the solver sees the same
    # gamma and gbar on both sides and must return the same bits
    if b == 4.0 - a and (a - 2.0) == -(b - 2.0):
        if mu != mu_m:
            return [f"mu_q({a!r}) = {mu!r} != mu_q({b!r}) = {mu_m!r} bitwise"]
        return []
    if _rel(mu, mu_m) > MIRROR_RTOL:
        return [f"mu_q({a!r}) = {mu!r} vs mu_q({b!r}) = {mu_m!r}"]
    return []


def check_phase(params, out):
    """One operation per alpha row: gamma, the breaking-positivity flag
    -gamma > (n-1)/2, the sphere threshold |alpha-2| > sqrt((n-1)^2+1),
    the first two sphere levels and the closed-form symmetry flag."""
    n, q = params
    if out.rc != 0:
        return [(("phase", n, q, "command"), _rc(out))]
    thr = _bs_threshold(n, q)
    sphere_thr = math.sqrt((n - 1) ** 2 + 1)
    results = []
    for r in _rows(out):
        a = float(r["alpha"])
        g = gamma_exact(n, a)
        scale = 1.0 + (n - 2) ** 2 / 4.0 + (a - 2.0) ** 2 / 4.0
        problems = []
        if abs(float(r["gamma_alpha"]) - float(g)) > 1e-12 * scale:
            problems.append(f"gamma_alpha {r['gamma_alpha']} != {float(g)!r}")
        problems += _flag_problem("break_pos", _bool(r["break_pos"]),
                                  float(-g), (n - 1) / 2.0)
        problems += _flag_problem("sphere_threshold_exceeded",
                                  _bool(r["sphere_threshold_exceeded"]),
                                  abs(a - 2.0), sphere_thr)
        if float(r["lambda1"]) != 0.0 or float(r["lambda2"]) != n - 1:
            problems.append(f"sphere levels {r['lambda1']}, {r['lambda2']} != 0, {n - 1}")
        problems += _flag_problem("bs_closed_form", _bool(r["bs_closed_form"]),
                                  abs(float(g)), thr)
        results.append((("phase", n, q, a), problems))
    return results


def check_consistency(params, report):
    """Conjugacy rescaling error <= 1e-3 and concavity of p log S(p)."""
    problems = []
    err = report.conjugate_relerr
    if err is None or not err <= CONJUGACY_MAX:
        problems.append(f"conjugate_relerr {err!r} > {CONJUGACY_MAX}")
    if not report.concavity_ok:
        problems.append("concavity not reported")
    return [(("consistency",) + tuple(params), problems)]


# ---------------------------------------------------------------------------
# certify


def _json(out):
    return json.loads(out.stdout) if out.rc == 0 else None


def check_verify(params, out):
    (n,) = params
    d = _json(out)
    problems = _rc(out)
    if d is not None and d.get("passed") is not True:
        problems.append("verify did not pass")
    return [(("verify", n), problems)]


def check_talenti(params, out):
    n, double_panels = params
    d = _json(out)
    problems = _rc(out)
    if d is not None:
        if d.get("passed") is not True:
            problems.append(f"worst_relerr {d.get('worst_relerr')!r} above tol")
        if _rel(d["sstar_num"], sstar(n)) > CLOSED_FORM_RTOL:
            problems.append(f"sstar_num {d['sstar_num']!r} != closed form {sstar(n)!r}")
    return [(("talenti", n, double_panels), problems)]


def check_ueps(params, out):
    """Biharmonic excess ~ eps^(n-4): fitted slope within 0.2 of n-4."""
    (n,) = params
    d = _json(out)
    problems = _rc(out)
    if d is not None:
        if not abs(d["slope_biharmonic"] - (n - 4)) <= SLOPE_BAND:
            problems.append(f"slope {d['slope_biharmonic']!r} not within {SLOPE_BAND} of {n - 4}")
        if _rel(d["sstar_num"], sstar(n)) > CLOSED_FORM_RTOL:
            problems.append(f"sstar_num {d['sstar_num']!r} != closed form {sstar(n)!r}")
    return [(("ueps", n), problems)]


def check_shifted_weight(params, out):
    """C_a = a(a+2)(n-2)/n and the inequality holds."""
    n, a = params
    d = _json(out)
    problems = _rc(out)
    if d is not None:
        ref = float(Fraction(a) * (Fraction(a) + 2) * (n - 2) / n)
        if _rel(d["C_a"], ref) > 1e-14:
            problems.append(f"C_a {d['C_a']!r} != {ref!r}")
        if d.get("inequality_ok") is not True:
            problems.append("inequality_ok is not true")
    return [(("shifted-weight", n, a), problems)]


def check_critical(params, out):
    """Interval (2, sqrt(4 + 2(n-2)^2(n-4)/(n-3))) and the predicate
    2 < |alpha-2| < upper."""
    n, alpha = params
    d = _json(out)
    problems = _rc(out)
    if d is not None:
        upper = strictness_upper(n)
        lo, hi = d["interval"]
        if lo != 2.0 or _rel(hi, upper) > 1e-14:
            problems.append(f"interval {d['interval']} != [2, {upper!r}]")
        shift = abs(alpha - 2.0)
        if not (_near(shift, 2.0) or _near(shift, upper)) and d["predicate"] != (2.0 < shift < upper):
            problems.append(f"predicate {d['predicate']} at |alpha-2| = {shift!r}")
    return [(("critical-check", n, alpha), problems)]


# ---------------------------------------------------------------------------
# oracle


def check_oracle(params, output):
    """The iterative solver and the brute-force oracle agree to 1e-4."""
    oracle, res = output
    problems = []
    if not res.converged:
        problems.append("minimize_mu_q did not converge")
    if not _rel(res.mu_q, oracle) <= ORACLE_RTOL:
        problems.append(f"mu_q {res.mu_q!r} vs oracle {oracle!r}")
    return [(("oracle",) + tuple(params), problems)]


CHECKS = {
    "bn-probe": check_bn_probe,
    "scan": check_scan,
    "phase": check_phase,
    "consistency": check_consistency,
    "verify": check_verify,
    "talenti": check_talenti,
    "ueps": check_ueps,
    "shifted-weight": check_shifted_weight,
    "critical-check": check_critical,
    "oracle": check_oracle,
}


def unexpected(op_id, problems) -> list:
    """The problems not explained by the known fault."""
    if op_id in KNOWN_FAULT:
        return [p for p in problems if not p.startswith(POHOZAEV)]
    return list(problems)


class Tally:
    """Operations attempted and failed over a run, and the problems no
    known fault explains (any one of them makes the run incorrect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, op, output) -> None:
        for op_id, problems in CHECKS[op.check](op.params, output):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{op_id}: {p}" for p in unexpected(op_id, problems)]

    @property
    def correct(self) -> bool:
        return not self.problems

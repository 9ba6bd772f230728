"""Breaking-symmetry and breaking-positivity certificates.

The symmetry certificate implements the second-variation test: on a
converged radial minimizer let

    xi^2 = int(|w''|^2 + 2 gbar |w'|^2 + gam^2 |w|^2) / int |w|^2 ,

then radial minimality among all competitors would force

    (q - 2) xi^2 <= (n - 1)^2 + 2 (n - 1) xi ,

so a positive defect Q = (q-2) xi^2 - 2(n-1) xi - (n-1)^2 certifies that no
extremal is radial."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (ConsistencyError, ParameterDomainError,
                     UnconvergedResultError)
from .spectrum import FULL_SPHERE, SpectrumModel, positivity_predicates
from .params import gamma_alpha, phase_thresholds, shift_ratio

if TYPE_CHECKING:
    from .radial_solver import MinimizationResult

CERTIFICATE_MARGIN = 1e-6


def closed_form_breaking(n: int, alpha: float, q: float) -> bool:
    """|gamma_alpha| beyond the closed-form threshold (n-1)(1+sqrt(q-1))/(q-2),
    decided exactly: with r = |gamma|(q-2)/(n-1) - 1 = num/d in ints, it is
    r > 0 and r^2 > q - 1.  False at q = 2; `phase_thresholds` refuses
    q < 2 and NaN."""
    if q == 2:
        return False
    phase_thresholds(n, q)
    p, den = shift_ratio(alpha)
    qn, qd = q.as_integer_ratio()
    d = 4 * den * den * qd * (n - 1)
    num = abs((n - 2) ** 2 * den * den - p * p) * (qn - 2 * qd) - d
    return num > 0 and num * num * qd > (qn - qd) * d * d


@dataclass(frozen=True)
class SymmetryCertificate:
    xi: float
    Q: float
    certified_broken: bool


def symmetry_certificate(result: MinimizationResult) -> SymmetryCertificate:
    if not result.converged or result.degenerate:
        raise UnconvergedResultError(
            "refusing to certify from an unconverged or degenerate minimizer "
            f"(converged={result.converged}, el_residual={result.el_residual:.3g})"
        )
    n, q = result.profile.params.n, float(result.profile.params.q)
    if q <= 2:
        raise ParameterDomainError("the second-variation test needs q > 2")

    # mu_q is w.A w of the line form at the profile; its hard zeros add 0
    w = result.profile.values
    xi = math.sqrt(result.mu_q / (result.profile.grid.h * float(np.sum(w**2))))
    Q = (q - 2.0) * xi**2 - 2.0 * (n - 1) * xi - (n - 1) ** 2
    return SymmetryCertificate(
        xi=xi, Q=Q, certified_broken=Q > CERTIFICATE_MARGIN * (n - 1) ** 2
    )


POSITIVITY_NOTE = (
    "sign-changing extremals are guaranteed only for exponents q in an "
    "interval (2, q_a) whose upper endpoint is not quantified; for larger q "
    "the flags are necessary-condition indicators only"
)


@dataclass(frozen=True)
class PositivityReport:
    break_pos: bool
    sphere_threshold_exceeded: bool
    lambda1: float
    lambda2: float


def positivity_phase(model: SpectrumModel, alpha: float) -> PositivityReport:
    """The model's breaking-positivity predicate and the sphere threshold
    |alpha - 2| > sqrt((n-1)^2 + 1), decided exactly on (alpha - 2)^2."""
    n = model.n
    preds = positivity_predicates(model, float(alpha))
    p, den = shift_ratio(float(alpha))
    exceeded = p * p > ((n - 1) ** 2 + 1) * den * den
    # on the full sphere the two predicates are algebraically identical
    if model.kind == FULL_SPHERE and preds.break_pos != exceeded:
        raise ConsistencyError(
            f"inconsistent positivity predicates at n={n}, alpha={alpha}")
    return PositivityReport(
        break_pos=preds.break_pos,
        sphere_threshold_exceeded=exceeded,
        lambda1=preds.lambda1,
        lambda2=preds.lambda2,
    )


@dataclass(frozen=True)
class PhaseRow:
    alpha: float
    gamma_alpha: float
    break_pos: bool
    sphere_threshold_exceeded: bool
    lambda1: float
    lambda2: float
    bs_closed_form: bool


def phase_row(model: SpectrumModel, alpha: float, q: Optional[float]) -> PhaseRow:
    """One row of `phase`: positivity at alpha and, given q, the closed-form flag."""
    n = model.n
    rep = positivity_phase(model, alpha)
    bs = closed_form_breaking(n, alpha, q) if q is not None else False
    return PhaseRow(float(alpha), float(gamma_alpha(n, alpha)), rep.break_pos,
                    rep.sphere_threshold_exceeded, rep.lambda1, rep.lambda2, bs)

"""The constrained inverse iteration shared by the line and ball minimizers
and the ball's lambda_21."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ckn.descent import RESIDUAL_TOL, inverse_iteration


def positive_weights(k):
    return 1.0 + 0.5 * np.sin(np.linspace(0.0, 3.0, k)) ** 2


def small_problem(m=40):
    """A 1-D Dirichlet Laplacian plus a shift, and positive weights."""
    one = np.ones(m)
    A = sp.diags([-one[:-1], 2.0 * one + 0.1, -one[:-1]], [-1, 0, 1]).tocsr()
    return A, positive_weights(m)


def mapped_problem(m=40):
    """The discrete buckling quotient |L x|^2 / sum w (Phi x)^2, with Phi the
    (m+1) x m first difference x -> x_j - x_(j-1) (zero ends) and
    L = Phi^T Phi the Dirichlet Laplacian."""
    one = np.ones(m)
    phi = sp.diags([one, -one], [0, -1], shape=(m + 1, m)).tocsr()
    L = phi.T @ phi
    return (L @ L).tocsr(), phi, positive_weights(m + 1)


@pytest.mark.parametrize("mapped", [False, True], ids=["identity", "difference"])
def test_p2_matches_smallest_generalized_eigenvalue(mapped):
    if mapped:
        A, phi, weights = mapped_problem()
    else:
        (A, weights), phi = small_problem(), None
    Ad = A.toarray()
    Phi = np.eye(A.shape[0]) if phi is None else phi.toarray()
    run = inverse_iteration(A, lambda r: np.linalg.solve(Ad, r),
                            np.ones(A.shape[0]), weights, 2.0, 400, phi=phi)
    lam_min = sla.eigh(Ad, Phi.T @ np.diag(weights) @ Phi, eigvals_only=True)[0]
    assert run.status == "residual"
    assert run.residual <= RESIDUAL_TOL
    assert run.value == pytest.approx(lam_min, rel=1e-10)
    assert float(weights @ (Phi @ run.x) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_one_iteration_reports_max_iters():
    A, weights = small_problem()
    Ad = A.toarray()
    run = inverse_iteration(A, lambda r: np.linalg.solve(Ad, r),
                            np.ones(len(weights)), weights, 2.0, 1)
    assert run.status == "max_iters"
    assert run.iterations == 1
    assert run.residual > RESIDUAL_TOL


def test_useless_direction_stalls():
    # a zero search direction accepts no step
    A, weights = small_problem()
    run = inverse_iteration(A, np.zeros_like, np.ones(len(weights)),
                            weights, 3.0, 50)
    assert run.status == "stalled"
    assert run.iterations == 1


def test_non_finite_residual_raises_before_the_solve():
    # A x overflows, so the residual is NaN; the callers' banded solves skip
    # their own scan for non-finite entries and rely on this refusal
    A = np.full((3, 3), 1e308)

    def solve(r):
        raise AssertionError("solve reached with a non-finite residual")

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        inverse_iteration(A, solve, np.ones(3), np.ones(3), 3.0, 10)

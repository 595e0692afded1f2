import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psem.errors import EstimationError, IncompatibleSensitivityError
from psem.mathutil import Checks, expit, solve_logit_mixture


# ---------------------------------------------------------------------------
# the iterative solver the closed form replaced, kept verbatim as an oracle


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires p in (0,1), got {p}")
    return math.log(p / (1.0 - p))


class ConvergenceError(EstimationError):
    """Root finder did not converge; carries the last iterate and residual."""


def solve_bracketed(f, lo: float, hi: float, tol: float = 1e-14,
                    max_iter: int = 200, scan: int = 64):
    """Root of f on [lo, hi]: bisection safeguarded by Newton (secant) steps.

    If f(lo) and f(hi) share a sign, the interval is scanned for a sign
    change first; failure to bracket raises IncompatibleSensitivityError,
    since in this package all scalar solves encode sensitivity-model
    constraints whose non-solvability signals parameter/data conflict.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        grid = [lo + (hi - lo) * k / scan for k in range(scan + 1)]
        vals = [f(x) for x in grid]
        for k in range(scan):
            if vals[k] == 0.0:
                return grid[k]
            if vals[k] * vals[k + 1] < 0.0:
                lo, hi, flo, fhi = grid[k], grid[k + 1], vals[k], vals[k + 1]
                break
        else:
            raise IncompatibleSensitivityError(
                f"no sign change of the constraint on [{lo}, {hi}]; "
                "sensitivity parameters are incompatible with the data")
    x_prev, f_prev = lo, flo
    x_cur, f_cur = hi, fhi
    for _ in range(max_iter):
        # secant proposal, safeguarded to remain inside the bracket
        denom = f_cur - f_prev
        if denom != 0.0:
            x_new = x_cur - f_cur * (x_cur - x_prev) / denom
        else:
            x_new = 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        f_new = f(x_new)
        if f_new == 0.0 or (hi - lo) < tol:
            return x_new
        if flo * f_new < 0.0:
            hi, fhi = x_new, f_new
        else:
            lo, flo = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    raise ConvergenceError(
        f"scalar solve did not converge: bracket [{lo}, {hi}], |f|={abs(f_cur):.3e}",
        theta=x_cur, residual=abs(f_cur))


def old_solve_logit_mixture(target: float, w1: float, delta: float,
                            bound: float = 45.0) -> tuple[float, float]:
    """Solve the pair  logit(p1) = logit(p2) + delta,  w1*p1 + (1-w1)*p2 = target.

    This is the common shape of every selection-bias constraint here: an
    odds-ratio link between two probabilities plus a known mixture of them.
    For w1 in [0,1] the mixture is strictly increasing in logit(p2) so the
    root is unique; w1 slightly outside [0,1] (reversed-ordering data) is
    tolerated via the safeguarded bracketed solve.

    Returns (p1, p2). Degenerate targets 0 and 1 return (target, target).
    """
    if target <= 0.0:
        if target < 0.0:
            raise IncompatibleSensitivityError(f"mixture target {target} < 0")
        return 0.0, 0.0
    if target >= 1.0:
        if target > 1.0:
            raise IncompatibleSensitivityError(f"mixture target {target} > 1")
        return 1.0, 1.0
    if delta == 0.0:
        return target, target
    if w1 == 0.0:
        return expit(logit(target) + delta), target
    if w1 == 1.0:
        return target, expit(logit(target) - delta)

    def f(u):
        return w1 * expit(u + delta) + (1.0 - w1) * expit(u) - target

    u = solve_bracketed(f, -bound, bound)
    return expit(u + delta), expit(u)


def outcome(solve, *args):
    try:
        return solve(*args)
    except Exception as exc:    # noqa: BLE001 - compared by class and text
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the closed form against the oracle


@settings(max_examples=2000, deadline=None)
@given(t=st.floats(1e-4, 1 - 1e-4), w=st.floats(0.0, 1.5), beta=st.floats(-10.0, 10.0))
@example(t=0.3, w=0.0, beta=2.0)
@example(t=0.3, w=1.0, beta=-2.0)
@example(t=0.3, w=0.4, beta=0.0)
@example(t=0.3, w=1.5, beta=-10.0)
@example(t=1 - 1e-4, w=1.5, beta=-10.0)
def test_closed_form_matches_bracketed_solver(t, w, beta):
    old, new = outcome(old_solve_logit_mixture, t, w, beta), outcome(solve_logit_mixture, t, w, beta)
    if isinstance(old[0], type):
        assert new[0] is old[0]
        return
    assert np.abs(np.subtract(new, old)).max() <= 1e-10
    p1, p2 = new    # and it solves both constraints, in the rows' product form
    assert abs(w * p1 + (1 - w) * p2 - t) <= 1e-10
    assert abs(p1 * (1 - p2) - np.exp(beta) * p2 * (1 - p1)) <= 1e-10 * max(1.0, np.exp(beta))


@settings(max_examples=1000, deadline=None)
@given(t=st.floats(1e-12, 1 - 1e-12), w=st.floats(0.0, 1.5), beta=st.floats(-40.0, 40.0))
@example(t=1 - 1e-6, w=0.4, beta=-30.0)
@example(t=1 - 1e-10, w=0.4, beta=-20.0)
def test_closed_form_fails_where_the_old_solver_fails_and_solves_elsewhere(t, w, beta):
    # on wider ranges the old solver loses digits of its own (w near 1 leaves
    # it a flat function), so it decides only success or failure here
    old, new = outcome(old_solve_logit_mixture, t, w, beta), outcome(solve_logit_mixture, t, w, beta)
    if old[0] is ConvergenceError:     # the closed form needs no convergence
        return
    if isinstance(old[0], type):
        assert new[0] is old[0]
        return
    p1, p2 = new
    assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
    assert abs(w * p1 + (1 - w) * p2 - t) <= 1e-12


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_closed_form_special_cases_are_exact(t):
    assert solve_logit_mixture(t, 0.4, 0.0) == (t, t)
    assert solve_logit_mixture(t, 0.0, 1.5)[1] == t
    assert solve_logit_mixture(t, 1.0, 1.5)[0] == t
    assert solve_logit_mixture(0.0, 0.4, 1.5) == (0.0, 0.0)
    assert solve_logit_mixture(1.0, 0.4, 1.5) == (1.0, 1.0)


@pytest.mark.parametrize("args", [
    (0.0, 0.4, 1.0), (1.0, 0.4, 1.0), (-0.1, 0.4, 1.0), (1.1, 0.4, 1.0),
    (0.3, 0.4, 60.0), (0.3, 0.4, -60.0), (0.9, 0.4, -60.0), (1e-25, 0.5, 0.0),
    (0.3, 0.0, 1.0), (0.3, 1.0, -1.0),
])
def test_closed_form_special_cases_and_failures(args):
    old, new = outcome(old_solve_logit_mixture, *args), outcome(solve_logit_mixture, *args)
    if isinstance(old[0], type):
        assert new == old
    else:
        assert np.abs(np.subtract(new, old)).max() <= 1e-15


def test_array_solve_is_the_scalar_solve_elementwise():
    # bitwise: numpy evaluates some operations on a scalar differently (a
    # scalar x ** 2 is pow(), an array's is x * x), and grid cells must
    # equal point fits
    rng = np.random.default_rng(4)
    n = 5000
    t = np.concatenate([rng.uniform(0, 1, n), [-0.2, 0.0, 1.0, 1.3, 0.3, 0.9]])
    w = np.concatenate([rng.uniform(0, 1.5, n), [0.4, 0.4, 0.4, 0.4, 0.0, 0.4]])
    beta = np.concatenate([rng.uniform(-12, 12, n), [1.0, 1.0, 1.0, 1.0, 2.0, -60.0]])
    checks = Checks(t.shape)
    p1, p2 = solve_logit_mixture(t, w, beta, checks)
    for i in range(t.size):
        scalar = outcome(solve_logit_mixture, t[i], w[i], beta[i])
        if i in checks.failed:
            exc = checks.failed[i]
            assert scalar == (type(exc), str(exc))
        else:
            assert (p1[i], p2[i]) == scalar
    assert sorted(checks.failed) == [n, n + 3, n + 5]


def test_checks_keep_each_elements_first_failure():
    checks = Checks((4,))
    checks(np.array([True, False, True, False]), EstimationError, lambda v: f"first {v}",
           np.arange(4.0))
    checks(np.array([True, True, False, False]), IncompatibleSensitivityError,
           lambda: "second")
    checks(False, EstimationError, lambda: "never")
    checks(True, EstimationError, lambda: "point-free")    # fails every element
    assert {i: (type(e), str(e)) for i, e in checks.failed.items()} == {
        0: (EstimationError, "first 0.0"), 1: (IncompatibleSensitivityError, "second"),
        2: (EstimationError, "first 2.0"), 3: (EstimationError, "point-free")}
    # without a shape the first failing element raises
    with pytest.raises(EstimationError, match="^first 2.0$"):
        Checks()(np.array([False, False, True, True]), EstimationError,
                 lambda v: f"first {v}", np.arange(4.0))
    Checks()(np.bool_(False), EstimationError, lambda: "never")

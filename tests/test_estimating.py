import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psem
from psem import core, demo, tables
from psem.core import Scenario, SensitivityPoint, delta_method
from psem.errors import EstimationError, OrderingError, PsemError
from psem.mathutil import expit
from psem.weights import WeightModel

from conftest import (failure_map, make_records, random_cb_dataset, scenario_dataset,
                      weighted_from_blocks)


# ---------------------------------------------------------------------------
# the stacked sandwich on the cell path


def test_identified_subgroup_mean_se_is_closed_form():
    worked = [(20, 1, 0, 0, 1), (20, 1, 0, 0, 0), (6, 1, 0, 1, 1),
              (54, 1, 0, 1, 0), (30, 0, 0, 0, 1), (70, 0, 0, 0, 0)]
    # 3 active survivors and 2 controls: population, not n - 1, convention
    tiny = [(1, 1, 0, 0, 1), (2, 1, 0, 1, 0), (1, 0, 0, 0, 1), (1, 0, 0, 0, 0)]
    for blocks in (worked, tiny):
        est = psem.estimate_identified(
            weighted_from_blocks(blocks, WeightModel.design_known(1.0)), Scenario.B)
        survivors = [r for r in make_records(blocks) if r.y_tau == 0]
        groups = {
            "risk1": [r.y for r in survivors if r.z == 1],
            "risk0": [r.y for r in survivors if r.z == 0],
            "p00": [1 - r.marker.value for r in survivors if r.z == 1],
        }
        for name, values in groups.items():
            p, n_sel = sum(values) / len(values), len(values)
            assert est.value(name) == pytest.approx(p, abs=1e-15)
            assert est.se(name) == pytest.approx(math.sqrt(p * (1 - p) / n_sel),
                                                 abs=1e-12)


def _mean_stack(cells, scale=1.0):
    """A stack of one row, scale * (y - m), solved at the mean m of y over
    ``cells``, batched or not (one dataset is the batch of one)."""
    st = core._Stack(cells)
    y = st.cells.y.astype(float)
    core._mean(st, "m", 1.0, y, "every cell")
    st.fns[0] = lambda d: scale * (y - d["m"])
    return st


def test_stacked_residual_check_fails_a_nan_solution():
    st = _mean_stack(tables.from_arrays([0] * 8, [0] * 8, [0] * 8, [0] * 3 + [1] * 5))
    st.sol["m"][0] = np.nan
    st.sandwich()       # the stack records its failure; it does not raise
    failed = failure_map(st.checks.failed, flat=True)
    assert list(failed) == [0]
    assert isinstance(failed[0], EstimationError)
    assert "stacked residual nan exceeds tolerance" in str(failed[0])


def test_batched_sandwich_fails_each_replicate_alone():
    count = np.zeros((3, 32))
    count[:, :2] = [[3.0, 5.0], [4.0, 4.0], [2.0, 6.0]]
    # replicate 1's row is identically zero (a singular bread), replicate 2
    # is solved at NaN (a residual that is not within tolerance)
    st = _mean_stack(tables.from_counts(count), scale=np.array([[1.0], [0.0], [1.0]]))
    st.sol["m"][2] = np.nan
    theta, cov = st.sandwich()
    failed = failure_map(st.checks.failed, flat=True)
    assert sorted(failed) == [1, 2]
    assert str(failed[1]) == "singular bread matrix in the stacked fit"
    assert str(failed[2]).startswith("stacked residual nan exceeds tolerance")
    one = _mean_stack(tables.from_counts(count[0]))
    theta0, cov0 = one.sandwich()
    assert theta.shape == (1, 3, 1) and cov.shape == (3, 1, 1, 1)
    assert theta0.shape == (1, 1, 1) and cov0.shape == (1, 1, 1, 1)
    assert np.array_equal(theta[:, 0, 0], theta0[:, 0, 0])
    assert cov[0, 0] == pytest.approx(cov0[0, 0], rel=1e-15)
    assert cov0[0, 0, 0, 0] == pytest.approx(5 / 8 * 3 / 8 / 8, rel=1e-14)


def test_batched_sandwich_skips_replicates_that_already_failed():
    count = np.zeros((4, 32))
    count[[0, 1, 3], :2] = [[3.0, 5.0], [4.0, 4.0], [2.0, 6.0]]
    # replicate 2 is empty, so its mean fails and its bread is all NaN; the
    # singular bread of replicate 1 fails it alone, and the batch inverts again
    with np.errstate(all="ignore"):
        st = _mean_stack(tables.from_counts(count), scale=np.array([[1.0], [0.0], [1.0], [1.0]]))
        theta, cov = st.sandwich()
    failed = failure_map(st.checks.failed, flat=True)
    assert sorted(failed) == [1, 2]
    assert str(failed[1]) == "singular bread matrix in the stacked fit"
    assert str(failed[2]) == "empty stratum: no observations for every cell"
    for b in (0, 3):
        theta_b, cov_b = _mean_stack(tables.from_counts(count[b])).sandwich()
        assert np.array_equal(theta[:, b, 0], theta_b[:, 0, 0])
        assert cov[b, 0] == pytest.approx(cov_b[0, 0], rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), counts=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)),
                                       min_size=1, max_size=12))
def test_batched_sandwich_fails_exactly_the_singular_breads(data, counts):
    """A batch in which a random subset of replicates has a singular bread (a
    row scaled by 0): each of those fails with the singular-bread message, and
    every other replicate reads its own one-dataset sandwich."""
    singular = np.array(data.draw(st.lists(st.booleans(), min_size=len(counts),
                                           max_size=len(counts))))
    count = np.zeros((len(counts), 32))
    count[:, :2] = counts
    stack = _mean_stack(tables.from_counts(count), scale=np.where(singular, 0.0, 1.0)[:, None])
    theta, cov = stack.sandwich()
    failed = failure_map(stack.checks.failed, flat=True)
    assert sorted(failed) == np.flatnonzero(singular).tolist()
    assert {str(e) for e in failed.values()} <= {"singular bread matrix in the stacked fit"}
    for b in np.flatnonzero(~singular).tolist():
        theta_b, cov_b = _mean_stack(tables.from_counts(count[b])).sandwich()
        assert np.array_equal(theta[:, b, 0], theta_b[:, 0, 0])
        assert cov[b, 0] == pytest.approx(cov_b[0, 0], rel=1e-15)


def test_bootstrap_sd_matches_the_sandwich_se():
    """2,000 multinomial resamples of the demo trial's occupied cells, fitted
    as one batched block (scenario B at beta0 = 0, design-known nu, additive
    contrast): the bootstrap SD of mu over the resamples that fit is within
    10% of the sandwich SE of the trial itself (Efron and Tibshirani, 1993)."""
    cells = tables.from_records(demo.synthetic_trial())
    assert (len(cells.count), cells.n) == (10, 2496.0)
    model = WeightModel.design_known(demo.implied_subcohort_fraction())
    se = psem.cep(psem.fit_scenario(psem.fit_missingness(cells, model),
                                    SensitivityPoint(Scenario.B)), "additive").mu_se
    draws = np.zeros((2000, 32))
    draws[:, tables.cell_code(cells.z, cells.yt, cells.s, cells.y)] = \
        np.random.default_rng(20261018).multinomial(2496, cells.count / 2496, size=2000)
    grid = psem.sweep(psem.fit_missingness(tables.from_counts(draws), model),
                      psem.SensitivityConfig(Scenario.B), targets=("mu",))
    assert grid.values.shape == (3, 2000, 1)
    failed = sorted({b for b, _ in failure_map(grid.failures)})
    assert 0 < len(failed) < 0.1 * 2000      # about 4%: risk1_10 leaves [0, 1]
    mu = np.delete(grid.row("mu")[:, 0], failed)
    assert 0.90 <= np.std(mu, ddof=1) / se <= 1.10


@settings(max_examples=60, deadline=None)
@given(scenario=st.sampled_from([Scenario.B, Scenario.C_HARM]), seed=st.integers(0, 2**16))
def test_selection_sace_at_beta_zero_is_each_arms_survivor_risk(scenario, seed):
    """On the survival state at beta = 0, the always-stratum means are the
    survivor risks of the two arms. ``selection_sace`` reaches the one arm's
    through the selection solve and its array expit rows, so its values and
    variances agree with ``estimate_identified``'s direct means to rounding."""
    w = scenario_dataset(scenario, seed, 1500, 0.5)
    est = psem.estimate_identified(w, Scenario.B)
    fits = []
    for direction in core.Direction:    # the one whose survival ordering holds
        try:
            fits.append(psem.selection_sace(w, lambda r: 1 - r.y_tau, 0.0, direction))
        except OrderingError:
            pass
    assume(fits)
    (fit,) = fits
    assert type(fit.p11_treated) is float and type(fit.p11_control) is float
    for k, (value, name) in enumerate(((fit.p11_treated, "risk1"), (fit.p11_control, "risk0"))):
        assert abs(value - est.value(name)) <= 1e-15
        i = est.index(name)
        assert fit.cov[k, k] == pytest.approx(est.cov[i, i], rel=1e-14, abs=0.0)


def _rows_at(st, theta):
    """Per-cell values (ncells x p) of every row of ``st`` at theta (p,), from
    constant duals (zero gradient), so nothing here is differentiated; a
    batch-of-one stack reads as its one dataset."""
    d = {name: core._Dual(t, 0.0) for name, t in zip(st.names, theta)}
    return np.column_stack([np.broadcast_to(fn(d).v, st.cells.count.shape).reshape(-1)
                            for fn in st.fns])


def test_stack_sandwich_matches_per_record_brute_force(monkeypatch):
    stacks = []
    real_finalize = core._finalize

    def capture(st, with_cov, report=None):
        stacks.append(st)
        return real_finalize(st, with_cov, report)

    monkeypatch.setattr(core, "_finalize", capture)
    cases = [
        (random_cb_dataset(np.random.default_rng(11), n=400, nu=0.5),
         SensitivityPoint(Scenario.B, {"beta0": 0.7})),
        (scenario_dataset(Scenario.A, 11, 1500, 0.5),
         SensitivityPoint(Scenario.A, {"beta0": 0.7, "beta1_reversed": -0.4})),
    ]
    for weighted, point in cases:
        stacks.clear()
        fit = psem.fit_scenario(weighted, point)
        (st,) = stacks

        # independent assembly: one row per record, a fixed step of 1e-5
        count = st.cells.count.reshape(-1)     # the fit is a batch of one
        cells_of_records = np.repeat(np.arange(len(count)), count.astype(int))
        n = cells_of_records.size

        def per_record(theta):
            return _rows_at(st, theta)[cells_of_records]

        theta = st.theta().reshape(-1)
        u = per_record(theta)
        meat = sum(np.outer(row, row) for row in u) / n
        h = 1e-5
        p = theta.size
        bread = np.empty((p, p))
        for j in range(p):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            bread[:, j] = (per_record(tp).sum(axis=0)
                           - per_record(tm).sum(axis=0)) / (2 * h * n)
        binv = np.linalg.inv(bread)
        expected = binv @ meat @ binv.T / n
        # the reported names, picked out of the full stack by name
        idx = [st.names.index(name) for name in fit.names]
        assert np.array_equal(fit.theta, theta[idx])
        assert np.allclose(fit.cov, expected[np.ix_(idx, idx)], rtol=0, atol=1e-8)


# cell blocks (z, y_tau, marker, y[, measured]) covering every scenario's
# strata, including unmeasured survivors so the logistic weights are fitted
_BLOCK_TYPES = [
    (1, 0, 0, 1), (1, 0, 0, 0), (1, 0, 1, 1), (1, 0, 1, 0),
    (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0),
    (1, 1, "*", 1), (0, 1, "*", 1), (1, 0, None, 0), (0, 0, None, 0),
]


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(1, 25), min_size=len(_BLOCK_TYPES),
                       max_size=len(_BLOCK_TYPES)),
       beta=st.floats(-1.5, 1.5), seed=st.integers(0, 2**32 - 1))
def test_fit_invariant_to_record_order(counts, beta, seed):
    records = make_records([(c, *b) for c, b in zip(counts, _BLOCK_TYPES)])
    shuffled = records[:]
    random.Random(seed).shuffle(shuffled)

    def fits(recs):
        weighted = psem.fit_missingness(recs)
        out = []
        for scenario in Scenario:
            point = SensitivityPoint(scenario, dict.fromkeys(scenario.sensitivity_keys, beta))
            try:
                est = psem.fit_scenario(weighted, point)
                out.append((est.theta.tobytes(), est.cov.tobytes()))
            except PsemError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    assert fits(records) == fits(shuffled)


# ---------------------------------------------------------------------------
# exact derivatives: dual numbers against analytic and finite differences


def test_dual_arithmetic_matches_analytic_derivatives():
    x = core._Dual(0.3, np.array([1.0, 0.0]))
    y = core._Dual(-1.2, np.array([0.0, 1.0]))
    a, c = np.array([0.5, 2.0, -1.0]), np.float64(1.7)
    cases = [   # (dual result, value, gradient in (x, y))
        (x * y + c, 0.3 * -1.2 + 1.7, [-1.2, 0.3]),
        (c - x * y, 1.7 - 0.3 * -1.2, [1.2, -0.3]),
        (c * x - y * c, 1.7 * 1.5, [1.7, -1.7]),
        (x - c + 2.0 * y, 0.3 - 1.7 - 2.4, [1.0, 2.0]),
        (a * x, a * 0.3, np.outer(a, [1.0, 0.0])),
        (y * a - a, a * -1.2 - a, np.outer(a, [0.0, 1.0])),
        (a - x * y, a + 0.36, np.broadcast_to([1.2, -0.3], (3, 2))),
        (c + y, 1.7 - 1.2, [0.0, 1.0]),
        ((a + x) * (y - a), (0.3 + a) * (-1.2 - a),
         np.column_stack([-1.2 - a, 0.3 + a])),
        (1.0 + (a * x) * (y + c), 1.0 + a * 0.3 * 0.5,
         np.column_stack([a * 0.5, a * 0.3])),
    ]
    e = expit(0.3 * -1.2 + 1.7)
    cases.append((core._expit(x * y + c), e, e * (1 - e) * np.array([-1.2, 0.3])))
    ea = np.array([expit(v) for v in a * 0.3 - 1.2])
    cases.append((core._expit(a * x + y), ea,
                  (ea * (1 - ea))[:, None] * np.column_stack([a, np.ones(3)])))
    for dual, value, grad in cases:
        assert isinstance(dual, core._Dual)
        assert np.allclose(dual.v, value, rtol=1e-15, atol=1e-15)
        assert np.allclose(np.broadcast_to(dual.g, np.shape(value) + (2,)), grad,
                           rtol=1e-14, atol=1e-15)
    assert core._expit(core._Dual(0.25, 0.0)).v == expit(0.25)


def _fd_cov(st):
    """(theta, cov) of ``st``'s sandwich with a central-difference bread; a
    batch-of-one stack reads as its one dataset."""
    count = st.cells.count.reshape(-1)
    n = count.sum()
    theta = st.theta().reshape(-1)
    u = _rows_at(st, theta)
    binv = np.linalg.inv(core._fd_jacobian(lambda t: count @ _rows_at(st, t) / n, theta))
    return theta, binv @ ((u * count[:, None]).T @ u / n) @ binv.T / n


def _assert_rel_close(exact, reference, rtol=1e-7):
    exact, reference = np.asarray(exact), np.asarray(reference)
    assert np.all(np.abs(exact - reference) <= rtol * np.abs(reference)), (exact, reference)


@pytest.mark.parametrize("kind", [*Scenario, "selection_sace"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), betas=st.lists(st.floats(-1.5, 1.5), min_size=4,
                                                  max_size=4))
def test_exact_ses_match_finite_differences(kind, seed, betas):
    stacks = []
    real_finalize = core._finalize

    def capture(st, with_cov, report=None):
        stacks.append(st)
        return real_finalize(st, with_cov, report)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_finalize", capture)
        try:
            if kind == "selection_sace":   # arm-1 survival below arm-0's: standard
                w = scenario_dataset(Scenario.C_HARM, seed, 1500, 0.5)
                fit = psem.selection_sace(w, lambda r: 1 - r.y_tau, betas[0])
            else:
                w = scenario_dataset(kind, seed, 1500, 0.5)
                fit = psem.fit_scenario(w, SensitivityPoint(
                    kind, dict(zip(kind.sensitivity_keys, betas))))
        except PsemError:
            return
    (stack,) = stacks
    theta, cov = _fd_cov(stack)
    report = ("p11t", "p11c") if kind == "selection_sace" else fit.names
    idx = [stack.names.index(name) for name in report]
    cov = cov[np.ix_(idx, idx)]
    _assert_rel_close(np.sqrt(np.diag(fit.cov)), np.sqrt(np.diag(cov)))
    if kind == "selection_sace":
        return
    for contrast in core.Contrast:
        try:
            exact = psem.cep(fit, contrast)
        except PsemError:
            continue
        jac = core._fd_jacobian(core.target_map(kind, fit.names, contrast), theta[idx])
        _assert_rel_close([*exact.ses.values(), exact.mu_se],
                          np.sqrt(np.diag(jac @ cov @ jac.T)))


# ---------------------------------------------------------------------------
# finite-difference derivatives and the delta method


def test_fd_gradient_matches_analytic_polynomial():
    # F(t) = (t0^2 + 2 t1 - 3, t0 t1 - 1): check the internal Jacobian
    from psem.core import _fd_jacobian
    theta = np.array([1.3, -0.7])
    jac = _fd_jacobian(lambda t: np.array([t[0] ** 2 + 2 * t[1] - 3,
                                           t[0] * t[1] - 1]), theta)
    exact = np.array([[2 * theta[0], 2.0], [theta[1], theta[0]]])
    assert np.max(np.abs(jac - exact)) / np.max(np.abs(exact)) < 1e-6


def test_fd_jacobian_non_square():
    from psem.core import _fd_jacobian
    theta = np.array([0.5, -1.2, 2.0])
    jac = _fd_jacobian(lambda t: np.array([t[0] * t[1] + t[2], t[2] ** 2 - t[0]]),
                       theta)
    exact = np.array([[theta[1], theta[0], 1.0], [-1.0, 0.0, 2 * theta[2]]])
    assert jac.shape == (2, 3)
    assert np.max(np.abs(jac - exact)) < 1e-9


def test_delta_rejects_infinite_neighbor():
    def g(t):
        return math.inf if t[0] > 0.3 else t[0]

    with pytest.raises(ValueError, match="neighborhood"):
        delta_method(g, np.array([0.3, 1.0]), np.eye(2))


def test_delta_identity():
    value, var = delta_method(lambda t: t[0], np.array([0.3]), np.array([[0.04]]))
    assert value == pytest.approx(0.3)
    assert var == pytest.approx(0.04, rel=1e-9)


def test_delta_ratio():
    value, var = delta_method(lambda t: t[0] / t[1], np.array([1.0, 2.0]),
                              np.diag([0.04, 0.09]))
    assert value == pytest.approx(0.5)
    assert var == pytest.approx(0.01 + 0.005625, rel=1e-7)


def test_delta_difference_with_covariance():
    cov = np.array([[0.01, 0.002], [0.002, 0.02]])
    value, var = delta_method(lambda t: t[0] - t[1], np.array([0.3, 0.5]), cov)
    assert value == pytest.approx(-0.2)
    assert var == pytest.approx(0.026, rel=1e-9)


def test_delta_invariant_to_additive_constant():
    theta = np.array([0.4, 1.1])
    cov = np.array([[0.02, -0.003], [-0.003, 0.05]])
    _, v1 = delta_method(lambda t: t[0] * t[1], theta, cov)
    _, v2 = delta_method(lambda t: t[0] * t[1] + 17.0, theta, cov)
    assert v1 == pytest.approx(v2, rel=1e-6)    # FD gradients, not exact

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psem
from psem import core
from psem.core import Scenario, SensitivityPoint, delta_method
from psem.errors import PsemError
from psem.weights import WeightModel

from conftest import make_records, random_cb_dataset, weighted_from_blocks


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


def test_stack_sandwich_matches_per_record_brute_force(monkeypatch):
    weighted = random_cb_dataset(np.random.default_rng(11), n=400, nu=0.5)
    stacks = []
    real_finalize = core._finalize

    def capture(st, with_cov, report=None):
        stacks.append(st)
        return real_finalize(st, with_cov, report)

    monkeypatch.setattr(core, "_finalize", capture)
    fit = psem.fit_scenario_b(weighted, beta0=0.7)
    (st,) = stacks
    assert fit.names == tuple(st.names)

    # independent assembly: one row per record, a fixed step of 1e-5
    cells_of_records = np.repeat(np.arange(len(st.cells.count)),
                                 st.cells.count.astype(int))
    n = cells_of_records.size

    def per_record(theta):
        return st.contribs(theta)[cells_of_records]

    u = per_record(fit.theta)
    meat = sum(np.outer(row, row) for row in u) / n
    h = 1e-5
    p = fit.theta.size
    bread = np.empty((p, p))
    for j in range(p):
        tp, tm = fit.theta.copy(), fit.theta.copy()
        tp[j] += h
        tm[j] -= h
        bread[:, j] = (per_record(tp).sum(axis=0) - per_record(tm).sum(axis=0)) / (2 * h * n)
    binv = np.linalg.inv(bread)
    expected = binv @ meat @ binv.T / n
    assert np.allclose(fit.cov, expected, rtol=0, atol=1e-8)


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

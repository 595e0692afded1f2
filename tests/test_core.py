import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psem
from psem import core, tables
from psem.core import Contrast, Direction, Scenario, SensitivityPoint
from psem.errors import (ConfigError, EstimationError, OrderingError)
from psem.mathutil import expit, fisher_exact_two_sided
from psem.weights import WeightModel, fit_missingness

from conftest import fit, random_cb_dataset, scenario_dataset, weighted_from_blocks


def logit(p):
    return math.log(p / (1 - p))


def s_survivor(r):
    return 1 - r.y_tau


def s_negative_survivor(r):
    if r.y_tau == 1:
        return 0
    if r.marker is None:
        return None
    return 1 - r.marker


def s_positive_survivor(r):
    if r.y_tau == 1:
        return 0
    if r.marker is None:
        return None
    return r.marker


# ---------------------------------------------------------------------------
# identified quantities


def test_identified_full_cohort(worked_weighted):
    est = psem.estimate_identified(worked_weighted, Scenario.B)
    assert est.value("risk1") == pytest.approx(0.26, abs=1e-12)
    assert est.value("risk0") == pytest.approx(0.30, abs=1e-12)
    assert est.value("p00") == pytest.approx(0.4, abs=1e-12)
    assert est.value("p10") == pytest.approx(0.6, abs=1e-12)


def test_identified_ipw_proportion():
    # 20 surviving controls sampled at nu=0.5 (10 measured, 4 negative)
    # plus 5 fully measured cases (4 negative): Hajek p00 = 12/25
    w = weighted_from_blocks([
        (4, 1, 0, 0, 0), (6, 1, 0, 1, 0), (10, 1, 0, None, 0),
        (4, 1, 0, 0, 1), (1, 1, 0, 1, 1),
        (10, 0, 0, 0, 0),
    ], WeightModel.design_known(0.5))
    est = psem.estimate_identified(w, Scenario.B)
    assert est.value("p00") == pytest.approx(12 / 25, abs=1e-12)


def test_identified_degenerate_marker_split():
    w = weighted_from_blocks([(30, 1, 0, 0, 0), (10, 0, 0, 0, 0)])
    with pytest.raises(EstimationError, match=r"p\(1,0\)"):
        psem.estimate_identified(w, Scenario.B)


_P10_CALLERS = {
    "identified_A": lambda w: psem.estimate_identified(w, Scenario.A),
    "identified_B": lambda w: psem.estimate_identified(w, Scenario.B),
    "fit_B": lambda w: fit(w, Scenario.B, beta0=0.5),
    "fit_A": lambda w: fit(w, Scenario.A, beta0=0.5, beta1_reversed=-0.5),
    "fit_C_harm": lambda w: fit(w, Scenario.C_HARM, beta0=0.5, beta1_marginal=0.5),
    "mean_shift_A": lambda w: psem.mean_shift_cep(w, 0.0, 0.0, Scenario.A),
    "mean_shift_B": lambda w: psem.mean_shift_cep(w, 0.0, 0.0, Scenario.B),
}


@pytest.mark.parametrize("caller", sorted(_P10_CALLERS))
def test_p10_callers_share_one_error(caller):
    # the lone active-arm positive is a case (weight 1) beside controls of
    # weight 1e17, so the IPW p(0,0) rounds to 1: p(1,0) is 0 in scenario B
    # and C_harm, and 1 - 1 - p(1,1) = -0.5 in scenario A
    w = weighted_from_blocks(
        [(100, 1, 0, 0, 0), (1, 1, 0, 1, 1), (10, 0, 0, 0, 0), (10, 0, 0, 1, 0)],
        WeightModel.design_known(1e-17, eps=1e-18))
    with pytest.raises(EstimationError,
                       match=r"^estimated p\(1,0\) = (0|-0\.5) is not positive; the "
                             r"always-survivor effect-modification stratum is empty"):
        _P10_CALLERS[caller](w)


def test_identified_scenario_c_rejected(worked_weighted):
    with pytest.raises(ConfigError):
        psem.estimate_identified(worked_weighted, Scenario.C_PROTECT)


# ---------------------------------------------------------------------------
# the always-survivor selection-model estimator


@pytest.fixture
def gbh_blocks():
    # arm 1: 125 (25 early, survivors with 26 events) -> survivor frac 0.8
    # arm 0: 1000 (100 early, survivors with 270 events) -> survivor frac 0.9
    return [
        (25, 1, 1, "*", 1), (26, 1, 0, 0, 1), (74, 1, 0, 0, 0),
        (100, 0, 1, "*", 1), (270, 0, 0, 0, 1), (630, 0, 0, 0, 0),
    ]


def test_selection_sace_no_bias(gbh_blocks):
    fit = psem.selection_sace(weighted_from_blocks(gbh_blocks), s_survivor, 0.0)
    assert fit.p11_treated == pytest.approx(0.26, abs=1e-12)
    assert fit.p11_control == pytest.approx(0.30, abs=1e-12)
    assert fit.cov.shape == (2, 2)


def test_selection_sace_identical_arms_null():
    blocks = [(10, z, 1, "*", 1) for z in (0, 1)]
    blocks += [(30, z, 0, 0, 1) for z in (0, 1)]
    blocks += [(70, z, 0, 0, 0) for z in (0, 1)]
    # identical arms violate the strict ordering, so perturb arm 1 by one
    # early event and keep survivor outcomes identical
    blocks.append((1, 1, 1, "*", 1))
    fit = psem.selection_sace(weighted_from_blocks(blocks), s_survivor, 0.0)
    assert fit.p11_treated - fit.p11_control == pytest.approx(0.0, abs=1e-12)


def test_selection_sace_matches_grid_oracle(gbh_blocks):
    """The nuisance intercept solve agrees with a brute-force grid over the
    margin-identity equation."""
    beta = 0.5
    w = weighted_from_blocks(gbh_blocks)
    fit = psem.selection_sace(w, s_survivor, beta)
    pS1, pS0 = 100 / 125, 900 / 1000
    q0 = 0.30
    rho = pS1 / pS0

    def margin(a):
        return (1 - q0) * expit(a) + q0 * expit(a + beta) - rho

    grid = np.linspace(-20, 20, 400001)
    vals = np.array([margin(a) for a in grid])
    k = int(np.argmin(np.abs(vals)))
    alpha_oracle = grid[k]
    assert fit.alpha == pytest.approx(alpha_oracle, abs=1e-4)
    p11c_oracle = expit(alpha_oracle + beta) * q0 * pS0 / pS1
    assert fit.p11_control == pytest.approx(p11c_oracle, abs=1e-6)


def test_selection_sace_ordering_violation(gbh_blocks):
    w = weighted_from_blocks(gbh_blocks)
    with pytest.raises(OrderingError):
        psem.selection_sace(w, s_survivor, 0.0, Direction.REVERSED)


def test_selection_sace_reversed_direction():
    # swap the arms of gbh_blocks so the reversed direction applies
    blocks = [
        (25, 0, 1, "*", 1), (26, 0, 0, 0, 1), (74, 0, 0, 0, 0),
        (100, 1, 1, "*", 1), (270, 1, 0, 0, 1), (630, 1, 0, 0, 0),
    ]
    fit = psem.selection_sace(weighted_from_blocks(blocks), s_survivor, 0.0,
                              Direction.REVERSED)
    assert fit.p11_control == pytest.approx(0.26, abs=1e-12)
    assert fit.p11_treated == pytest.approx(0.30, abs=1e-12)


# ---------------------------------------------------------------------------
# scenario B


def test_scenario_b_no_bias(worked_weighted):
    est = fit(worked_weighted, Scenario.B, beta0=0.0)
    assert est.value("risk0_00") == est.value("risk0_10") == est.value("risk0")
    result = psem.cep(est, Contrast.ADDITIVE)
    assert result.values["00"] == pytest.approx(0.2, abs=1e-12)
    assert result.values["10"] == pytest.approx(-0.2, abs=1e-12)
    assert result.mu == pytest.approx(-0.4, abs=1e-12)


def test_scenario_b_worked_algebra(worked_weighted):
    est = fit(worked_weighted, Scenario.B, beta0=math.log(1.8))
    assert est.value("risk0_10") == pytest.approx(0.25, abs=1e-9)
    assert est.value("risk0_00") == pytest.approx(0.375, abs=1e-9)
    # the solved pair reproduces the odds-ratio and mixing constraints
    odds = (0.375 / 0.625) / (0.25 / 0.75)
    assert odds == pytest.approx(1.8, abs=1e-12)
    assert 0.4 * 0.375 + 0.6 * 0.25 == pytest.approx(0.3, abs=1e-12)


def test_scenario_b_simulation_parameterization():
    # generator with equal stratum risks has beta0 = 0 truth; mu estimates
    # center at 0 across replicates
    mus = []
    for rep in range(60):
        rng = np.random.default_rng(100 + rep)
        w = random_cb_dataset(rng, n=900, a=0.5, b=0.5)
        result = psem.cep(fit(w, Scenario.B, beta0=0.0), Contrast.ADDITIVE)
        mus.append(result.mu)
    assert abs(np.mean(mus)) < 3 * np.std(mus, ddof=1) / math.sqrt(len(mus))


def test_scenario_b_mixing_identity_random_datasets():
    for rep in range(25):
        rng = np.random.default_rng(rep)
        w = random_cb_dataset(rng, n=500, nu=0.5)
        est = fit(w, Scenario.B, beta0=float(rng.normal()))
        assert est.mixing_residual() <= 1e-10


def test_scenario_b_null_collapse_exact():
    rng = np.random.default_rng(42)
    w = random_cb_dataset(rng, n=400, nu=0.7)
    est = fit(w, Scenario.B, beta0=0.0)
    assert est.value("risk0_00") == est.value("risk0")
    assert est.value("risk0_10") == est.value("risk0")


def test_scenario_b_monotone_in_beta0():
    grid = np.linspace(-2.5, 2.5, 41)
    for rep in range(10):
        rng = np.random.default_rng(rep + 1000)
        w = random_cb_dataset(rng, n=400, nu=0.8)
        values = [fit(w, Scenario.B, beta0=b, with_cov=False).value("risk0_00")
                  for b in grid]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))


def test_scenario_b_weight_floor_consistency(worked_weighted):
    # design weights with nu = 1 reproduce the unweighted fit exactly
    cells = worked_weighted.cells
    w1 = fit_missingness(tables.CellTable(
        z=cells.z, yt=cells.yt, s=cells.s, y=cells.y, count=cells.count),
        WeightModel.design_known(1.0))
    est_a = fit(worked_weighted, Scenario.B, beta0=0.3)
    est_b = fit(w1, Scenario.B, beta0=0.3)
    assert np.allclose(est_a.theta, est_b.theta, atol=1e-12)


# ---------------------------------------------------------------------------
# scenario A


def gen_scenario_a_dataset(rng, n, r1=(0.5, 0.2, 0.2), r0=(0.35, 0.35, 0.15),
                           strata=(0.3, 0.4, 0.3), early=0.2):
    """Varying control marker under marker monotonicity; stratum risks with
    r1[1]=r1[2] and r0[0]=r0[1] make zero selection parameters true."""
    early_pair = rng.random(n) < early
    u = rng.random(n)
    stratum = np.where(u < strata[0], 0, np.where(u < strata[0] + strata[1], 1, 2))
    s1 = (stratum >= 1).astype(int)
    s0 = (stratum == 2).astype(int)
    y1 = np.where(early_pair, 1,
                  (rng.random(n) < np.array(r1)[stratum]).astype(int))
    y0 = np.where(early_pair, 1,
                  (rng.random(n) < np.array(r0)[stratum]).astype(int))
    z = (rng.random(n) < 0.5).astype(int)
    yt = early_pair.astype(int)
    y = np.where(z, y1, y0)
    s = np.where(z, s1, s0)
    s_code = np.where(yt, tables.S_UNDEF, np.where(s, tables.S_POS, tables.S_NEG))
    cells = tables.from_arrays(z, yt, s_code, y)
    return fit_missingness(cells, WeightModel.design_known(1.0))


def test_scenario_a_oracle_recovery():
    rng = np.random.default_rng(3)
    w = gen_scenario_a_dataset(rng, 200_000)
    est = fit(w, Scenario.A, beta0=0.0, beta1_reversed=0.0)
    truth = dict(risk1=0.3 * 0.5 + 0.7 * 0.2, risk0=0.7 * 0.35 + 0.3 * 0.15,
                 p00=0.3, p10=0.4, p11=0.3,
                 risk1_00=0.5, risk1_10=0.2, risk1_11=0.2,
                 risk0_00=0.35, risk0_10=0.35, risk0_11=0.15)
    for name, tv in truth.items():
        assert est.value(name) == pytest.approx(tv, abs=0.01), name
    assert est.mixing_residual() <= 1e-10


def test_scenario_a_null_generator():
    rng = np.random.default_rng(9)
    w = gen_scenario_a_dataset(rng, 150_000, r1=(0.3, 0.3, 0.3),
                               r0=(0.3, 0.3, 0.3))
    result = psem.cep(fit(w, Scenario.A, beta0=0.0, beta1_reversed=0.0),
                      Contrast.ADDITIVE)
    for key in ("00", "10", "11"):
        assert abs(result.values[key]) < 4 * result.ses[key] + 0.01


@pytest.mark.parametrize("seed, nu", [(1, 1.0), (2, 1.0), (3, 0.5), (4, 0.5), (5, 0.25)])
def test_scenario_a_solves_are_selection_sace(seed, nu):
    # (0,0) risks: the standard direction on survivor & marker-negative at
    # beta0; (1,1) risks: the reversed direction on survivor & marker-
    # positive at beta1_reversed. The extra rows of A's stack do not move
    # the sandwich of this block (Stefanski and Boos, 2002) beyond round-off.
    w = scenario_dataset(Scenario.A, seed, 3000, nu)
    for beta0, beta1 in ((0.0, 0.0), (0.8, -0.5), (-1.2, 1.5)):
        est = fit(w, Scenario.A, beta0=beta0, beta1_reversed=beta1)
        neg = psem.selection_sace(w, s_negative_survivor, beta0)
        pos = psem.selection_sace(w, s_positive_survivor, beta1, Direction.REVERSED)
        for name, sace, k in (("risk1_00", neg, 0), ("risk0_00", neg, 1),
                              ("risk1_11", pos, 0), ("risk0_11", pos, 1)):
            assert est.value(name) == (sace.p11_treated, sace.p11_control)[k], name
            assert est.se(name) == pytest.approx(math.sqrt(sace.cov[k, k]),
                                                 rel=1e-12, abs=0), name


def test_scenario_solves_add_no_means(monkeypatch):
    # every beta-free row sits in the cached opening block, so past it a
    # scenario's solve at a new sensitivity point adds no weighted mean
    calls = []
    real_mean = core._mean

    def counted(st, name, *args):
        calls.append(name)
        return real_mean(st, name, *args)

    monkeypatch.setattr(core, "_mean", counted)
    for scenario in Scenario:
        w = scenario_dataset(scenario, 7, 2000, 0.5)
        fit(w, scenario, with_cov=False)
        calls.clear()
        fit(w, scenario, with_cov=False,
            **dict.fromkeys(scenario.sensitivity_keys, 0.2))
        assert calls == [], scenario


def test_scenario_a_rejects_constant_control_marker(worked_weighted):
    with pytest.raises(EstimationError, match="scenario B"):
        fit(worked_weighted, Scenario.A, beta0=0.0, beta1_reversed=0.0)


# ---------------------------------------------------------------------------
# scenario C (protective direction)


def test_scenario_c_protect_reduces_to_b_when_split_vanishes():
    """With all extra parameters at zero and full measurement, the scenario
    C fit collapses to scenario B whenever the early ordering holds."""
    blocks = [
        (10, 1, 1, "*", 1), (20, 1, 0, 0, 1), (20, 1, 0, 0, 0),
        (6, 1, 0, 1, 1), (54, 1, 0, 1, 0),
        (14, 0, 1, "*", 1), (30, 0, 0, 0, 1), (70, 0, 0, 0, 0),
    ]
    w = weighted_from_blocks(blocks)
    for beta0 in (0.0, 0.5):
        eb = fit(w, Scenario.B, beta0=beta0)
        ec = fit(w, Scenario.C_PROTECT, beta0=beta0, beta2=0.0, beta3=0.0,
                 beta4=0.0)
        for name in eb.names:
            assert ec.value(name) == pytest.approx(eb.value(name), abs=1e-8), name


def test_scenario_c_protect_requires_early_ordering(worked_weighted):
    with pytest.raises(OrderingError, match="A4"):
        fit(worked_weighted, Scenario.C_PROTECT)


def test_scenario_c_protect_oracle_recovery():
    from psem.simulate import GeneratorConfig, _gen_arrays, _rng_for, oracle_estimands
    cfg = GeneratorConfig(design="C", n=150_000, a=0.2, b=0.5, nu=1.0)
    arrs = _gen_arrays(cfg, _rng_for(21, 0, 0))
    cells = tables.from_arrays(arrs["z"], arrs["yt"], arrs["s_code"], arrs["y"])
    w = fit_missingness(cells, WeightModel.design_known(1.0))
    est = fit(w, Scenario.C_PROTECT)
    truth = oracle_estimands(cfg)
    for name in ("risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
                 "risk0_00", "risk0_10", "risk1_0star", "risk1_1star",
                 "ep_pos_rate", "phi"):
        assert est.value(name) == pytest.approx(truth[name], abs=0.012), name
    assert est.mixing_residual() <= 1e-10


# ---------------------------------------------------------------------------
# scenario C (harmful direction) and the B equivalence


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 1500),
       nu=st.sampled_from([1.0, 0.6, 0.3]), beta0=st.floats(-2.0, 2.0))
def test_scenario_c_harm_equals_b_at_zero(seed, n, nu, beta0):
    w = random_cb_dataset(np.random.default_rng(seed), n=n, nu=nu)
    try:
        eb = fit(w, Scenario.B, beta0=beta0)
    except psem.PsemError:
        assume(False)
    ec = fit(w, Scenario.C_HARM, beta0=beta0, beta1_marginal=0.0)
    for name in eb.names:
        assert abs(eb.value(name) - ec.value(name)) <= 1e-8
        assert abs(eb.se(name) - ec.se(name)) <= 1e-8


def test_scenario_c_harm_grid_oracle():
    """The marginal control-risk solve agrees with a scalar grid search of
    the odds-ratio and mixture constraints."""
    # arm 1 early rate 0.2, arm 0 early rate ~0.111: the survivor ratio
    # gives P(active early | control survives) about 0.1
    blocks = [
        (25, 1, 1, "*", 1), (30, 1, 0, 0, 1), (45, 1, 0, 0, 0),
        (5, 1, 0, 1, 1), (20, 1, 0, 1, 0),
        (10, 0, 1, "*", 1), (27, 0, 0, 0, 1), (63, 0, 0, 0, 0),
    ]
    w = weighted_from_blocks(blocks)
    beta1 = 1.0
    est = fit(w, Scenario.C_HARM, beta0=0.0, beta1_marginal=beta1)
    phi_r = (1 - 25 / 125) / (1 - 10 / 100)
    riskm0 = 27 / 90
    grid = np.linspace(1e-6, 1 - 1e-6, 2_000_001)
    vals = np.array([phi_r * r + (1 - phi_r) * expit(logit(r) - beta1) - riskm0
                     for r in grid])
    k = int(np.argmin(np.abs(vals)))
    assert est.value("risk0") == pytest.approx(grid[k], abs=1e-5)


def test_scenario_c_harm_no_early_events():
    blocks = [
        (20, 1, 0, 0, 1), (20, 1, 0, 0, 0), (6, 1, 0, 1, 1), (54, 1, 0, 1, 0),
        (30, 0, 0, 0, 1), (70, 0, 0, 0, 0),
    ]
    w = weighted_from_blocks(blocks)
    for beta1 in (-2.0, 0.0, 2.0):
        est = fit(w, Scenario.C_HARM, beta0=0.0, beta1_marginal=beta1)
        assert est.value("risk0") == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# mean-shift method


def test_mean_shift_no_shift_matches_naive_contrast(worked_weighted):
    result = psem.mean_shift_cep(worked_weighted, 0.0, 0.0, Scenario.B)
    assert result.values["00"] == pytest.approx(0.5 - 0.3, abs=1e-12)


def test_mean_shift_is_additive_in_alpha0(worked_weighted):
    base = psem.mean_shift_cep(worked_weighted, 0.0, 0.0, Scenario.B)
    shifted = psem.mean_shift_cep(worked_weighted, 0.05, 0.0, Scenario.B)
    assert shifted.values["00"] == pytest.approx(base.values["00"] - 0.05,
                                                 abs=1e-12)


def test_mean_shift_monotone_slope_minus_one(worked_weighted):
    grid = np.linspace(-0.2, 0.2, 9)
    vals = [psem.mean_shift_cep(worked_weighted, a0, 0.0, Scenario.B).values["00"]
            for a0 in grid]
    slopes = np.diff(vals) / np.diff(grid)
    assert np.allclose(slopes, -1.0, atol=1e-10)


def test_mean_shift_scenario_a():
    rng = np.random.default_rng(4)
    w = gen_scenario_a_dataset(rng, 50_000)
    result = psem.mean_shift_cep(w, 0.0, 0.0, Scenario.A)
    assert set(result.values) == {"00", "10", "11"}
    assert result.values["11"] == pytest.approx(0.2 - 0.15, abs=0.03)


# ---------------------------------------------------------------------------
# contrasts


def test_cep_contrast_values(worked_weighted):
    est = fit(worked_weighted, Scenario.B, beta0=0.0)
    add = psem.cep(est, "additive")
    ve = psem.cep(est, "ve")
    lrr = psem.cep(est, "log_rr")
    assert add.values["10"] == pytest.approx(0.1 - 0.3)
    assert ve.values["10"] == pytest.approx(1 - 0.1 / 0.3)
    assert 1 - math.exp(lrr.values["10"]) == pytest.approx(ve.values["10"],
                                                           abs=1e-12)


def test_contrast_null_at_equal_risks():
    for contrast in Contrast:
        assert contrast.apply(0.37, 0.37) == 0.0


def test_contrast_simple_values():
    assert Contrast.ADDITIVE.apply(0.1, 0.3) == pytest.approx(-0.2)
    assert Contrast.VE.apply(0.1, 0.3) == pytest.approx(2 / 3)


def test_ratio_contrast_zero_denominator():
    with pytest.raises(EstimationError):
        Contrast.VE.apply(0.1, 0.0)
    with pytest.raises(EstimationError):
        Contrast.LOG_RR.apply(0.0, 0.3)


def test_zero_event_stratum_degenerate():
    blocks = [
        (40, 1, 0, 0, 0), (6, 1, 0, 1, 1), (54, 1, 0, 1, 0),
        (100, 0, 0, 0, 0),
    ]
    w = weighted_from_blocks(blocks)
    est = fit(w, Scenario.B, beta0=1.3)
    assert est.value("risk0_00") == 0.0 and est.se("risk0_00") == 0.0
    with pytest.raises(EstimationError):
        psem.cep(est, Contrast.VE)


# ---------------------------------------------------------------------------
# diagnostics


def test_fisher_matches_scipy_oracle():
    for table in [(3, 7, 7, 3), (14, 1237, 10, 1235), (0, 10, 5, 5),
                  (2, 2, 2, 2), (12, 88, 4, 96)]:
        a, b, c, d = table
        expected = scipy.stats.fisher_exact([[a, b], [c, d]])[1]
        assert fisher_exact_two_sided(a, b, c, d) == pytest.approx(expected,
                                                                   abs=1e-9)


def _fisher_full_enumeration(a, b, c, d):
    """The enumeration over the whole support, kept as the bitwise oracle."""
    from psem.mathutil import _log_comb
    row1, row2 = a + b, c + d
    col1 = a + c
    n = row1 + row2
    if n == 0:
        return 1.0
    lo = max(0, col1 - row2)
    hi = min(col1, row1)
    denom = _log_comb(n, col1)
    logp = [_log_comb(row1, k) + _log_comb(row2, col1 - k) - denom
            for k in range(lo, hi + 1)]
    obs = logp[a - lo]
    total = sum(math.exp(lp) for lp in logp if lp <= obs + 1e-9)
    return min(1.0, total)


_CELL = st.one_of(st.integers(0, 30), st.integers(0, 3000), st.integers(0, 60000))


@settings(max_examples=300, deadline=None)
@given(_CELL, _CELL, _CELL, _CELL)
def test_fisher_drops_only_underflowing_terms(a, b, c, d):
    p = fisher_exact_two_sided(a, b, c, d)
    assert type(p) is float
    assert p.hex() == float(_fisher_full_enumeration(a, b, c, d)).hex()


def test_check_assumptions_trial_counts():
    from psem.demo import synthetic_trial
    report = psem.check_assumptions(synthetic_trial())
    assert report.early_rates[1] == pytest.approx(14 / 1251, abs=1e-12)
    assert report.early_rates[0] == pytest.approx(10 / 1245, abs=1e-12)
    assert 0.45 <= report.fisher_p <= 0.65
    assert report.a4pp_ordering is False
    assert "B" in report.recommended


def test_check_assumptions_identical_arms():
    blocks = [(5, z, 1, "*", 1) for z in (0, 1)]
    blocks += [(95, z, 0, 0, 0) for z in (0, 1)]
    weighted = weighted_from_blocks(blocks)
    report = psem.check_assumptions(weighted)
    assert report.fisher_p == pytest.approx(1.0)
    assert report.a4_plausible


def test_check_assumptions_reversed_rates():
    blocks = [(30, 0, 1, "*", 1), (70, 0, 0, 0, 0),
              (5, 1, 1, "*", 1), (55, 1, 0, 0, 0), (40, 1, 0, 1, 0)]
    from conftest import make_records
    report = psem.check_assumptions(make_records(blocks))
    assert report.a4pp_ordering is True
    assert Scenario.C_PROTECT.value in report.recommended


def test_sensitivity_point_key_validation():
    with pytest.raises(ConfigError):
        SensitivityPoint(Scenario.B, {"beta1_marginal": 0.5})
    point = SensitivityPoint(Scenario.C_HARM, {"beta1_marginal": 0.5})
    assert point.get("beta0") == 0.0


def test_mean_shift_requires_nonempty_strata(worked_weighted):
    # scenario A needs control-arm positives, which a constant-marker
    # dataset cannot provide
    with pytest.raises(EstimationError, match="empty stratum|control positive"):
        psem.mean_shift_cep(worked_weighted, 0.0, 0.0, Scenario.A)

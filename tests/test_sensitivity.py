import itertools
import math
import traceback
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import psem
from psem import core, demo, simulate, tables
from psem.core import Contrast, Scenario, SensitivityPoint
from psem.errors import ConfigError, EstimationError, OrderingError, PsemError
from psem.mathutil import bisect, norm_cdf, norm_quantile
from psem.sensitivity import (_ALL_FAILED, SensitivityConfig, SweepResult, interval_table,
                              solve_c_alpha, symmetric_ranges)
from psem.tables import from_counts
from psem.weights import WeightModel, fit_missingness

from conftest import error_text, failure_map, fit, random_cb_dataset, scenario_dataset


def grid_points(cfg):
    """The sweep's Gamma points of ``cfg`` as checked points, in grid order."""
    keys = cfg.scenario.sensitivity_keys
    return [SensitivityPoint(cfg.scenario, dict(zip(keys, row))) for row in cfg.grid().tolist()]


def b_config(lo, hi, g=21, contrast=Contrast.ADDITIVE, alpha=0.05):
    ranges = {"beta0": (lo, hi)} if (lo, hi) != (0.0, 0.0) else {}
    return SensitivityConfig(scenario=Scenario.B, ranges=ranges, grid_points=g,
                             alpha=alpha, contrast=contrast)


def test_normal_cdf_accuracy():
    for x in np.linspace(-8, 8, 81):
        assert norm_cdf(float(x)) == pytest.approx(scipy.stats.norm.cdf(x),
                                                   abs=1e-13)


def test_normal_quantile_roundtrip():
    for q in (0.01, 0.05, 0.5, 0.9, 0.975, 0.999):
        assert norm_cdf(norm_quantile(q)) == pytest.approx(q, abs=1e-11)


def test_config_validation():
    with pytest.raises(ConfigError):
        SensitivityConfig(scenario=Scenario.B, ranges={"beta1_marginal": (0, 1)})
    with pytest.raises(ConfigError):
        SensitivityConfig(scenario=Scenario.B, ranges={"beta0": (1, 0)})
    with pytest.raises(ConfigError):
        SensitivityConfig(scenario=Scenario.B, ranges={"beta0": (-1, 1)},
                          grid_points=1)
    with pytest.raises(ConfigError):
        SensitivityConfig(scenario=Scenario.B, alpha=0.7)
    for bad in ((-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigError, match="must be finite"):
            SensitivityConfig(scenario=Scenario.B, ranges={"beta0": bad})
    with pytest.raises(ConfigError, match="grid_points must be an integer"):
        SensitivityConfig(scenario=Scenario.B, ranges={"beta0": (-1, 1)},
                          grid_points=2.5)
    # below about 1.11e-16, 1 - alpha/2 is 1.0 and z_{1-alpha/2} is infinite
    with pytest.raises(ConfigError, match="1 - alpha/2 below 1, got 1e-17"):
        SensitivityConfig(scenario=Scenario.B, alpha=1e-17)
    assert SensitivityConfig(scenario=Scenario.B, alpha=1.5e-16).alpha == 1.5e-16


def test_grid_points_equal_checked_points():
    # rows in itertools.product order over the keys: the last varies fastest
    axis = np.linspace(-1.0, 1.0, 3)
    for scenario in Scenario:
        keys = scenario.sensitivity_keys
        cfg = SensitivityConfig(scenario, dict.fromkeys(keys, (-1.0, 1.0)), grid_points=3)
        assert cfg.grid().shape == (3 ** len(keys), len(keys))
        assert grid_points(cfg) == [SensitivityPoint(scenario, dict(zip(keys, combo)))
                                    for combo in itertools.product(axis, repeat=len(keys))]


def test_grid_construction():
    cfg = b_config(0.0, 0.0)
    assert len(cfg.grid()) == 1
    cfg = b_config(-1.0, 1.0, g=21)
    pts = cfg.grid()[:, 0].tolist()
    assert len(pts) == 21 and pts[0] == -1.0 and pts[-1] == 1.0
    cfg2 = SensitivityConfig(scenario=Scenario.C_HARM,
                             ranges={"beta0": (-1, 1), "beta1_marginal": (-1, 1)},
                             grid_points=5)
    pts2 = cfg2.grid()
    assert len(pts2) == 25
    corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    got = set(map(tuple, pts2.tolist()))      # columns: beta0, beta1_marginal
    assert corners <= got


def test_sweep_single_point_equals_plain_fit(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(0.0, 0.0))
    assert len(grid.cells) == 1
    direct = psem.cep(fit(worked_weighted, Scenario.B, beta0=0.0), Contrast.ADDITIVE)
    assert grid.row("mu")[0] == pytest.approx(direct.mu, abs=1e-14)


def test_sweep_monotone_extremes_at_endpoints(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(-1.0, 1.0))
    ii = psem.interval_for(grid, "mu")
    assert ii.extrema_on_corners
    assert ii.point_lower.get("beta0") in (-1.0, 1.0)
    mus = grid.row("mu").tolist()
    assert min(mus) == mus[0] or min(mus) == mus[-1]


def test_ignorance_interval_degenerate(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(0.0, 0.0))
    ii = psem.interval_for(grid, "mu")
    assert ii.estimate_lower == ii.estimate_upper


def test_ignorance_interval_worked_endpoints(worked_weighted):
    """Frozen endpoint values computed from an independent bisection of the
    two-constraint system at beta0 = +/- ln 1.8."""
    from psem.mathutil import expit

    def oracle_r010(beta0):
        lo, hi = -40.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = 0.4 * expit(mid + beta0) + 0.6 * expit(mid) - 0.3
            if val < 0:
                lo = mid
            else:
                hi = mid
        return expit(0.5 * (lo + hi))

    b = math.log(1.8)
    cep10 = {s: 0.1 - oracle_r010(s * b) for s in (-1, 1)}
    assert cep10[1] == pytest.approx(-0.15, abs=1e-9)
    assert cep10[-1] == pytest.approx(-0.2476897124, abs=1e-9)

    grid = psem.sweep(worked_weighted, b_config(-b, b))
    ii = psem.interval_for(grid, "cep_10")
    assert ii.estimate_lower == pytest.approx(cep10[-1], abs=1e-9)
    assert ii.estimate_upper == pytest.approx(cep10[1], abs=1e-9)


def test_ignorance_endpoints_equal_endpoint_fits():
    rng = np.random.default_rng(77)
    w = random_cb_dataset(rng, n=500)
    grid = psem.sweep(w, b_config(-0.8, 0.8))
    ii = psem.interval_for(grid, "mu")
    lo_fit = psem.cep(fit(w, Scenario.B, beta0=ii.point_lower.get("beta0")),
                      Contrast.ADDITIVE).mu
    hi_fit = psem.cep(fit(w, Scenario.B, beta0=ii.point_upper.get("beta0")),
                      Contrast.ADDITIVE).mu
    assert ii.estimate_lower == pytest.approx(lo_fit, abs=1e-12)
    assert ii.estimate_upper == pytest.approx(hi_fit, abs=1e-12)


def test_eui_collapsed_is_wald():
    res = psem.eui(0.2, 0.05, 0.2, 0.05, 0.05)
    assert res.c_alpha == pytest.approx(1.959964, abs=1e-5)
    assert res.eui[0] == pytest.approx(0.2 - 1.959964 * 0.05, abs=1e-5)
    assert res.eui[1] == pytest.approx(0.2 + 1.959964 * 0.05, abs=1e-5)


def test_eui_one_sided_limit():
    res = psem.eui(0.0, 0.05, 1.0, 0.05, 0.05)   # gap of 20 SEs
    assert res.c_alpha == pytest.approx(1.644854, abs=1e-3)


def test_eui_matches_scalar_root_oracle():
    # est_l=0.1, est_u=0.3, SE=0.05: scaled gap 4
    res = psem.eui(0.1, 0.05, 0.3, 0.05, 0.05)

    def f(c):
        return (scipy.stats.norm.cdf(c + 4.0) - scipy.stats.norm.cdf(-c) - 0.95)

    lo, hi = 1.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert res.c_alpha == pytest.approx(0.5 * (lo + hi), abs=1e-6)
    # already within a hair of the one-sided quantile at a gap of 4 SEs
    assert res.c_alpha == pytest.approx(1.6449, abs=1e-4)


def test_eui_is_elementwise_with_each_ends_own_se():
    est_l, se_l = [0.1, 0.2, -0.3], [0.05, 0.0, 0.02]
    est_u, se_u = [0.3, 0.2, 0.1], [0.08, 0.0, 0.01]
    res = psem.eui(*map(np.array, (est_l, se_l, est_u, se_u)))
    for k in range(3):
        one = psem.eui(est_l[k], se_l[k], est_u[k], se_u[k])
        assert type(one.c_alpha) is float and type(one.degenerate) is bool
        got = [res.estimate_lower[k], res.estimate_upper[k], res.se_lower[k], res.se_upper[k],
               res.eui[0][k], res.eui[1][k], res.c_alpha[k]]
        want = [one.estimate_lower, one.estimate_upper, one.se_lower, one.se_upper, *one.eui,
                one.c_alpha]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert res.degenerate[k] == one.degenerate == (k == 1)
    # each end widens by its own SE; the gap is in units of the larger one
    c = scipy.optimize.brentq(lambda c: scipy.stats.norm.cdf(c + 0.2 / 0.08)
                              - scipy.stats.norm.cdf(-c) - 0.95, 1.0, 3.0, xtol=1e-14)
    assert res.c_alpha[0] == pytest.approx(c, abs=1e-8)
    assert res.eui[0][0] == pytest.approx(0.1 - c * 0.05, abs=1e-9)
    assert res.eui[1][0] == pytest.approx(0.3 + c * 0.08, abs=1e-9)
    assert (res.eui[0][1], res.eui[1][1]) == (0.2, 0.2) and math.isnan(res.c_alpha[1])


def test_eui_degenerate_zero_ses():
    res = psem.eui(0.1, 0.0, 0.3, 0.0, 0.05)
    assert res.degenerate and res.eui == (0.1, 0.3)


def test_eui_input_validation():
    with pytest.raises(ValueError):
        psem.eui(0.3, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        psem.eui(0.1, -0.1, 0.3, 0.1)


NEED = "need est_l <= est_u and SEs >= 0"


@pytest.mark.parametrize("call, args, kwargs, message", [
    (psem.eui, (0.1, 0.1, 0.2, math.nan), {}, NEED),
    (psem.eui, (0.1, math.nan, 0.2, 0.1), {}, NEED),
    (psem.eui, (math.nan, 0.1, 0.2, 0.1), {}, NEED),
    (psem.eui, (0.1, 0.1, math.nan, 0.1), {}, NEED),
    (psem.eui, ([0.1, 0.1], [0.1, 0.1], [0.2, 0.2], [0.1, math.nan]), {}, NEED),
    (psem.eui, (0.1, 0.1, 0.2, 0.1), {"alpha": 0.7}, r"alpha must be in \(0, 0.5\), got 0.7"),
    (psem.eui, (0.1, 0.0, 0.2, 0.0), {"alpha": 0.0}, r"alpha must be in \(0, 0.5\), got 0.0"),
    (solve_c_alpha, (math.nan, 0.05), {}, "need a scaled gap >= 0"),
    (solve_c_alpha, (1.0, 0.5), {}, "need a scaled gap >= 0")],
    ids=["eui_nan_se_upper", "eui_nan_se_lower", "eui_nan_est_lower", "eui_nan_est_upper",
         "eui_array_nan_se", "eui_alpha_0.7", "eui_degenerate_alpha_0", "c_alpha_nan_gap",
         "c_alpha_alpha_0.5"])
def test_eui_rejects_nan_and_alpha_outside_range(call, args, kwargs, message):
    # a NaN used to leak into one EUI bound or c_alpha, and alpha = 0.7 gave
    # an "EUI" narrower than the ignorance interval (c_alpha < 0)
    with pytest.raises(ValueError, match=message):
        call(*args, **kwargs)


def test_c_alpha_bounds_and_monotonicity():
    z_lo, z_hi = norm_quantile(0.95), norm_quantile(0.975)
    last = None
    for gap in np.linspace(0.0, 6.0, 25):
        c = solve_c_alpha(float(gap), 0.05)
        assert z_lo - 1e-9 <= c <= z_hi + 1e-9
        if last is not None:
            assert c <= last + 1e-9
        last = c


def c_alpha_reference(gap, alpha, tol=1e-10):
    """``solve_c_alpha`` as ``mathutil.bisect`` over ``norm_cdf``."""
    lo, hi = norm_quantile(1.0 - alpha), norm_quantile(1.0 - alpha / 2.0)

    def f(c):
        return norm_cdf(c + gap) - norm_cdf(-c) - (1.0 - alpha)

    return lo if f(lo) >= 0.0 else bisect(f, lo, hi, tol)


@settings(max_examples=300, deadline=None)
@given(gap=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 4.0),
                     st.floats(0.0, 2.0**-1022, allow_subnormal=True)),
       alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
@example(gap=0.0, alpha=0.05)
@example(gap=5e-324, alpha=0.05)
@example(gap=50.0, alpha=0.05)
@example(gap=0.7, alpha=0.1)
@example(gap=1.0, alpha=1e-17)
def test_c_alpha_is_the_bisection_to_the_bit(gap, alpha):
    def outcome(solve):     # below about 1e-16, 1 - alpha is 1.0 and both raise
        try:
            return solve(gap, alpha).hex()
        except ValueError as exc:
            return str(exc)

    assert outcome(solve_c_alpha) == outcome(c_alpha_reference)


def test_eui_contains_ignorance_always():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = random_cb_dataset(rng, n=300)
        grid = psem.sweep(w, b_config(-1.0, 1.0, g=5))
        res = psem.interval_for(grid, "mu")
        assert res.eui[0] <= res.ignorance[0] <= res.ignorance[1] <= res.eui[1]


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(list(Scenario)), seed=st.integers(0, 2**32 - 1),
       nu=st.sampled_from([1.0, 0.5]), scale=st.floats(0.1, 1.0), extra=st.integers(1, 2))
def test_widening_gamma_never_shrinks_interval(scenario, seed, nu, scale, extra):
    # the outer grid keeps the inner spacing and adds ``extra`` points at
    # each end of every axis, so it contains the inner points
    w = scenario_dataset(scenario, seed, 1500, nu)
    g = 3 if scenario is Scenario.C_PROTECT else 5
    wide = scale + extra * 2 * scale / (g - 1)
    inner_cfg, outer_cfg = (
        SensitivityConfig(scenario, {k: (-r, r) for k in scenario.sensitivity_keys},
                          grid_points=n)
        for r, n in ((scale, g), (wide, g + 2 * extra)))
    inner_grid, outer_grid = inner_cfg.grid(), outer_cfg.grid()
    for axis, outer_axis in zip(inner_grid.T, outer_grid.T):
        axis, outer_axis = np.unique(axis), np.unique(outer_axis)
        assert np.abs(axis[:, None] - outer_axis[None, :]).min(axis=1).max() <= 1e-12
    try:
        inner, outer = psem.sweep(w, inner_cfg), psem.sweep(w, outer_cfg)
    except psem.PsemError:
        assume(False)
    for target in inner.targets:
        i, o = psem.interval_for(inner, target), psem.interval_for(outer, target)
        assert o.estimate_lower <= i.estimate_lower + 1e-12
        assert o.estimate_upper >= i.estimate_upper - 1e-12


def test_richardson_fixed_extreme_points_scenario_b():
    """The optimizing sensitivity values sit at the same Gamma corners for
    every dataset (supports the fixed-endpoint interval theory)."""
    rng = np.random.default_rng(12)
    corners = set()
    for _ in range(100):
        w = random_cb_dataset(rng, n=250, a=0.5, b=0.25)
        grid = psem.sweep(w, b_config(-1.0, 1.0, g=5))
        ii = psem.interval_for(grid, "mu")
        corners.add((ii.point_lower.get("beta0"), ii.point_upper.get("beta0")))
    assert corners == {(-1.0, 1.0)}


def test_effect_modification_decision(worked_weighted):
    test = psem.test_effect_modification(worked_weighted, b_config(0.0, 0.0))
    assert test.reject == (not (test.interval.eui[0] <= 0 <= test.interval.eui[1]))
    # trivial decision checks on synthetic intervals
    assert not (0.1 <= 0 <= 0.5)
    r1 = psem.eui(0.1, 0.0001, 0.5, 0.0001)
    assert not (r1.eui[0] <= 0 <= r1.eui[1])
    r2 = psem.eui(-0.1, 0.0001, 0.5, 0.0001)
    assert r2.eui[0] <= 0 <= r2.eui[1]


def test_sweep_records_cell_failures():
    rng = np.random.default_rng(31)
    w = random_cb_dataset(rng, n=200, a=0.9, b=0.1)
    # extreme beta0 pushes the control split against the data on some cells
    cfg = SensitivityConfig(scenario=Scenario.C_HARM,
                            ranges={"beta0": (-1, 1), "beta1_marginal": (-8, 8)},
                            grid_points=3)
    grid = psem.sweep(w, cfg)
    errors = failure_map(grid.failures)
    assert len(grid.cells) == 9
    assert len(grid.cells) - len(errors) >= 1


def point_outcome(w, point, contrast):
    """What a sweep cell holds at ``point`` before any covariance fit: the
    error that the point fit or the contrast raises there, else the values
    of every target."""
    try:
        est = psem.fit_scenario(w, point, with_cov=False)
        return core.target_map(point.scenario, est.names, contrast)(est.theta).tolist()
    except psem.PsemError as exc:
        return f"{type(exc).__name__}: {exc}"


# grids where some cells fail in the array pass: no mixture root with logit
# in [-45, 45] (C_harm), a mixture remainder outside [0, 1] (A; C_protect's
# always-survivor shares cannot leave [0, 1] when the splits solve)
FAILING_GRIDS = {
    "C_harm": (lambda: random_cb_dataset(np.random.default_rng(31), n=200, a=0.9, b=0.1),
               {"beta0": (-60, 60), "beta1_marginal": (-8, 8)}, 5, "no sign change"),
    "A": (lambda: scenario_dataset(Scenario.A, 1, 1500, 0.5),
          dict.fromkeys(Scenario.A.sensitivity_keys, (-10, 10)), 5, "lies outside [0, 1]"),
}


@pytest.mark.parametrize("contrast", list(Contrast))
@pytest.mark.parametrize("name", sorted(FAILING_GRIDS))
def test_sweep_cell_errors_are_the_point_fit_errors(name, contrast):
    make, ranges, g, message = FAILING_GRIDS[name]
    w = make()
    cfg = SensitivityConfig(Scenario(name), ranges, grid_points=g, contrast=contrast)
    grid = psem.sweep(w, cfg)
    errors = failure_map(grid.failures)
    array_errors = []
    for i in range(len(grid.cells)):
        point = grid.point(i)
        expected = point_outcome(w, point, contrast)
        if isinstance(expected, str):
            assert error_text(errors.get((0, i))) == expected
            array_errors.append(expected)
        elif (0, i) not in errors:
            assert grid.values[:, 0, i].tolist() == expected
        else:       # failed in the covariance fit at an extreme
            with pytest.raises(psem.PsemError) as info:
                psem.cep(psem.fit_scenario(w, point), contrast)
            assert error_text(errors[0, i]) == error_text(info.value)
    assert any(message in e for e in array_errors)
    assert len(errors) < len(grid.cells)


def test_ve_sweep_keeps_cells_with_tiny_control_risk():
    # exact contrast gradients evaluate VE only at the fitted risks: a control
    # risk below a central-difference step (2^-20) no longer fails its cell
    make, ranges, g, _ = FAILING_GRIDS["C_harm"]
    cfg = SensitivityConfig(Scenario.C_HARM, ranges, grid_points=g, contrast=Contrast.VE)
    grid = psem.sweep(make(), cfg)
    errors = [error_text(e) for e in failure_map(grid.failures).values()]
    assert len(grid.cells) - len(errors) == 20
    assert len(errors) == 5
    assert all(e.startswith("IncompatibleSensitivityError: no sign change") for e in errors)


def test_sweep_rejects_unknown_targets(worked_weighted):
    for targets in (("foo",), ("mu", "cep_11")):     # cep_11 is scenario A's
        with pytest.raises(ConfigError, match=r"not targets of scenario B; "
                           r"targets: \['cep_00', 'cep_10', 'mu'\]"):
            psem.sweep(worked_weighted, b_config(-1.0, 1.0, g=3), targets=targets)


def test_all_cells_failing_raises(worked_weighted):
    cfg = SensitivityConfig(scenario=Scenario.C_PROTECT, ranges={"beta0": (-1.0, 1.0)},
                            grid_points=2)
    # worked fixture has equal early rates (none), so A4'' fails everywhere
    with pytest.raises(EstimationError, match="every sensitivity grid point"):
        psem.sweep(worked_weighted, cfg)
    # a one-point region raises its point's own error, the one fit_scenario raises there
    with pytest.raises(OrderingError) as want:
        psem.fit_scenario(worked_weighted, SensitivityPoint(Scenario.C_PROTECT))
    with pytest.raises(OrderingError, match="early-event ordering") as got:
        psem.sweep(worked_weighted, SensitivityConfig(Scenario.C_PROTECT, {}, grid_points=2))
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the sweep against full-covariance fits at every cell


@settings(max_examples=60, deadline=None)
@given(scenario=st.sampled_from(list(Scenario)), data=st.data())
def test_fit_scenario_mixing_identity(scenario, data):
    # a dataset the scenario fits at beta = 0; each legal beta in [-2, 2]
    w = scenario_dataset(scenario, 7, 2000, 0.5)
    psem.fit_scenario(w, SensitivityPoint(scenario))
    point = SensitivityPoint(scenario, {
        k: data.draw(st.floats(-2.0, 2.0), label=k) for k in scenario.sensitivity_keys})
    try:
        point_fit = psem.fit_scenario(w, point, with_cov=False)
        cov_fit = psem.fit_scenario(w, point)
    except psem.PsemError:
        return
    assert cov_fit.mixing_residual() <= 1e-10
    assert point_fit.theta.tobytes() == cov_fit.theta.tobytes()


def full_cov_reference(w, cfg, target):
    """Interval built the slow way: a fit with covariance and ``cep`` at
    every grid cell."""
    s = {"cep_00": "00", "cep_10": "10", "cep_11": "11"}.get(target)
    fits = []
    for point in grid_points(cfg):
        c = psem.cep(psem.fit_scenario(w, point), cfg.contrast)
        fits.append((c.mu, c.mu_se, point) if s is None
                    else (c.values[s], c.ses[s], point))
    lo = min(fits, key=lambda t: t[0])
    hi = max(fits, key=lambda t: t[0])
    return psem.eui(lo[0], lo[1], hi[0], hi[1], cfg.alpha), lo[2], hi[2]


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(list(Scenario)),
       contrast=st.sampled_from(list(Contrast)),
       seed=st.integers(0, 2**32 - 1),
       n=st.integers(800, 2500),
       nu=st.sampled_from([1.0, 0.5]),
       scale=st.floats(0.1, 1.0))
def test_sweep_matches_full_covariance_fits(scenario, contrast, seed, n, nu, scale):
    w = scenario_dataset(scenario, seed, n, nu)
    cfg = SensitivityConfig(
        scenario=scenario, ranges={k: (-scale, scale) for k in scenario.sensitivity_keys},
        grid_points=2 if scenario is Scenario.C_PROTECT else 4, contrast=contrast)
    try:
        full = [psem.cep(psem.fit_scenario(w, p), contrast) for p in grid_points(cfg)]
    except psem.PsemError:
        assume(False)
    grid = psem.sweep(w, cfg)
    errors = failure_map(grid.failures)
    assert not errors and len(grid.cells) == len(full)
    for i, c in enumerate(full):
        assert grid.row("mu")[0, i] == c.mu
        for s, value in c.values.items():
            assert grid.row(f"cep_{s}")[0, i] == value
    for target in grid.targets:
        res = psem.interval_for(grid, target)
        ref, p_lo, p_hi = full_cov_reference(w, cfg, target)
        assert res.ignorance == ref.ignorance
        assert (res.se_lower, res.se_upper) == (ref.se_lower, ref.se_upper)
        assert res.eui == ref.eui
        assert res.c_alpha == ref.c_alpha
        assert res.point_lower == p_lo and res.point_upper == p_hi
        assert res.eui[0] <= res.estimate_lower <= res.estimate_upper <= res.eui[1]
        if scenario is Scenario.B:
            assert res.extrema_on_corners


def cep_bits(c):
    """Every value and SE of a CepResult, as bytes: equal bytes, equal bits."""
    return np.array([*c.values.values(), *c.ses.values(), c.mu, c.mu_se]).tobytes()


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(list(Scenario)), contrast=st.sampled_from(list(Contrast)),
       seed=st.integers(0, 2**16), data=st.data())
def test_a_fit_does_not_depend_on_the_fits_stacked_with_it(scenario, contrast, seed, data):
    # a point alone, inside a k-point fit_ceps call in shuffled order, and
    # through cep(fit_scenario(...)): the same values and SEs, bit for bit
    w = scenario_dataset(scenario, seed, 1500, 0.5)
    beta = st.floats(-1.5, 1.5)
    points = data.draw(st.lists(st.builds(lambda *b: SensitivityPoint(
        scenario, dict(zip(scenario.sensitivity_keys, b))), *[beta] * len(scenario.sensitivity_keys)),
        min_size=1, max_size=50), label="points")
    points = data.draw(st.permutations(points), label="shuffled")
    stacked, failed = core.fit_ceps(w, points, contrast, [0] * len(points))
    failed = failure_map(failed)
    for k, point in enumerate(points):
        alone, alone_failed = core.fit_ceps(w, [point], contrast, [0])
        alone_failed = failure_map(alone_failed)
        try:
            direct = psem.cep(psem.fit_scenario(w, point), contrast)
        except psem.PsemError as exc:
            assert repr(failed[k]) == repr(alone_failed[0]) == repr(exc)
            continue
        assert k not in failed and not alone_failed
        assert cep_bits(stacked[k]) == cep_bits(alone[0]) == cep_bits(direct)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 200), p=st.integers(4, 13), contrast=st.sampled_from(list(Contrast)),
       seed=st.integers(0, 2**32 - 1))
def test_contrast_variances_match_the_matmul_form(k, p, contrast, seed):
    # _ceps sums jac cov jac^T in numpy's own loops, not BLAS; the matmul
    # form it replaced stays here as the reference
    rng = np.random.default_rng(seed)
    names = ("risk1_00", "risk0_00", "risk1_10", "risk0_10", *(f"x{j}" for j in range(p - 4)))
    theta = rng.uniform(0.05, 0.95, (p, k, 1))
    a = rng.normal(size=(k, 1, p, p)) * rng.uniform(1e-3, 1.0, (k, 1, 1, 1))
    cov = a @ np.swapaxes(a, -1, -2) / p          # symmetric positive-definite
    ceps = core._ceps(Scenario.B, names, theta, cov, contrast, [None] * k)
    jac = np.zeros((k, 1, 3, p))
    for t, (i1, i0) in enumerate(((0, 1), (2, 3))):
        jac[..., t, i1], jac[..., t, i0] = contrast.gradient(theta[i1], theta[i0])
    jac[..., 2, :] = jac[..., 1, :] - jac[..., 0, :]
    var, scale = (np.array([(j[..., t, None, :] @ c @ j[..., t, :, None])[..., 0, 0]
                            for t in range(3)]).reshape(3, k).T
                  for j, c in ((jac, cov), (np.abs(jac), np.abs(cov))))
    got = np.array([[c.ses["00"], c.ses["10"], c.mu_se] for c in ceps]) ** 2
    # both forms round each product and sum, so they may differ by a few ulp
    # of |jac| |cov| |jac|^T; 20,000 random stacks gave at most 3
    assert np.all(np.abs(got - var) <= 4 * 2.0**-52 * scale)


# ---------------------------------------------------------------------------
# batched intervals against the one-dataset path


def split_replicates(grid):
    """Each replicate of a batched sweep as the one-dataset sweep of its data
    alone, a batch of one: the reference for the batched interval step."""
    out = [SweepResult(grid.config, grid.targets, grid.cells, v[:, None], f[None])
           for v, f in zip(grid.values.swapaxes(0, 1), grid.failures)]
    for (b, g), c in grid.ceps.items():
        out[b].ceps[0, g] = c
    return out


INTERVAL_FLOATS = ("estimate_lower", "estimate_upper", "se_lower", "se_upper", "c_alpha")
# the rows of interval_table (est_l, se_l, est_u, se_u, eui_l, eui_u, c_alpha) that hold
# INTERVAL_FLOATS and then the two EUI bounds
TABLE_ROWS = [0, 2, 1, 3, 6, 4, 5]


# a = 0.05 and b = 0.9 with scale 30 make covariance fits fail at some extremes
# (stacked residual, derived risk outside [0, 1]); n = 40 at nu = 0.3 leaves
# replicates with an empty stratum, where every point fails
@settings(max_examples=30, deadline=None)
@given(design=st.sampled_from("BC"), contrast=st.sampled_from(list(Contrast)),
       grid_points=st.integers(2, 5), reps=st.integers(1, 70),
       n=st.sampled_from([40, 200, 1000]), nu=st.sampled_from([0.3, 1.0]),
       scale=st.sampled_from([0.0, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
@example(design="B", contrast=Contrast.LOG_RR, grid_points=2, reps=70, n=40, nu=0.3,
         scale=30.0, seed=3)
@example(design="C", contrast=Contrast.ADDITIVE, grid_points=3, reps=20, n=40, nu=0.3,
         scale=30.0, seed=3)
def test_batched_interval_is_each_replicates_interval(design, contrast, grid_points, reps,
                                                      n, nu, scale, seed):
    scenario = simulate.DESIGNS[design].scenario
    draw = simulate.GeneratorConfig(design, n, 0.05, 0.9, nu, seed)
    cfg = SensitivityConfig(scenario, symmetric_ranges(scenario, scale), grid_points,
                            contrast=contrast)
    count, model = simulate._cell_counts(draw, 0, range(reps)), WeightModel.design_known(nu)
    grid = psem.sweep(fit_missingness(from_counts(count), model), cfg)
    alone = split_replicates(grid)
    swept = []      # and each replicate's own table, swept alone
    for b, c in enumerate(count):
        try:
            swept.append(psem.sweep(fit_missingness(from_counts(c), model), cfg))
        except PsemError as exc:    # every point failed: the batch's first error
            assert f"{type(exc).__name__}: {exc}" == error_text(grid.first_errors()[b])
            swept.append(None)
    table, flags = interval_table(grid, grid.targets)     # no warning: filterwarnings = error
    for t, target in enumerate(grid.targets):
        for b, one in enumerate(alone):
            got = table[TABLE_ROWS, t, b]
            try:
                with warnings.catch_warnings():     # scenario B's corner warning
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ref = psem.interval_for(one, target)
                    own = psem.interval_for(swept[b], target)
            except PsemError as exc:    # every point failed: the replicate's first error
                errors = failure_map(one.failures)
                assert len(errors) == len(one.cells) and swept[b] is None
                assert error_text(exc) == error_text(grid.first_errors()[b])
                assert np.isnan(got).all()
                assert not flags[0, t, b] and not flags[1, t, b]
                continue
            want = [getattr(ref, f) for f in INTERVAL_FLOATS] + list(ref.eui)
            assert got.tobytes() == np.array(want).tobytes(), (target, b)
            own = [getattr(own, f) for f in INTERVAL_FLOATS] + list(own.eui)
            assert np.array(own).tobytes() == np.array(want).tobytes(), (target, b)
            assert flags[0, t, b] == ref.degenerate
            assert flags[1, t, b] == ref.extrema_on_corners


# ---------------------------------------------------------------------------
# sweeping several regions together


def demo_weighted(batched):
    """The demo trial's table, or a batch of it and two variants of its counts."""
    table = tables.from_records(demo.synthetic_trial())
    if batched:
        code = table.z * 16 + table.yt * 8 + table.s * 2 + table.y
        table = from_counts(np.stack([table.count, 2 * table.count, table.count + code % 3]), code)
    return fit_missingness(table, demo.implied_weight_model())


def sweep_bits(grid):
    """A sweep's cells, values, failures and every field of its fits, comparable bit for bit."""
    errors = failure_map(grid.failures)
    return (grid.config, grid.targets, grid.cells.tobytes(), grid.values.shape,
            grid.values.tobytes(), {k: error_text(e) for k, e in errors.items()},
            {k: (cep_bits(c), c.contrast, c.sensitivity) for k, c in grid.ceps.items()})


def result_bits(res):
    """Every field of an IntervalResult, comparable bit for bit."""
    floats = np.array([getattr(res, f) for f in INTERVAL_FLOATS] + list(res.eui))
    return (res.target, res.alpha, floats.tobytes(), res.degenerate,
            res.point_lower, res.point_upper, res.extrema_on_corners)


def table_bits(table, flags):
    """The arrays of ``interval_table``, comparable bit for bit."""
    return table.shape, table.tobytes(), flags.shape, flags.tobytes()


def interval_bits(grid, target):
    """Every field of ``interval_for(grid, target)`` and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = psem.interval_for(grid, target)
    assert all(w.filename == __file__ for w in caught)      # reported at the caller's line
    return (*result_bits(res), [str(w.message) for w in caught])


# on the demo, scale 60 and beta0 up to 55 hold points with no mixture root
EXPLICIT = {Scenario.B: {"beta0": (-2.0, 55.0)},
            Scenario.C_HARM: {"beta0": (-2.0, 55.0), "beta1_marginal": (-1.0, 3.0)}}


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(sorted(EXPLICIT, key=str)),
       contrast=st.sampled_from(list(Contrast)),
       regions=st.lists(st.sampled_from([0, 0.25, 0.5, 1, 3, 30, 40, 60, "explicit"]),
                        min_size=1, max_size=4),
       grid_points=st.sampled_from([3, 7, 21]), batched=st.booleans())
@example(scenario=Scenario.B, contrast=Contrast.LOG_RR, regions=[0, 0.5, 1, 30],
         grid_points=21, batched=False)
@example(scenario=Scenario.B, contrast=Contrast.VE, regions=[60, "explicit", 0.25],
         grid_points=21, batched=True)
@example(scenario=Scenario.C_HARM, contrast=Contrast.ADDITIVE, regions=[3, 0, 40, 60],
         grid_points=7, batched=False)
def test_sweeping_regions_together_changes_no_bit(scenario, contrast, regions, grid_points,
                                                   batched):
    w = demo_weighted(batched)
    configs = [SensitivityConfig(scenario, EXPLICIT[scenario] if r == "explicit"
                                 else symmetric_ranges(scenario, r), grid_points,
                                 contrast=contrast) for r in regions]
    together = psem.sweeps(w, configs)
    assert len(together) == len(configs)
    for config, grid in zip(configs, together):
        alone = psem.sweeps(w, [config])[0]
        assert sweep_bits(grid) == sweep_bits(alone)
        assert (table_bits(*interval_table(grid, grid.targets))
                == table_bits(*interval_table(alone, alone.targets)))
        for target in grid.targets if not batched else ():
            assert interval_bits(grid, target) == interval_bits(alone, target)


def interval_from_scratch(grid, target, b):
    """Replicate ``b``'s (0 for one dataset) interval of ``target``: the first
    least and greatest estimates over the points that did not fail, their
    fits' SEs and one scalar ``eui`` call; with every point failed, None."""
    row = grid.row(target)[b].tolist()
    errors = failure_map(grid.failures)
    good = [g for g in range(len(grid.cells)) if (b, g) not in errors]
    if not good:
        return None
    lo = min(good, key=lambda g: (row[g], g))
    hi = max(good, key=lambda g: (row[g], -g))
    res = psem.eui(row[lo], grid.ceps[b, lo].get(target)[1],
                   row[hi], grid.ceps[b, hi].get(target)[1], grid.config.alpha, target)
    return res, grid.point(lo), grid.point(hi)


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(sorted(EXPLICIT, key=str)),
       contrast=st.sampled_from(list(Contrast)),
       regions=st.lists(st.sampled_from([0, 0.5, 1, 30, 60, "explicit"]), min_size=1, max_size=3),
       grid_points=st.sampled_from([3, 7]), batched=st.booleans())
@example(scenario=Scenario.B, contrast=Contrast.VE, regions=[60, 0.25],
         grid_points=21, batched=False)       # failed corners: scenario B's warnings
@example(scenario=Scenario.B, contrast=Contrast.VE, regions=[60, 0.25],
         grid_points=21, batched=True)
def test_intervals_is_interval_for_of_every_target(scenario, contrast, regions, grid_points,
                                                    batched):
    w = demo_weighted(batched)
    configs = [SensitivityConfig(scenario, EXPLICIT[scenario] if r == "explicit"
                                 else symmetric_ranges(scenario, r), grid_points,
                                 contrast=contrast) for r in regions]
    for grid in psem.sweeps(w, configs):
        table, flags = interval_table(grid, grid.targets)
        # every target's table is its table alone
        assert [table_bits(*interval_table(grid, (t,))) for t in grid.targets] == [
            table_bits(table[:, [t]], flags[:, [t]]) for t in range(len(grid.targets))]
        if not batched:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                together = psem.intervals(grid)
            assert list(together) == list(grid.targets)
            assert all(w.filename == __file__ for w in caught)
            alone = [interval_bits(grid, t) for t in grid.targets]
            # the same fields, and the same warnings in the same order, as one target at a time
            assert [result_bits(together[t]) for t in grid.targets] == [a[:-1] for a in alone]
            assert [str(m.message) for m in caught] == [m for a in alone for m in a[-1]]
        for t, target in enumerate(grid.targets):
            for b in range(len(grid.values[0])):
                want = interval_from_scratch(grid, target, b)
                got = table[TABLE_ROWS, t, b]
                if want is None:
                    assert batched and np.isnan(got).all() and not flags[:, t, b].any()
                    continue
                ref, lower, upper = want
                assert (got.tobytes() == np.array(
                    [getattr(ref, f) for f in INTERVAL_FLOATS] + list(ref.eui)).tobytes())
                assert flags[0, t, b] == ref.degenerate
                if not batched:
                    res = together[target]
                    assert result_bits(res)[2] == got.tobytes()
                    assert (res.point_lower, res.point_upper) == (lower, upper)
                    assert res.degenerate is ref.degenerate


def test_intervals_rejects_unknown_targets(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(-1.0, 1.0, g=3), targets=("mu",))
    with pytest.raises(KeyError, match=r"'cep_10' is not a target of this sweep"):
        psem.intervals(grid, ("mu", "cep_10"))
    assert list(psem.intervals(grid)) == ["mu"]


def test_a_batch_of_one_reads_as_its_one_dataset():
    # the demo table as a (1, 32) batch: floats and bools, the same bits and the same
    # warnings as the table itself; scale 60 fails corners, so scenario B warns
    table = demo_weighted(False).cells
    code = table.z * 16 + table.yt * 8 + table.s * 2 + table.y
    one = fit_missingness(from_counts(table.count[None], code), demo.implied_weight_model())
    warned = 0
    for contrast in Contrast:
        cfg = SensitivityConfig(Scenario.B, symmetric_ranges(Scenario.B, 60), 21,
                                contrast=contrast)
        flat, batch = psem.sweep(demo_weighted(False), cfg), psem.sweep(one, cfg)
        assert batch.values.shape == flat.values.shape
        assert [interval_bits(batch, t) for t in flat.targets] == [
            interval_bits(flat, t) for t in flat.targets]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = psem.intervals(batch)
            n = len(caught)
            want = psem.intervals(flat)
        assert [result_bits(r) for r in got.values()] == [result_bits(r) for r in want.values()]
        assert [str(m.message) for m in caught[:n]] == [str(m.message) for m in caught[n:]]
        warned += n
        for res in got.values():
            assert {type(getattr(res, f)) for f in INTERVAL_FLOATS} == {float}
            assert [type(x) for x in res.eui] == [float, float]
            assert type(res.degenerate) is type(res.extrema_on_corners) is bool
    assert warned


def test_intervals_read_one_dataset_only():
    grid = psem.sweep(demo_weighted(True), SensitivityConfig(Scenario.B, {}, 3))
    for read in (lambda: psem.intervals(grid), lambda: psem.interval_for(grid, "mu")):
        with pytest.raises(ValueError, match="not a sweep of 3 replicates; read those with "
                                             "interval_table"):
            read()


def test_a_sweep_whose_every_point_failed_raises_its_first_error():
    cfg = b_config(-1.0, 1.0, g=3)
    stored = [EstimationError(f"point {g}") for g in range(3)]
    failures = np.empty((1, 3), dtype=object)
    failures[0] = stored
    grid = SweepResult(cfg, ("mu",), cfg.grid(), np.zeros((3, 1, 3)), failures)
    for read in (lambda: psem.intervals(grid), lambda: psem.interval_for(grid, "mu")):
        with pytest.raises(EstimationError) as info:
            read()
        assert str(info.value) == str(grid.first_errors()[0]) == f"{_ALL_FAILED}" \
            "EstimationError: point 0"
        assert info.value is not grid.first_errors()[0]
    table, flags = interval_table(grid, grid.targets)
    assert np.isnan(table).all() and not flags.any()


def test_a_one_point_region_raises_its_points_own_error():
    # the no-selection point of C_harm with a VE contrast on a table whose
    # control arm has no event: the VE contrast is undefined there
    table = demo_weighted(False).cells
    code = table.z * 16 + table.yt * 8 + table.s * 2 + table.y
    count = np.where((table.z == 0) & (table.y == 1), 0, table.count)
    w0 = fit_missingness(from_counts(count, code), demo.implied_weight_model())
    zero = SensitivityConfig(Scenario.C_HARM, {}, 3, contrast=Contrast.VE)
    with pytest.raises(psem.PsemError) as want:
        psem.cep(psem.fit_scenario(w0, SensitivityPoint(Scenario.C_HARM)), Contrast.VE)
    with pytest.raises(psem.PsemError) as got:
        psem.sweeps(w0, [zero, SensitivityConfig(Scenario.C_HARM, symmetric_ranges(
            Scenario.C_HARM, 0.5), 3, contrast=Contrast.VE)])
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    # a batch of that table and the demo: the first error of each replicate is the
    # error its table raises when swept alone
    batch = fit_missingness(from_counts(np.stack([count, table.count]), code),
                            demo.implied_weight_model())
    assert [error_text(e) for e in psem.sweep(batch, zero).first_errors()] == [
        f"{type(want.value).__name__}: {want.value}", None]
    # a batch of that table alone sweeps, and its interval raises that error
    one = psem.sweep(fit_missingness(from_counts(count[None], code),
                                     demo.implied_weight_model()), zero)
    with pytest.raises(psem.PsemError) as got:
        psem.interval_for(one, "mu")
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_a_one_point_region_wraps_an_error_that_is_not_a_psem_error(monkeypatch):
    # core._ceps fails a non-finite contrast gradient with a ValueError, which is
    # not a PsemError: the region raises the all-failed EstimationError instead
    real = psem.sensitivity.fit_ceps
    gradient = ValueError("the contrast or its gradient is not finite at theta_hat")

    def fit_ceps(weighted, points, *rest):
        ceps, failed = real(weighted, points, *rest)
        failed = failed.copy()
        failed.flat[0] = gradient
        return ceps, failed

    monkeypatch.setattr(psem.sensitivity, "fit_ceps", fit_ceps)
    with pytest.raises(EstimationError) as got:
        psem.sweep(demo_weighted(False), b_config(0.0, 0.0))
    assert str(got.value) == f"{_ALL_FAILED}ValueError: {gradient}"
    # and a batched replicate's first error is the same
    batched = psem.sweep(demo_weighted(True), b_config(0.0, 0.0))
    assert [error_text(e) for e in batched.first_errors()] == [
        f"EstimationError: {got.value}", None, None]


def test_every_fit_of_a_one_dataset_sweep_holds_its_fit():
    w = demo_weighted(False)
    config = b_config(-1.0, 1.0, g=5, contrast=Contrast.VE)
    grid, again = psem.sweeps(w, [config, config])      # equal regions: one result each
    assert grid is not again and sweep_bits(grid) == sweep_bits(again)
    for c in grid.ceps.values():
        est = psem.fit_scenario(w, c.sensitivity)
        assert (c.fit.sensitivity, c.fit.names, c.fit.n) == (est.sensitivity, est.names, est.n)
        assert c.fit.theta.tobytes() == est.theta.tobytes()
        assert c.fit.cov.tobytes() == est.cov.tobytes()
        assert cep_bits(psem.cep(c.fit, Contrast.VE)) == cep_bits(c)
    # and each batched fit is the fit of its replicate's own table, its n included
    batch = demo_weighted(True)
    code = tables.cell_code(batch.cells.z, batch.cells.yt, batch.cells.s, batch.cells.y)
    for (b, _), c in psem.sweep(batch, config).ceps.items():
        own = fit_missingness(from_counts(batch.cells.count[b], code), batch.model)
        est = psem.fit_scenario(own, c.sensitivity)
        assert (c.fit.sensitivity, c.fit.names, c.fit.n) == (est.sensitivity, est.names, est.n)
        assert c.fit.theta.tobytes() == est.theta.tobytes()
        assert c.fit.cov.tobytes() == est.cov.tobytes()


@pytest.mark.parametrize("scenario", list(Scenario))
def test_a_datasets_opening_block_is_solved_once(scenario, monkeypatch):
    """``fit_scenario`` and each later sweep of one dataset continue from the
    one cached opening block of its scenario."""
    row = core._SCENARIOS[scenario]
    calls = []

    def opening(weighted):
        calls.append(weighted)
        return row.opening(weighted)

    monkeypatch.setitem(core._SCENARIOS, scenario, row._replace(opening=opening))
    w = scenario_dataset(scenario, 3, 1500, 0.5)
    config = SensitivityConfig(scenario, symmetric_ranges(scenario, 0.5), 3)
    psem.fit_scenario(w, SensitivityPoint(scenario))
    psem.sweep(w, config)
    psem.sweep(w, config)
    assert [c is w for c in calls] == [True]


def test_a_cached_failure_raises_as_a_copy():
    """The demo trial fails C_protect's cached opening block (A4''): each fit
    and each one-point sweep of it raises a copy of that stored failure, so the
    failure keeps no traceback or context of the calls that raised it."""
    w = demo_weighted(False)
    zero = SensitivityConfig(Scenario.C_PROTECT, {}, 3)
    calls = [lambda: psem.fit_scenario(w, SensitivityPoint(Scenario.C_PROTECT))] * 4
    depths = []
    for call in calls + [lambda: psem.sweep(w, zero)] * 2:
        try:
            raise KeyError("unrelated")
        except KeyError:
            with pytest.raises(OrderingError) as info:
                call()
        depths.append(len(traceback.extract_tb(info.value.__traceback__)))
    stored = opening_failures(w)[0, 0]
    assert info.value is not stored and error_text(info.value) == error_text(stored)
    assert stored.__traceback__ is None and stored.__context__ is None
    assert depths[:4] == [depths[0]] * 4 and depths[4:] == [depths[4]] * 2


def c_protect_batch():
    """The demo trial, whose C_protect opening block fails (A4''), batched with
    a copy whose active-arm early events are halved, whose opening solves."""
    table = tables.from_records(demo.synthetic_trial())
    halved = table.count.copy()
    early = (table.z == 1) & (table.yt == 1)
    halved[early] = np.ceil(halved[early] / 2)
    return fit_missingness(from_counts(np.stack([table.count, halved]), tables.cell_code(
        table.z, table.yt, table.s, table.y)), demo.implied_weight_model())


def opening_failures(w):
    """The (B, 1) failures of the cached C_protect opening block of ``w``."""
    return w.fit_blocks[core._SCENARIOS[Scenario.C_PROTECT].opening][0].checks.failed


def test_a_failed_opening_block_fails_every_point_with_its_one_error():
    w = c_protect_batch()
    config = SensitivityConfig(Scenario.C_PROTECT, symmetric_ranges(Scenario.C_PROTECT, 0.5), 3)
    beta = dict(zip(Scenario.C_PROTECT.sensitivity_keys, config.grid().T))
    _, failed = core.fit_targets(w, Scenario.C_PROTECT, beta, Contrast.ADDITIVE)
    stored = opening_failures(w)[0, 0]
    assert isinstance(stored, OrderingError) and opening_failures(w)[1, 0] is None
    grid = psem.sweep(w, config)
    for failures in (failed, grid.failures):
        assert failures.shape == (2, len(config.grid()))
        assert all(e is stored for e in failures[0]) and not failure_map(failures[1:])
    # the demo trial alone: a one-point region raises a copy of its stored
    # failure, a wider region the all-failed error that names it
    one = demo_weighted(False)
    with pytest.raises(OrderingError) as info:
        psem.sweep(one, SensitivityConfig(Scenario.C_PROTECT, {}, 3))
    stored = opening_failures(one)[0, 0]
    assert info.value is not stored and error_text(info.value) == error_text(stored)
    with pytest.raises(EstimationError, match=f"{_ALL_FAILED}OrderingError: early"):
        psem.sweep(one, config)


def test_points_of_a_failed_opening_block_are_not_solved(monkeypatch):
    """Where every replicate's opening block failed (the demo trial alone, in
    C_protect), ``fit_targets`` gives each point that failure and NaN values
    without the scenario's point solve; with one replicate solved, it solves."""
    row = core._SCENARIOS[Scenario.C_PROTECT]
    solved = []

    def solve(st, f, beta):
        solved.append(st.checks.failed.shape)
        return row.solve(st, f, beta)

    monkeypatch.setitem(core._SCENARIOS, Scenario.C_PROTECT, row._replace(solve=solve))
    config = SensitivityConfig(Scenario.C_PROTECT, symmetric_ranges(Scenario.C_PROTECT, 1.0), 21)
    beta = dict(zip(Scenario.C_PROTECT.sensitivity_keys, config.grid().T))
    one = demo_weighted(False)
    values, failed = core.fit_targets(one, Scenario.C_PROTECT, beta, Contrast.ADDITIVE)
    stored = opening_failures(one)[0, 0]
    assert solved == [] and failed.shape == (1, 21**4) and np.isnan(values).all()
    assert all(e is stored for e in failed.ravel().tolist())
    assert error_text(stored) == (
        "OrderingError: early-event ordering (A4'') fails: the active-arm early rate 0.01119 "
        "is not below the control rate 0.008032; Wald inference under early no-harm "
        "monotonicity is invalid here")
    core.fit_targets(c_protect_batch(), Scenario.C_PROTECT, beta, Contrast.ADDITIVE)
    assert solved == [(2, 21**4)]


def test_fit_ceps_fails_each_entry_of_a_failed_replicate_with_its_error():
    w = c_protect_batch()
    points = [SensitivityPoint(Scenario.C_PROTECT, {"beta0": b}) for b in (0.0, 0.5, 0.5, -0.5)]
    ceps, failed = core.fit_ceps(w, points, Contrast.ADDITIVE, [0, 1, 0, 0])
    stored = opening_failures(w)[0, 0]
    assert failed.shape == (4,) and failed[0] is failed[2] is failed[3] is stored
    assert failed[1] is None and np.isfinite(ceps[1].mu_se)


def test_fit_ceps_chunks_change_no_bit(monkeypatch):
    # stacks of at most 3 fits: 10 points in chunks of 3, 3, 3 and 1, the replicate
    # whose opening fails in the last two; each fit against its own call, bit for bit
    monkeypatch.setattr(core, "FIT_CHUNK", 3)
    w, keys = c_protect_batch(), Scenario.C_PROTECT.sensitivity_keys
    points = [SensitivityPoint(Scenario.C_PROTECT, dict(zip(keys, [0.5 * s, -s, s, 0.25 * s])))
              for s in np.linspace(-1.0, 1.0, 10).tolist()]
    rows = [1] * 7 + [0, 1, 0]
    ceps, failed = core.fit_ceps(w, points, Contrast.ADDITIVE, rows)
    assert failed.shape == (10,) and list(failure_map(failed)) == [7, 9]
    assert failed[7] is failed[9] is opening_failures(w)[0, 0]
    for k, (point, row) in enumerate(zip(points, rows)):
        (alone,), (alone_failed,) = core.fit_ceps(w, [point], Contrast.ADDITIVE, [row])
        assert error_text(failed[k]) == error_text(alone_failed)
        if alone_failed is None:
            fit, ref = ceps[k].fit, alone.fit
            assert cep_bits(ceps[k]) == cep_bits(alone) and ceps[k].sensitivity == point
            assert (fit.theta.tobytes(), fit.cov.tobytes()) == (ref.theta.tobytes(), ref.cov.tobytes())


def test_an_all_failed_region_raises_as_if_swept_alone():
    w = demo_weighted(False)
    failing = b_config(50.0, 60.0, g=3)     # no mixture root at any point
    with pytest.raises(EstimationError) as alone:
        psem.sweep(w, failing)
    assert str(alone.value).startswith(_ALL_FAILED + "IncompatibleSensitivityError")
    with pytest.raises(EstimationError) as together:
        psem.sweeps(w, [b_config(-0.5, 0.5, g=3), failing, b_config(-1.0, 1.0, g=3)])
    assert str(together.value) == str(alone.value)


def test_sweeps_takes_regions_of_one_scenario_and_contrast(worked_weighted):
    c_harm = SensitivityConfig(Scenario.C_HARM, symmetric_ranges(Scenario.C_HARM, 1.0), 3)
    for configs in ([], [b_config(-1.0, 1.0), c_harm],
                    [b_config(-1.0, 1.0), b_config(-1.0, 1.0, contrast=Contrast.VE)]):
        with pytest.raises(ConfigError, match="share a scenario and a contrast"):
            psem.sweeps(worked_weighted, configs)

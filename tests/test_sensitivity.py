import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import psem
from psem import core, simulate
from psem.core import Contrast, Scenario, SensitivityPoint
from psem.errors import ConfigError, EstimationError
from psem.mathutil import norm_cdf, norm_quantile
from psem.sensitivity import SensitivityConfig, SweepResult, solve_c_alpha, symmetric_ranges
from psem.tables import from_counts
from psem.weights import WeightModel, fit_missingness

from conftest import fit, random_cb_dataset, scenario_dataset


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
    assert len(grid.cells) == 9
    assert len(grid.cells) - len(grid.errors) >= 1


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
    array_errors = []
    for i in range(len(grid.cells)):
        point = grid.point(i)
        expected = point_outcome(w, point, contrast)
        if isinstance(expected, str):
            assert grid.errors.get(i) == expected
            array_errors.append(expected)
        elif i not in grid.errors:
            assert grid.values[:, i].tolist() == expected
        else:       # failed in the covariance fit at an extreme
            with pytest.raises(psem.PsemError) as info:
                psem.cep(psem.fit_scenario(w, point), contrast)
            assert grid.errors[i] == f"{type(info.value).__name__}: {info.value}"
    assert any(message in e for e in array_errors)
    assert len(grid.errors) < len(grid.cells)


def test_ve_sweep_keeps_cells_with_tiny_control_risk():
    # exact contrast gradients evaluate VE only at the fitted risks: a control
    # risk below a central-difference step (2^-20) no longer fails its cell
    make, ranges, g, _ = FAILING_GRIDS["C_harm"]
    cfg = SensitivityConfig(Scenario.C_HARM, ranges, grid_points=g, contrast=Contrast.VE)
    grid = psem.sweep(make(), cfg)
    errors = list(grid.errors.values())
    assert len(grid.cells) - len(errors) == 20
    assert len(errors) == 5
    assert all(e.startswith("IncompatibleSensitivityError: no sign change") for e in errors)


def test_sweep_rejects_unknown_targets(worked_weighted):
    for targets in (("foo",), ("mu", "cep_11")):     # cep_11 is scenario A's
        with pytest.raises(ConfigError, match=r"not targets of scenario B; "
                           r"targets: \['cep_00', 'cep_10', 'mu'\]"):
            psem.sweep(worked_weighted, b_config(-1.0, 1.0, g=3), targets=targets)


def test_all_cells_failing_raises(worked_weighted):
    cfg = SensitivityConfig(scenario=Scenario.C_PROTECT, ranges={},
                            grid_points=2)
    # worked fixture has equal early rates (none), so A4'' fails everywhere
    with pytest.raises(EstimationError, match="every sensitivity grid point"):
        psem.sweep(worked_weighted, cfg)


# ---------------------------------------------------------------------------
# the sweep against full-covariance fits at every cell


@settings(max_examples=60, deadline=None)
@given(scenario=st.sampled_from(list(Scenario)), data=st.data())
def test_fit_scenario_mixing_identity_and_cache(scenario, data):
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
    assert psem.fit_scenario(w, point) is cov_fit


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
    assert not grid.errors and len(grid.cells) == len(full)
    for i, c in enumerate(full):
        assert grid.row("mu")[i] == c.mu
        for s, value in c.values.items():
            assert grid.row(f"cep_{s}")[i] == value
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


# ---------------------------------------------------------------------------
# batched intervals against the one-dataset path


def split_replicates(grid):
    """Each replicate of a batched sweep as the one-dataset sweep of its data
    alone: the reference for the batched interval step."""
    out = [SweepResult(grid.config, grid.targets, grid.cells, v, {})
           for v in grid.values.swapaxes(0, 1)]
    for (b, g), e in grid.errors.items():
        out[b].errors[g] = e
    for (b, g), c in grid.ceps.items():
        out[b].ceps[g] = c
    return out


INTERVAL_FLOATS = ("estimate_lower", "estimate_upper", "se_lower", "se_upper", "c_alpha")


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
    grid = psem.sweep(fit_missingness(from_counts(simulate._cell_counts(draw, 0, range(reps))),
                                      WeightModel.design_known(nu)), cfg)
    alone = split_replicates(grid)
    for target in grid.targets:
        batched = psem.interval_for(grid, target)      # no warning: filterwarnings = error
        for b, one in enumerate(alone):
            got = [getattr(batched, f)[b] for f in INTERVAL_FLOATS] + [
                batched.eui[0][b], batched.eui[1][b]]
            try:
                with warnings.catch_warnings():     # scenario B's corner warning
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ref = psem.interval_for(one, target)
            except EstimationError:
                assert len(one.errors) == len(one.cells)
                assert np.isnan(got).all()
                assert not batched.degenerate[b] and not batched.extrema_on_corners[b]
                continue
            want = [getattr(ref, f) for f in INTERVAL_FLOATS] + list(ref.eui)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (target, b)
            assert batched.degenerate[b] == ref.degenerate
            assert batched.extrema_on_corners[b] == ref.extrema_on_corners
            assert (batched.target, batched.alpha) == (ref.target, ref.alpha)

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psem
from psem import core
from psem.core import Contrast, Scenario, SensitivityPoint
from psem.errors import ConfigError, EstimationError
from psem.mathutil import norm_cdf, norm_quantile
from psem.sensitivity import SensitivityConfig, solve_c_alpha

from conftest import fit, random_cb_dataset, scenario_dataset


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


def test_grid_construction():
    cfg = b_config(0.0, 0.0)
    assert len(cfg.points()) == 1
    cfg = b_config(-1.0, 1.0, g=21)
    pts = [p.get("beta0") for p in cfg.points()]
    assert len(pts) == 21 and pts[0] == -1.0 and pts[-1] == 1.0
    cfg2 = SensitivityConfig(scenario=Scenario.C_HARM,
                             ranges={"beta0": (-1, 1), "beta1_marginal": (-1, 1)},
                             grid_points=5)
    pts2 = cfg2.points()
    assert len(pts2) == 25
    corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    got = {(p.get("beta0"), p.get("beta1_marginal")) for p in pts2}
    assert corners <= got


def test_sweep_single_point_equals_plain_fit(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(0.0, 0.0))
    assert len(grid.cells) == 1
    direct = psem.cep(fit(worked_weighted, Scenario.B, beta0=0.0), Contrast.ADDITIVE)
    assert grid.cells[0].values["mu"] == pytest.approx(direct.mu, abs=1e-14)


def test_sweep_monotone_extremes_at_endpoints(worked_weighted):
    grid = psem.sweep(worked_weighted, b_config(-1.0, 1.0))
    ii = psem.interval_for(grid, "mu")
    assert ii.extrema_on_corners
    assert ii.point_lower.get("beta0") in (-1.0, 1.0)
    mus = [c.values["mu"] for c in grid.cells]
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


def test_eui_degenerate_zero_ses():
    res = psem.eui(0.1, 0.0, 0.3, 0.0, 0.05)
    assert res.degenerate and res.eui == (0.1, 0.3)


def test_eui_input_validation():
    with pytest.raises(ValueError):
        psem.eui(0.3, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        psem.eui(0.1, -0.1, 0.3, 0.1)


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
    for k, axis in inner_cfg.axes().items():
        assert np.abs(axis[:, None] - outer_cfg.axes()[k][None, :]).min(axis=1).max() <= 1e-12
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
    assert len(grid.ok_cells()) >= 1


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
    for cell in grid.cells:
        expected = point_outcome(w, cell.point, contrast)
        if isinstance(expected, str):
            assert cell.error == expected
            array_errors.append(expected)
        elif cell.error is None:
            assert list(cell.values.values()) == expected
        else:       # failed in the covariance fit at an extreme
            with pytest.raises(psem.PsemError) as info:
                psem.cep(psem.fit_scenario(w, cell.point), contrast)
            assert cell.error == f"{type(info.value).__name__}: {info.value}"
    assert any(message in e for e in array_errors)
    assert grid.ok_cells()


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
    for point in cfg.points():
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
        full = [psem.cep(psem.fit_scenario(w, p), contrast) for p in cfg.points()]
    except psem.PsemError:
        assume(False)
    grid = psem.sweep(w, cfg)
    assert len(grid.ok_cells()) == len(grid.cells)
    for cell, c in zip(grid.cells, full):
        assert cell.values["mu"] == c.mu
        for s, value in c.values.items():
            assert cell.values[f"cep_{s}"] == value
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


"""Sensitivity-region sweeps, ignorance intervals, and estimated
uncertainty intervals (EUIs).

A sensitivity region Gamma is a product of closed intervals, one per
scenario-legal parameter. The sweep refits the scenario on a full grid over
Gamma (all corner points included exactly), the ignorance interval is the
span of point estimates over the grid, and the EUI widens it for sampling
uncertainty with the Imbens-Manski construction: the critical value
c_alpha solves

    Phi(c + (est_u - est_l) / max(se_l, se_u)) - Phi(-c) = 1 - alpha,

which interpolates between the two-sided normal quantile (degenerate
region) and the one-sided quantile (wide region). Callers pass standard
errors directly; any root-n scaling is already inside them, so the gap in
the equation above is the estimate spread in standard-error units.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (CepResult, Contrast, Scenario, SensitivityPoint, cep,
                   fit_scenario, fit_targets)
from .errors import ConfigError, EstimationError, PsemError
from .mathutil import bisect, norm_cdf, norm_quantile
from .weights import WeightedRecords

MAX_GRID_CELLS = 200_000


@dataclass(frozen=True)
class SensitivityConfig:
    scenario: Scenario
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    grid_points: int = 21          # per axis where the range is nondegenerate
    alpha: float = 0.05
    contrast: Contrast = Contrast.ADDITIVE

    def __post_init__(self):
        legal = set(self.scenario.sensitivity_keys)
        illegal = set(self.ranges) - legal
        if illegal:
            raise ConfigError(f"sensitivity keys {sorted(illegal)} are not "
                              f"legal for scenario {self.scenario.value}")
        for k, (lo, hi) in self.ranges.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"range for {k} must be finite: [{lo}, {hi}]")
            if lo > hi:
                raise ConfigError(f"range for {k} has lower > upper: [{lo}, {hi}]")
        if self.grid_points < 2 and any(lo < hi for lo, hi in self.ranges.values()):
            raise ConfigError("grid_points must be >= 2 for a nondegenerate range")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5), got {self.alpha}")
        cells = 1
        for lo, hi in self.ranges.values():
            cells *= self.grid_points if lo < hi else 1
        if cells > MAX_GRID_CELLS:
            raise ConfigError(f"sensitivity grid has {cells} cells; lower "
                              "grid_points or shrink the region")

    def axes(self) -> dict[str, np.ndarray]:
        out = {}
        for key in self.scenario.sensitivity_keys:
            lo, hi = self.ranges.get(key, (0.0, 0.0))
            out[key] = (np.array([lo]) if lo == hi
                        else np.linspace(lo, hi, self.grid_points))
        return out

    def points(self) -> list[SensitivityPoint]:
        axes = self.axes()
        keys = list(axes)
        return [SensitivityPoint(self.scenario, dict(zip(keys, combo)))
                for combo in itertools.product(*(axes[k] for k in keys))]


def symmetric_ranges(scenario: Scenario, scale: float) -> dict:
    """The region [-scale, scale] on every legal parameter of ``scenario``;
    scale 0 is the no-selection-bias point (no ranges)."""
    return ({k: (-scale, scale) for k in scenario.sensitivity_keys}
            if scale > 0 else {})


@dataclass
class SweepCell:
    """One grid point. ``values`` holds the point estimate of every sweep
    target; ``cep``, from a fit with covariance, is set where the cell holds
    a target's extreme."""
    point: SensitivityPoint
    values: dict[str, float] | None
    cep: CepResult | None = None
    error: str | None = None


@dataclass
class SweepResult:
    config: SensitivityConfig
    cells: list[SweepCell]
    targets: tuple[str, ...]

    def ok_cells(self) -> list[SweepCell]:
        return [c for c in self.cells if c.error is None]


def _extremes(ok: list[SweepCell], target: str) -> tuple[SweepCell, SweepCell]:
    """First cells, in grid order, holding the target's minimum and maximum."""
    values = np.array([c.values[target] for c in ok])
    return ok[values.argmin()], ok[values.argmax()]


def sweep(weighted: WeightedRecords, config: SensitivityConfig,
          targets: tuple[str, ...] | None = None) -> SweepResult:
    """Point estimates at every grid point of the sensitivity region, in one
    array pass; fits with covariance and contrast errors only at each
    target's argmin and argmax.

    ``targets`` defaults to every CEP target of the scenario. Grid-point
    failures are recorded per cell, with the error ``fit_scenario`` raises
    there, rather than raised, unless every cell fails. A cell whose
    covariance fit fails is marked failed and the extremes are taken again
    over the remaining cells.
    """
    names = config.scenario.targets
    result = SweepResult(config=config, cells=[], targets=tuple(targets or names))
    points, axes = config.points(), config.axes()
    # the grid flattened in points() order: the last axis varies fastest
    beta = dict(zip(axes, (g.reshape(-1) for g in np.meshgrid(*axes.values(), indexing="ij"))))
    try:
        values, failed = fit_targets(weighted, config.scenario, beta, config.contrast)
        rows = values.T.tolist()
    except PsemError as exc:    # a beta-free failure fails every point
        failed = dict.fromkeys(range(len(points)), exc)
    for i, point in enumerate(points):
        exc = failed.get(i)
        result.cells.append(SweepCell(point, dict(zip(names, rows[i]))) if exc is None
                            else SweepCell(point, None, error=f"{type(exc).__name__}: {exc}"))
    while ok := result.ok_cells():
        pending = {id(c): c for t in result.targets for c in _extremes(ok, t)
                   if c.cep is None}
        if not pending:
            return result
        for cell in pending.values():
            try:
                cell.cep = cep(fit_scenario(weighted, cell.point), config.contrast)
            except PsemError as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
    raise EstimationError("every sensitivity grid point failed; first error: "
                          + str(result.cells[0].error))


@dataclass
class IntervalResult:
    target: str
    estimate_lower: float
    estimate_upper: float
    se_lower: float
    se_upper: float
    eui: tuple[float, float]
    c_alpha: float
    alpha: float
    degenerate: bool = False
    # set by interval_for; None from a bare eui()
    point_lower: SensitivityPoint | None = None
    point_upper: SensitivityPoint | None = None
    extrema_on_corners: bool | None = None

    @property
    def ignorance(self) -> tuple[float, float]:
        return self.estimate_lower, self.estimate_upper


def solve_c_alpha(scaled_gap: float, alpha: float, tol: float = 1e-10) -> float:
    """Critical value on [z_{1-a}, z_{1-a/2}] by bisection; the gap is the
    ignorance-interval width in units of the larger standard error."""
    if scaled_gap < 0:
        raise ValueError("scaled gap must be nonnegative")
    lo = norm_quantile(1.0 - alpha)
    hi = norm_quantile(1.0 - alpha / 2.0)

    def f(c):
        return norm_cdf(c + scaled_gap) - norm_cdf(-c) - (1.0 - alpha)

    if f(lo) >= 0.0:
        return lo
    return bisect(f, lo, hi, tol)


def eui(est_l: float, se_l: float, est_u: float, se_u: float,
        alpha: float = 0.05, target: str = "") -> IntervalResult:
    """Imbens-Manski estimated uncertainty interval.

    ``se_l``/``se_u`` are the standard errors of the lower/upper estimates
    (root-n scaling already inside, see the module docstring). With a
    degenerate region (est_l = est_u, equal SEs) the EUI is the usual
    two-sided Wald interval.
    """
    if est_l > est_u:
        raise ValueError("est_l must not exceed est_u")
    if se_l < 0 or se_u < 0:
        raise ValueError("standard errors must be nonnegative")
    max_se = max(se_l, se_u)
    if max_se == 0.0:
        return IntervalResult(target=target, estimate_lower=est_l,
                              estimate_upper=est_u, se_lower=se_l, se_upper=se_u,
                              eui=(est_l, est_u), c_alpha=float("nan"),
                              alpha=alpha, degenerate=True)
    c = solve_c_alpha((est_u - est_l) / max_se, alpha)
    return IntervalResult(target=target, estimate_lower=est_l,
                          estimate_upper=est_u, se_lower=se_l, se_upper=se_u,
                          eui=(est_l - c * se_l, est_u + c * se_u),
                          c_alpha=c, alpha=alpha)


def interval_for(grid: SweepResult, target: str = "mu") -> IntervalResult:
    """Ignorance interval plus EUI for one target of a completed sweep.

    The ignorance interval is the span of the point estimates over the
    grid, with the achieving sensitivity-parameter points retained. The
    full grid is scanned even where monotonicity guarantees corner
    extremes; in scenario B a non-corner extreme triggers a warning that
    names the failed corner points, whose loss narrows the region, or
    else points to a numerical problem. For the scenario C variants corner
    attainment is only measured and reported (``extrema_on_corners``).
    """
    if target not in grid.targets:
        raise KeyError(f"{target!r} is not a target of this sweep; "
                       f"targets: {list(grid.targets)}")
    ok = grid.ok_cells()
    if not ok:
        raise EstimationError("no successful grid cells")
    lo, hi = _extremes(ok, target)
    axes = grid.config.axes()

    def on_corner(cell):
        return all(cell.point.get(k) in (v[0], v[-1]) for k, v in axes.items())

    on_corners = on_corner(lo) and on_corner(hi)
    if not on_corners and grid.config.scenario is Scenario.B:
        failed = [c for c in grid.cells if c.error and on_corner(c)]
        cause = "check for numerical problems"
        if failed:
            cause = ("the fit failed at region corner(s) " + "; ".join(
                "(" + ", ".join(f"{k}={v:g}" for k, v in c.point.as_dict().items())
                + f": {c.error})" for c in failed)
                + ", so the interval covers a narrowed region")
        warnings.warn(
            f"ignorance-interval extremes for {target} fall inside the "
            "sensitivity region in scenario B, where the estimate is "
            f"monotone; {cause}", RuntimeWarning, stacklevel=2)
    (_, se_l), (_, se_u) = lo.cep.get(target), hi.cep.get(target)
    res = eui(lo.values[target], se_l, hi.values[target], se_u,
              grid.config.alpha, target=target)
    res.point_lower, res.point_upper = lo.point, hi.point
    res.extrema_on_corners = on_corners
    return res


@dataclass
class EffectModificationTest:
    reject: bool
    interval: IntervalResult
    grid: SweepResult


def test_effect_modification(weighted: WeightedRecords,
                             config: SensitivityConfig) -> EffectModificationTest:
    """Reject equal effect modification iff the EUI for
    mu = CEP(1,0) - CEP(0,0) excludes zero."""
    grid = sweep(weighted, config)
    interval = interval_for(grid, "mu")
    lo, hi = interval.eui
    return EffectModificationTest(reject=not (lo <= 0.0 <= hi),
                                  interval=interval, grid=grid)

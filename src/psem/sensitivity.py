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

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (CepResult, Contrast, Scenario, SensitivityPoint, cep,
                   fit_ceps, fit_scenario, fit_targets)
from .errors import ConfigError, EstimationError, PsemError
from .mathutil import bisect, norm_cdf, norm_quantile
from .weights import WeightedRecords

MAX_GRID_CELLS = 200_000
_ALL_FAILED = "every sensitivity grid point failed; first error: "


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
        if not isinstance(self.grid_points, numbers.Integral):
            raise ConfigError(f"grid_points must be an integer, got {self.grid_points!r}")
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

    def grid(self) -> np.ndarray:
        """The Gamma points as a (G, K) array, columns in
        ``scenario.sensitivity_keys`` order and the last varying fastest:
        ``grid_points`` evenly spaced values on each nondegenerate range,
        the one value of a degenerate range, 0 on a key without a range."""
        axes = [np.array([lo], dtype=float) if lo == hi
                else np.linspace(lo, hi, self.grid_points)
                for lo, hi in (self.ranges.get(k, (0.0, 0.0))
                               for k in self.scenario.sensitivity_keys)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def symmetric_ranges(scenario: Scenario, scale: float) -> dict:
    """The region [-scale, scale] on every legal parameter of ``scenario``;
    scale 0 is the no-selection-bias point (no ranges)."""
    return ({k: (-scale, scale) for k in scenario.sensitivity_keys}
            if scale > 0 else {})


@dataclass
class SweepResult:
    """The sweep over the (G, K) Gamma points ``cells``. ``values`` (T, G),
    or (T, B, G) over B replicates, holds every target of the scenario, rows
    in ``scenario.targets`` order, at every point; ``errors`` each failed
    point's first error by index g, or (b, g), where its value is meaningless;
    ``ceps`` the fit with covariance at each point holding an extreme."""
    config: SensitivityConfig
    targets: tuple[str, ...]
    cells: np.ndarray
    values: np.ndarray
    errors: dict[int | tuple[int, int], str]
    ceps: dict[int | tuple[int, int], CepResult] = field(default_factory=dict)

    def row(self, target: str) -> np.ndarray:
        return self.values[self.config.scenario.targets.index(target)]

    def ok(self) -> np.ndarray:
        """Which points did not fail: (G,), or (B, G) if batched."""
        ok = np.ones(self.values.shape[1:], dtype=bool)
        ok[tuple(np.array(list(self.errors), dtype=int).reshape(-1, ok.ndim).T)] = False
        return ok

    def extremes(self, target: str):
        """First points, in grid order, holding the target's minimum and
        maximum over the points that did not fail, per replicate if batched."""
        row, ok = self.row(target), self.ok()
        return (np.where(ok, row, np.inf).argmin(axis=-1),
                np.where(ok, row, -np.inf).argmax(axis=-1))

    def first_errors(self) -> list[str | None]:
        """Each replicate's first error of a batched sweep, in grid order, or None; with every
        point failed, the error a one-dataset ``sweep`` raises."""
        first = {b: e for (b, _), e in sorted(self.errors.items(), reverse=True)}  # least g last
        return [first.get(b) if ok.any() else f"EstimationError: {_ALL_FAILED}{first[b]}"
                for b, ok in enumerate(self.ok())]

    def point(self, i: int) -> SensitivityPoint:
        return SensitivityPoint(self.config.scenario, dict(
            zip(self.config.scenario.sensitivity_keys, self.cells[i].tolist())))


def sweep(weighted: WeightedRecords, config: SensitivityConfig,
          targets: tuple[str, ...] | None = None) -> SweepResult:
    """Point estimates at every grid point of the sensitivity region, in one
    array pass; fits with covariance and contrast errors only at each
    target's argmin and argmax.

    ``targets`` defaults to every CEP target of the scenario. Grid-point
    failures are recorded by index, with the error ``fit_scenario`` raises
    there, rather than raised, unless every point fails. A point whose
    covariance fit fails is marked failed and the extremes are taken again
    over the remaining points. Batched data (``tables.from_counts``) are
    swept in one pass, each replicate as if alone but never raising.
    """
    names = config.scenario.targets
    targets = tuple(targets or names)
    if unknown := [t for t in targets if t not in names]:
        raise ConfigError(f"sweep targets {unknown} are not targets of scenario "
                          f"{config.scenario.value}; targets: {list(names)}")
    cells, keys = config.grid(), config.scenario.sensitivity_keys
    lead = weighted.cells.count.shape[:-1]
    try:
        values, failed = fit_targets(weighted, config.scenario, dict(zip(keys, cells.T)),
                                     config.contrast)
    except PsemError as exc:    # a beta-free failure fails every point
        values = np.full((len(names), *lead, len(cells)), np.nan)
        failed = dict.fromkeys(range(values[0].size), exc)
    result = SweepResult(config, targets, cells, values, {
        divmod(i, len(cells)) if lead else i: f"{type(e).__name__}: {e}"
        for i, e in failed.items()})
    while len(result.errors) < values[0].size:
        pending = [k for k in dict.fromkeys(
            k for t in targets for idx in result.extremes(t)
            for k in (enumerate(idx.tolist()) if lead else [idx]))
            if k not in result.ceps and k not in result.errors]
        if not pending:
            return result
        if not lead:
            for i in pending:
                try:
                    result.ceps[i] = cep(fit_scenario(weighted, result.point(i)),
                                         config.contrast)
                except PsemError as exc:
                    result.errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        first = dict(reversed(pending))     # each replicate's first pending extreme
        ceps, failed = fit_ceps(weighted, [result.point(first.get(b, 0))
                                           for b in range(lead[0])], config.contrast)
        for b, i in first.items():
            if b in failed:
                result.errors[b, i] = f"{type(failed[b]).__name__}: {failed[b]}"
            else:
                result.ceps[b, i] = ceps[b]
    if lead:
        return result
    raise EstimationError(_ALL_FAILED + result.errors[min(result.errors)])


@dataclass
class IntervalResult:
    """Ignorance interval and EUI of one target; ``c_alpha`` is NaN where ``degenerate`` (both
    SEs 0). From a batched sweep each numeric field and EUI bound is a (B,) array."""
    target: str
    estimate_lower: float
    estimate_upper: float
    se_lower: float
    se_upper: float
    eui: tuple[float, float]
    c_alpha: float
    alpha: float
    degenerate: bool = False
    # set by interval_for, the points for one dataset only; None from a bare eui()
    point_lower: SensitivityPoint | None = None
    point_upper: SensitivityPoint | None = None
    extrema_on_corners: bool | None = None

    @property
    def ignorance(self) -> tuple[float, float]:
        return self.estimate_lower, self.estimate_upper


def solve_c_alpha(scaled_gap: float, alpha: float, tol: float = 1e-10) -> float:
    """Critical value on [z_{1-a}, z_{1-a/2}] by bisection; the gap is the
    ignorance-interval width in units of the larger standard error."""
    if not (scaled_gap >= 0 and 0.0 < alpha < 0.5):     # a NaN fails too
        raise ValueError(f"need a scaled gap >= 0 and alpha in (0, 0.5), got {scaled_gap}, {alpha}")
    lo = norm_quantile(1.0 - alpha)
    hi = norm_quantile(1.0 - alpha / 2.0)

    def f(c):
        return norm_cdf(c + scaled_gap) - norm_cdf(-c) - (1.0 - alpha)

    if f(lo) >= 0.0:
        return lo
    return bisect(f, lo, hi, tol)


def eui(est_l, se_l, est_u, se_u, alpha: float = 0.05, target: str = "") -> IntervalResult:
    """Imbens-Manski estimated uncertainty interval, of floats or elementwise
    over equal-shaped arrays, with one ``solve_c_alpha`` call per entry.

    ``se_l``/``se_u`` are the standard errors of the lower/upper estimates
    (root-n scaling already inside, see the module docstring). With a
    degenerate region (est_l = est_u, equal SEs) the EUI is the usual
    two-sided Wald interval. A NaN estimate or SE, est_l > est_u, a
    negative SE and alpha outside (0, 0.5) raise ValueError.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    rows = []       # the fields of each entry, in Python floats
    entries = (np.ravel(x).tolist() for x in (est_l, se_l, est_u, se_u))
    for l, sl, u, su in zip(*entries, strict=True):
        if not (l <= u and sl >= 0 and su >= 0):    # NaN fails too
            raise ValueError(f"need est_l <= est_u and SEs >= 0, got {l}, {sl}, {u}, {su}")
        c = solve_c_alpha((u - l) / m, alpha) if (m := max(sl, su)) else math.nan
        rows.append((l, u, sl, su, *((l - c * sl, u + c * su) if m else (l, u)), c))
    lower, upper, sl, su, eui_l, eui_u, c = (
        np.reshape(np.array(rows).T, (7, *np.shape(est_l))) if np.ndim(est_l) else rows[0])
    # c_alpha is NaN, the one value unequal to itself, where both SEs are 0
    return IntervalResult(target, lower, upper, sl, su, (eui_l, eui_u), c, alpha, c != c)


def interval_for(grid: SweepResult, target: str = "mu") -> IntervalResult:
    """Ignorance interval plus EUI for one target of a completed sweep.

    The ignorance interval spans the point estimates over the whole grid, even
    where monotonicity guarantees corner extremes (``extrema_on_corners``).
    For one dataset the achieving sensitivity-parameter points are retained;
    in scenario B non-corner extremes trigger a warning that names the failed
    corner points, whose loss narrows the region, or else points to a
    numerical problem. On a batched sweep each replicate is treated as if
    alone, but nothing raises or warns: a replicate whose every point failed
    gets NaN."""
    if target not in grid.targets:
        raise KeyError(f"{target!r} is not a target of this sweep; "
                       f"targets: {list(grid.targets)}")
    one = grid.values.ndim == 2
    row = grid.row(target).reshape(-1, len(grid.cells))     # (B, G), B = 1 for one dataset
    fitted = grid.ok().reshape(row.shape).any(axis=1)
    if one and not fitted[0]:
        raise EstimationError("no successful grid cells")
    lo, hi = (np.atleast_1d(i).tolist() for i in grid.extremes(target))
    corner = np.logical_and.reduce([(c == c.min()) | (c == c.max()) for c in grid.cells.T])
    out = np.full((7, len(row)), np.nan)    # est_l, se_l, est_u, se_u, the EUI and c_alpha
    for b in np.flatnonzero(fitted).tolist():
        out[:4, b] = [x for i in (lo[b], hi[b])
                      for x in (row[b, i], grid.ceps[i if one else (b, i)].get(target)[1])]
    on_corners = corner[lo] & corner[hi] & fitted
    res = eui(*out[:4, 0 if one else fitted], grid.config.alpha, target)
    if not one:     # spread over every replicate; c_alpha is NaN where degenerate
        out[4:, fitted] = *res.eui, res.c_alpha
        est_l, se_l, est_u, se_u, eui_l, eui_u, c = out
        return IntervalResult(target, est_l, est_u, se_l, se_u, (eui_l, eui_u), c, res.alpha,
                              fitted & np.isnan(c), extrema_on_corners=on_corners)
    res.point_lower, res.point_upper = grid.point(lo[0]), grid.point(hi[0])
    res.extrema_on_corners = bool(on_corners[0])
    if not res.extrema_on_corners and grid.config.scenario is Scenario.B:
        failed = "; ".join("(" + ", ".join(f"{k}={v:g}" for k, v in grid.point(i).values.items())
                           + f": {e})" for i, e in sorted(grid.errors.items()) if corner[i])
        cause = (f"the fit failed at region corner(s) {failed}, so the interval covers a "
                 "narrowed region" if failed else "check for numerical problems")
        warnings.warn(f"ignorance-interval extremes for {target} fall inside the sensitivity "
                      f"region in scenario B, where the estimate is monotone; {cause}",
                      RuntimeWarning, stacklevel=2)
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

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

Several regions of one scenario and contrast (``sweeps``; ``psem analyze``
passes the no-selection-bias point and all of its Gamma choices) share their
passes: one point pass over their concatenated grids, and one ``fit_ceps``
call per covariance pass. Each region's result is the one it gets swept
alone (``sweep``). ``intervals`` reads every target's interval from a sweep
in one pass; ``interval_for`` reads one.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

# cep and fit_scenario stay bound here for bench/tracer.py to patch
from .core import (CepResult, Contrast, Scenario, SensitivityPoint, cep,  # noqa: F401
                   fit_ceps, fit_scenario, fit_targets)
from . import errors as psem_errors
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


def _names_psem_error(message: str) -> bool:
    """Whether an error of ``SweepResult.errors`` ("Class: text") is a ``PsemError``."""
    return issubclass(getattr(psem_errors, message.split(":", 1)[0], Exception), PsemError)


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

    def extremes(self, target: str, ok: np.ndarray | None = None):
        """First points, in grid order, holding the target's minimum and
        maximum over the points that did not fail (``ok``, by default
        ``self.ok()``), per replicate if batched."""
        row, ok = self.row(target), self.ok() if ok is None else ok
        return (np.where(ok, row, np.inf).argmin(axis=-1),
                np.where(ok, row, -np.inf).argmax(axis=-1))

    def first_errors(self) -> list[str | None]:
        """Each replicate's first error of a batched sweep, in grid order, or None; with every
        point failed, the error a one-dataset ``sweep`` raises (see ``sweeps``)."""
        first = {b: e for (b, _), e in sorted(self.errors.items(), reverse=True)}  # least g last
        return [first.get(b) if ok.any() or len(ok) == 1 and _names_psem_error(first[b])
                else f"EstimationError: {_ALL_FAILED}{first[b]}" for b, ok in enumerate(self.ok())]

    def point(self, i: int) -> SensitivityPoint:
        return SensitivityPoint(self.config.scenario, dict(
            zip(self.config.scenario.sensitivity_keys, self.cells[i].tolist())))


def sweeps(weighted: WeightedRecords, configs: list[SensitivityConfig],
           targets: tuple[str, ...] | None = None) -> list[SweepResult]:
    """Sweep the sensitivity regions ``configs``, which share a scenario and a
    contrast, together: point estimates at every grid point of every region in
    array passes, and fits with covariance and contrast errors only at each
    target's argmin and argmax.

    Regions go into point passes in order, each pass over the concatenated
    grids of at most ``MAX_GRID_CELLS`` points, or of one region.
    ``targets`` defaults to every CEP target of the scenario. Grid-point
    failures are recorded by index, with the error ``fit_scenario`` raises
    there, rather than raised, unless every point of a region fails: the
    first such region, in order, raises. A one-point region raises its
    point's own ``PsemError`` (the one ``fit_scenario`` or ``cep`` raises
    there); any other region, or a point error that is not a ``PsemError``,
    raises ``_ALL_FAILED`` with the region's first error. Each covariance
    pass fits every pending (region, replicate, extreme) triple in one
    ``fit_ceps`` call, one dataset as a batch of one; a point whose
    covariance fit fails is marked failed and the extremes are taken again
    over the remaining points. For one dataset each ``CepResult`` holds its
    fit (``CepResult.fit``). Batched data (``tables.from_counts``) are swept in
    the same passes, each replicate as if alone but never raising. No
    region's result depends on the regions swept with it.
    """
    if len({(c.scenario, c.contrast) for c in configs}) != 1:
        raise ConfigError("sweeps takes one or more sensitivity regions that share "
                          "a scenario and a contrast")
    scenario, contrast = configs[0].scenario, configs[0].contrast
    names, keys = scenario.targets, scenario.sensitivity_keys
    targets = tuple(targets or names)
    if unknown := [t for t in targets if t not in names]:
        raise ConfigError(f"sweep targets {unknown} are not targets of scenario "
                          f"{scenario.value}; targets: {list(names)}")
    lead = weighted.cells.count.shape[:-1]
    grids = [c.grid() for c in configs]
    own = {}        # a one-dataset one-point region: its point's PsemError, or None
    results: list[SweepResult] = []
    for run in _point_passes([len(g) for g in grids]):
        cells = np.concatenate([grids[r] for r in run])
        n = len(cells)
        try:
            values, failed = fit_targets(weighted, scenario, dict(zip(keys, cells.T)), contrast)
        except PsemError as exc:    # a beta-free failure fails every point
            values = np.full((len(names), *lead, n), np.nan)
            failed = dict.fromkeys(range(values[0].size), exc)
        start = 0
        for r in run:
            stop = start + len(grids[r])
            errors = {(i // n, g - start) if lead else g - start: e
                      for i, e in failed.items() if start <= (g := i % n) < stop}
            if not lead and stop - start == 1:
                own[r] = errors.get(0)
            results.append(SweepResult(configs[r], targets, grids[r], values[..., start:stop], {
                k: f"{type(e).__name__}: {e}" for k, e in errors.items()}))
            start = stop
    while pending := [(r, k, b, i) for r, res in enumerate(results)
                      for k, (b, i) in _extremes(res, lead).items()
                      if k not in res.ceps and k not in res.errors]:
        points = {ri: results[ri[0]].point(ri[1]) for ri in {(r, i) for r, _, _, i in pending}}
        ceps, failed = fit_ceps(weighted, [points[r, i] for r, _, _, i in pending],
                                contrast, [b for _, _, b, _ in pending])
        for j, (r, k, _, _) in enumerate(pending):
            if j in failed:
                results[r].errors[k] = f"{type(failed[j]).__name__}: {failed[j]}"
                if r in own:
                    own[r] = failed[j]
            else:
                results[r].ceps[k] = ceps[j]
    for r, res in enumerate(results):
        if not lead and len(res.errors) == len(res.cells):
            if isinstance(own.get(r), PsemError):
                raise own[r]
            raise EstimationError(_ALL_FAILED + res.errors[min(res.errors)])
    return results


def _point_passes(sizes: list[int]) -> list[list[int]]:
    """The regions of grid sizes ``sizes``, by index in order, cut into runs of
    at most ``MAX_GRID_CELLS`` points, or of one region."""
    runs, total = [], MAX_GRID_CELLS
    for r, size in enumerate(sizes):
        if total + size > MAX_GRID_CELLS:
            runs.append([])
            total = 0
        runs[-1].append(r)
        total += size
    return runs


def _extremes(result: SweepResult, lead) -> dict:
    """Each (replicate, grid index) pair holding some target's extreme, keyed
    as in ``result.errors``."""
    ok = result.ok()
    return {(b, i) if lead else i: (b, i) for t in result.targets for idx in result.extremes(t, ok)
            for b, i in enumerate(np.atleast_1d(idx).tolist())}


def sweep(weighted: WeightedRecords, config: SensitivityConfig,
          targets: tuple[str, ...] | None = None) -> SweepResult:
    """The sweep of one sensitivity region: ``sweeps`` of the one region."""
    return sweeps(weighted, [config], targets)[0]


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
    # set by intervals, the points for one dataset only; None from a bare eui()
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


def intervals(grid: SweepResult,
              targets: tuple[str, ...] | None = None) -> dict[str, IntervalResult]:
    """Ignorance interval plus EUI of each of ``targets`` (default: every
    target of the sweep) from a completed sweep, in one pass: the failure
    mask, the corner mask and every target's extremes are taken once, and one
    ``eui`` call bisects each entry.

    The ignorance interval spans the point estimates over the whole grid, even
    where monotonicity guarantees corner extremes (``extrema_on_corners``).
    For one dataset the achieving sensitivity-parameter points are retained;
    in scenario B non-corner extremes trigger a warning per target, in
    ``targets`` order, that names the failed corner points, whose loss
    narrows the region, or else points to a numerical problem. On a batched
    sweep each replicate is treated as if alone, but nothing raises or warns:
    a replicate whose every point failed gets NaN."""
    return _intervals(grid, grid.targets if targets is None else tuple(targets))


def interval_for(grid: SweepResult, target: str = "mu") -> IntervalResult:
    """Ignorance interval plus EUI for one target of a completed sweep:
    ``intervals`` of that target."""
    return _intervals(grid, (target,))[target]


def _intervals(grid: SweepResult, targets: tuple[str, ...]) -> dict[str, IntervalResult]:
    """The body of ``intervals``; its warnings name the line that called the
    public reader."""
    for target in targets:
        if target not in grid.targets:
            raise KeyError(f"{target!r} is not a target of this sweep; "
                           f"targets: {list(grid.targets)}")
    one = grid.values.ndim == 2
    ok = grid.ok()
    fitted = ok.reshape(-1, len(grid.cells)).any(axis=1)    # (B,), B = 1 for one dataset
    if one and not fitted[0]:
        raise EstimationError("no successful grid cells")
    corner = np.logical_and.reduce([(c == c.min()) | (c == c.max()) for c in grid.cells.T])
    extremes = [[np.atleast_1d(i).tolist() for i in grid.extremes(t, ok)] for t in targets]
    # per target and replicate: est_l, se_l, est_u, se_u, the EUI and c_alpha
    out = np.full((7, len(targets), len(fitted)), np.nan)
    for t, (target, (lo, hi)) in enumerate(zip(targets, extremes)):
        row = grid.row(target).reshape(-1, len(grid.cells))
        for b in np.flatnonzero(fitted).tolist():
            out[:4, t, b] = [x for i in (lo[b], hi[b])
                             for x in (row[b, i], grid.ceps[i if one else (b, i)].get(target)[1])]
    res = eui(*out[:4, :, fitted], grid.config.alpha)
    out[4:, :, fitted] = *res.eui, res.c_alpha
    warn = one and grid.config.scenario is Scenario.B     # where extremes must be on corners
    failed = "; ".join("(" + ", ".join(f"{k}={v:g}" for k, v in grid.point(i).values.items())
                       + f": {e})" for i, e in sorted(grid.errors.items()) if warn and corner[i])
    results = {}
    for t, (target, (lo, hi)) in enumerate(zip(targets, extremes)):
        on_corners = corner[lo] & corner[hi] & fitted
        if not one:     # c_alpha is NaN where degenerate
            est_l, se_l, est_u, se_u, eui_l, eui_u, c = out[:, t]
            results[target] = IntervalResult(target, est_l, est_u, se_l, se_u, (eui_l, eui_u), c,
                                             res.alpha, fitted & np.isnan(c),
                                             extrema_on_corners=on_corners)
            continue
        est_l, se_l, est_u, se_u, eui_l, eui_u, c = out[:, t, 0].tolist()
        results[target] = IntervalResult(target, est_l, est_u, se_l, se_u, (eui_l, eui_u), c,
                                         res.alpha, c != c, grid.point(lo[0]), grid.point(hi[0]),
                                         bool(on_corners[0]))
        if warn and not on_corners[0]:
            cause = (f"the fit failed at region corner(s) {failed}, so the interval covers a "
                     "narrowed region" if failed else "check for numerical problems")
            warnings.warn(f"ignorance-interval extremes for {target} fall inside the sensitivity "
                          f"region in scenario B, where the estimate is monotone; {cause}",
                          RuntimeWarning, stacklevel=3)
    return results


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

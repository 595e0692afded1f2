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
passes: one point pass over their concatenated grids when these hold at most
``MAX_GRID_CELLS`` points (else one each), and one ``fit_ceps`` call per
covariance pass. Each region's result is the one it gets swept
alone (``sweep``). Each ``SweepResult`` holds its failed-point mask
(``ok()``) and every target's argmin and argmax per replicate
(``extremes``), read once when the point pass builds it and again only
where a covariance fit then fails. ``interval_table`` reads a batch's
intervals from those as arrays; ``intervals`` reads one dataset's as floats.
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
from .errors import ConfigError, EstimationError, PsemError
from .mathutil import fresh, norm_quantile
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
        if not (0.0 < self.alpha < 0.5 and 1.0 - self.alpha / 2.0 < 1.0):  # z_{1-a/2} finite
            raise ConfigError(f"alpha must be in (0, 0.5), 1 - alpha/2 below 1, got {self.alpha}")
        cells = math.prod(self.grid_points if lo < hi else 1 for lo, hi in self.ranges.values())
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
    scale 0 is the no-selection-bias point (no ranges). A scale below 0 or
    not finite is a ``ConfigError``."""
    if not 0 <= scale < math.inf:       # NaN fails too
        raise ConfigError(f"sensitivity scale must be >= 0 and finite, got {scale}")
    return ({k: (-scale, scale) for k in scenario.sensitivity_keys}
            if scale > 0 else {})


@dataclass
class SweepResult:
    """The sweep over the (G, K) Gamma points ``cells`` of B replicates.
    ``values`` (T, B, G) holds every target of the scenario, rows in
    ``scenario.targets`` order, at every point; ``failures`` (B, G) each
    failed point's exception (its value is meaningless), else None; ``ceps``
    the fit with covariance at each point holding an extreme, by (b, g).
    One dataset is swept as the batch of one (B = 1).

    ``ok()`` (B, G), which points did not fail, and ``extremes``
    (len(targets), 2, B), per target the first points in grid order holding
    its minimum and maximum over them, per replicate, are read from
    ``values`` and ``failures`` on construction, read only; ``sweeps`` reads
    them again where it marks a point failed."""
    config: SensitivityConfig
    targets: tuple[str, ...]
    cells: np.ndarray
    values: np.ndarray
    failures: np.ndarray
    ceps: dict[tuple[int, int], CepResult] = field(default_factory=dict)
    _ok: np.ndarray = field(init=False, repr=False, compare=False)
    extremes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._read_extremes()

    def _read_extremes(self) -> None:
        """Read ``ok()`` and ``extremes`` from ``values`` and ``failures``."""
        self._ok = ok = np.equal(self.failures, None)
        names = self.config.scenario.targets
        rows = self.values[[names.index(t) for t in self.targets]]
        self.extremes = np.stack((np.where(ok, rows, np.inf).argmin(axis=-1),
                                  np.where(ok, rows, -np.inf).argmax(axis=-1)), axis=1)
        ok.flags.writeable = self.extremes.flags.writeable = False

    def ok(self) -> np.ndarray:
        """Which points did not fail, (B, G)."""
        return self._ok

    def row(self, target: str) -> np.ndarray:
        return self.values[self.config.scenario.targets.index(target)]

    def first_errors(self) -> list[Exception | None]:
        """Each replicate's first exception, in grid order, or None. With every
        point failed it is the error the replicate's data raise when swept
        alone: a one-point region's own error if a ``PsemError``, else an
        ``EstimationError`` of ``_ALL_FAILED`` and that error's "Class: text"."""
        ok = self.ok()
        first = self.failures[np.arange(len(ok)), np.argmax(~ok, axis=1)]   # None if no failure
        return [e if row.any() or len(row) == 1 and isinstance(e, PsemError)
                else EstimationError(f"{_ALL_FAILED}{type(e).__name__}: {e}")
                for e, row in zip(first.tolist(), ok)]

    def point(self, i: int) -> SensitivityPoint:
        return SensitivityPoint(self.config.scenario, dict(
            zip(self.config.scenario.sensitivity_keys, self.cells[i].tolist())))


def sweeps(weighted: WeightedRecords, configs: list[SensitivityConfig],
           targets: tuple[str, ...] | None = None) -> list[SweepResult]:
    """Sweep the sensitivity regions ``configs``, which share a scenario and a
    contrast, together: point estimates at every grid point of every region in
    array passes, and fits with covariance and contrast errors only at each
    target's argmin and argmax.

    All regions share one point pass over their concatenated grids when these
    hold at most ``MAX_GRID_CELLS`` points together, and each region gets a
    pass of its own otherwise, so no pass holds more (``SensitivityConfig``
    bounds each region).
    ``targets`` defaults to every CEP target of the scenario. Batched data
    (``tables.from_counts``) are swept each replicate as if alone, and one
    dataset as the batch of one (B = 1). Each grid point's
    failure is recorded at (b, g), the error ``fit_scenario`` raises there.
    Each result reads its mask and extremes (``SweepResult.ok()`` and
    ``extremes``) when built. Each covariance pass fits every pending (region,
    replicate, extreme) triple in one ``fit_ceps`` call; a point whose
    covariance fit fails is marked failed, and only a region with such a
    point reads its mask and extremes again, over the remaining points,
    before the next pass. Nothing raises for batched data; for one dataset the first
    region, in order, whose every point failed raises a copy of its
    ``first_errors()`` error. No region's result depends on the regions
    swept with it.
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
    grids, regions = [c.grid() for c in configs], range(len(configs))
    results: list[SweepResult] = []
    for run in ([regions] if sum(map(len, grids)) <= MAX_GRID_CELLS else [[r] for r in regions]):
        cells = np.concatenate([grids[r] for r in run])
        values, failed = fit_targets(weighted, scenario, dict(zip(keys, cells.T)), contrast)
        start = 0
        for r in run:
            stop = start + len(grids[r])
            results.append(SweepResult(configs[r], targets, grids[r], values[..., start:stop],
                                       failed[:, start:stop]))
            start = stop
    todo = range(len(results))      # the regions whose extremes may lack a fit
    while pending := [(r, k) for r in todo for k in _extreme_points(results[r])
                      if k not in results[r].ceps and results[r].ok()[k]]:
        points = {ri: results[ri[0]].point(ri[1]) for ri in {(r, i) for r, (_, i) in pending}}
        ceps, failed = fit_ceps(weighted, [points[r, i] for r, (_, i) in pending],
                                contrast, [b for _, (b, _) in pending])
        for j, (r, k) in enumerate(pending):
            if failed[j] is not None:
                results[r].failures[k] = failed[j]
            else:
                results[r].ceps[k] = ceps[j]
        todo = sorted({r for j, (r, _) in enumerate(pending) if failed[j] is not None})
        for r in todo:
            results[r]._read_extremes()
    for res in results:
        if weighted.cells.count.ndim == 1 and not res.ok().any():     # one dataset
            raise fresh(res.first_errors()[0])
    return results


def _extreme_points(result: SweepResult) -> dict:
    """Each (replicate, grid index) pair holding some target's extreme, once."""
    return dict.fromkeys((b, i) for per_target in result.extremes.tolist()
                         for idx in per_target for b, i in enumerate(idx))


def sweep(weighted: WeightedRecords, config: SensitivityConfig,
          targets: tuple[str, ...] | None = None) -> SweepResult:
    """The sweep of one sensitivity region: ``sweeps`` of the one region."""
    return sweeps(weighted, [config], targets)[0]


@dataclass
class IntervalResult:
    """Ignorance interval and EUI of one target; ``c_alpha`` is NaN where ``degenerate`` (both
    SEs 0). Each number and flag is a float or bool, or from ``eui`` of arrays an array."""
    target: str
    estimate_lower: float
    estimate_upper: float
    se_lower: float
    se_upper: float
    eui: tuple[float, float]
    c_alpha: float
    alpha: float
    degenerate: bool = False
    # set by intervals; None from a bare eui()
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
    # mathutil.bisect of f(c) = norm_cdf(c + gap) - norm_cdf(-c) - (1 - alpha)
    # written out, each norm_cdf as its 0.5 erfc(-x / sqrt(2)) (at x = -c,
    # erfc(c / sqrt(2)), the same bits): the same midpoints and sign tests,
    # with no Python call per step but the two erfc
    erfc, root2, level = math.erfc, math.sqrt(2.0), 1.0 - alpha
    if 0.5 * erfc(-(lo + scaled_gap) / root2) - 0.5 * erfc(lo / root2) - level >= 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(-(mid + scaled_gap) / root2) - 0.5 * erfc(mid / root2) - level < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    target of the sweep) from the sweep of one dataset (B = 1; else a
    ``ValueError``), its ``interval_table`` read as Python floats and bools,
    with the points of the fits at the extremes (``CepResult.sensitivity``).
    With every point failed, the sweep's first error raises. In scenario B
    non-corner extremes (``extrema_on_corners``) trigger a warning per
    target, in ``targets`` order, that names the failed corner points, whose
    loss narrows the region, or else points to a numerical problem."""
    return _intervals(grid, grid.targets if targets is None else tuple(targets))


def interval_for(grid: SweepResult, target: str = "mu") -> IntervalResult:
    """Ignorance interval plus EUI for one target of the sweep of one dataset:
    ``intervals`` of that target."""
    return _intervals(grid, (target,))[target]


def _intervals(grid: SweepResult, targets: tuple[str, ...]) -> dict[str, IntervalResult]:
    """The body of ``intervals``; its warnings name the line that called the
    public reader."""
    if len(grid.failures) != 1:
        raise ValueError(f"intervals and interval_for read one dataset, not a sweep of "
                         f"{len(grid.failures)} replicates; read those with interval_table")
    table, flags = interval_table(grid, targets)
    if not grid.ok()[0].any():
        raise fresh(grid.first_errors()[0])
    floats, flags = table[..., 0].T.tolist(), flags[..., 0].T.tolist()
    extremes = grid.extremes[[grid.targets.index(t) for t in targets], :, 0].tolist()
    warn = grid.config.scenario is Scenario.B and not all(on for _, on in flags)
    at = np.flatnonzero(_corners(grid) & ~grid.ok()[0]).tolist() if warn else []
    failed = "; ".join("(" + ", ".join(f"{k}={v:g}" for k, v in grid.point(i).values.items())
                       + f": {type(e).__name__}: {e})" for i, e in zip(at, grid.failures[0, at]))
    results = {}
    for t, target in enumerate(targets):
        est_l, se_l, est_u, se_u, eui_l, eui_u, c = floats[t]
        degenerate, on_corners = flags[t]
        points = [grid.ceps[0, i].sensitivity for i in extremes[t]]
        results[target] = IntervalResult(target, est_l, est_u, se_l, se_u, (eui_l, eui_u), c,
                                         grid.config.alpha, degenerate, *points, on_corners)
        if warn and not on_corners:     # in scenario B the extremes must be on corners
            cause = (f"the fit failed at region corner(s) {failed}, so the interval covers a "
                     "narrowed region" if failed else "check for numerical problems")
            warnings.warn(f"ignorance-interval extremes for {target} fall inside the sensitivity "
                          f"region in scenario B, where the estimate is monotone; {cause}",
                          RuntimeWarning, stacklevel=3)
    return results


def interval_table(grid: SweepResult, targets: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each replicate's ignorance interval and EUI of each of ``targets``, as if
    alone, in one pass over the sweep's mask and extremes (``SweepResult.ok()``,
    ``extremes``), with one ``eui`` call: (7, T, B) floats, est_l, se_l, est_u,
    se_u, the two EUI bounds and c_alpha, and (2, T, B) bools, degenerate and
    extrema on corners. A replicate whose every point failed gets NaN and
    False; nothing warns, and only a target the sweep lacks raises."""
    if unknown := [t for t in targets if t not in grid.targets]:
        raise KeyError(f"{unknown[0]!r} is not a target of this sweep; "
                       f"targets: {list(grid.targets)}")
    fitted = grid.ok().any(axis=1)    # (B,)
    ext = grid.extremes[[grid.targets.index(t) for t in targets]]     # (T, 2, B)
    extremes = ext.transpose(0, 2, 1).tolist()      # per target and replicate: lo, hi
    out = np.full((7, len(targets), len(fitted)), np.nan)
    for t, target in enumerate(targets):
        row = grid.row(target)
        for b in np.flatnonzero(fitted).tolist():
            out[:4, t, b] = [x for i in extremes[t][b]
                             for x in (row[b, i], grid.ceps[b, i].get(target)[1])]
    res = eui(*out[:4, :, fitted], grid.config.alpha)
    out[4:, :, fitted] = *res.eui, res.c_alpha
    # c_alpha is NaN where degenerate
    return out, np.stack((fitted & np.isnan(out[6]), _corners(grid)[ext].all(axis=1) & fitted))


def _corners(grid: SweepResult) -> np.ndarray:
    """Which of the sweep's G points are corners of its region."""
    return np.logical_and.reduce([(c == c.min()) | (c == c.max()) for c in grid.cells.T])


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

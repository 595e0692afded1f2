"""Data generators and the Monte Carlo study harness.

Each built-in design is one row of ``DESIGNS``: the law of the early-event
pair (Ytau(1), Ytau(0)), the scenario its studies are analyzed under and
its default grid points per Gamma axis. Design B has equal early clinical
risk (scenario B); design C has no-harm monotonicity but unequal early
risk (scenario C_protect). The marker and outcome mechanics are shared:
among active-arm early survivors S*(1) is positive with probability 0.6,
the control marker is 0 wherever defined, Y(1) is Bernoulli(a) or
Bernoulli(b) as S*(1) is 0/1, Y(0) is Bernoulli(0.5) and early events are
cases, so the effect-modification contrast is b - a.

Arm assignment is Bernoulli(1/2); under case-cohort sampling the marker of
a survivor is observed iff they are a case (y = 1) or fall in a
Bernoulli(nu) subcohort.

Randomness is counter-based (Philox) with one documented stream per
(seed, study cell, replicate): key = [seed, (cell_index * 2^32 + replicate) mod 2^64],
with replicate < 2^32 (``StudyConfig`` rejects 2^32 replicates or more, whose keys
would replay the next cell's). A replicate's stream is a (6, n) block of uniforms,
rows in a fixed order (early pair, marker, y1, y0, arm, subcohort), so results are
bit-identical regardless of how replicates are scheduled across workers. Each row
is compared once with its thresholds (the early pair's cut points; 0.6; a and b;
1/2; 1/2; nu), and the draw is a function of those R bits. The thresholds fix each
of the 2^R bit patterns' exact probability, which ``oracle_estimands`` conditions
on. The uniforms are numpy's Philox doubles u = (word >> 11) 2^-53 of the raw
64-bit words, so u < t exactly when word < ceil(t 2^53) 2^11: the draw compares raw
words with these integer thresholds and never forms u. A bit with t = 1 is always
1, so the words stop at the last row that holds another bit (at nu = 1 the
subcohort row is not drawn); the rows before it are the same words as in the full
block. A study block re-keys one generator per replicate (the same key, counter 0),
compares each row into one reused bit buffer, packs a participant's bits into a
uint8 pattern (uint16 above 8 bits), counts the 2^R patterns and folds them into
cells.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import astuple, dataclass, field, fields
from operator import itemgetter

import numpy as np

from . import tables
# cep, fit_scenario and eui stay bound here: bench/tracer.py patches them in
# this namespace
from .core import Scenario, cep, fit_scenario  # noqa: F401
from .errors import ConfigError, PsemError
from .records import ObservedRecord
from .sensitivity import (SensitivityConfig, eui, interval_table,  # noqa: F401
                          symmetric_ranges, sweep)
from .tables import S_MISS, S_NEG, S_POS, S_UNDEF
from .weights import WeightModel, fit_missingness

MARKER_POS_RATE = 0.6     # P(active marker positive | early survivor)
CONTROL_RISK = 0.5        # P(Y(0)=1 | always survivor)


@dataclass(frozen=True)
class Design:
    early: tuple          # ((Ytau(1), Ytau(0)), probability), in draw order
    scenario: Scenario    # the scenario its studies are analyzed under
    grid_points: int      # default grid points per Gamma axis


DESIGNS = {
    "B": Design((((1, 1), 0.2), ((0, 0), 0.8)), Scenario.B, 21),
    "C": Design((((0, 0), 0.7), ((0, 1), 0.2), ((1, 1), 0.1)),
                Scenario.C_PROTECT, 2),
}


def _check_design(design: str) -> None:
    if design not in DESIGNS:
        raise ConfigError(f"design must be {' or '.join(map(repr, DESIGNS))}, "
                          f"got {design!r}")


def _check_count(name: str, value, lo: int, hi: float = math.inf) -> None:
    if not (isinstance(value, numbers.Integral) and lo <= value < hi):
        raise ConfigError(f"{name} must be >= {lo} and < {hi}, an integer; got {value!r}")


def _check_sample(n, nu) -> None:
    """Sample checks shared by GeneratorConfig and StudyConfig."""
    if not 0.0 < nu <= 1.0:
        raise ConfigError(f"nu must lie in (0,1], got {nu}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    design: str
    n: int
    a: float
    b: float
    nu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_design(self.design)
        for name in ("a", "b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        _check_sample(self.n, self.nu)
        _check_count("seed", self.seed, 0, 2**64)


@dataclass(frozen=True, slots=True)
class PotentialRecord:
    y_tau_1: int
    y_tau_0: int
    s_star_1: int | None      # None when undefined (early event under arm 1)
    s_star_0: int | None
    y_1: int
    y_0: int


def _key(seed: int, cell: int, replicate: int) -> list[int]:
    """The Philox key of one replicate's stream (module docstring)."""
    return [seed, ((cell << 32) + replicate) & 0xFFFFFFFFFFFFFFFF]


def _rng_for(seed: int, cell: int, replicate: int) -> np.random.Generator:
    key = np.array(_key(seed, cell, replicate), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _thresholds(config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each bit's uniform row (ascending) and threshold: bit k is u[row[k]] < below[k]."""
    cuts = np.cumsum([p for _, p in DESIGNS[config.design].early])[:-1]
    return (np.array([0] * len(cuts) + [1, 2, 2, 3, 4, 5]),
            np.array([*cuts, MARKER_POS_RATE, config.a, config.b, CONTROL_RISK, 0.5, config.nu]))


def _word_limits(below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer thresholds of float thresholds in [0, 1]: the Philox double of ``word`` is
    below t exactly when word < limit, except where ``ones`` flags a bit that is always 1."""
    steps = np.ceil(np.ldexp(below, 53))    # (word >> 11) < t 2^53 iff it is < ceil(t 2^53)
    ones = steps >= 2.0**53
    return np.where(ones, 0.0, steps).astype(np.uint64) << np.uint64(11), ones


def _drawer(config: GeneratorConfig):
    """The draw of ``config`` (module docstring) as a function of a ``_rng_for`` generator
    that writes the (R, n) bits into one buffer, reused across calls, and returns it."""
    row, below = _thresholds(config)
    limit, ones = _word_limits(below)
    bits = np.empty((len(row), config.n), dtype=bool)
    bits[ones] = True
    shape = (row[~ones].max() + 1, config.n)
    compares = [(row[k], limit[k], bits[k]) for k in np.flatnonzero(~ones)]

    def draw(rng: np.random.Generator) -> np.ndarray:
        words = rng.bit_generator.random_raw(shape)
        for r, below_word, out in compares:
            np.less(words[r], below_word, out=out)
        return bits
    return draw


def _bits(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """The (R, n) bits of one draw (module docstring). ``rng`` must come from ``_rng_for``:
    the integer thresholds hold for Philox's doubles."""
    return _drawer(config)(rng)


def _patterns(config: GeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """All 2^R bit patterns (R, 2^R), pattern i's bits being those of i, and their probabilities:
    the product over uniform rows of the length (or 0) of the interval each row's bits pick."""
    row, below = _thresholds(config)
    bits = np.arange(1 << len(row)) & (1 << np.arange(len(row)))[:, None] > 0
    start = np.flatnonzero(np.diff(row, prepend=-1))
    lo = np.maximum.reduceat(np.where(bits, 0.0, below[:, None]), start)
    hi = np.minimum.reduceat(np.where(bits, below[:, None], 1.0), start)
    return bits, np.prod(np.maximum(hi - lo, 0.0), axis=0)


def _observe(config: GeneratorConfig, bits: np.ndarray) -> dict:
    """Potential and observed int8 arrays of a draw's ``_bits``: the early pair
    is the k-th of the design's law, k the count of cut points <= u0."""
    cut, (pos, below_a, below_b, control, z, sub) = bits[:-6], bits[-6:]
    pairs = np.array([pair for pair, _ in DESIGNS[config.design].early], dtype=bool)
    yt1, yt0 = pairs[len(cut) - cut.sum(axis=0)].T
    s1 = pos & ~yt1
    y1, y0 = yt1 | np.where(s1, below_b, below_a), yt0 | control
    yt, y = np.where(z, yt1, yt0), np.where(z, y1, y0)
    measured = yt | sub | y
    s_code = np.where(yt, S_UNDEF,        # the control survivor marker is 0
                      np.where(measured, np.where(z & s1, S_POS, S_NEG), S_MISS))
    return {name: v.astype(np.int8) for name, v in dict(
        yt1=yt1, yt0=yt0, s1=s1, y1=y1, y0=y0, z=z, yt=yt, y=y, s_code=s_code,
        measured=measured).items()}


def _gen_arrays(config: GeneratorConfig, rng: np.random.Generator) -> dict:
    """Potential and observed arrays of one draw (see the module docstring)."""
    return _observe(config, _bits(config, rng))


def _cell_counts(config: GeneratorConfig, cell_id: int, reps) -> np.ndarray:
    """Cell tallies (len(reps), 32) of replicates ``reps`` of study cell ``cell_id``: one
    generator, re-keyed per replicate, draws into one bit buffer; each participant's bits
    read as one unsigned integer, and the pattern counts fold into cells."""
    bits, _ = _patterns(config)
    code = tables.cell_code(*itemgetter("z", "yt", "s_code", "y")(_observe(config, bits)))
    draw, r = _drawer(config), len(bits)
    weight = (1 << np.arange(r)).astype(np.min_scalar_type((1 << r) - 1))   # uint8 to 8 bits
    rng = _rng_for(config.seed, cell_id, 0)
    fresh, tally = rng.bit_generator.state, np.empty((len(reps), 32), dtype=np.int64)
    for b, rep in enumerate(reps):
        fresh["state"]["key"] = _key(config.seed, cell_id, rep)
        rng.bit_generator.state = fresh     # counter 0, empty buffer: as _rng_for(..., rep)
        pattern = np.einsum("k,kn->n", weight, draw(rng).view(np.uint8))   # @ is slower on ints
        tally[b] = np.bincount(code, np.bincount(pattern, minlength=len(code)), 32)
    return tally


def generate(config: GeneratorConfig):
    """One draw of ``config``; returns (potential records, observed records).
    Record ids are the lower-case design name followed by 1, 2, ..."""
    arrs = {k: v.tolist() for k, v in _gen_arrays(config, _rng_for(config.seed, 0, 0)).items()}
    marker = {code: m for m, code in tables._MARKER_CODE.items()}
    pot = [PotentialRecord(t1, t0, None if t1 else s1, None if t0 else 0, y1, y0)
           for t1, t0, s1, y1, y0 in zip(*itemgetter("yt1", "yt0", "s1", "y1", "y0")(arrs))]
    obs = [ObservedRecord(f"{config.design.lower()}{i}", z, yt, marker[s], y, m)
           for i, (z, yt, s, y, m) in enumerate(zip(*itemgetter(
               "z", "yt", "s_code", "y", "measured")(arrs)), 1)]
    return pot, obs


# ---------------------------------------------------------------------------
# exact estimands from the bit-pattern probabilities


def oracle_estimands(config: GeneratorConfig) -> dict[str, float]:
    """Exact values of every estimand: ``_observe``'s potential outcomes of all
    bit patterns, weighted by the pattern probabilities (no simulation)."""
    bits, p = _patterns(config)
    t1, t0, s1, y1, y0 = itemgetter("yt1", "yt0", "s1", "y1", "y0")(_observe(config, bits))

    def cond(num, den):
        d = math.fsum(p[den])
        return math.fsum(p[num & den]) / d if d > 0 else float("nan")

    eas = (t1 == 0) & (t0 == 0)
    out = {"p00": cond(s1 == 0, eas), "p10": cond(s1 == 1, eas), "p11": 0.0}
    for z, yz in ((0, y0 == 1), (1, y1 == 1)):
        out[f"risk{z}"] = cond(yz, eas)
        for sv in (0, 1):
            out[f"risk{z}_{sv}0"] = cond(yz, eas & (s1 == sv))
    out["cep_00"] = out["risk1_00"] - out["risk0_00"]
    out["cep_10"] = out["risk1_10"] - out["risk0_10"]
    out["mu"] = out["cep_10"] - out["cep_00"]
    ep = (t1 == 0) & (t0 == 1)
    if ep.any():
        out["phi"] = cond(t0 == 0, t1 == 0)
        out["ep_pos_rate"] = cond(s1 == 1, ep)
        for sv in (0, 1):
            out[f"risk1_{sv}star"] = cond(y1 == 1, ep & (s1 == sv))
    return out


# ---------------------------------------------------------------------------
# replicated studies


@dataclass(frozen=True)
class StudyConfig:
    """Grid of simulation cells: one per (n, nu, delta, gamma scale).

    ``deltas`` are target values of CEP(1,0) - CEP(0,0); each maps to
    (a, b) = (0.4 - d/2, 0.4 + d/2). ``gamma_scales`` are symmetric
    sensitivity ranges [-s, s] applied to every scenario-legal parameter
    (scale 0 is the no-selection-bias analysis). Each design is analyzed
    under its ``DESIGNS`` scenario; ``grid_points=None`` takes the
    design's default.
    """

    design: str
    n_values: tuple[int, ...]
    nu_values: tuple[float, ...] = (1.0,)
    deltas: tuple[float, ...] = (0.0,)
    gamma_scales: tuple[float, ...] = (0.0,)
    replicates: int = 1000
    seed: int = 0
    grid_points: int | None = None     # None: the design's default
    alpha: float = 0.05
    threads: int = 1

    def __post_init__(self):
        _check_design(self.design)
        if not all((self.n_values, self.nu_values, self.deltas, self.gamma_scales)):
            raise ConfigError("n_values, nu_values, deltas and gamma_scales need a value each")
        _check_count("replicates", self.replicates, 1, 2**32)
        _check_count("threads", self.threads, 1)
        _check_count("seed", self.seed, 0, 2**64)
        for n, nu in itertools.product(self.n_values, self.nu_values):
            _check_sample(n, nu)
        if not all(abs(d) <= 0.8 for d in self.deltas):    # NaN fails too
            raise ConfigError(f"deltas must lie in [-0.8, 0.8], got {list(self.deltas)}")
        if not all(0 <= g < math.inf for g in self.gamma_scales):
            raise ConfigError(f"gamma scales must be >= 0 and < inf, got {list(self.gamma_scales)}")
        if self.grid_points is not None:
            _check_count("grid_points", self.grid_points, 2)
        if not (0.0 < self.alpha < 0.5 and 1.0 - self.alpha / 2.0 < 1.0):  # z_{1-a/2} finite
            raise ConfigError(f"alpha must be in (0, 0.5), 1 - alpha/2 below 1, got {self.alpha}")

    def cells(self) -> list[dict]:
        return [{"design": self.design, "n": n, "nu": nu, "delta": d,
                 "gamma_scale": g}
                for n, nu, d, g in itertools.product(
                    self.n_values, self.nu_values, self.deltas,
                    self.gamma_scales)]


@dataclass
class StudyCellResult:
    design: str
    n: int
    nu: float
    delta: float
    gamma_scale: float
    true_mu: float
    replicates: int
    failures: int
    power: float
    coverage: float
    mean_width: float
    sd_width: float
    bias_min: float
    bias_max: float
    ese_min: float
    ase_min: float
    ese_max: float
    ase_max: float
    mc_se_power: float
    mc_se_coverage: float

    def row(self) -> list:
        return list(astuple(self))


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list[StudyCellResult] = field(default_factory=list)

    def as_table(self) -> tuple[tuple[str, ...], list[list]]:
        header = tuple(f.name for f in fields(StudyCellResult))
        return header, [r.row() for r in self.rows]

    def cell(self, **kw) -> StudyCellResult:
        for r in self.rows:
            if all(math.isclose(getattr(r, k), v) if isinstance(v, float)
                   else getattr(r, k) == v for k, v in kw.items()):
                return r
        raise KeyError(f"no study cell matching {kw}")


# replicates tallied into one batched cell table and fitted in one pass: at most BLOCK,
# and on a grid of G points at most BLOCK_POINTS / G (the grid pass holds (B, G) arrays;
# core.FIT_CHUNK bounds the covariance pass), whatever the number of threads
BLOCK, BLOCK_POINTS = 200, 200 * 21


def _fit_block(draw: GeneratorConfig, gamma, cell_id, reps) -> tuple[list, np.ndarray]:
    """Draw the replicates ``reps`` of a study cell and sweep them in one pass, whose
    covariance fits are stacked ``core.FIT_CHUNK`` at a time: each replicate's first
    exception (None where no point failed), and a row per replicate of the interval
    for mu (estimate_lower, se_lower, estimate_upper, se_upper, EUI)."""
    grid = sweep(fit_missingness(tables.from_counts(_cell_counts(draw, cell_id, reps)),
                                 WeightModel.design_known(draw.nu)), gamma, targets=("mu",))
    return grid.first_errors(), interval_table(grid, ("mu",))[0][:6, 0].T


def run_study(config: StudyConfig) -> StudyResult:
    """Run the replicated study over all cells and compute the operating
    characteristics: rejection rate (power / type I), EUI coverage of the
    true contrast difference, mean EUI width, bias of the grid-minimum and
    grid-maximum estimates, and the ratio of empirical to average estimated
    standard errors. Per-replicate estimation failures are excluded from
    the metrics and counted. Replicates are fitted in blocks (``BLOCK``) sized
    by the grid alone; ``threads`` only maps the blocks to a pool of
    min(threads, blocks) worker processes, and none starts when that is 1.
    Results depend neither on blocks nor on threads, bit for bit.
    """
    g = config.grid_points or DESIGNS[config.design].grid_points
    cells, jobs, reps = [], [], range(config.replicates)
    for cell_id, cell in enumerate(config.cells()):
        d = cell["delta"]
        draw = GeneratorConfig(cell["design"], cell["n"], 0.4 - d / 2.0, 0.4 + d / 2.0,
                               cell["nu"], config.seed)
        cells.append((cell, oracle_estimands(draw)["mu"]))
        scenario = DESIGNS[cell["design"]].scenario
        gamma = SensitivityConfig(scenario, symmetric_ranges(scenario, cell["gamma_scale"]),
                                  grid_points=g, alpha=config.alpha)
        block = max(1, min(BLOCK, BLOCK_POINTS // len(gamma.grid())))
        jobs += [(draw, gamma, cell_id, reps[s:s + block]) for s in reps[::block]]
    if (workers := min(config.threads, len(jobs))) > 1:
        from concurrent.futures import ProcessPoolExecutor  # keeps import psem light
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_fit_block, *zip(*jobs)))
    else:
        blocks = list(itertools.starmap(_fit_block, jobs))
    errors, r = [e for errs, _ in blocks for e in errs], config.replicates
    mus = np.concatenate([mu for _, mu in blocks]).reshape(len(cells), r, -1)
    return StudyResult(config, [_summarize_cell(cell, mu, errors[k * r:(k + 1) * r], mus[k])
                                for k, (cell, mu) in enumerate(cells)])


def _summarize_cell(cell, true_mu, errors, mus) -> StudyCellResult:
    ok = np.array([e is None for e in errors])
    if not ok.any():
        raise PsemError(f"every replicate failed in cell {cell}; first error: "
                        f"{type(errors[0]).__name__}: {errors[0]}")
    mu_min, se_min, mu_max, se_max, lo, hi = mus[ok].T
    reject = ~((lo <= 0.0) & (0.0 <= hi))
    cover = (lo <= true_mu) & (true_mu <= hi)
    r, failures = len(lo), len(errors) - len(lo)
    power = float(np.mean(reject))
    coverage = float(np.mean(cover))

    def sd(x):
        return float(np.std(x, ddof=1)) if r > 1 else float("nan")

    return StudyCellResult(
        design=cell["design"], n=cell["n"], nu=cell["nu"], delta=cell["delta"],
        gamma_scale=cell["gamma_scale"], true_mu=true_mu,
        replicates=r, failures=failures, power=power, coverage=coverage,
        mean_width=float(np.mean(hi - lo)),
        sd_width=sd(hi - lo),
        bias_min=float(np.mean(mu_min)) - true_mu,
        bias_max=float(np.mean(mu_max)) - true_mu,
        ese_min=sd(mu_min), ase_min=float(np.mean(se_min)),
        ese_max=sd(mu_max), ase_max=float(np.mean(se_max)),
        mc_se_power=math.sqrt(max(power * (1 - power), 1e-12) / r),
        mc_se_coverage=math.sqrt(max(coverage * (1 - coverage), 1e-12) / r))

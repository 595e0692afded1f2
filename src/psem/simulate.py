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
(seed, study cell, replicate): key = [seed, cell_index * 2^32 + replicate].
Within a replicate, draws occur in a fixed order (early pair, marker, y1,
y0, arm, subcohort), so results are bit-identical regardless of how
replicates are scheduled across workers.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import tables
# cep, fit_scenario and eui stay bound here: bench/tracer.py patches them in
# this namespace
from .core import Scenario, cep, fit_scenario  # noqa: F401
from .sensitivity import eui  # noqa: F401
from .errors import ConfigError, PsemError
from .records import Marker, ObservedRecord
from .sensitivity import (SensitivityConfig, interval_for, symmetric_ranges,
                          sweep)
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


@dataclass(frozen=True, slots=True)
class PotentialRecord:
    y_tau_1: int
    y_tau_0: int
    s_star_1: int | None      # None when undefined (early event under arm 1)
    s_star_0: int | None
    y_1: int
    y_0: int


def _rng_for(seed: int, cell: int, replicate: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    ((cell << 32) + replicate) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gen_arrays(config: GeneratorConfig, rng: np.random.Generator) -> dict:
    """Vectorized draw of potential and observed arrays (see module docstring
    for the fixed draw order that pins determinism)."""
    n = config.n
    pairs, probs = zip(*DESIGNS[config.design].early)
    k = np.searchsorted(np.cumsum(probs)[:-1], rng.random(n), side="right")
    yt1, yt0 = (np.array(col, dtype=bool)[k] for col in zip(*pairs))
    s1 = (rng.random(n) < MARKER_POS_RATE) & ~yt1
    mean1 = np.where(s1, config.b, config.a)
    y1 = np.where(yt1, True, rng.random(n) < mean1)
    y0 = np.where(yt0, True, rng.random(n) < CONTROL_RISK)
    z = rng.random(n) < 0.5
    sub = rng.random(n) < config.nu

    yt = np.where(z, yt1, yt0)
    y = np.where(z, y1, y0)
    s_pos = np.where(z, s1, False)           # control survivor marker is 0
    measured = np.where(yt, True, sub | y)
    s_code = np.where(yt, S_UNDEF,
                      np.where(measured, np.where(s_pos, S_POS, S_NEG), S_MISS))
    return {
        "yt1": yt1.astype(np.int8), "yt0": yt0.astype(np.int8),
        "s1": s1.astype(np.int8), "y1": y1.astype(np.int8),
        "y0": y0.astype(np.int8), "z": z.astype(np.int8),
        "yt": yt.astype(np.int8), "y": y.astype(np.int8),
        "s_code": s_code.astype(np.int8), "measured": measured.astype(np.int8),
    }


def generate(config: GeneratorConfig):
    """One draw of ``config``; returns (potential records, observed records).
    Record ids are the lower-case design name followed by 1, 2, ..."""
    arrs = _gen_arrays(config, _rng_for(config.seed, 0, 0))
    code_to_marker = {code: m for m, code in tables._MARKER_CODE.items()}
    prefix = config.design.lower()
    pot, obs = [], []
    for i in range(config.n):
        yt1, yt0 = int(arrs["yt1"][i]), int(arrs["yt0"][i])
        pot.append(PotentialRecord(
            y_tau_1=yt1, y_tau_0=yt0,
            s_star_1=None if yt1 else int(arrs["s1"][i]),
            s_star_0=None if yt0 else 0,
            y_1=int(arrs["y1"][i]), y_0=int(arrs["y0"][i])))
        obs.append(ObservedRecord(
            id=f"{prefix}{i + 1}", z=int(arrs["z"][i]), y_tau=int(arrs["yt"][i]),
            marker=code_to_marker[int(arrs["s_code"][i])],
            y=int(arrs["y"][i]), measured=int(arrs["measured"][i])))
    return pot, obs


# ---------------------------------------------------------------------------
# exact estimands by enumerating the generator law


def _law(config: GeneratorConfig) -> np.ndarray:
    """Columns (yt1, yt0, s1, y1, y0, p) of the generator law over the
    potential outcomes; s1 = -1 where undefined (early event under arm 1).
    The control marker is 0 wherever defined, so it needs no column."""
    def bern(m):
        return ((1, m), (0, 1.0 - m))

    rows = []
    for (t1, t0), pt in DESIGNS[config.design].early:
        s1_opts = ((-1, 1.0),) if t1 else bern(MARKER_POS_RATE)
        for s1, ps in s1_opts:
            y1_opts = ((1, 1.0),) if t1 else bern(config.b if s1 == 1 else config.a)
            y0_opts = ((1, 1.0),) if t0 else bern(CONTROL_RISK)
            rows += [(t1, t0, s1, y1, y0, pt * ps * p1 * p0)
                     for y1, p1 in y1_opts for y0, p0 in y0_opts]
    return np.array(rows).T


def oracle_estimands(config: GeneratorConfig) -> dict[str, float]:
    """Exact values of every estimand, computed by enumerating the finite
    support of the generator law (no simulation)."""
    t1, t0, s1, y1, y0, p = _law(config)

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
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        for n, nu in itertools.product(self.n_values, self.nu_values):
            _check_sample(n, nu)
        for d in self.deltas:
            if abs(d) > 0.8:
                raise ConfigError(f"delta {d} leaves the (a,b) parameterization")
        if not all(g >= 0 for g in self.gamma_scales):
            raise ConfigError(f"gamma scales must be >= 0, got {list(self.gamma_scales)}")
        if self.grid_points is not None and self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

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


def _one_replicate(design, n, nu, a, b, gamma, seed, cell_id, rep):
    """Generate, sweep the sensitivity grid, and summarize one draw.

    Returns (mu_min, se_min, mu_max, se_max, eui_lo, eui_hi), or the first
    error string when any grid cell fails.
    """
    rng = _rng_for(seed, cell_id, rep)
    cfg = GeneratorConfig(design=design, n=n, a=a, b=b, nu=nu, seed=seed)
    arrs = _gen_arrays(cfg, rng)
    try:
        cells = tables.from_arrays(arrs["z"], arrs["yt"], arrs["s_code"], arrs["y"])
        weighted = fit_missingness(cells, WeightModel.design_known(nu))
        grid = sweep(weighted, gamma, targets=("mu",))
    except PsemError as exc:
        return f"{type(exc).__name__}: {exc}"
    for cell in grid.cells:
        if cell.error is not None:
            return cell.error
    res = interval_for(grid, "mu")
    return (res.estimate_lower, res.se_lower, res.estimate_upper, res.se_upper,
            *res.eui)


def run_study(config: StudyConfig) -> StudyResult:
    """Run the replicated study over all cells and compute the operating
    characteristics: rejection rate (power / type I), EUI coverage of the
    true contrast difference, mean EUI width, bias of the grid-minimum and
    grid-maximum estimates, and the ratio of empirical to average estimated
    standard errors. Per-replicate estimation failures are excluded from
    the metrics and counted. Deterministic given the seed, independent of
    the worker count.
    """
    result = StudyResult(config=config)
    g = config.grid_points
    if g is None:
        g = DESIGNS[config.design].grid_points
    reps = range(config.replicates)
    for cell_id, cell in enumerate(config.cells()):
        d = cell["delta"]
        a, b = 0.4 - d / 2.0, 0.4 + d / 2.0
        true_mu = oracle_estimands(GeneratorConfig(
            design=cell["design"], n=2, a=a, b=b))["mu"]
        scenario = DESIGNS[cell["design"]].scenario
        gamma = SensitivityConfig(
            scenario=scenario,
            ranges=symmetric_ranges(scenario, cell["gamma_scale"]),
            grid_points=g, alpha=config.alpha)
        one = functools.partial(_one_replicate, cell["design"], cell["n"],
                                cell["nu"], a, b, gamma, config.seed, cell_id)
        if config.threads > 1:
            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                outs = list(pool.map(one, reps, chunksize=math.ceil(
                    config.replicates / (4 * config.threads))))
        else:
            outs = list(map(one, reps))
        result.rows.append(_summarize_cell(cell, true_mu, outs))
    return result


def _summarize_cell(cell, true_mu, outcomes) -> StudyCellResult:
    ok = [o for o in outcomes if not isinstance(o, str)]
    failures = len(outcomes) - len(ok)
    if not ok:
        raise PsemError(f"every replicate failed in cell {cell}; first error: "
                        f"{outcomes[0]}")
    arr = np.array(ok)                     # columns per _one_replicate
    mu_min, se_min, mu_max, se_max, lo, hi = arr.T
    reject = ~((lo <= 0.0) & (0.0 <= hi))
    cover = (lo <= true_mu) & (true_mu <= hi)
    r = len(ok)
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

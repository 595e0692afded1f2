"""Data generators and the Monte Carlo study harness.

Two finite-support generators are implemented, matching the two assumption
scenarios they exercise:

* design B: the early-event pair (Ytau(1), Ytau(0)) is (0,0) or (1,1) with
  probabilities 0.8/0.2 (equal early clinical risk holds); among early
  survivors the marker pair (S*(1), S*(0)) is (0,0) or (1,0) with
  probabilities 0.4/0.6 (constant control marker); Y(1) is Bernoulli(a) or
  Bernoulli(b) as the active marker is negative/positive and Y(0) is
  Bernoulli(0.5), so the effect-modification contrast is b - a.
* design C: the early pair is (0,0), (0,1) or (1,1) with probabilities
  0.7/0.2/0.1 (no-harm monotonicity holds, equal early risk fails); the
  marker and outcome mechanics are as in design B, with the early-protected
  stratum sharing the 0.4/0.6 marker split.

Arm assignment is Bernoulli(1/2); under case-cohort sampling the marker of
a survivor is observed iff they are a case (y = 1) or fall in a
Bernoulli(nu) subcohort.

Randomness is counter-based (Philox) with one documented stream per
(seed, study cell, replicate): key = [seed, cell_index * 2^32 + replicate].
Within a replicate, draws occur in a fixed order (strata, marker, y1, y0,
arm, subcohort), so results are bit-identical regardless of how replicates
are scheduled across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tables
# cep and fit_scenario stay bound here: bench/tracer.py patches them in this
# namespace
from .core import Contrast, Scenario, cep, fit_scenario  # noqa: F401
from .errors import ConfigError, PsemError
from .records import Marker, ObservedRecord
from .sensitivity import SensitivityConfig, eui, ignorance_interval, sweep
from .tables import S_MISS, S_NEG, S_POS, S_UNDEF
from .weights import WeightModel, fit_missingness

MARKER_POS_RATE = 0.6     # P(active marker positive | early survivor)
CONTROL_RISK = 0.5        # P(Y(0)=1 | always survivor)
DESIGN_B_EARLY = 0.2      # P(early pair = (1,1))
DESIGN_C_PROBS = (0.7, 0.2, 0.1)   # (0,0), (0,1), (1,1)


@dataclass(frozen=True)
class GeneratorConfig:
    design: str
    n: int
    a: float
    b: float
    nu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.design not in ("B", "C"):
            raise ConfigError(f"design must be 'B' or 'C', got {self.design!r}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {v}")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError(f"nu must lie in (0,1], got {self.nu}")
        if self.n < 1:
            raise ConfigError("n must be positive")


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
    u = rng.random(n)
    if config.design == "B":
        yt1 = u < DESIGN_B_EARLY
        yt0 = yt1.copy()
    else:
        p00, p01, _ = DESIGN_C_PROBS
        yt1 = u >= p00 + p01          # (1,1) stratum
        yt0 = u >= p00                # (0,1) or (1,1)
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


def _records_from_arrays(arrs, prefix: str):
    pot, obs = [], []
    code_to_marker = {S_NEG: Marker.NEGATIVE, S_POS: Marker.POSITIVE,
                      S_UNDEF: Marker.UNDEFINED, S_MISS: Marker.MISSING}
    for i in range(len(arrs["z"])):
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


def gen_scenario_b(config: GeneratorConfig):
    """Design-B draw; returns (potential records, observed records)."""
    if config.design != "B":
        raise ConfigError("gen_scenario_b requires design='B'")
    arrs = _gen_arrays(config, _rng_for(config.seed, 0, 0))
    return _records_from_arrays(arrs, "b")


def gen_scenario_c(config: GeneratorConfig):
    """Design-C draw; returns (potential records, observed records)."""
    if config.design != "C":
        raise ConfigError("gen_scenario_c requires design='C'")
    arrs = _gen_arrays(config, _rng_for(config.seed, 0, 0))
    return _records_from_arrays(arrs, "c")


def apply_case_cohort(observed, nu: float, seed: int = 0):
    """Mask markers of fully observed records per the case-cohort design:
    a survivor stays measured iff they are a case or draw into the
    Bernoulli(nu) subcohort. nu = 1 leaves every record unchanged."""
    if not 0.0 < nu <= 1.0:
        raise ConfigError(f"nu must lie in (0,1], got {nu}")
    rng = _rng_for(seed, 1, 0)
    sub = rng.random(len(observed)) < nu
    out = []
    for i, rec in enumerate(observed):
        if rec.y_tau == 1 or rec.y == 1 or sub[i]:
            out.append(rec)
        else:
            out.append(ObservedRecord(id=rec.id, z=rec.z, y_tau=rec.y_tau,
                                      marker=Marker.MISSING, y=rec.y,
                                      measured=0, w=rec.w))
    return out


# ---------------------------------------------------------------------------
# exact estimands by enumerating the generator law


def _law(config: GeneratorConfig):
    """Probability over the full potential-outcome tuple
    (yt1, yt0, s1, s0, y1, y0); markers are None when undefined."""
    if config.design == "B":
        strata = [((0, 0), 1.0 - DESIGN_B_EARLY), ((1, 1), DESIGN_B_EARLY)]
    else:
        p00, p01, p11 = DESIGN_C_PROBS
        strata = [((0, 0), p00), ((0, 1), p01), ((1, 1), p11)]
    for (t1, t0), pt in strata:
        s1_opts = [(None, 1.0)] if t1 else [(0, 1.0 - MARKER_POS_RATE),
                                            (1, MARKER_POS_RATE)]
        s0 = None if t0 else 0
        for s1, ps in s1_opts:
            if t1:
                y1_opts = [(1, 1.0)]
            else:
                m1 = config.b if s1 == 1 else config.a
                y1_opts = [(1, m1), (0, 1.0 - m1)] if 0.0 < m1 < 1.0 else \
                    [(1 if m1 >= 1.0 else 0, 1.0)]
            y0_opts = [(1, 1.0)] if t0 else [(1, CONTROL_RISK),
                                             (0, 1.0 - CONTROL_RISK)]
            for y1, p1 in y1_opts:
                for y0, p0 in y0_opts:
                    yield (t1, t0, s1, s0, y1, y0), pt * ps * p1 * p0


def oracle_estimands(config: GeneratorConfig) -> dict[str, float]:
    """Exact values of every estimand, computed by enumerating the finite
    support of the generator law (no simulation)."""
    law = list(_law(config))

    def prob(pred):
        return math.fsum(p for tup, p in law if pred(*tup))

    def cond(pred_num, pred_den):
        den = prob(pred_den)
        return prob(lambda *t: pred_num(*t) and pred_den(*t)) / den if den > 0 else float("nan")

    def eas(t1, t0, s1, s0, y1, y0):
        return t1 == 0 and t0 == 0

    out = {}
    out["p00"] = cond(lambda t1, t0, s1, s0, y1, y0: s1 == 0, eas)
    out["p10"] = cond(lambda t1, t0, s1, s0, y1, y0: s1 == 1, eas)
    out["p11"] = 0.0
    for z in (0, 1):
        yz = (lambda t1, t0, s1, s0, y1, y0: y1 == 1) if z else \
            (lambda t1, t0, s1, s0, y1, y0: y0 == 1)
        out[f"risk{z}"] = cond(yz, eas)
        for sv in (0, 1):
            out[f"risk{z}_{sv}0"] = cond(
                yz, lambda t1, t0, s1, s0, y1, y0, sv=sv:
                eas(t1, t0, s1, s0, y1, y0) and s1 == sv)
    out["cep_00"] = out["risk1_00"] - out["risk0_00"]
    out["cep_10"] = out["risk1_10"] - out["risk0_10"]
    out["mu"] = out["cep_10"] - out["cep_00"]
    if config.design == "C":
        surv1 = lambda t1, t0, s1, s0, y1, y0: t1 == 0
        ep = lambda t1, t0, s1, s0, y1, y0: t1 == 0 and t0 == 1
        out["phi"] = cond(lambda t1, t0, s1, s0, y1, y0: t0 == 0, surv1)
        out["ep_pos_rate"] = cond(lambda t1, t0, s1, s0, y1, y0: s1 == 1, ep)
        for sv in (0, 1):
            out[f"risk1_{sv}star"] = cond(
                lambda t1, t0, s1, s0, y1, y0: y1 == 1,
                lambda t1, t0, s1, s0, y1, y0, sv=sv: ep(t1, t0, s1, s0, y1, y0)
                and s1 == sv)
    return out


# ---------------------------------------------------------------------------
# replicated studies


@dataclass(frozen=True)
class StudyConfig:
    """Grid of simulation cells: one per (n, nu, delta, gamma scale).

    ``deltas`` are target values of CEP(1,0) - CEP(0,0); each maps to
    (a, b) = (0.4 - d/2, 0.4 + d/2). ``gamma_scales`` are symmetric
    sensitivity ranges [-s, s] applied to every scenario-legal parameter
    (scale 0 is the no-selection-bias analysis). Design B is analyzed
    under scenario B, design C under scenario C_protect.
    """

    design: str
    n_values: tuple[int, ...]
    nu_values: tuple[float, ...] = (1.0,)
    deltas: tuple[float, ...] = (0.0,)
    gamma_scales: tuple[float, ...] = (0.0,)
    replicates: int = 1000
    seed: int = 0
    grid_points: int | None = None     # default 21 (design B), 2 (design C)
    alpha: float = 0.05
    threads: int = 1

    def __post_init__(self):
        if self.design not in ("B", "C"):
            raise ConfigError(f"design must be 'B' or 'C', got {self.design!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        for d in self.deltas:
            if abs(d) > 0.8:
                raise ConfigError(f"delta {d} leaves the (a,b) parameterization")
        if not all(g >= 0 for g in self.gamma_scales):
            raise ConfigError(f"gamma scales must be >= 0, got {list(self.gamma_scales)}")

    def cells(self) -> list[dict]:
        out = []
        for n in self.n_values:
            for nu in self.nu_values:
                for d in self.deltas:
                    for g in self.gamma_scales:
                        out.append({"design": self.design, "n": n, "nu": nu,
                                    "delta": d, "gamma_scale": g})
        return out

    def effective_grid_points(self) -> int:
        if self.grid_points is not None:
            return self.grid_points
        return 21 if self.design == "B" else 2


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

    FIELDS = ("design", "n", "nu", "delta", "gamma_scale", "true_mu",
              "replicates", "failures", "power", "coverage", "mean_width",
              "sd_width", "bias_min", "bias_max", "ese_min", "ase_min",
              "ese_max", "ase_max", "mc_se_power", "mc_se_coverage")

    def row(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list[StudyCellResult] = field(default_factory=list)

    def as_table(self) -> tuple[tuple[str, ...], list[list]]:
        return StudyCellResult.FIELDS, [r.row() for r in self.rows]

    def cell(self, **kw) -> StudyCellResult:
        for r in self.rows:
            if all(math.isclose(getattr(r, k), v) if isinstance(v, float)
                   else getattr(r, k) == v for k, v in kw.items()):
                return r
        raise KeyError(f"no study cell matching {kw}")


def _scenario_for(design: str) -> Scenario:
    return Scenario.B if design == "B" else Scenario.C_PROTECT


def _gamma_config(design: str, scale: float, grid_points: int,
                  alpha: float) -> SensitivityConfig:
    scenario = _scenario_for(design)
    ranges = {k: (-scale, scale) for k in scenario.sensitivity_keys} \
        if scale > 0 else {}
    return SensitivityConfig(scenario=scenario, ranges=ranges,
                             grid_points=max(grid_points, 2), alpha=alpha,
                             contrast=Contrast.ADDITIVE)


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
    ii = ignorance_interval(grid, "mu")
    result = eui(ii.lower, ii.se_lower, ii.upper, ii.se_upper, n, gamma.alpha)
    return (ii.lower, ii.se_lower, ii.upper, ii.se_upper, *result.eui)


def _replicate_chunk(args):
    *fixed, reps = args
    return [_one_replicate(*fixed, r) for r in reps]


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
    g = config.effective_grid_points()
    for cell_id, cell in enumerate(config.cells()):
        d = cell["delta"]
        a, b = 0.4 - d / 2.0, 0.4 + d / 2.0
        true_mu = oracle_estimands(GeneratorConfig(
            design=cell["design"], n=2, a=a, b=b))["mu"]
        gamma = _gamma_config(cell["design"], cell["gamma_scale"], g, config.alpha)
        reps = list(range(config.replicates))
        chunks = _split(reps, max(1, config.threads) * 4)
        args = [(cell["design"], cell["n"], cell["nu"], a, b, gamma,
                 config.seed, cell_id, chunk) for chunk in chunks]
        if config.threads > 1:
            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                outs = list(pool.map(_replicate_chunk, args))
        else:
            outs = [_replicate_chunk(a_) for a_ in args]
        flat = [r for chunk in outs for r in chunk]
        result.rows.append(_summarize_cell(cell, true_mu, flat, config.replicates))
    return result


def _split(items, k):
    size = max(1, -(-len(items) // k))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _summarize_cell(cell, true_mu, outcomes, requested) -> StudyCellResult:
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

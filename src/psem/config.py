"""Config-file parsing for the command line.

Configs are flat INI-style files (sections of key = value lines, ``;`` or
``#`` comments). Lists are comma separated; sensitivity parameters take
either a single value or ``low, high`` ranges. Command-line flags override
file values. The README documents every key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import Contrast, Scenario
from .errors import ConfigError, DataError
from .sensitivity import SensitivityConfig, symmetric_ranges
from .simulate import StudyConfig
from .weights import WeightModel

_SCENARIO_ALIASES = {
    "a": Scenario.A, "b": Scenario.B,
    "c_protect": Scenario.C_PROTECT, "c-protect": Scenario.C_PROTECT,
    "c_harm": Scenario.C_HARM, "c-harm": Scenario.C_HARM,
}


def parse_scenario(text: str) -> Scenario:
    try:
        return _SCENARIO_ALIASES[text.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {text!r}; choose from A, B, C_protect, C_harm"
        ) from None


def _floats(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        if vals and all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    raise ConfigError(f"expected comma-separated finite numbers, got {text!r}")


def _number(sec, key: str, kind, fallback):
    """``sec[key]`` parsed by ``kind`` (int or float); ``fallback`` if absent."""
    if key not in sec:
        return fallback
    try:
        return kind(sec[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"[{sec.name}] {key} must be {what}, got {sec[key]!r}") from None


@dataclass
class AnalysisConfig:
    path: Path
    scenario: Scenario
    schema: dict[str, str] = field(default_factory=dict)
    weight_model: WeightModel | None = None
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    scales: list[float] | None = None
    grid_points: int = 21
    alpha: float = 0.05
    contrast: Contrast = Contrast.ADDITIVE
    out_dir: Path = Path("psem-out")

    def gamma_choices(self) -> list[tuple[str, SensitivityConfig]]:
        """Named Gamma regions to analyze, either the symmetric scales or the
        explicit per-parameter ranges; building them validates them."""
        choices = ([(f"scale={s:g}", symmetric_ranges(self.scenario, s))
                    for s in self.scales] if self.scales is not None
                   else [("custom", dict(self.ranges))])
        return [(label, SensitivityConfig(self.scenario, ranges, self.grid_points,
                                          self.alpha, self.contrast))
                for label, ranges in choices]


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    return parser


def load_analysis_config(path) -> AnalysisConfig:
    ini = _read_ini(path)
    if "data" not in ini or "path" not in ini["data"]:
        raise ConfigError("config needs a [data] section with a 'path' key")
    data = ini["data"]
    schema = {logical: data[f"col_{logical}"] for logical in
              ("id", "z", "y_tau", "marker", "y", "measured") if f"col_{logical}" in data}

    if "scenario" not in ini or "name" not in ini["scenario"]:
        raise ConfigError("config needs a [scenario] section with a 'name' key")
    scenario = parse_scenario(ini["scenario"]["name"])

    weight_model = None
    if "weights" in ini:
        wsec = ini["weights"]
        kind = wsec.get("model", "auto").strip().lower()
        eps = _number(wsec, "eps", float, 0.01)
        try:
            if kind == "design":
                if "nu" not in wsec:
                    raise ConfigError("design-known weights need a 'nu' key")
                weight_model = WeightModel.design_known(
                    _number(wsec, "nu", float, None), eps=eps)
            elif kind == "logistic":
                terms = tuple(t.strip() for t in
                              wsec.get("terms", "intercept, y").split(","))
                weight_model = WeightModel.estimated_logistic(terms, eps=eps)
            elif kind != "auto":
                raise ConfigError(f"unknown weight model {kind!r}")
            elif "eps" in wsec:
                raise ConfigError("[weights] eps needs model = design or logistic")
        except DataError as exc:
            raise ConfigError(f"[weights] {exc}") from None

    ranges: dict[str, tuple[float, float]] = {}
    scales = None
    grid_points, alpha, contrast = 21, 0.05, Contrast.ADDITIVE
    if "sensitivity" in ini:
        sec = ini["sensitivity"]
        for key in sec:
            if key in ("grid_points", "alpha", "contrast", "scales"):
                continue
            vals = _floats(sec[key])
            if len(vals) > 2:
                raise ConfigError(f"sensitivity key {key!r} needs one value "
                                  "or a low, high pair")
            ranges[key] = (vals[0], vals[-1])
        grid_points = _number(sec, "grid_points", int, 21)
        alpha = _number(sec, "alpha", float, 0.05)
        if "contrast" in sec:
            try:
                contrast = Contrast(sec["contrast"].strip().lower())
            except ValueError:
                raise ConfigError(f"unknown contrast {sec['contrast']!r}") from None
        if "scales" in sec:
            scales = _floats(sec["scales"])
            if not all(s >= 0 for s in scales):
                raise ConfigError(f"[sensitivity] scales must be >= 0, got {scales}")
            if ranges:
                raise ConfigError(
                    "[sensitivity] takes either scales or per-parameter "
                    f"ranges, not both; got scales and {sorted(ranges)}")

    out_dir = Path(ini.get("output", "dir", fallback="psem-out"))
    return AnalysisConfig(path=Path(data["path"]), scenario=scenario,
                          schema=schema, weight_model=weight_model,
                          ranges=ranges, scales=scales, grid_points=grid_points,
                          alpha=alpha, contrast=contrast, out_dir=out_dir)


def load_study_config(path) -> tuple[StudyConfig, Path]:
    ini = _read_ini(path)
    if "study" not in ini:
        raise ConfigError("simulation config needs a [study] section")
    sec = ini["study"]
    design = sec.get("design", "B").strip().upper()
    n_values = _floats(sec.get("n", "400"))
    if any(v != int(v) for v in n_values):
        raise ConfigError(f"[study] n must be integers, got {sec['n']!r}")
    return StudyConfig(
        design=design,
        n_values=tuple(map(int, n_values)),
        nu_values=tuple(_floats(sec.get("nu", "1"))),
        deltas=tuple(_floats(sec.get("delta", "0"))),
        gamma_scales=tuple(_floats(sec.get("gamma_scales", "0"))),
        replicates=_number(sec, "replicates", int, 1000),
        seed=_number(sec, "seed", int, 0),
        grid_points=_number(sec, "grid_points", int, None),
        alpha=_number(sec, "alpha", float, 0.05),
        threads=_number(sec, "threads", int, 1),
    ), Path(ini.get("output", "dir", fallback="psem-out"))

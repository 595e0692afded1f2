"""Config-file parsing for the command line.

Configs are flat INI-style files (sections of key = value lines, ``;`` or
``#`` comments). Lists are comma separated; sensitivity parameters take
either a single value or ``low, high`` ranges. Command-line flags override
file values. The README documents every key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .core import Contrast, Scenario
from .errors import ConfigError
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
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


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

    def gamma_choices(self) -> list[tuple[str, dict[str, tuple[float, float]]]]:
        """Named Gamma regions to analyze: either the symmetric scales or
        the explicit per-parameter ranges."""
        if self.scales is not None:
            keys = self.scenario.sensitivity_keys
            return [(f"scale={s:g}", {k: (-s, s) for k in keys} if s > 0 else {})
                    for s in self.scales]
        return [("custom", dict(self.ranges))]


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    found = parser.read(path)
    if not found:
        raise ConfigError(f"config file not found: {path}")
    return parser


def load_analysis_config(path) -> AnalysisConfig:
    ini = _read_ini(path)
    if "data" not in ini or "path" not in ini["data"]:
        raise ConfigError("config needs a [data] section with a 'path' key")
    data = ini["data"]
    schema = {}
    for logical in ("id", "z", "y_tau", "marker", "y", "measured"):
        key = f"col_{logical}"
        if key in data:
            schema[logical] = data[key]

    if "scenario" not in ini or "name" not in ini["scenario"]:
        raise ConfigError("config needs a [scenario] section with a 'name' key")
    scenario = parse_scenario(ini["scenario"]["name"])

    weight_model = None
    if "weights" in ini:
        wsec = ini["weights"]
        kind = wsec.get("model", "auto").strip().lower()
        eps = wsec.getfloat("eps", fallback=0.01)
        if kind == "design":
            if "nu" not in wsec:
                raise ConfigError("design-known weights need a 'nu' key")
            weight_model = WeightModel.design_known(wsec.getfloat("nu"), eps=eps)
        elif kind == "logistic":
            terms = tuple(t.strip() for t in
                          wsec.get("terms", "intercept, y").split(","))
            weight_model = WeightModel.estimated_logistic(terms, eps=eps)
        elif kind != "auto":
            raise ConfigError(f"unknown weight model {kind!r}")

    ranges: dict[str, tuple[float, float]] = {}
    scales = None
    grid_points, alpha, contrast = 21, 0.05, Contrast.ADDITIVE
    if "sensitivity" in ini:
        sec = ini["sensitivity"]
        for key in sec:
            if key in ("grid_points", "alpha", "contrast", "scales"):
                continue
            vals = _floats(sec[key])
            if len(vals) == 1:
                ranges[key] = (vals[0], vals[0])
            elif len(vals) == 2:
                ranges[key] = (vals[0], vals[1])
            else:
                raise ConfigError(f"sensitivity key {key!r} needs one value "
                                  "or a low, high pair")
        grid_points = sec.getint("grid_points", fallback=21)
        alpha = sec.getfloat("alpha", fallback=0.05)
        if "contrast" in sec:
            try:
                contrast = Contrast(sec["contrast"].strip().lower())
            except ValueError:
                raise ConfigError(f"unknown contrast {sec['contrast']!r}") from None
        if "scales" in sec:
            scales = _floats(sec["scales"])
            if ranges:
                raise ConfigError(
                    "[sensitivity] takes either scales or per-parameter "
                    f"ranges, not both; got scales and {sorted(ranges)}")

    out_dir = Path(ini["output"].get("dir", "psem-out")) if "output" in ini \
        else Path("psem-out")
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
    try:
        study = StudyConfig(
            design=design,
            n_values=tuple(int(v) for v in _floats(sec.get("n", "400"))),
            nu_values=tuple(_floats(sec.get("nu", "1"))),
            deltas=tuple(_floats(sec.get("delta", "0"))),
            gamma_scales=tuple(_floats(sec.get("gamma_scales", "0"))),
            replicates=sec.getint("replicates", fallback=1000),
            seed=sec.getint("seed", fallback=0),
            grid_points=(sec.getint("grid_points")
                         if "grid_points" in sec else None),
            alpha=sec.getfloat("alpha", fallback=0.05),
            threads=sec.getint("threads", fallback=1),
        )
    except ValueError as exc:
        raise ConfigError(f"bad study config value: {exc}") from None
    out_dir = Path(ini["output"].get("dir", "psem-out")) if "output" in ini \
        else Path("psem-out")
    return study, out_dir

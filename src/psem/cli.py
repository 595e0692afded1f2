"""Command-line interface: analyze, simulate, diagnose.

Exit codes are a stable contract: 0 success, 2 config error, 3 data error,
4 estimation error, 5 sensitivity-incompatibility.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path

from . import __version__
from .config import (AnalysisConfig, load_analysis_config, load_study_config,
                     parse_scenario)
from .core import check_assumptions
from .core import cep, fit_scenario  # noqa: F401  kept bound for bench/tracer.py
from .errors import (ConfigError, DataError, EstimationError,
                     IncompatibleSensitivityError, PsemError)
from .records import load_csv  # noqa: F401  kept bound for bench/tracer.py
from .sensitivity import SensitivityConfig, intervals, sweeps, symmetric_ranges
from .sensitivity import interval_for, sweep  # noqa: F401  kept bound for bench/tracer.py
from .simulate import run_study
from .tables import read_cells, summarize
from .weights import effective_sample, fit_missingness

EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (IncompatibleSensitivityError, 5),
    (EstimationError, 4),
)


def _exit_code(exc: PsemError) -> int:
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 4


def _fmt(value):
    """Serialize floats with 17 significant digits for byte-stable output."""
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _to_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        return _fmt(obj)
    if isinstance(obj, (int,)):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_json(path: Path, obj) -> None:
    path.write_text(_to_json(obj) + "\n", encoding="utf-8")


def _analysis_payload(cfg: AnalysisConfig, seed: int | None):
    regions = cfg.gamma_choices()       # validated before the data are read
    # the no-selection-bias fit is the one point of the scale-0 region, swept first;
    # a configured scale 0 reads that region
    zero = SensitivityConfig(cfg.scenario, symmetric_ranges(cfg.scenario, 0),
                             cfg.grid_points, cfg.alpha, cfg.contrast)
    swept = [zero, *(s for _, s in regions if s != zero)]
    weighted = fit_missingness(read_cells(cfg.path, cfg.schema or None),
                               cfg.weight_model)
    report = check_assumptions(weighted)
    summary = summarize(weighted.cells)

    results = sweeps(weighted, swept)
    grids = [results[swept.index(s)] for _, s in regions]
    base_cep = results[0].ceps[0]
    base_est = base_cep.fit

    gamma_results = []
    csv_rows = []
    for (label, sens), grid in zip(regions, grids):
        by_target = {}
        for target, res in intervals(grid).items():
            by_target[target] = {
                "estimate_lower": res.estimate_lower,
                "estimate_upper": res.estimate_upper,
                "se_lower": res.se_lower,
                "se_upper": res.se_upper,
                "ignorance": list(res.ignorance),
                "eui": list(res.eui),
                "c_alpha": res.c_alpha,
                "gamma_at_lower": res.point_lower.as_dict(),
                "gamma_at_upper": res.point_upper.as_dict(),
            }
            point, point_se = base_cep.get(target)
            csv_rows.append([target, cfg.contrast.value, label,
                             _fmt(point), _fmt(point_se),
                             _fmt(res.ignorance[0]), _fmt(res.ignorance[1]),
                             _fmt(res.se_lower), _fmt(res.se_upper),
                             _fmt(res.eui[0]), _fmt(res.eui[1]),
                             _fmt(res.c_alpha)])
        gamma_results.append({"gamma": label, "ranges": {
            k: list(v) for k, v in sens.ranges.items()},
            "grid_failures": len(grid.errors),
            "intervals": by_target})

    payload = {
        "version": __version__,
        "config": {
            "path": str(cfg.path),
            "scenario": cfg.scenario.value,
            "contrast": cfg.contrast.value,
            "alpha": cfg.alpha,
            "grid_points": cfg.grid_points,
            "scales": cfg.scales,
            "ranges": {k: list(v) for k, v in cfg.ranges.items()},
            "seed": seed,
        },
        "dataset": {
            "n": summary.n,
            "arms": {str(z): dataclasses.asdict(a) for z, a in summary.arms.items()},
            "effective_marker_sample": effective_sample(weighted),
        },
        "diagnostics": dataclasses.asdict(report),
        "no_selection_bias_fit": {
            "risks": base_est.as_dict(),
            "ses": {n: base_est.se(n) for n in base_est.names},
            "mixing_residual": base_est.mixing_residual(),
            "cep": {k: v for k, v in base_cep.values.items()},
            "cep_ses": dict(base_cep.ses),
            "mu": base_cep.mu,
            "mu_se": base_cep.mu_se,
        },
        "sensitivity": gamma_results,
    }
    return payload, csv_rows


CSV_HEADER = ["target", "contrast", "gamma", "point", "point_se",
              "ign_lower", "ign_upper", "se_lower", "se_upper",
              "eui_lower", "eui_upper", "c_alpha"]


def cmd_analyze(args) -> int:
    cfg = load_analysis_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=Path(args.out))
    if args.scenario:
        cfg = dataclasses.replace(cfg, scenario=parse_scenario(args.scenario))
    payload, csv_rows = _analysis_payload(cfg, args.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "results.json", payload)
    with open(cfg.out_dir / "intervals.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(csv_rows)
    print(f"wrote {cfg.out_dir / 'results.json'} and {cfg.out_dir / 'intervals.csv'}")
    return 0


def cmd_simulate(args) -> int:
    study, out_dir = load_study_config(args.config)
    if args.out:
        out_dir = Path(args.out)
    if args.seed is not None:
        study = dataclasses.replace(study, seed=args.seed)
    if args.threads is not None:
        study = dataclasses.replace(study, threads=args.threads)
    result = run_study(study)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows = result.as_table()
    with open(out_dir / "study.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    _write_json(out_dir / "study.json", {
        "version": __version__,
        "config": dataclasses.asdict(study),
        "rows": [dict(zip(header, r.row())) for r in result.rows],
    })
    print(f"wrote {out_dir / 'study.csv'} and {out_dir / 'study.json'}")
    return 0


def cmd_diagnose(args) -> int:
    schema = {}
    if args.marker_column:
        schema["marker"] = args.marker_column
    weighted = fit_missingness(read_cells(args.input, schema or None))
    summary = summarize(weighted.cells)
    report = check_assumptions(weighted)
    lines = []
    for z in (1, 0):
        ev, n = report.early_counts[z]
        lines.append(f"arm {z}: early events {ev}/{n} "
                     f"(rate {report.early_rates[z]:.4g})")
    lines.append(f"Fisher exact two-sided p = {report.fisher_p:.3g} "
                 f"(equal early risk {'plausible' if report.a4_plausible else 'questionable'})")
    lines.append(f"A4'' early-rate ordering holds: {report.a4pp_ordering}")
    lines.append(f"marker-positive rates (weighted, survivors): "
                 f"arm1={_opt(report.marker_pos_rates[1])} "
                 f"arm0={_opt(report.marker_pos_rates[0])}")
    lines.append(f"A5' marker ordering holds: {report.a5p_ordering}")
    lines.append(f"recommended scenarios: {', '.join(report.recommended) or 'none'}")
    for note in report.notes:
        lines.append(f"note: {note}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "diagnostics.json", {
            "version": __version__,
            "dataset": {"n": summary.n},
            "report": dataclasses.asdict(report),
        })
        (out_dir / "diagnostics.txt").write_text(text + "\n", encoding="utf-8")
    return 0


def _opt(v):
    return "n/a" if v is None else f"{v:.4g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psem",
        description="Principal-stratification effect-modification analyses "
                    "for a binary post-randomization biomarker")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a trial CSV")
    p_an.add_argument("--config", required=True, help="analysis config file")
    p_an.add_argument("--out", help="output directory (overrides config)")
    p_an.add_argument("--seed", type=int, default=None, help="echoed into results")
    p_an.add_argument("--scenario", help="override the config scenario")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a replicated simulation study")
    p_sim.add_argument("--config", required=True, help="study config file")
    p_sim.add_argument("--out", help="output directory (overrides config)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="assumption diagnostics for a CSV")
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--marker-column", help="marker column name override")
    p_diag.add_argument("--out", help="directory for diagnostics.json/.txt")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PsemError as exc:
        code = _exit_code(exc)
        print(f"error[{code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

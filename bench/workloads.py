"""The benchmark's workloads: their inputs, their `psem` call and the checks
on its outputs.

Each workload is one single-process `psem analyze` or `psem simulate` call,
made in process through ``psem.cli.main``. ``prepare`` writes a workload's
inputs (CSV and config) into a work directory and returns a spec: the CLI
arguments, the number of operations one call attempts (Gamma-grid cells for
analyze, replicates for simulate) and what ``check`` needs. The seed drives
the ``analyze_large`` CSV and the study seeds; the demo trial is fixed data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Generated designs use the constants of psem.simulate's design-B law with
# (a, b) = (0.4 - delta/2, 0.4 + delta/2), so mu = CEP(1,0) - CEP(0,0) = delta.
DELTA = 0.2
RISK_NEG, RISK_POS = 0.4 - DELTA / 2, 0.4 + DELTA / 2
CONTROL_RISK = 0.5
EARLY_RATE = 0.2
MARKER_POS_RATE = 0.6

LARGE_ROWS = 200_000
LARGE_NU = 0.25
SIMULATE_B_REPLICATES = 400
SIMULATE_C_REPLICATES = 200

# Relative tolerance against the stored demo reference: 10x looser than the
# 1e-7 by which exact-derivative standard errors may differ from the
# finite-difference ones, far tighter than any wrong answer.
DEMO_RTOL = 1e-6
MIXING_TOL = 1e-10
ORACLE_SES = 4.0          # analyze_large: Gamma=0 risks within 4 reported SEs
MC_SES = 4.0              # simulate: bands of 4 Monte Carlo SEs

REFERENCE = Path(__file__).with_name("reference_demo.json")


def oracle_b() -> dict[str, float]:
    """Exact scenario-B estimands of the analyze_large design (no selection
    bias, so they are also the Gamma=0 probability limits)."""
    return {
        "risk1": (1 - MARKER_POS_RATE) * RISK_NEG + MARKER_POS_RATE * RISK_POS,
        "risk0": CONTROL_RISK,
        "p00": 1 - MARKER_POS_RATE, "p10": MARKER_POS_RATE,
        "risk1_00": RISK_NEG, "risk1_10": RISK_POS,
        "risk0_00": CONTROL_RISK, "risk0_10": CONTROL_RISK,
    }


def write_large_csv(path: Path, seed: int, rows: int) -> None:
    """Draw a design-B case-cohort trial: early pair (1,1) w.p. 0.2, active
    marker positive w.p. 0.6 among survivors, Y(1) ~ Bernoulli(a or b),
    Y(0) ~ Bernoulli(0.5), arm ~ Bernoulli(1/2), survivors measured iff a
    case or in a Bernoulli(nu) subcohort."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    early = rng.random(rows) < EARLY_RATE
    pos = (rng.random(rows) < MARKER_POS_RATE) & ~early
    y1 = early | (rng.random(rows) < np.where(pos, RISK_POS, RISK_NEG))
    y0 = early | (rng.random(rows) < CONTROL_RISK)
    z = rng.random(rows) < 0.5
    y = np.where(z, y1, y0)
    measured = early | y | (rng.random(rows) < LARGE_NU)
    marker = np.where(early, "*",
                      np.where(measured, np.where(z & pos, "1", "0"), ""))
    cols = zip(z.astype(int).tolist(), early.astype(int).tolist(),
               marker.tolist(), y.astype(int).tolist(),
               measured.astype(int).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,z,y_tau,s_star,y,r\n")
        fh.writelines(f"p{i},{zi},{ti},{m},{yi},{ri}\n"
                      for i, (zi, ti, m, yi, ri) in enumerate(cols, 1))


def _analysis_ini(csv_path, out, scenario, weights, scales, contrast) -> str:
    return (f"[data]\npath = {csv_path}\n[scenario]\nname = {scenario}\n"
            f"[weights]\n{weights}\n[sensitivity]\nscales = {scales}\n"
            f"grid_points = 21\ncontrast = {contrast}\n[output]\ndir = {out}\n")


def _study_ini(design, n, replicates, seed, out) -> str:
    return (f"[study]\ndesign = {design}\nn = {n}\nnu = 1\ndelta = {DELTA!r}\n"
            f"gamma_scales = 1\nreplicates = {replicates}\nseed = {seed}\n"
            f"threads = 1\n[output]\ndir = {out}\n")


def prepare(name: str, seed: int, work: Path, rows: int = LARGE_ROWS,
            replicates: int | None = None) -> dict:
    """Write the inputs of workload ``name`` under ``work``; return its spec.

    ``rows`` and ``replicates`` shrink the generated inputs for the
    self-test; the benchmark uses the defaults.
    """
    out = work / "out"
    config = work / f"{name}.ini"
    spec = {"workload": name, "out": str(out)}
    if name == "analyze_demo":
        from psem import demo, records
        csv_path = work / "demo.csv"
        records.write_csv(demo.synthetic_trial(), csv_path)
        config.write_text(_analysis_ini(
            csv_path, out, "C_harm",
            f"model = design\nnu = {demo.implied_subcohort_fraction()!r}",
            "0, 0.5, 1", "ve"), encoding="utf-8")
        spec.update(command="analyze", ops=1 + 2 * 21 ** 2)
    elif name == "analyze_large":
        csv_path = work / "large.csv"
        write_large_csv(csv_path, seed, rows)
        config.write_text(_analysis_ini(
            csv_path, out, "B", "model = logistic\nterms = intercept, y",
            "0, 1", "additive"), encoding="utf-8")
        spec.update(command="analyze", ops=1 + 21)
    elif name in ("simulate_b", "simulate_c"):
        design, n, default = (("B", 1600, SIMULATE_B_REPLICATES)
                              if name == "simulate_b"
                              else ("C", 4000, SIMULATE_C_REPLICATES))
        reps = replicates or default
        config.write_text(_study_ini(design, n, reps, seed, out),
                          encoding="utf-8")
        spec.update(command="simulate", ops=reps)
    else:
        raise ValueError(f"unknown workload {name!r}")
    spec["argv"] = [spec["command"], "--config", str(config)]
    return spec


def check(spec: dict, reference: dict | None = None) -> tuple[int, list[str]]:
    """Check the outputs of one call; return (failed operations, problems).

    Failed Gamma cells or replicates count as failed operations; any
    problem means the call failed its check, and all of its operations count
    as failed.
    """
    out = Path(spec["out"])
    if spec["command"] == "analyze":
        results = json.loads((out / "results.json").read_text(encoding="utf-8"))
        failed = sum(g["grid_failures"] for g in results["sensitivity"])
        problems = _check_analysis(results)
        if spec["workload"] == "analyze_demo":
            if reference is None:
                reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
            problems += check_demo(results, reference)
        else:
            problems += _check_oracle(results)
    else:
        rows = json.loads((out / "study.json").read_text(encoding="utf-8"))["rows"]
        failed = sum(r["failures"] for r in rows)
        problems = _check_study(rows, spec["ops"])
    return (spec["ops"] if problems else failed), problems


def _check_analysis(results) -> list[str]:
    problems = []
    residual = results["no_selection_bias_fit"]["mixing_residual"]
    if not residual < MIXING_TOL:
        problems.append(f"mixing residual {residual} is not below {MIXING_TOL}")
    for g in results["sensitivity"]:
        for target, iv in g["intervals"].items():
            (ig_lo, ig_hi), (eui_lo, eui_hi) = iv["ignorance"], iv["eui"]
            if not eui_lo <= ig_lo <= ig_hi <= eui_hi:
                problems.append(f"{g['gamma']} {target}: EUI [{eui_lo}, {eui_hi}]"
                                f" does not contain [{ig_lo}, {ig_hi}]")
    return problems


def _close(a, b) -> bool:
    return abs(a - b) <= DEMO_RTOL * max(abs(a), abs(b)) + 1e-15


def demo_reference(results) -> dict:
    """The values of a demo ``results.json`` that ``check_demo`` pins."""
    fit = results["no_selection_bias_fit"]
    return {
        "risks": fit["risks"],
        "ses": fit["ses"],
        "ignorance": {g["gamma"]: {t: iv["ignorance"]
                                   for t, iv in g["intervals"].items()}
                      for g in results["sensitivity"]},
    }


def check_demo(results, reference) -> list[str]:
    """Compare a demo run with the stored reference within DEMO_RTOL."""
    got = demo_reference(results)
    problems = []
    for group in ("risks", "ses"):
        for key, ref in reference[group].items():
            val = got[group].get(key)
            if val is None or not _close(val, ref):
                problems.append(f"{group}.{key} = {val}, reference {ref}")
    for gamma, targets in reference["ignorance"].items():
        for target, ref in targets.items():
            val = got["ignorance"].get(gamma, {}).get(target)
            if val is None or not all(map(_close, val, ref)):
                problems.append(f"ignorance {gamma} {target} = {val}, "
                                f"reference {ref}")
    return problems


def _check_oracle(results) -> list[str]:
    fit = results["no_selection_bias_fit"]
    problems = []
    for key, truth in oracle_b().items():
        est, se = fit["risks"][key], fit["ses"][key]
        if not abs(est - truth) <= ORACLE_SES * se:
            problems.append(f"{key} = {est} (SE {se}) is more than "
                            f"{ORACLE_SES} SEs from the oracle {truth}")
    return problems


def _check_study(rows, replicates) -> list[str]:
    problems = []
    for row in rows:
        tag = f"design {row['design']} n={row['n']}"
        r = row["replicates"]
        if r + row["failures"] != replicates:
            problems.append(f"{tag}: {r} + {row['failures']} replicates, "
                            f"expected {replicates}")
        if not abs(row["true_mu"] - DELTA) <= 1e-12:
            problems.append(f"{tag}: true_mu {row['true_mu']} != oracle {DELTA}")
        floor = 1 - 0.05 - MC_SES * row["mc_se_coverage"]
        if not row["coverage"] >= floor:
            problems.append(f"{tag}: coverage {row['coverage']} < {floor}")
        # the truth lies inside the Gamma region, so on average the grid
        # minimum sits below it and the grid maximum above it
        if not row["bias_min"] <= MC_SES * row["ese_min"] / math.sqrt(r):
            problems.append(f"{tag}: bias_min {row['bias_min']} > 0 beyond "
                            "Monte Carlo error")
        if not row["bias_max"] >= -MC_SES * row["ese_max"] / math.sqrt(r):
            problems.append(f"{tag}: bias_max {row['bias_max']} < 0 beyond "
                            "Monte Carlo error")
    return problems

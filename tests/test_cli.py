import csv
import json
import math
import re

import pytest

from psem.cli import main
from psem.demo import implied_subcohort_fraction, synthetic_trial
from psem.records import write_csv

from conftest import make_records


@pytest.fixture
def worked_csv(tmp_path, worked_blocks):
    path = tmp_path / "worked.csv"
    write_csv(make_records(worked_blocks), path)
    return path


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    write_csv(synthetic_trial(), path)
    return path


def write_analysis_config(tmp_path, data_path, out_dir, scenario="B",
                          extra_sensitivity="", weights=""):
    cfg = tmp_path / "analysis.ini"
    cfg.write_text(f"""
[data]
path = {data_path}

[scenario]
name = {scenario}

{weights}

[sensitivity]
{extra_sensitivity}
grid_points = 21
alpha = 0.05
contrast = additive

[output]
dir = {out_dir}
""", encoding="utf-8")
    return cfg


def read_intervals(out_dir):
    with open(out_dir / "intervals.csv", newline="", encoding="utf-8") as fh:
        return {(r["target"], r["gamma"]): r for r in csv.DictReader(fh)}


def test_analyze_degenerate_gamma_row(tmp_path, worked_csv):
    out = tmp_path / "out"
    cfg = write_analysis_config(tmp_path, worked_csv, out,
                                extra_sensitivity="beta0 = 0")
    assert main(["analyze", "--config", str(cfg)]) == 0
    rows = read_intervals(out)
    mu = rows[("mu", "custom")]
    assert float(mu["ign_lower"]) == pytest.approx(-0.4, abs=1e-12)
    assert float(mu["ign_upper"]) == pytest.approx(-0.4, abs=1e-12)
    assert float(mu["point"]) == pytest.approx(-0.4, abs=1e-12)


def test_analyze_c_harm_matches_b_rows(tmp_path, worked_csv):
    out_b = tmp_path / "outb"
    cfg_b = write_analysis_config(tmp_path, worked_csv, out_b, scenario="B",
                                  extra_sensitivity="beta0 = -0.5, 0.5")
    main(["analyze", "--config", str(cfg_b)])
    out_c = tmp_path / "outc"
    cfg_c = write_analysis_config(
        tmp_path, worked_csv, out_c, scenario="C_harm",
        extra_sensitivity="beta0 = -0.5, 0.5\nbeta1_marginal = 0")
    cfg_c.rename(tmp_path / "c.ini")
    main(["analyze", "--config", str(tmp_path / "c.ini")])
    rows_b, rows_c = read_intervals(out_b), read_intervals(out_c)
    for target in ("cep_00", "cep_10", "mu"):
        for col in ("ign_lower", "ign_upper", "eui_lower", "eui_upper"):
            assert float(rows_c[(target, "custom")][col]) == pytest.approx(
                float(rows_b[(target, "custom")][col]), abs=1e-8)


def test_analyze_demo_ve_band(tmp_path, demo_csv):
    out = tmp_path / "out"
    nu = implied_subcohort_fraction()
    cfg = tmp_path / "analysis.ini"
    cfg.write_text(f"""
[data]
path = {demo_csv}

[scenario]
name = B

[weights]
model = design
nu = {nu}

[sensitivity]
scales = 0, 1
contrast = ve

[output]
dir = {out}
""", encoding="utf-8")
    assert main(["analyze", "--config", str(cfg), "--seed", "1"]) == 0
    results = json.loads((out / "results.json").read_text())
    ve1 = results["no_selection_bias_fit"]["cep"]["10"]
    ve0 = results["no_selection_bias_fit"]["cep"]["00"]
    assert 0.70 <= ve1 <= 0.86
    assert ve0 < 0
    rows = read_intervals(out)
    assert ("cep_10", "scale=1") in rows


def test_analyze_rerun_byte_identical(tmp_path, worked_csv):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        cfg = write_analysis_config(tmp_path, worked_csv, out,
                                    extra_sensitivity="beta0 = -1, 1")
        assert main(["analyze", "--config", str(cfg), "--seed", "7"]) == 0
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "intervals.csv").read_bytes() == (out2 / "intervals.csv").read_bytes()


def test_analyze_config_error_exit_code(tmp_path, worked_csv):
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                extra_sensitivity="beta9 = 0, 1")
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_analyze_scales_with_ranges_is_config_error(tmp_path, worked_csv, capsys):
    out = tmp_path / "o"
    cfg = write_analysis_config(tmp_path, worked_csv, out,
                                extra_sensitivity="scales = 0, 1\nbeta0 = -1, 1")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "either scales or per-parameter ranges" in capsys.readouterr().err
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("sensitivity", "grid_points", "abc"), ("sensitivity", "alpha", "x"),
    ("weights", "nu", "abc"), ("weights", "eps", "x")])
def test_analyze_non_numeric_value_is_config_error(tmp_path, worked_csv, capsys,
                                                   section, key, value):
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                extra_sensitivity="beta0 = 0",
                                weights="[weights]\nmodel = design\nnu = 1\neps = 0.01")
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", cfg.read_text(),
                          flags=re.M), encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert f"[{section}] {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("sensitivity, message", [
    ("scales = 0, -1", "scales must be >= 0"),
    ("scales = inf", "finite numbers"), ("beta0 = -inf, 1", "finite numbers")])
def test_analyze_bad_scale_is_config_error(tmp_path, worked_csv, capsys,
                                           sensitivity, message):
    out = tmp_path / "o"
    cfg = write_analysis_config(tmp_path, worked_csv, out,
                                extra_sensitivity=sensitivity)
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.json").exists()


def test_simulate_negative_gamma_scale_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "study.ini"
    out = tmp_path / "s"
    cfg.write_text(f"[study]\ndesign = B\nn = 400\ngamma_scales = -1\n"
                   f"replicates = 5\n\n[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "gamma scales must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("grid_points = 1", "grid_points must be >= 2"),
    ("grid_points = -4", "grid_points must be >= 2"),
    ("threads = 0", "threads must be >= 1"),
    ("threads = -3", "threads must be >= 1")])
def test_simulate_bad_grid_points_or_threads_is_config_error(tmp_path, capsys,
                                                             setting, message):
    cfg = tmp_path / "study.ini"
    out = tmp_path / "s"
    cfg.write_text(f"[study]\ndesign = B\nn = 400\nreplicates = 5\n{setting}\n"
                   f"\n[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("grid_points = 21", "beta0 = 0\nbeta0 = 1\ngrid_points = 21"),
    lambda text: "beta0 = 0\n" + text.lstrip()], ids=["duplicate_key", "no_section"])
def test_analyze_unparsable_config_is_config_error(tmp_path, worked_csv, capsys,
                                                   edit):
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o")
    cfg.write_text(edit(cfg.read_text()), encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "cannot parse config" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [
    "model = design\nnu = 0.5\neps = 0.7", "model = design\nnu = 0",
    "model = logistic\nterms = intercept, q", "model = auto\neps = 0.7",
    "eps = 0.05"], ids=["eps", "nu", "terms", "eps_auto", "eps_no_model"])
def test_analyze_bad_weights_value_is_config_error(tmp_path, worked_csv, capsys,
                                                   weights):
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                extra_sensitivity="beta0 = 0",
                                weights=f"[weights]\n{weights}")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "[weights]" in capsys.readouterr().err


def test_analyze_fits_zero_point_covariance_once(tmp_path, worked_csv, monkeypatch):
    # the no-selection-bias fit and the scale-0 sweep cell are the same point
    from psem import core
    cov_fits = []
    for scenario, fitter in list(core._FITTERS.items()):
        def counted(*args, _fit=fitter, **kwargs):
            cov_fits.append(kwargs.get("with_cov", True))
            return _fit(*args, **kwargs)
        monkeypatch.setitem(core._FITTERS, scenario, counted)
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                extra_sensitivity="scales = 0")
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert cov_fits.count(True) == 1


def test_analyze_missing_config():
    assert main(["analyze", "--config", "/nonexistent.ini"]) == 2


def test_analyze_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,z,y_tau,y,r,s_star\nx,3,0,0,1,1\n", encoding="utf-8")
    cfg = write_analysis_config(tmp_path, bad, tmp_path / "o",
                                extra_sensitivity="beta0 = 0")
    assert main(["analyze", "--config", str(cfg)]) == 3


def test_analyze_estimation_error_exit_code(tmp_path, worked_csv):
    # scenario C_protect needs the early ordering; the worked fixture has
    # no early events at all, so estimation fails with exit code 4
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                scenario="C_protect",
                                extra_sensitivity="beta0 = 0")
    assert main(["analyze", "--config", str(cfg)]) == 4


def test_diagnose_text_and_json(tmp_path, demo_csv, capsys):
    out = tmp_path / "diag"
    assert main(["diagnose", "--input", str(demo_csv), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "early events 14/1251" in text
    assert "A4'' early-rate ordering holds: False" in text
    report = json.loads((out / "diagnostics.json").read_text())
    assert 0.45 <= report["report"]["fisher_p"] <= 0.65
    assert report["report"]["recommended"][0] == "B"


def test_diagnose_bad_file_exit_code(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["diagnose", "--input", str(empty)]) == 3
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("id,z,y_tau,s_star,y,r\np1,1,0,1,0,1\np2,1\n",
                         encoding="utf-8")
    assert main(["diagnose", "--input", str(truncated)]) == 3


def test_simulate_and_determinism(tmp_path):
    cfg = tmp_path / "study.ini"
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cfg.write_text(f"""
[study]
design = B
n = 400
nu = 1
delta = 0
gamma_scales = 0
replicates = 40
seed = 11

[output]
dir = {out1}
""", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    with open(out1 / "study.csv", newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    rate = float(row["power"])
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 40) + 1e-9
    data = json.loads((out1 / "study.json").read_text())
    assert data["config"]["seed"] == 11


def test_simulate_smoke_speed(tmp_path):
    # single-cell smoke config finishes quickly with a sane rejection rate
    import time
    cfg = tmp_path / "study.ini"
    cfg.write_text(f"""
[study]
design = B
n = 400
delta = 0
replicates = 50
seed = 21

[output]
dir = {tmp_path / 'out'}
""", encoding="utf-8")
    start = time.time()
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert time.time() - start < 10.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_exit_code_mapping_covers_sensitivity_errors():
    from psem.cli import _exit_code
    from psem.errors import (ConfigError, DataError, EstimationError,
                             IncompatibleSensitivityError, OrderingError,
                             PositivityError)
    assert _exit_code(ConfigError("x")) == 2
    assert _exit_code(DataError("x")) == 3
    assert _exit_code(PositivityError("x")) == 3
    assert _exit_code(EstimationError("x")) == 4
    assert _exit_code(OrderingError("x")) == 4
    assert _exit_code(IncompatibleSensitivityError("x")) == 5


def test_analyze_scenario_c_protect_on_design_c_data(tmp_path):
    from psem.simulate import GeneratorConfig, generate
    _, obs = generate(GeneratorConfig(design="C", n=4000, a=0.2, b=0.5,
                                      seed=13))
    data = tmp_path / "c.csv"
    write_csv(obs, data)
    out = tmp_path / "out"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"""
[data]
path = {data}

[scenario]
name = C_protect

[sensitivity]
scales = 0, 0.5
grid_points = 2

[output]
dir = {out}
""", encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 0
    rows = read_intervals(out)
    assert ("mu", "scale=0.5") in rows
    mu = float(rows[("mu", "scale=0")]["point"])
    assert abs(mu - 0.3) < 0.15


def test_failed_extreme_covariance_fit(monkeypatch, tmp_path, worked_csv):
    from psem import sensitivity
    from psem.core import Scenario
    from psem.errors import EstimationError
    from psem.records import load_csv
    from psem.weights import fit_missingness

    real_fit = sensitivity.fit_scenario
    failed = []

    def fit(weighted, point, with_cov=True):
        if with_cov and not failed:        # the first extreme's sandwich
            failed.append(point)
            raise EstimationError("injected")
        return real_fit(weighted, point, with_cov)

    monkeypatch.setattr(sensitivity, "fit_scenario", fit)
    weighted = fit_missingness(load_csv(worked_csv))
    config = sensitivity.SensitivityConfig(
        scenario=Scenario.B, ranges={"beta0": (-1.0, 1.0)}, grid_points=5)
    grid = sensitivity.sweep(weighted, config, targets=("mu",))
    points = [c.point for c in grid.cells]
    bad = points.index(failed[0])
    assert bad in (0, 4)                   # mu is monotone in beta0
    assert grid.cells[bad].error == "EstimationError: injected"
    nxt = grid.cells[1 if bad == 0 else 3]
    with pytest.warns(RuntimeWarning, match="inside the sensitivity region") as rec:
        res = sensitivity.interval_for(grid, "mu")     # the corner check runs
    corner = f"beta0={failed[0].get('beta0'):g}"
    assert (f"fit failed at region corner(s) ({corner}: EstimationError: injected)"
            ", so the interval covers a narrowed region") in str(rec[0].message)
    assert nxt.point in (res.point_lower, res.point_upper)
    assert nxt.values["mu"] in res.ignorance
    assert nxt.cep.mu_se in (res.se_lower, res.se_upper)
    assert len(grid.cells) - len(grid.ok_cells()) == 1

    failed.clear()
    out = tmp_path / "out"
    cfg = write_analysis_config(tmp_path, worked_csv, out,
                                extra_sensitivity="beta0 = -1, 1")
    with pytest.warns(RuntimeWarning, match="inside the sensitivity region"):
        assert main(["analyze", "--config", str(cfg)]) == 0
    gamma = json.loads((out / "results.json").read_text())["sensitivity"][0]
    assert gamma["grid_failures"] == 1
    for interval in gamma["intervals"].values():
        assert failed[0].as_dict() not in (interval["gamma_at_lower"],
                                           interval["gamma_at_upper"])

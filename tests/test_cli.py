import csv
import hashlib
import json
import math
import re
from json.encoder import encode_basestring

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psem import cli
from psem.cli import main
from psem.core import Contrast, Scenario, SensitivityPoint
from psem.demo import implied_subcohort_fraction, implied_weight_model, synthetic_trial
from psem.records import write_csv

from conftest import error_text, failure_map, make_records


@pytest.fixture
def worked_csv(tmp_path, worked_blocks):
    path = tmp_path / "worked.csv"
    write_csv(make_records(worked_blocks), path)
    return path


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory):
    """The demo trial's CSV, written once for the module."""
    path = tmp_path_factory.mktemp("demo") / "demo.csv"
    write_csv(synthetic_trial(), path)
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


def test_results_json_escapes_control_characters(tmp_path, worked_blocks):
    # a tab in the data directory's name is escaped: results.json stays JSON
    data = tmp_path / "tab\there" / "worked.csv"
    data.parent.mkdir()
    write_csv(make_records(worked_blocks), data)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(write_analysis_config(tmp_path, data, out))]) == 0
    text = (out / "results.json").read_text(encoding="utf-8")
    assert "\t" not in text and json.loads(text)["config"]["path"] == str(data)


def test_config_values_are_read_literally(tmp_path, worked_blocks):
    # a % in a value is the character itself, not the start of an interpolation
    data = tmp_path / "100%" / "worked%1.csv"
    data.parent.mkdir()
    write_csv(make_records(worked_blocks), data)
    out = tmp_path / "out%(dir)s"
    assert main(["analyze", "--config", str(write_analysis_config(tmp_path, data, out))]) == 0
    assert json.loads((out / "results.json").read_text(encoding="utf-8"))["config"]["path"] == str(data)


def json_reference(obj, indent=0) -> str:
    """A plain recursive JSON writer, one call per value: the byte reference
    for ``cli._to_json``."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{pad}  {encode_basestring(str(k))}: {json_reference(v, indent + 1)}"
                            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {json_reference(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, float):
        return "NaN" if obj != obj else format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return encode_basestring(str(obj))


JSON_LEAVES = st.one_of(st.floats(allow_infinity=False), st.sampled_from([-0.0, math.nan]),
                        st.integers(), st.booleans(), st.none(), st.text())


def same_json(got, want) -> bool:
    """``json.loads`` of a written value against the value: tuples read as
    lists, every finite float equal, NaN read as NaN."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == [str(k) for k in want]
                and all(same_json(g, w) for g, w in zip(got.values(), want.values())))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(same_json, got, want)))
    if isinstance(want, float):     # 17 digits may read back as an int: 1.0 is "1"
        return got != got if want != want else type(got) in (int, float) and got == want
    return type(got) is type(want) and got == want


@settings(max_examples=200, deadline=None)
@given(obj=st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=30))
@example(obj={"a\t\u00e9\x00": [(), {}, [-0.0, math.nan, 2**70, True, None]], "": ("\u2028",)})
def test_to_json_writes_the_reference_bytes(obj):
    text = cli._to_json(obj)
    assert text == json_reference(obj)
    assert same_json(json.loads(text), obj)


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64(-math.inf)])
def test_to_json_refuses_an_infinite_float(value):
    # JSON has no token for it; "inf" would be text that json.loads rejects
    with pytest.raises(ValueError, match="JSON has no token"):
        cli._to_json({"a": [1.0, value]})


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


def test_analyze_alpha_with_an_infinite_critical_value_is_config_error(tmp_path, worked_csv,
                                                                        capsys):
    # 1 - 1e-17 / 2 is 1.0, where z_{1-alpha/2} is infinite
    out = tmp_path / "o"
    cfg = write_analysis_config(tmp_path, worked_csv, out)
    cfg.write_text(cfg.read_text().replace("alpha = 0.05", "alpha = 1e-17"), encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "alpha must be in (0, 0.5), 1 - alpha/2 below 1, got 1e-17" in capsys.readouterr().err
    assert not (out / "results.json").exists()


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


@pytest.mark.parametrize("sample, message", [
    ("n = 400.7", "[study] n must be integers"),
    ("n = 400, 0", "n must be a positive integer"),
    ("n = 400\nnu = 1, 0", "nu must lie in (0,1]"),
], ids=["fractional_n", "zero_n", "zero_nu"])
def test_simulate_bad_n_or_nu_is_config_error(tmp_path, capsys, sample, message):
    cfg = tmp_path / "study.ini"
    out = tmp_path / "s"
    cfg.write_text(f"[study]\ndesign = B\n{sample}\nreplicates = 5\n"
                   f"\n[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "study.csv").exists()


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


def test_one_dataset_sweep_makes_one_sandwich_per_pass(worked_weighted, monkeypatch):
    # one dataset is a batch of one: each covariance pass stacks every
    # pending extreme into one variance pass, not one per extreme
    from psem import core, sensitivity
    from psem.core import Scenario
    sandwiches, passes = [], []
    real_variance, real_fit = core._Stack.variance, sensitivity.fit_ceps

    def counted(st):
        sandwiches.append(st)
        return real_variance(st)

    def fit(weighted, points, *rest):
        passes.append(len(points))
        return real_fit(weighted, points, *rest)

    monkeypatch.setattr(core._Stack, "variance", counted)
    monkeypatch.setattr(sensitivity, "fit_ceps", fit)
    config = sensitivity.SensitivityConfig(
        scenario=Scenario.B, ranges={"beta0": (-1.0, 1.0)}, grid_points=5)
    grid = sensitivity.sweep(worked_weighted, config)
    assert len(sandwiches) == len(passes) >= 1
    assert sum(passes) == len(grid.ceps) > len(passes)


def count_passes(monkeypatch):
    """Record the Gamma points of each point pass and the size of each
    ``fit_ceps`` call that the sweeps make from now on."""
    from psem import sensitivity
    passes = {"points": [], "ceps": []}
    real_targets, real_ceps = sensitivity.fit_targets, sensitivity.fit_ceps

    def fit_targets(weighted, scenario, beta, contrast):
        passes["points"].append(np.column_stack([beta[k] for k in scenario.sensitivity_keys]))
        return real_targets(weighted, scenario, beta, contrast)

    def fit_ceps(weighted, points, *rest):
        passes["ceps"].append(len(points))
        return real_ceps(weighted, points, *rest)

    monkeypatch.setattr(sensitivity, "fit_targets", fit_targets)
    monkeypatch.setattr(sensitivity, "fit_ceps", fit_ceps)
    return passes


def demo_config(tmp_path, demo_csv, out, scenario="C_harm", contrast="ve"):
    """The demo analysis: C_harm, VE, design-known weights, scales 0, 0.5, 1;
    or another scenario and contrast on the same data, weights and scales."""
    cfg = tmp_path / "demo.ini"
    cfg.write_text(f"[data]\npath = {demo_csv}\n[scenario]\nname = {scenario}\n"
                   f"[weights]\nmodel = design\nnu = {implied_subcohort_fraction()!r}\n"
                   f"[sensitivity]\nscales = 0, 0.5, 1\ngrid_points = 21\n"
                   f"contrast = {contrast}\n[output]\ndir = {out}\n", encoding="utf-8")
    return cfg


# SHA-256 of the demo analysis' outputs, results.json with its data path
# written as "demo.csv": a change of any reported bit changes them
DEMO_SHA256 = {
    "intervals.csv": "54c65ab2e70228f770ed6d791f695014246efce1ccaab8545a4c25ff3264b66a",
    "results.json": "0491a4c6742794fe4fa872182a344085a8211675d3421a88572d97707ef4f51e",
}


# the same for scenario B, additive contrast, on the same data and scales
DEMO_B_SHA256 = {
    "intervals.csv": "eda4ae962f7969a35861607f73175e72c9eb0c7ec4a0f5753339fb1dad8a5956",
    "results.json": "5bbc9d91018618c9008e5e3423bc6988cdcb6267f9c1a963d1560ad64a999f08",
}


def demo_digests(tmp_path, demo_csv, *scenario_contrast):
    """SHA-256 of the demo analysis' outputs, its data path written as "demo.csv"."""
    out = tmp_path / "out"
    cfg = demo_config(tmp_path, demo_csv, out, *scenario_contrast)
    assert main(["analyze", "--config", str(cfg)]) == 0
    path = f'"path": "{demo_csv}"'.encode()
    results = (out / "results.json").read_bytes()
    assert results.count(path) == 1
    outputs = {"intervals.csv": (out / "intervals.csv").read_bytes(),
               "results.json": results.replace(path, b'"path": "demo.csv"')}
    return {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}


def test_analyze_demo_outputs_are_pinned(tmp_path, demo_csv):
    assert demo_digests(tmp_path, demo_csv) == DEMO_SHA256


def test_analyze_demo_b_outputs_are_pinned(tmp_path, demo_csv):
    assert demo_digests(tmp_path, demo_csv, "B", "additive") == DEMO_B_SHA256


# SHA-256 of the outputs of three studies: design B at n = 40 and Gamma scale 6,
# where 1 of 60 replicates fails; design C on a 3-point grid; and the benchmark's
# simulate_b study, whose 400 replicates cross block and covariance-stack
# boundaries, serially and at 2 threads (the same study.csv; study.json echoes threads)
STUDY_SHA256 = {
    "B_n1600_gamma1": (
        "design = B\nn = 1600\nnu = 1\ndelta = 0.2\ngamma_scales = 1\nreplicates = 400\nseed = 1\n",
        {"study.csv": "51344c82abf0934daa1c090f64813304bf2edcbb34a4d2aa5f800514baa87e52",
         "study.json": "7a2c70726a25d06c18cc81513863b955387250e1291a835be3480468be83b082"}),
    "B_n1600_gamma1_threads2": (
        "design = B\nn = 1600\nnu = 1\ndelta = 0.2\ngamma_scales = 1\nreplicates = 400\nseed = 1\n"
        "threads = 2\n",
        {"study.csv": "51344c82abf0934daa1c090f64813304bf2edcbb34a4d2aa5f800514baa87e52",
         "study.json": "2d234647922b4373a630f4aed05e75c6b6b9c352ce300ca952a4628eec63987b"}),
    "B_n40_gamma6": (
        "design = B\nn = 40\ndelta = 0.2\ngamma_scales = 6\nreplicates = 60\nseed = 1\n",
        {"study.csv": "eaecf7528d85d02edd3300c5531aaec1011f7835e1a2ccf631e146bbc8bfeeb2",
         "study.json": "901203d3b690394f63958a5dd7e1cd3bd869fb5bd5df124d4c7f327af127dab0"}),
    "C_n400_gamma05": (
        "design = C\nn = 400\ndelta = 0.2\ngamma_scales = 0.5\ngrid_points = 3\n"
        "replicates = 20\nseed = 1\n",
        {"study.csv": "73a30343e76c44b763aead0bc32b96ace69e6e86bd53e00d6ebf297cd9794509",
         "study.json": "b47824561b004d5c87de46a51716794252c0f695b0227ebd0abbb6376da7821f"}),
}


@pytest.mark.parametrize("name", sorted(STUDY_SHA256))
def test_simulate_outputs_are_pinned(tmp_path, name):
    study, want = STUDY_SHA256[name]
    cfg, out = tmp_path / "study.ini", tmp_path / "out"
    cfg.write_text(f"[study]\n{study}\n[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in want} == want


def test_simulate_with_every_replicate_failed_exits_4(tmp_path, capsys):
    cfg, out = tmp_path / "study.ini", tmp_path / "s"
    cfg.write_text(f"[study]\ndesign = B\nn = 2\nreplicates = 20\nseed = 1\n"
                   f"\n[output]\ndir = {out}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error[4] PsemError: every replicate failed in cell {'design': 'B', 'n': 2, ")
    assert err[0].endswith(
        "; first error: EstimationError: empty stratum: no observations for arm-0 survivors")
    assert not out.exists()


def test_analyze_sweeps_its_regions_in_one_point_pass(tmp_path, worked_csv, monkeypatch):
    cfg = tmp_path / "analysis.ini"
    cfg.write_text(f"[data]\npath = {worked_csv}\n[scenario]\nname = B\n"
                   f"[sensitivity]\nscales = 0, 0.5\ngrid_points = 3\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    passes = count_passes(monkeypatch)
    assert main(["analyze", "--config", str(cfg)]) == 0
    # scale 0 is a single point, scale 0.5 a 3-point beta0 axis
    assert [len(p) for p in passes["points"]] == [1 + 3]


def test_analyze_demo_shares_its_covariance_passes(tmp_path, demo_csv, monkeypatch):
    from psem import sensitivity
    from psem.config import load_analysis_config
    from psem.tables import read_cells
    from psem.weights import fit_missingness
    analysis = load_analysis_config(demo_config(tmp_path, demo_csv, tmp_path / "out"))
    weighted = fit_missingness(read_cells(demo_csv), analysis.weight_model)
    passes = count_passes(monkeypatch)
    alone = []      # the fit_ceps calls of each region swept alone
    for _, config in analysis.gamma_choices():
        passes["ceps"].clear()
        sensitivity.sweep(weighted, config)
        alone.append(len(passes["ceps"]))
    passes["ceps"].clear()
    sensitivity.sweeps(weighted, [c for _, c in analysis.gamma_choices()])
    # one fit_ceps call per covariance pass, whatever the number of regions
    assert len(passes["ceps"]) == max(alone) == 1


def test_point_passes_split_in_region_order_under_the_cell_bound(tmp_path, demo_csv,
                                                                  monkeypatch):
    from psem import sensitivity
    from psem.config import load_analysis_config
    cfg = demo_config(tmp_path, demo_csv, tmp_path / "whole")
    passes = count_passes(monkeypatch)
    assert main(["analyze", "--config", str(cfg)]) == 0
    grids = [c.grid() for _, c in load_analysis_config(cfg).gamma_choices()]
    assert [len(p) for p in passes["points"]] == [1 + 441 + 441]
    # a bound under the demo's 883 points, which each region still meets: one pass each
    monkeypatch.setattr(sensitivity, "MAX_GRID_CELLS", 442)
    passes["points"].clear()
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "split")]) == 0
    assert [len(p) for p in passes["points"]] == [1, 441, 441]
    assert np.concatenate(passes["points"]).tobytes() == np.concatenate(grids).tobytes()
    for name in ("results.json", "intervals.csv"):
        assert ((tmp_path / "whole" / name).read_bytes()
                == (tmp_path / "split" / name).read_bytes())


def no_selection_block(est, c):
    """The no-selection-bias block of results.json, from a fit and its CEPs."""
    return {"risks": est.as_dict(), "ses": {n: est.se(n) for n in est.names},
            "mixing_residual": est.mixing_residual(), "cep": dict(c.values),
            "cep_ses": dict(c.ses), "mu": c.mu, "mu_se": c.mu_se}


@settings(max_examples=25, deadline=None)
@given(scenario=st.sampled_from([Scenario.B, Scenario.C_HARM]),
       contrast=st.sampled_from(list(Contrast)),
       scales=st.one_of(st.none(), st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                                            min_size=1, max_size=3)))
@example(scenario=Scenario.C_HARM, contrast=Contrast.VE, scales=[0.0, 0.5, 1.0])
@example(scenario=Scenario.B, contrast=Contrast.LOG_RR, scales=[0.5, 1.0])
@example(scenario=Scenario.B, contrast=Contrast.ADDITIVE, scales=None)
def test_no_selection_fit_is_fit_scenario_at_gamma_zero(demo_path, scenario, contrast, scales):
    """The no-selection-bias block, read from the shared covariance pass, is
    ``cep(fit_scenario(weighted, zero))`` and its fit, bit for bit, with and
    without a configured scale 0 and with custom ranges (``scales`` None)."""
    from psem import cli, cep, fit_missingness, fit_scenario, sweeps
    from psem.config import AnalysisConfig
    from psem.tables import read_cells
    cfg = AnalysisConfig(demo_path, scenario, weight_model=implied_weight_model(),
                         grid_points=3, contrast=contrast, scales=scales,
                         ranges={} if scales else {"beta0": (-0.5, 0.5)})
    payload, _ = cli._analysis_payload(cfg, None)
    weighted = fit_missingness(read_cells(demo_path), cfg.weight_model)
    zero = SensitivityPoint(scenario)
    est = fit_scenario(weighted, zero)
    want = no_selection_block(est, cep(est, contrast))
    # 17 significant digits: equal text, equal bits
    assert cli._to_json(payload["no_selection_bias_fit"]) == cli._to_json(want)
    regions = [c for _, c in cfg.gamma_choices()]
    base = sweeps(weighted, [cli.SensitivityConfig(scenario, {}, 3, contrast=contrast),
                             *regions])[0].ceps[0, 0]
    assert base.sensitivity == SensitivityPoint(scenario, dict.fromkeys(
        scenario.sensitivity_keys, 0.0))
    fit = base.fit
    assert (fit.scenario, fit.names, fit.n) == (est.scenario, est.names, est.n)
    assert fit.theta.tobytes() == est.theta.tobytes()
    assert fit.cov.tobytes() == est.cov.tobytes()


def test_analyze_demo_makes_one_covariance_fit_call(tmp_path, demo_csv, monkeypatch):
    from psem import cli, core, sensitivity

    def separate_fit(*args, **kwargs):
        raise AssertionError("analyze fitted a point outside its sweep")

    for module in (cli, core, sensitivity):
        monkeypatch.setattr(module, "fit_scenario", separate_fit)
        monkeypatch.setattr(module, "cep", separate_fit)
    passes = count_passes(monkeypatch)
    assert main(["analyze", "--config", str(demo_config(tmp_path, demo_csv, tmp_path / "o"))]) == 0
    assert len(passes["ceps"]) == 1
    # the scale-0 region is the no-selection point: it is swept once
    assert [len(p) for p in passes["points"]] == [1 + 441 + 441]


def test_custom_ranges_add_the_no_selection_point_to_the_first_pass(tmp_path, worked_csv,
                                                                     monkeypatch):
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "out",
                                extra_sensitivity="beta0 = -1, 1")
    passes = count_passes(monkeypatch)
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert [len(p) for p in passes["points"]] == [1 + 21]
    assert passes["points"][0][0].tolist() == [0.0]


@pytest.mark.parametrize("scenario, line", [
    ("A", "error[4] EstimationError: estimated p(1,1) is not positive: the control-arm "
          "marker never varies in these data, so use scenario B instead of A"),
    ("C_protect", "error[4] OrderingError: early-event ordering (A4'') fails: the active-arm "
                  "early rate 0.01119 is not below the control rate 0.008032; Wald inference "
                  "under early no-harm monotonicity is invalid here")])
def test_analyze_demo_reports_the_no_selection_fits_error(tmp_path, demo_csv, capsys,
                                                          scenario, line):
    cfg = demo_config(tmp_path, demo_csv, tmp_path / "out")
    assert main(["analyze", "--config", str(cfg), "--scenario", scenario]) == 4
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "out").exists()


def test_a_failed_one_point_custom_region_reports_its_points_error(tmp_path, demo_csv, capsys):
    # beta0 = 60 has no mixture root on the demo; a one-point region raises that
    # point's own error, not "every sensitivity grid point failed; ..." (exit 4)
    cfg = tmp_path / "one.ini"
    cfg.write_text(f"[data]\npath = {demo_csv}\n[scenario]\nname = B\n[weights]\n"
                   f"model = design\nnu = {implied_subcohort_fraction()!r}\n"
                   f"[sensitivity]\nbeta0 = 60, 60\ncontrast = ve\n"
                   f"[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["analyze", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err == (
        "error[5] IncompatibleSensitivityError: no sign change of the constraint on "
        "[-45.0, 45.0]; sensitivity parameters are incompatible with the data\n")


@pytest.mark.parametrize("stage", ["point", "covariance"])
def test_an_incompatible_no_selection_fit_exits_5(tmp_path, demo_csv, capsys, monkeypatch,
                                                  stage):
    from psem import sensitivity
    from psem.errors import IncompatibleSensitivityError
    injected = IncompatibleSensitivityError("derived p10 = 1.5 lies outside [0, 1]; injected")
    real_targets, real_ceps = sensitivity.fit_targets, sensitivity.fit_ceps

    def fit_targets(weighted, scenario, beta, *rest):
        values, failed = real_targets(weighted, scenario, beta, *rest)
        if stage == "point":
            assert all(beta[k][0] == 0.0 for k in beta)     # the pass opens with Gamma = 0
            failed = failed.copy()
            failed.flat[0] = injected
        return values, failed

    def fit_ceps(weighted, points, *rest):
        ceps, failed = real_ceps(weighted, points, *rest)
        if stage == "covariance":
            assert points[0].values == {"beta0": 0.0, "beta1_marginal": 0.0}
            failed = failed.copy()
            failed.flat[0] = injected
        return ceps, failed

    monkeypatch.setattr(sensitivity, "fit_targets", fit_targets)
    monkeypatch.setattr(sensitivity, "fit_ceps", fit_ceps)
    cfg = demo_config(tmp_path, demo_csv, tmp_path / "out")
    assert main(["analyze", "--config", str(cfg)]) == 5
    assert capsys.readouterr().err == f"error[5] IncompatibleSensitivityError: {injected}\n"


def test_analyze_and_diagnose_read_the_csv_straight_to_cells(tmp_path, worked_csv,
                                                            monkeypatch):
    from psem import cli, tables

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI built a record list")

    monkeypatch.setattr(tables, "from_records", refuse)
    monkeypatch.setattr(cli, "load_csv", refuse)
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                extra_sensitivity="beta0 = 0")
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert main(["diagnose", "--input", str(worked_csv)]) == 0


@pytest.mark.parametrize("case, code", [
    ("analyze_missing_csv", 3), ("diagnose_missing_csv", 3),
    ("latin1_csv", 3), ("latin1_config", 2)])
def test_unreadable_input_is_a_named_error(tmp_path, worked_csv, capsys, case, code):
    missing, latin1 = tmp_path / "absent.csv", tmp_path / "latin1.csv"
    latin1.write_bytes("id,z,y_tau,s_star,y,r\nr\xe91,1,0,0,1,1\n".encode("latin-1"))
    data = {"analyze_missing_csv": missing, "latin1_csv": latin1}.get(case, worked_csv)
    cfg = write_analysis_config(tmp_path, data, tmp_path / "o",
                                extra_sensitivity="beta0 = 0")
    if case == "latin1_config":
        cfg.write_bytes("; r\xe9sum\xe9\n".encode("latin-1") + cfg.read_bytes())
    argv = (["diagnose", "--input", str(missing)] if case == "diagnose_missing_csv"
            else ["analyze", "--config", str(cfg)])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error[{code}]") and "Traceback" not in err
    bad = {"diagnose_missing_csv": missing, "latin1_config": cfg}.get(case, data)
    assert str(bad) in err


@pytest.mark.parametrize("setting", [
    "n = ,", "nu = ,", "delta = ,", "gamma_scales = ,", "scales = ,"])
def test_empty_list_is_config_error(tmp_path, worked_csv, capsys, setting):
    out = tmp_path / "o"
    key, value = (part.strip() for part in setting.split("="))
    if key == "scales":
        cfg = write_analysis_config(tmp_path, worked_csv, out, extra_sensitivity=setting)
        argv = ["analyze", "--config", str(cfg)]
    else:
        study = {"design": "B", "n": "400", "replicates": "5", key: value}
        cfg = tmp_path / "study.ini"
        cfg.write_text("[study]\n" + "".join(f"{k} = {v}\n" for k, v in study.items())
                       + f"\n[output]\ndir = {out}\n", encoding="utf-8")
        argv = ["simulate", "--config", str(cfg)]
    assert main(argv) == 2
    assert "expected comma-separated finite numbers" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_checks_region_before_reading_data(tmp_path, capsys):
    cfg = write_analysis_config(tmp_path, tmp_path / "absent.csv", tmp_path / "o",
                                extra_sensitivity="beta2 = 0, 1")
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "not legal for scenario B" in capsys.readouterr().err


def test_analyze_missing_config():
    assert main(["analyze", "--config", "/nonexistent.ini"]) == 2


def test_main_builds_the_parser_once_per_process(monkeypatch, tmp_path):
    from psem import cli
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    assert [main(["diagnose", "--input", str(tmp_path / "absent.csv")]),
            main(["analyze", "--config", str(tmp_path / "absent.ini")])] == [3, 2]
    assert len(built) == 1


def test_analyze_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,z,y_tau,y,r,s_star\nx,3,0,0,1,1\n", encoding="utf-8")
    cfg = write_analysis_config(tmp_path, bad, tmp_path / "o",
                                extra_sensitivity="beta0 = 0")
    assert main(["analyze", "--config", str(cfg)]) == 3


def test_analyze_estimation_error_exit_code(tmp_path, worked_csv, capsys):
    # scenario C_protect needs the early ordering; the worked fixture has
    # no early events at all, so the opening block fails at every point and
    # analyze reports the error fit_scenario raises, with exit code 4
    from psem import fit_missingness, fit_scenario, load_csv
    from psem.errors import OrderingError
    cfg = write_analysis_config(tmp_path, worked_csv, tmp_path / "o",
                                scenario="C_protect",
                                extra_sensitivity="beta0 = 0")
    with pytest.raises(OrderingError) as want:
        fit_scenario(fit_missingness(load_csv(worked_csv)), SensitivityPoint(Scenario.C_PROTECT))
    assert main(["analyze", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err == f"error[4] OrderingError: {want.value}\n"


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

    real_fit = sensitivity.fit_ceps
    failed = []

    def fit(weighted, points, *rest):
        ceps, errors = real_fit(weighted, points, *rest)
        if not failed:          # the first pending region-corner covariance fit, not Gamma = 0
            j = next(j for j, p in enumerate(points) if abs(p.get("beta0")) == 1.0)
            failed.append(points[j])
            errors = errors.copy()
            errors[j] = EstimationError("injected")
        return ceps, errors

    monkeypatch.setattr(sensitivity, "fit_ceps", fit)
    weighted = fit_missingness(load_csv(worked_csv))
    config = sensitivity.SensitivityConfig(
        scenario=Scenario.B, ranges={"beta0": (-1.0, 1.0)}, grid_points=5)
    grid = sensitivity.sweep(weighted, config, targets=("mu",))
    errors = failure_map(grid.failures)
    points = [grid.point(i) for i in range(len(grid.cells))]
    bad = points.index(failed[0])
    assert bad in (0, 4)                   # mu is monotone in beta0
    assert error_text(errors[0, bad]) == "EstimationError: injected"
    nxt = 1 if bad == 0 else 3
    with pytest.warns(RuntimeWarning, match="inside the sensitivity region") as rec:
        res = sensitivity.interval_for(grid, "mu")     # the corner check runs
    corner = f"beta0={failed[0].get('beta0'):g}"
    assert (f"fit failed at region corner(s) ({corner}: EstimationError: injected)"
            ", so the interval covers a narrowed region") in str(rec[0].message)
    assert points[nxt] in (res.point_lower, res.point_upper)
    assert grid.row("mu")[0, nxt] in res.ignorance
    assert grid.ceps[0, nxt].mu_se in (res.se_lower, res.se_upper)
    assert len(errors) == 1

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

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from psem.errors import ConfigError
from psem.simulate import (DESIGNS, GeneratorConfig, StudyConfig, _gen_arrays,
                           _law, _rng_for, generate,
                           oracle_estimands, run_study)


def mc_tol(p, n, k=3.5):
    return k * math.sqrt(p * (1 - p) / n)


def test_design_b_marginals_large_n():
    cfg = GeneratorConfig(design="B", n=1_000_000, a=0.3, b=0.3)
    arrs = _gen_arrays(cfg, _rng_for(1, 0, 0))
    early = float(np.mean(arrs["yt1"]))
    assert early == pytest.approx(0.2, abs=mc_tol(0.2, cfg.n))
    eas = arrs["yt1"] == 0
    pos = float(np.mean(arrs["s1"][eas]))
    assert pos == pytest.approx(0.6, abs=mc_tol(0.6, eas.sum()))
    assert np.all(arrs["yt1"] == arrs["yt0"])          # equal early risk
    assert np.all(arrs["y1"][arrs["yt1"] == 1] == 1)   # early events are cases


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_early_pair_shares_match_design_table(design):
    cfg = GeneratorConfig(design=design, n=1_000_000, a=0.3, b=0.3)
    arrs = _gen_arrays(cfg, _rng_for(3, 0, 0))
    for (t1, t0), prob in DESIGNS[design].early:
        share = float(np.mean((arrs["yt1"] == t1) & (arrs["yt0"] == t0)))
        assert share == pytest.approx(prob, abs=mc_tol(prob, cfg.n))
    for a, b in ((0.3, 0.5), (0.0, 1.0), (1.0, 0.0)):
        law = _law(dataclasses.replace(cfg, a=a, b=b))
        assert math.fsum(law[-1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("design, digest", [
    ("B", "fdbcb5a5e9d8335d891d36d5fe158a31056f328b051ce2e725b67a15bc318ca9"),
    ("C", "e6d6ac58e118624be9203b6201ceb37bfd0124e5b096e11f082de98c9d22a61d")],
    ids=["B", "C"])
def test_draw_stream_is_pinned(design, digest):
    """Any change to the draw order or the design table changes the bytes."""
    arrs = _gen_arrays(GeneratorConfig(design=design, n=1000, a=0.3, b=0.5,
                                       nu=0.5), _rng_for(7, 0, 0))
    got = hashlib.sha256(b"".join(arrs[k].tobytes() for k in sorted(arrs)))
    assert got.hexdigest() == digest


def test_design_c_marginals_large_n():
    cfg = GeneratorConfig(design="C", n=1_000_000, a=0.3, b=0.3)
    arrs = _gen_arrays(cfg, _rng_for(2, 0, 0))
    ep = (arrs["yt1"] == 0) & (arrs["yt0"] == 1)
    assert float(np.mean(ep)) == pytest.approx(0.2, abs=mc_tol(0.2, cfg.n))
    assert np.all(arrs["yt1"] <= arrs["yt0"])          # no-harm monotonicity


def test_oracle_values_design_b():
    assert oracle_estimands(GeneratorConfig(design="B", n=2, a=0.7, b=0.1))["mu"] \
        == pytest.approx(-0.6, abs=1e-12)
    oracle = oracle_estimands(GeneratorConfig(design="B", n=2, a=0.5, b=0.5))
    assert oracle["mu"] == pytest.approx(0.0, abs=1e-12)
    assert oracle["cep_00"] == pytest.approx(0.5 - 0.5, abs=1e-12)
    oracle2 = oracle_estimands(GeneratorConfig(design="B", n=2, a=0.3, b=0.55))
    assert oracle2["risk0_00"] == oracle2["risk0_10"] == pytest.approx(0.5)
    assert oracle2["risk1_00"] == pytest.approx(0.3)
    assert oracle2["risk1_10"] == pytest.approx(0.55)
    assert oracle2["p00"] == pytest.approx(0.4)
    assert oracle2["risk1"] == pytest.approx(0.4 * 0.3 + 0.6 * 0.55)


def test_oracle_design_c_vs_empirical_frequencies():
    """The enumeration oracle is cross-checked against large-sample
    empirical frequencies from the generator itself."""
    cfg = GeneratorConfig(design="C", n=1, a=0.2, b=0.5)
    oracle = oracle_estimands(cfg)
    counts = {}
    total = 10_000_000
    chunk_n = 2_500_000
    sums = dict.fromkeys(
        ("eas", "ep", "eas_pos", "ep_pos", "y1_eas_pos", "y1_eas_neg",
         "y0_eas", "y1_ep_pos", "y1_ep_neg"), 0.0)
    for chunk in range(total // chunk_n):
        arrs = _gen_arrays(dataclasses.replace(cfg, n=chunk_n),
                           _rng_for(101, 7, chunk))
        eas = (arrs["yt1"] == 0) & (arrs["yt0"] == 0)
        ep = (arrs["yt1"] == 0) & (arrs["yt0"] == 1)
        pos = arrs["s1"] == 1
        sums["eas"] += eas.sum()
        sums["ep"] += ep.sum()
        sums["eas_pos"] += (eas & pos).sum()
        sums["ep_pos"] += (ep & pos).sum()
        sums["y1_eas_pos"] += (eas & pos & (arrs["y1"] == 1)).sum()
        sums["y1_eas_neg"] += (eas & ~pos & (arrs["y1"] == 1)).sum()
        sums["y0_eas"] += (eas & (arrs["y0"] == 1)).sum()
        sums["y1_ep_pos"] += (ep & pos & (arrs["y1"] == 1)).sum()
        sums["y1_ep_neg"] += (ep & ~pos & (arrs["y1"] == 1)).sum()
    assert sums["eas_pos"] / sums["eas"] == pytest.approx(
        oracle["p10"], abs=mc_tol(oracle["p10"], sums["eas"]))
    assert sums["y1_eas_pos"] / sums["eas_pos"] == pytest.approx(
        oracle["risk1_10"], abs=mc_tol(0.5, sums["eas_pos"]))
    assert sums["y1_eas_neg"] / (sums["eas"] - sums["eas_pos"]) == pytest.approx(
        oracle["risk1_00"], abs=mc_tol(0.2, sums["eas"] - sums["eas_pos"]))
    assert sums["y0_eas"] / sums["eas"] == pytest.approx(
        oracle["risk0"], abs=mc_tol(0.5, sums["eas"]))
    assert sums["y1_ep_pos"] / sums["ep_pos"] == pytest.approx(
        oracle["risk1_1star"], abs=mc_tol(0.5, sums["ep_pos"]))
    assert sums["ep_pos"] / sums["ep"] == pytest.approx(
        oracle["ep_pos_rate"], abs=mc_tol(0.6, sums["ep"]))


def test_record_layer_invariants_design_b():
    pot, obs = generate(GeneratorConfig(design="B", n=3000, a=0.4, b=0.5,
                                        nu=0.5, seed=5))
    assert len(pot) == len(obs) == 3000
    for p in pot:
        assert p.y_tau_1 == p.y_tau_0
        if p.y_tau_1 == 1:
            assert p.s_star_1 is None and p.y_1 == 1 and p.y_0 == 1
        else:
            assert p.s_star_0 == 0
    for p, o in zip(pot, obs):
        o.validate()
        assert o.y_tau == (p.y_tau_1 if o.z else p.y_tau_0)
        assert o.y == (p.y_1 if o.z else p.y_0)


def test_record_layer_invariants_design_c():
    pot, obs = generate(GeneratorConfig(design="C", n=3000, a=0.4, b=0.5,
                                        seed=6))
    assert all(p.y_tau_1 <= p.y_tau_0 for p in pot)
    for o in obs:
        o.validate()


def test_design_mismatch_rejected():
    with pytest.raises(ConfigError):
        GeneratorConfig(design="X", n=10, a=0.4, b=0.4)


@pytest.mark.parametrize("sample", [
    {"n_values": (400.7,)}, {"n_values": (400, 0)},
    {"n_values": (400,), "nu_values": (1.0, 0.0)}],
    ids=["fractional_n", "zero_n", "zero_nu"])
def test_study_config_checks_every_n_and_nu(sample):
    # rejected when built, before any study cell runs
    with pytest.raises(ConfigError):
        StudyConfig(design="B", **sample)


def test_study_seed_determinism():
    cfg = StudyConfig(design="B", n_values=(400,), deltas=(0.0, 0.3),
                      gamma_scales=(0.0,), replicates=25, seed=123)
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    assert r1.as_table() == r2.as_table()


def test_study_thread_invariance():
    base = StudyConfig(design="B", n_values=(400,), deltas=(0.3,),
                       gamma_scales=(0.0,), replicates=16, seed=7)
    serial = run_study(base)
    threaded = run_study(dataclasses.replace(base, threads=2))
    assert serial.as_table() == threaded.as_table()


def test_study_estimates_center_on_oracle():
    cfg = StudyConfig(design="B", n_values=(400,), deltas=(-0.3, 0.2),
                      gamma_scales=(0.0,), replicates=200, seed=11)
    result = run_study(cfg)
    for row in result.rows:
        se_mean = row.ese_min / math.sqrt(row.replicates)
        assert abs(row.bias_min) < 3 * se_mean
        assert row.replicates + row.failures == 200


def test_study_bookkeeping_and_failures_counted():
    # tiny n with sparse sampling produces occasional estimation failures,
    # which must be excluded and counted
    cfg = StudyConfig(design="B", n_values=(60,), nu_values=(0.15,),
                      deltas=(0.0,), gamma_scales=(0.0,), replicates=60, seed=3)
    result = run_study(cfg)
    row = result.rows[0]
    assert row.replicates + row.failures == 60
    assert 0.0 <= row.power <= 1.0


def test_study_cell_lookup():
    cfg = StudyConfig(design="B", n_values=(400, 800), deltas=(0.0,),
                      gamma_scales=(0.0,), replicates=5, seed=2)
    result = run_study(cfg)
    assert result.cell(n=800).n == 800
    with pytest.raises(KeyError):
        result.cell(n=1600)


@pytest.mark.parametrize("axis", ["n_values", "nu_values", "deltas", "gamma_scales"])
def test_study_config_rejects_an_empty_axis(axis):
    kwargs = {"design": "B", "n_values": (400,), axis: ()}
    with pytest.raises(ConfigError, match="need a value each"):
        StudyConfig(**kwargs)

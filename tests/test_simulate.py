import dataclasses
import hashlib
import itertools
import math
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psem import sensitivity, simulate, tables
from psem.core import Scenario, cep
from psem.errors import ConfigError, PsemError
from psem.sensitivity import SensitivityConfig, interval_for, symmetric_ranges, sweep
from psem.simulate import (DESIGNS, GeneratorConfig, StudyConfig, _bits, _gen_arrays,
                           _patterns, _rng_for, generate, oracle_estimands, run_study)
from psem.tables import S_MISS, S_NEG, S_POS, S_UNDEF, from_arrays
from psem.weights import WeightModel, fit_missingness

from conftest import error_text, failure_map, fit


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
        p = _patterns(dataclasses.replace(cfg, a=a, b=b))[1]
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12) and (p >= 0).all()


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


@pytest.mark.parametrize("design, digest", [
    ("B", "181bd955479f7c5ef2fffd8723fbe5bfb9dd90c25c1c0c1635652bf5acc7a72a"),
    ("C", "d82bcb19837462f8b290496a59e6a4e56a267c02d9c5ae86dba04873adb036d9")],
    ids=["B", "C"])
def test_draw_stream_is_pinned_at_nu_1(design, digest):
    """At nu = 1 the subcohort row is constant and not drawn: the 5 * 1001 words
    drawn (not a multiple of Philox's 4-word buffer) are those of the full block."""
    cfg, rng = GeneratorConfig(design=design, n=1001, a=0.3, b=0.5, nu=1.0), _rng_for(7, 0, 0)
    arrs = _gen_arrays(cfg, rng)
    got = hashlib.sha256(b"".join(arrs[k].tobytes() for k in sorted(arrs)))
    assert got.hexdigest() == digest
    full = _rng_for(7, 0, 0).bit_generator.random_raw(5 * 1001 + 1)
    assert rng.bit_generator.random_raw() == full[-1]       # the next word is word 5n


@pytest.mark.parametrize("design, digest", [
    ("B", "3577ca55b836dfaf68d6a791193bd9a92377148c4eb072138fb9b65dd303f234"),
    ("C", "a6a37d322aad8c9309a6541be2493e4b0e6c59ba886580017e9471525c0a8c9a")],
    ids=["B", "C"])
def test_study_block_tallies_are_pinned_at_nu_1(design, digest):
    counts = simulate._cell_counts(GeneratorConfig(design, 1601, 0.3, 0.5, 1.0, 7), 3, range(64))
    assert counts.shape == (64, 32) and counts.sum() == 64 * 1601
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


_steps = st.integers(1, 2**53 - 1)


@settings(max_examples=300, deadline=None)
@given(t=st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, math.nextafter(1.0, 0.0), 1.0])
       | st.floats(0.0, 1.0),
       word=st.sampled_from([0, 2**64 - 1]) | _steps.map(lambda k: k * 2**11 - 1)
       | _steps.map(lambda k: k * 2**11) | st.integers(0, 2**64 - 1))
def test_word_threshold_is_the_double_compare(t, word):
    # Philox's double is (word >> 11) 2^-53; the integer test must agree for every word,
    # the drawn one and the two around the cut of t
    limit, ones = simulate._word_limits(np.array([t]))
    cut = math.ceil(t * 2**53) * 2**11
    for w in {word, *(w for w in (cut - 1, cut) if 0 <= w < 2**64)}:
        assert bool(ones[0] or np.uint64(w) < limit[0]) == ((w >> 11) * 2.0**-53 < t)
    assert bool(ones[0]) == (t == 1.0)


def test_philox_doubles_are_the_shifted_raw_words():
    # the word thresholds rest on numpy's conversion: a numpy change fails here
    words = _rng_for(5, 3, 2).bit_generator.random_raw(4 * 250 + 3)
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53,
                          _rng_for(5, 3, 2).random(4 * 250 + 3))


def reference_arrays(config, rng):
    """Reference generator: six rng.random(n) calls in the module docstring's
    order, each variable drawn from its own uniforms, with no bits or table."""
    n = config.n
    pairs, probs = zip(*DESIGNS[config.design].early)
    k = np.searchsorted(np.cumsum(probs)[:-1], rng.random(n), side="right")
    yt1, yt0 = (np.array(col, dtype=bool)[k] for col in zip(*pairs))
    s1 = (rng.random(n) < simulate.MARKER_POS_RATE) & ~yt1
    mean1 = np.where(s1, config.b, config.a)
    y1 = np.where(yt1, True, rng.random(n) < mean1)
    y0 = np.where(yt0, True, rng.random(n) < simulate.CONTROL_RISK)
    z = rng.random(n) < 0.5
    sub = rng.random(n) < config.nu
    yt = np.where(z, yt1, yt0)
    y = np.where(z, y1, y0)
    measured = np.where(yt, True, sub | y)
    s_code = np.where(yt, S_UNDEF, np.where(measured, np.where(np.where(z, s1, False),
                                                               S_POS, S_NEG), S_MISS))
    return {name: v.astype(np.int8) for name, v in dict(
        yt1=yt1, yt0=yt0, s1=s1, y1=y1, y0=y0, z=z, yt=yt, y=y, s_code=s_code,
        measured=measured).items()}


_unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(design=st.sampled_from(sorted(DESIGNS)), n=st.integers(1, 400),
       nu=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True), a=_unit,
       b=st.none() | _unit, seed=st.integers(0, 2**64 - 1), cell=st.integers(0, 2**31),
       reps=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
@example(design="C", n=400, nu=1.0, a=0.0, b=1.0, seed=0, cell=0, reps=[0, 1])
@example(design="B", n=400, nu=0.5, a=0.3, b=None, seed=1, cell=2, reps=[3])
@example(design="C", n=401, nu=0.5, a=0.3, b=0.5, seed=2**64 - 1, cell=2**31,
         reps=[2**32 - 1, 0])     # the largest key the strategies reach
def test_bit_pattern_tally_matches_the_draw(design, n, nu, a, b, seed, cell, reps):
    # b=None draws a = b; the draw and its tally equal the reference generator's
    cfg = GeneratorConfig(design, n, a, a if b is None else b, nu, seed)
    want = [reference_arrays(cfg, _rng_for(seed, cell, rep)) for rep in reps]
    new = _gen_arrays(cfg, _rng_for(seed, cell, reps[0]))
    assert all(np.array_equal(new[k], v) and new[k].dtype == v.dtype
               for k, v in want[0].items())
    assert np.array_equal(simulate._cell_counts(cfg, cell, reps), [np.bincount(tables.cell_code(
        *itemgetter("z", "yt", "s_code", "y")(arrs)), minlength=32) for arrs in want])


@pytest.mark.parametrize("design, digest", [
    ("B", "8378d4a34ae641884895761dd26e113a98cfcb2390cc04ff71d10ef7e680bd88"),
    ("C", "3e43367de79d91f3da408dbd9d54d587bb291396e7204f4eb9eb93be4b032386")],
    ids=["B", "C"])
def test_study_block_tallies_are_pinned(design, digest):
    """Integer tallies are platform-independent: a change to the draw or the
    tally of a study block changes the bytes."""
    counts = simulate._cell_counts(GeneratorConfig(design, 1600, 0.3, 0.5, 0.5, 7), 3, range(64))
    assert counts.shape == (64, 32) and counts.sum() == 64 * 1600
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_block_tallies_equal_each_replicate_tallied_alone(design):
    # n = 401 draws 6 * 401 = 2406 uniforms, not a multiple of Philox's 4-word
    # buffer: a block that left the buffer to the next replicate would differ
    cfg = GeneratorConfig(design, 401, 0.3, 0.5, 0.5, 11)
    reps = [5, 0, 1, 2**32 - 1, 1]
    assert np.array_equal(simulate._cell_counts(cfg, 2, reps),
                          np.concatenate([simulate._cell_counts(cfg, 2, [r]) for r in reps]))


def test_study_block_builds_one_generator_and_one_covariance_pass(monkeypatch):
    built, real = [], np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda **kw: built.append(1) or real(**kw))
    draw = GeneratorConfig("B", 1600, 0.3, 0.5, 1.0, 1)
    assert simulate._cell_counts(draw, 0, range(64)).shape == (64, 32) and len(built) == 1
    passes, fit_ceps = [], sensitivity.fit_ceps

    def counted(weighted, points, *rest):   # per pass: pairs, point objects, distinct points
        passes.append((len(points), len(set(map(id, points))),
                       len({tuple(p.as_dict().items()) for p in points})))
        return fit_ceps(weighted, points, *rest)

    monkeypatch.setattr(sensitivity, "fit_ceps", counted)
    gamma = SensitivityConfig(Scenario.B, symmetric_ranges(Scenario.B, 1.0), 21)
    errors, _ = simulate._fit_block(draw, gamma, 0, range(64))
    assert errors == [None] * 64 and passes == [(128, 2, 2)]    # each replicate's two ends


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


def reference_law(config):
    """Reference law: columns (yt1, yt0, s1, y1, y0, p) of the potential outcomes,
    enumerated one Bernoulli factor at a time with no bits or table; s1 = -1 where
    undefined (early event under arm 1)."""
    def bern(m):
        return ((1, m), (0, 1.0 - m))

    rows = []
    for (t1, t0), pt in DESIGNS[config.design].early:
        s1_opts = ((-1, 1.0),) if t1 else bern(simulate.MARKER_POS_RATE)
        for s1, ps in s1_opts:
            y1_opts = ((1, 1.0),) if t1 else bern(config.b if s1 == 1 else config.a)
            y0_opts = ((1, 1.0),) if t0 else bern(simulate.CONTROL_RISK)
            rows += [(t1, t0, s1, y1, y0, pt * ps * p1 * p0)
                     for y1, p1 in y1_opts for y0, p0 in y0_opts]
    return np.array(rows).T


def reference_oracle(config):
    """Every estimand conditioned on ``reference_law``."""
    t1, t0, s1, y1, y0, p = reference_law(config)

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


@settings(max_examples=200, deadline=None)
@given(design=st.sampled_from(sorted(DESIGNS)), a=_unit, b=st.none() | _unit,
       nu=st.sampled_from([1.0, 0.25]) | st.floats(0.0, 1.0, exclude_min=True))
@example(design="C", a=0.0, b=1.0, nu=1.0)
@example(design="B", a=1.0, b=0.0, nu=0.25)
@example(design="C", a=0.3, b=None, nu=0.25)
def test_oracle_matches_the_reference_law(design, a, b, nu):
    # b=None draws a = b
    cfg = GeneratorConfig(design, 1, a, a if b is None else b, nu)
    got, want = oracle_estimands(cfg), reference_oracle(cfg)
    assert got.keys() == want.keys()
    assert all(got[k] == pytest.approx(v, abs=1e-14, nan_ok=True) for k, v in want.items())


@pytest.mark.parametrize("a, b, nu", [(0.3, 0.5, 0.5), (0.0, 1.0, 1.0), (0.45, 0.45, 0.25)])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_pattern_probabilities_match_the_draw(design, a, b, nu):
    """Tallied by bit pattern, one draw of real uniforms never shows a pattern of
    probability 0 and shows each other pattern within 5 binomial SDs of n p."""
    cfg = GeneratorConfig(design, 200_000, a, b, nu)
    bits, p = _patterns(cfg)
    count = np.bincount((1 << np.arange(len(bits))) @ _bits(cfg, _rng_for(9, 0, 0)),
                        minlength=len(p))
    assert (p == 0).any() and not count[p == 0].any()
    live = p > 0
    assert np.all(np.abs(count - cfg.n * p)[live]
                  <= 5 * np.sqrt(cfg.n * p * (1 - p))[live])


@pytest.mark.parametrize("nu", [1.0, 0.25])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_exact_cell_probabilities_identify_the_oracle(design, nu):
    """At Gamma = 0 the design's scenario, fitted to the exact cell probabilities
    (the pattern probabilities summed by cell), returns the oracle's values."""
    scenario = DESIGNS[design].scenario
    for a, b in itertools.product((0.2, 0.3, 0.55), (0.1, 0.5, 0.9)):
        cfg = GeneratorConfig(design, 1, a, b, nu)
        bits, p = _patterns(cfg)
        code = tables.cell_code(*itemgetter("z", "yt", "s_code", "y")(
            simulate._observe(cfg, bits)))
        est = fit(fit_missingness(tables.from_counts(np.bincount(code, p, minlength=32)),
                                  WeightModel.design_known(nu)), scenario)
        truth = oracle_estimands(cfg)
        got = {k: est.value(k) for k in truth if k in est.names}
        result = cep(est, "additive")
        got.update(cep_00=result.values["00"], cep_10=result.values["10"], mu=result.mu)
        assert len(got) == 11 + 4 * (design == "C")
        assert all(v == pytest.approx(truth[k], abs=1e-12) for k, v in got.items()), \
            (a, b, {k: v - truth[k] for k, v in got.items()})


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


@pytest.mark.parametrize("kwargs, message", [
    ({"deltas": (0.2, math.nan)}, r"deltas must lie in \[-0.8, 0.8\]"),
    ({"gamma_scales": (0.0, math.inf)}, "gamma scales must be >= 0 and < inf"),
    ({"alpha": 0.7}, r"alpha must be in \(0, 0.5\)"),
    ({"alpha": 0.0}, r"alpha must be in \(0, 0.5\)"),
    ({"alpha": 1e-17}, "1 - alpha/2 below 1, got 1e-17"),
    ({"grid_points": 2.5}, "grid_points must be >= 2 and < inf, an integer")],
    ids=["nan_delta", "infinite_gamma_scale", "alpha_0.7", "alpha_0", "alpha_1e-17",
         "fractional_grid_points"])
def test_study_config_rejects_bad_values(kwargs, message):
    # rejected when built, naming the study field: each used to fail inside
    # run_study, naming a derived value (a, a beta range) or none
    with pytest.raises(ConfigError, match=message):
        StudyConfig(design="B", n_values=(400,), **kwargs)


def test_study_seed_determinism():
    cfg = StudyConfig(design="B", n_values=(400,), deltas=(0.0, 0.3),
                      gamma_scales=(0.0,), replicates=25, seed=123)
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    assert r1.as_table() == r2.as_table()


def mapped_in_process(config):
    """``run_study(config)`` with its pool mapped in process, so no worker process
    starts: its table, the replicates of each block and the workers it asks for."""
    sizes, workers, real = [], [], simulate._fit_block

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    with pytest.MonkeyPatch.context() as m:
        m.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        m.setattr(simulate, "_fit_block", lambda *job: sizes.append(len(job[-1])) or real(*job))
        return run_study(config).as_table(), sizes, workers


def test_study_thread_invariance():
    # 151 replicates make blocks of unequal size at 2 and 3 threads (75, 75 and 1;
    # 64, 64 and 23), and the workers split them unevenly; in the second study
    # 1 of 60 replicates fails, so its exception crosses the pool
    for base, failures in [
            (StudyConfig(design="B", n_values=(400,), deltas=(0.3,),
                         gamma_scales=(0.0,), replicates=151, seed=7), 0),
            (StudyConfig("B", (40,), gamma_scales=(6.0,), replicates=60, seed=1), 1)]:
        serial = run_study(base).as_table()
        assert [row[7] for row in serial[1]] == [failures]     # the failures column
        for threads in (2, 3):
            config = dataclasses.replace(base, threads=threads)
            assert run_study(config).as_table() == serial
            if failures == 0:
                assert len(set(mapped_in_process(config)[1])) > 1


def test_a_tiny_alpha_whose_critical_value_is_finite_is_accepted():
    # 1 - 1.5e-16 / 2 rounds below 1.0, so z_{1-alpha/2} is finite
    assert StudyConfig("B", (400,), alpha=1.5e-16).alpha == 1.5e-16


def test_a_study_asks_for_no_more_workers_than_blocks():
    # at most 3 blocks, the count in blocks of at most 64 (``SPLIT``), and at
    # least min(threads, 3): one block serially, 65 + 65 at 2 threads
    base = StudyConfig("B", (400,), replicates=130, seed=7)
    serial = run_study(base).as_table()
    for threads, sizes in ((1, [130]), (2, [65, 65]), (3, [64, 64, 2]), (5000, [64, 64, 2])):
        table, blocks, workers = mapped_in_process(dataclasses.replace(base, threads=threads))
        assert table == serial and blocks == sizes
        assert workers == ([min(threads, len(sizes))] if threads > 1 else [])


def test_a_study_whose_every_replicate_fails_raises_the_first_error():
    with pytest.raises(PsemError) as info:
        run_study(StudyConfig("B", (2,), replicates=20, seed=1))
    assert type(info.value) is PsemError
    assert str(info.value).startswith("every replicate failed in cell ")
    assert str(info.value).endswith(
        "; first error: EstimationError: empty stratum: no observations for arm-0 survivors")


def test_study_blocks_shrink_on_large_grids(monkeypatch):
    # a block holds at most 200 * 21 (replicate, point) pairs: 16 replicates
    # of the 4**4 = 256 points of design C at grid_points = 4, all 70 at one point
    sizes, real = [], simulate._fit_block
    monkeypatch.setattr(simulate, "_fit_block",
                        lambda *job: sizes.append(len(job[-1])) or real(*job))
    cfg = StudyConfig("C", (4000,), gamma_scales=(0.0, 1.0), grid_points=4,
                      replicates=70, seed=3)
    assert [r.replicates + r.failures for r in run_study(cfg).rows] == [70, 70]
    assert sizes == [70] + [16] * 4 + [6]


def test_study_results_do_not_depend_on_the_block_size():
    # blocks of 1, 64 and 200 replicates of a 21-point grid, where some replicates fail
    config = StudyConfig("B", (40,), gamma_scales=(6.0,), replicates=250, seed=1)
    outputs = []
    for block in (1, 64, simulate.BLOCK):
        with pytest.MonkeyPatch.context() as m:
            for name in ("BLOCK", "SPLIT"):
                m.setattr(simulate, name, block)
                m.setattr(simulate, f"{name}_POINTS", block * 21)
            table, sizes, _ = mapped_in_process(config)
        assert sizes == [block] * (250 // block) + [250 % block] * (250 % block > 0)
        outputs.append(table)
    assert outputs[0][1][0][7] > 0 and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("config, failures", [
    (StudyConfig("B", (60,), (0.15,), replicates=200, seed=3), 16),
    (StudyConfig("B", (40,), (0.1,), gamma_scales=(6.0,), grid_points=5,
                 replicates=200, seed=3), 57),
    (StudyConfig("C", (4000,), gamma_scales=(1.0,), replicates=30, seed=3), 0)],
    ids=["B_n60", "B_n40_gamma6", "C_gamma1"])
def test_study_blocks_match_the_one_point_path(monkeypatch, config, failures):
    """Each replicate of a batched study block against the public path on
    its own draw: fit_missingness(from_arrays(...)), sweep, interval_for."""
    outcomes = []
    real = simulate._summarize_cell
    monkeypatch.setattr(simulate, "_summarize_cell", lambda cell, mu, errors, mus:
                        outcomes.append((errors, mus)) or real(cell, mu, errors, mus))
    run_study(config)
    ((cell,), ((errors, mus),)) = config.cells(), outcomes
    d, scenario = cell["delta"], DESIGNS[config.design].scenario
    draw = GeneratorConfig(config.design, cell["n"], 0.4 - d / 2, 0.4 + d / 2, cell["nu"])
    gamma = SensitivityConfig(scenario, symmetric_ranges(scenario, cell["gamma_scale"]),
                              config.grid_points or DESIGNS[config.design].grid_points)
    failed = set()
    for rep, (error, (est_lower, se_lower, est_upper, se_upper, *_)) in enumerate(zip(errors, mus)):
        arrs = _gen_arrays(draw, _rng_for(config.seed, 0, rep))
        weighted = fit_missingness(from_arrays(arrs["z"], arrs["yt"], arrs["s_code"], arrs["y"]),
                                   WeightModel.design_known(cell["nu"]))
        try:
            grid = sweep(weighted, gamma, targets=("mu",))
            points = failure_map(grid.failures)
            ref = (error_text(points[min(points)]) if points
                   else interval_for(grid, "mu"))
        except PsemError as exc:
            ref = f"{type(exc).__name__}: {exc}"
        if isinstance(ref, str):    # the same failure, class and message
            assert error_text(error) == ref, rep
            failed.add(rep)
            continue
        assert error is None, rep
        assert abs(est_lower - ref.estimate_lower) <= 1e-12
        assert abs(est_upper - ref.estimate_upper) <= 1e-12
        assert se_lower == pytest.approx(ref.se_lower, rel=1e-9, abs=0)
        assert se_upper == pytest.approx(ref.se_upper, rel=1e-9, abs=0)
    assert len(failed) == failures


@pytest.mark.parametrize("config, kwargs, message", [
    (StudyConfig, {"replicates": 2.5}, "replicates must be >= 1"),
    (StudyConfig, {"threads": 1.5}, "threads must be >= 1"),
    (StudyConfig, {"replicates": 2**32}, "replicates must be >= 1 and < 4294967296"),
    (StudyConfig, {"seed": 2**64}, "seed must be >= 0 and < 18446744073709551616"),
    (StudyConfig, {"seed": -1}, "seed must be >= 0"),
    (GeneratorConfig, {"seed": 2**64}, "seed must be >= 0 and < 18446744073709551616"),
    (GeneratorConfig, {"seed": -1}, "seed must be >= 0")],
    ids=["study_fractional_replicates", "study_fractional_threads", "study_replicates_2_32",
         "study_seed_2_64", "study_negative_seed", "generator_seed_2_64",
         "generator_negative_seed"])
def test_configs_reject_bad_integers(config, kwargs, message):
    # rejected when built: a fractional count used to fail later with a bare
    # TypeError, _rng_for masks the seed to 64 bits, aliasing studies, and
    # replicate 2^32 of a cell would carry into the key's cell bits
    base = ({"design": "B", "n_values": (400,)} if config is StudyConfig
            else {"design": "B", "n": 10, "a": 0.4, "b": 0.4})
    with pytest.raises(ConfigError, match=message):
        config(**base, **kwargs)


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

"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS line on success (run with ``pytest -v -rA`` to see
them); a failed assertion is the FAIL signal. The Monte Carlo criteria use
fixed seeds, so outcomes are reproducible.
"""

import math
import time

import numpy as np
import pytest

import psem
from psem.core import Contrast
from psem.demo import implied_weight_model, synthetic_trial
from psem.simulate import GeneratorConfig, StudyConfig, run_study
from psem.weights import fit_missingness

from conftest import fit, random_cb_dataset


def _report(num, text):
    print(f"CRITERION {num}: PASS - {text}")


def _pooled_power_se(r1, r2):
    return math.sqrt(r1.power * (1 - r1.power) / r1.replicates
                     + r2.power * (1 - r2.power) / r2.replicates)


def _width_gap_se(r1, r2):
    return math.sqrt(r1.sd_width ** 2 / r1.replicates
                     + r2.sd_width ** 2 / r2.replicates)


@pytest.fixture(scope="module")
def null_cell_b():
    """Design B, n=1600, full cohort, a=b=0.4, no selection bias, 1000 reps.
    Shared by the type-I, coverage, and calibration criteria."""
    start = time.time()
    result = run_study(StudyConfig(design="B", n_values=(1600,), deltas=(0.0,),
                                   gamma_scales=(0.0,), replicates=1000,
                                   seed=20260810))
    result.elapsed = time.time() - start
    return result


@pytest.fixture(scope="module")
def null_cell_b_wide_gamma():
    return run_study(StudyConfig(design="B", n_values=(1600,), deltas=(0.0,),
                                 gamma_scales=(1.0,), replicates=1000,
                                 seed=20260811))


@pytest.fixture(scope="module")
def power_cells_b():
    # the sample-size comparison runs at Gamma=[-1,1]: with Gamma=[0,0] an
    # effect of 0.4 is ~6 SEs even at n=400, so power saturates at 1.0 for
    # every n and the required strict gaps could not exist
    by_n = run_study(StudyConfig(design="B", n_values=(400, 800, 1600),
                                 deltas=(0.4,), gamma_scales=(1.0,),
                                 replicates=500, seed=20260812))
    by_gamma = run_study(StudyConfig(design="B", n_values=(800,), deltas=(0.4,),
                                     gamma_scales=(0.0, 2.5), replicates=500,
                                     seed=20260812))
    return by_n, by_gamma


@pytest.fixture(scope="module")
def width_cells_b():
    return run_study(StudyConfig(design="B", n_values=(800,),
                                 nu_values=(0.1, 0.25, 1.0), deltas=(0.2,),
                                 gamma_scales=(0.0,), replicates=500,
                                 seed=20260813))


@pytest.fixture(scope="module")
def cells_c():
    null = run_study(StudyConfig(design="C", n_values=(4000,), deltas=(0.0,),
                                 gamma_scales=(0.0,), replicates=500,
                                 seed=20260814))
    power = run_study(StudyConfig(design="C", n_values=(4000,), deltas=(0.4,),
                                  gamma_scales=(0.0, 0.5, 1.0), replicates=500,
                                  seed=20260815))
    width = run_study(StudyConfig(design="C", n_values=(4000,), deltas=(0.2,),
                                  gamma_scales=(0.0, 0.5, 1.0), replicates=500,
                                  seed=20260816))
    return null, power, width


def test_criterion_1_type_i_error(null_cell_b):
    row = null_cell_b.rows[0]
    assert row.power <= 0.07, f"type I rate {row.power:.4f} exceeds 0.07"
    assert null_cell_b.elapsed < 300.0
    _report(1, f"type I rate {row.power:.4f} <= 0.07 at n=1600 "
               f"({null_cell_b.elapsed:.1f}s for 1000 replicates)")


def test_criterion_2_power_orderings(power_cells_b):
    by_n, by_gamma = power_cells_b
    p400, p800, p1600 = (by_n.cell(n=n).power for n in (400, 800, 1600))
    gap_16_8 = p1600 - p800
    gap_8_4 = p800 - p400
    assert gap_16_8 > 2 * _pooled_power_se(by_n.cell(n=1600), by_n.cell(n=800))
    assert gap_8_4 > 2 * _pooled_power_se(by_n.cell(n=800), by_n.cell(n=400))
    p_g0 = by_gamma.cell(gamma_scale=0.0).power
    p_g1 = by_n.cell(n=800).power
    p_g25 = by_gamma.cell(gamma_scale=2.5).power
    assert p_g0 >= p_g1 >= p_g25
    _report(2, f"power rises with n ({p400:.3f} < {p800:.3f} < {p1600:.3f}) "
               f"and falls with Gamma width ({p_g0:.3f} >= {p_g1:.3f} >= "
               f"{p_g25:.3f})")


def test_criterion_3_coverage(null_cell_b, null_cell_b_wide_gamma):
    point = null_cell_b.rows[0]
    assert 0.93 <= point.coverage <= 0.97, f"coverage {point.coverage:.4f}"
    wide = null_cell_b_wide_gamma.rows[0]
    assert wide.coverage >= 0.95 - 2 * wide.mc_se_coverage
    _report(3, f"EUI coverage {point.coverage:.4f} in [0.93, 0.97] at "
               f"Gamma=0; {wide.coverage:.4f} (conservative) at Gamma=[-1,1]")


def test_criterion_4_bias_and_se_calibration(null_cell_b):
    row = null_cell_b.rows[0]
    assert abs(row.bias_min) < 0.02
    ratio = row.ese_min / row.ase_min
    assert 0.9 <= ratio <= 1.1
    _report(4, f"bias {row.bias_min:+.4f} (<0.02) and ESE/ASE {ratio:.3f} "
               f"in [0.9, 1.1]")


def test_criterion_5_case_cohort_widths(width_cells_b):
    r10 = width_cells_b.cell(nu=0.1)
    r25 = width_cells_b.cell(nu=0.25)
    r100 = width_cells_b.cell(nu=1.0)
    assert r10.mean_width - r25.mean_width > 2 * _width_gap_se(r10, r25)
    assert r25.mean_width - r100.mean_width > 2 * _width_gap_se(r25, r100)
    _report(5, f"mean EUI width decreases in the subcohort fraction: "
               f"{r10.mean_width:.4f} > {r25.mean_width:.4f} > "
               f"{r100.mean_width:.4f}")


def test_criterion_6_scenario_c_study(cells_c):
    null, power, width = cells_c
    t1 = null.rows[0].power
    assert t1 <= 0.07, f"scenario C type I {t1:.4f}"
    p0 = power.cell(gamma_scale=0.0).power
    p05 = power.cell(gamma_scale=0.5).power
    p1 = power.cell(gamma_scale=1.0).power
    assert p0 >= p05 >= p1
    assert p0 - p1 > 2 * _pooled_power_se(power.cell(gamma_scale=0.0),
                                          power.cell(gamma_scale=1.0))
    w0 = width.cell(gamma_scale=0.0)
    w05 = width.cell(gamma_scale=0.5)
    w1 = width.cell(gamma_scale=1.0)
    assert w1.mean_width - w05.mean_width > 2 * _width_gap_se(w1, w05)
    assert w05.mean_width - w0.mean_width > 2 * _width_gap_se(w05, w0)
    _report(6, f"scenario C: type I {t1:.4f} <= 0.07; power falls with "
               f"Gamma ({p0:.3f} >= {p05:.3f} >= {p1:.3f}); width rises with "
               f"Gamma ({w0.mean_width:.4f} < {w05.mean_width:.4f} < "
               f"{w1.mean_width:.4f})")


def test_criterion_7_b_c_equivalence():
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for dataset in range(100):
        w = random_cb_dataset(rng, n=400, nu=0.6)
        for beta0 in (-1.0, 0.0, 1.0):
            eb = fit(w, psem.Scenario.B, beta0=beta0)
            ec = fit(w, psem.Scenario.C_HARM, beta0=beta0, beta1_marginal=0.0)
            assert eb.mixing_residual() <= 1e-10
            assert ec.mixing_residual() <= 1e-10
            for name in eb.names:
                worst = max(worst, abs(eb.value(name) - ec.value(name)),
                            abs(eb.se(name) - ec.se(name)))
            cb = psem.cep(eb, Contrast.ADDITIVE)
            cc = psem.cep(ec, Contrast.ADDITIVE)
            worst = max(worst, abs(cb.mu - cc.mu), abs(cb.mu_se - cc.mu_se))
            assert worst <= 1e-8
    _report(7, f"scenario C_harm(beta1=0) equals scenario B on 100 datasets "
               f"x 3 beta0 values (worst deviation {worst:.2e} <= 1e-8)")


def test_criterion_8_oracle_equivalence():
    from psem import tables
    from psem.simulate import _gen_arrays, _rng_for, oracle_estimands
    from psem.weights import WeightModel
    worst = {}
    for design, scenario in (("B", psem.Scenario.B),
                             ("C", psem.Scenario.C_PROTECT)):
        cfg = GeneratorConfig(design=design, n=100_000, a=0.25, b=0.55)
        arrs = _gen_arrays(cfg, _rng_for(20260818, 0, 0))
        cells = tables.from_arrays(arrs["z"], arrs["yt"], arrs["s_code"],
                                   arrs["y"])
        w = fit_missingness(cells, WeightModel.design_known(1.0))
        est = fit(w, scenario)
        assert est.mixing_residual() <= 1e-10
        truth = oracle_estimands(cfg)
        errs = {}
        for name in ("risk1", "risk0", "p00", "p10", "risk1_00", "risk1_10",
                     "risk0_00", "risk0_10"):
            errs[name] = abs(est.value(name) - truth[name])
        result = psem.cep(est, Contrast.ADDITIVE)
        errs["cep_00"] = abs(result.values["00"] - truth["cep_00"])
        errs["cep_10"] = abs(result.values["10"] - truth["cep_10"])
        errs["mu"] = abs(result.mu - truth["mu"])
        assert max(errs.values()) < 0.01, (design, errs)
        worst[design] = max(errs.values())
    _report(8, f"n=100k single-replicate estimates within 0.01 of the "
               f"enumeration oracle (worst: B {worst['B']:.4f}, "
               f"C {worst['C']:.4f}); mixing identity residual <= 1e-10")


def test_criterion_9_worked_algebra(worked_weighted):
    est = fit(worked_weighted, psem.Scenario.B, beta0=math.log(1.8))
    assert est.value("risk0_10") == pytest.approx(0.25, abs=1e-9)
    assert est.value("risk0_00") == pytest.approx(0.375, abs=1e-9)
    _report(9, "beta0 = ln 1.8 solves to risk0(1,0)=0.25, risk0(0,0)=0.375 "
               "within 1e-9")


def test_criterion_10_eui_solver_endpoints():
    collapsed = psem.eui(0.2, 0.05, 0.2, 0.05, 0.05)
    assert collapsed.c_alpha == pytest.approx(1.959964, abs=1e-5)
    wide = psem.eui(0.0, 0.05, 0.45, 0.05, 0.05)   # scaled gap 9 > 8
    assert wide.c_alpha == pytest.approx(1.644854, abs=1e-3)
    _report(10, f"c_alpha = {collapsed.c_alpha:.6f} collapsed and "
                f"{wide.c_alpha:.6f} at a 9-SE gap")


def test_criterion_11_application_reconstruction():
    records = synthetic_trial()
    w = fit_missingness(records, implied_weight_model())
    est = fit(w, psem.Scenario.B, beta0=0.0)
    assert est.mixing_residual() <= 1e-10
    result = psem.cep(est, Contrast.VE)
    ve1, ve0 = result.values["10"], result.values["00"]
    assert 0.70 <= ve1 <= 0.86, f"VE(1) = {ve1:.4f}"
    assert ve0 < 0, f"VE(0) = {ve0:.4f}"
    _report(11, f"count-matched reconstruction gives VE(1) = {ve1:.3f} in "
                f"[0.70, 0.86] and VE(0) = {ve0:.3f} < 0")


def test_criterion_12_diagnostics():
    report = psem.check_assumptions(synthetic_trial())
    assert 0.45 <= report.fisher_p <= 0.65, f"p = {report.fisher_p:.4f}"
    assert report.a4pp_ordering is False
    _report(12, f"Fisher two-sided p = {report.fisher_p:.3f} in [0.45, 0.65] "
                f"and the A4'' ordering is False")

import numpy as np
import pytest

from psem import tables
from psem.core import check_assumptions
from psem.errors import ConfigError, DataError, PositivityError, SeparationError
from psem.weights import (WeightModel, effective_sample, fit_missingness)

from conftest import make_records, weighted_from_blocks


def test_design_known_weights():
    w = weighted_from_blocks([
        (10, 1, 0, 0, 1),            # cases, measured
        (5, 1, 0, 1, 0), (15, 1, 0, None, 0),   # controls, 25% measured
    ], WeightModel.design_known(0.25))
    cells = w.cells
    for i in range(len(cells.count)):
        if cells.yt[i] == 0:
            expected = 1.0 if cells.y[i] == 1 else 4.0
            assert cells.w[i] == pytest.approx(expected)


def test_design_known_validates_nu():
    with pytest.raises(DataError):
        WeightModel.design_known(0.0)
    with pytest.raises(DataError):
        WeightModel.design_known(1.2)


def test_intercept_only_logistic_is_proportion():
    blocks = [(30, 1, 0, 0, 0), (90, 1, 0, None, 0)]
    w = weighted_from_blocks(blocks, WeightModel.estimated_logistic(("intercept",)))
    surv = w.cells.yt == 0
    assert np.allclose(w.cells.pi[surv], 0.25)


def test_saturated_logistic_reproduces_stratum_rates():
    # controls measured at 0.2, cases at 0.99
    blocks = [(20, 0, 0, 0, 0), (80, 0, 0, None, 0),
              (99, 0, 0, 0, 1), (1, 0, 0, None, 1)]
    w = weighted_from_blocks(blocks, WeightModel.estimated_logistic(("intercept", "y")))
    cells = w.cells
    for i in range(len(cells.count)):
        if cells.yt[i] == 0:
            assert cells.pi[i] == pytest.approx(0.99 if cells.y[i] else 0.2, abs=1e-9)


def test_certainty_sampled_cases_get_unit_probability():
    blocks = [(30, 0, 0, 0, 1),                  # every case measured
              (20, 0, 0, 0, 0), (80, 0, 0, None, 0)]
    w = weighted_from_blocks(blocks, WeightModel.estimated_logistic(("intercept", "y")))
    assert w.certainty_cases
    cells = w.cells
    for i in range(len(cells.count)):
        if cells.yt[i] == 0:
            assert cells.pi[i] == pytest.approx(1.0 if cells.y[i] else 0.2, abs=1e-12)


def test_no_measured_marker_beside_certainty_cases_is_an_error():
    blocks = [(30, 0, 0, 0, 1), (80, 0, 0, None, 0)]    # cases measured, no control
    with pytest.raises(DataError, match="no measured markers among the modeled survivors"):
        weighted_from_blocks(blocks, WeightModel.estimated_logistic(("intercept", "y")))


def test_default_model_selection():
    full = weighted_from_blocks([(10, 1, 0, 0, 0)])
    assert full.model.kind == "design" and full.model.nu == 1.0
    partial = weighted_from_blocks([(10, 1, 0, 0, 1), (5, 1, 0, 0, 0),
                                    (15, 1, 0, None, 0)])
    assert partial.model.kind == "logistic"


def test_batched_counts_take_design_known_weights_only():
    count = np.zeros((2, 32))
    count[:, tables.cell_code(1, 0, tables.S_MISS, 0)] = 5
    count[:, tables.cell_code(1, 0, tables.S_NEG, 0)] = 5
    for model in (None, WeightModel.estimated_logistic()):
        with pytest.raises(ConfigError, match="design-known weights only"):
            fit_missingness(tables.from_counts(count), model)
    assert fit_missingness(tables.from_counts(count), WeightModel.design_known(0.5)).model.nu == 0.5


def test_separation_when_everything_measured():
    with pytest.raises(SeparationError, match="design-known"):
        weighted_from_blocks([(10, 1, 0, 0, 0)],
                             WeightModel.estimated_logistic(("intercept",)))


def test_positivity_floor():
    with pytest.raises(PositivityError, match="positivity"):
        weighted_from_blocks([(1, 1, 0, 0, 0), (999, 1, 0, None, 0)],
                             WeightModel.design_known(0.001))


def test_design_known_rejects_unmeasured_certainty_survivors():
    # cases have pi = 1 under the case-cohort design, so an unmeasured case
    # would be dropped without anyone carrying its weight
    blocks = [(2, 1, 0, 0, 1), (8, 1, 0, None, 1), (20, 1, 0, 0, 0),
              (10, 0, 0, 0, 0), (5, 0, 0, None, 0)]
    with pytest.raises(DataError, match="pi = 1") as exc:
        weighted_from_blocks(blocks, WeightModel.design_known(1.0))
    assert "(z=1, y=1)" in str(exc.value) and "(z=0, y=0)" in str(exc.value)
    with pytest.raises(DataError, match="pi = 1") as exc:
        weighted_from_blocks(blocks, WeightModel.design_known(0.5))
    assert "(z=1, y=1)" in str(exc.value) and "(z=0, y=0)" not in str(exc.value)


def test_effective_sample_equal_weights():
    w = weighted_from_blocks([(100, 1, 0, 0, 0)])
    assert effective_sample(w) == pytest.approx(100.0)


def test_effective_sample_formula():
    # weights {1,1,4,4} over four measured survivors
    w = weighted_from_blocks([
        (2, 1, 0, 0, 1),                       # cases: weight 1
        (2, 1, 0, 1, 0), (6, 1, 0, None, 0),   # controls at nu=0.25: weight 4
    ], WeightModel.design_known(0.25))
    assert effective_sample(w) == pytest.approx(100 / 34)


def test_effective_sample_empty_errors():
    w = weighted_from_blocks([(5, 1, 1, "*", 1)])
    with pytest.raises(DataError):
        effective_sample(w)


def test_batched_summaries_read_each_replicate():
    # from_counts tables of two replicates and of one row: the weight summaries
    # reduce over the cell axis, each replicate as if alone; summarize and
    # check_assumptions read one dataset, a row of one too
    model = WeightModel.design_known(0.25)
    one = weighted_from_blocks([(2, 1, 0, 0, 1), (2, 1, 0, 1, 0), (6, 1, 0, None, 0),
                                (3, 0, 1, "*", 1), (4, 0, 0, 0, 0)], model)
    c = one.cells
    code = tables.cell_code(c.z, c.yt, c.s, c.y)
    counts = np.stack([c.count, 3 * c.count + code % 2])
    batch = fit_missingness(tables.from_counts(counts, code), model)
    alone = [fit_missingness(tables.from_counts(row, code), model) for row in counts]
    w, m = one._measured_weights()
    sw, sw2 = float(np.sum(m * w)), float(np.sum(m * w * w))    # the one-dataset formula
    assert type(effective_sample(one)) is float and effective_sample(one) == sw * sw / sw2
    sizes = effective_sample(batch)
    assert sizes.shape == (2,)
    for b, a in enumerate(alone):
        assert sizes[b] == effective_sample(a)
    row = fit_missingness(tables.from_counts(c.count[None], code), model)
    assert effective_sample(row).tolist() == [effective_sample(one)]
    assert tables.summarize(row.cells) == tables.summarize(one.cells)
    assert check_assumptions(row) == check_assumptions(one)
    for call, data in ((tables.summarize, batch.cells), (check_assumptions, batch)):
        with pytest.raises(ValueError, match="reads one dataset, not a table of 2 replicates"):
            call(data)


def test_horvitz_thompson_unbiased_marker_rate():
    # two-phase masking leaves the weighted positive rate unbiased
    rng = np.random.default_rng(17)
    n, nu, reps = 2000, 0.3, 300
    full_rates, ipw_rates = [], []
    for _ in range(reps):
        pos = rng.random(n) < 0.35
        y = rng.random(n) < np.where(pos, 0.1, 0.3)
        measured = (rng.random(n) < nu) | y
        s_code = np.where(measured, np.where(pos, tables.S_POS, tables.S_NEG),
                          tables.S_MISS)
        cells = tables.from_arrays(np.ones(n, dtype=int), np.zeros(n, dtype=int),
                                   s_code, y.astype(int))
        w = fit_missingness(cells, WeightModel.design_known(nu))
        m = np.where((w.cells.s == tables.S_NEG) | (w.cells.s == tables.S_POS),
                     w.cells.w, 0.0)
        rate = float(np.sum(w.cells.count * m * (w.cells.s == tables.S_POS))
                     / np.sum(w.cells.count * m))
        ipw_rates.append(rate)
        full_rates.append(float(np.mean(pos)))
    bias = np.mean(ipw_rates) - np.mean(full_rates)
    mc_se = np.std(np.array(ipw_rates) - np.array(full_rates), ddof=1) / np.sqrt(reps)
    assert abs(bias) < 2 * mc_se + 1e-4


def test_bad_terms_rejected():
    with pytest.raises(DataError):
        WeightModel.estimated_logistic(("intercept", "w1"))
    with pytest.raises(DataError):
        WeightModel.estimated_logistic(("y",))
    with pytest.raises(DataError):
        WeightModel(kind="design", nu=0.5, eps=0.7)


def test_weight_model_checks_its_own_fields():
    # the direct constructor checks what the factories check: a design
    # model without nu would give NaN weights, an unknown kind a logistic fit
    with pytest.raises(DataError, match=r"nu must be in \(0,1\], got None"):
        WeightModel("design")
    with pytest.raises(DataError, match="kind must be 'design' or 'logistic', got 'foo'"):
        WeightModel("foo")

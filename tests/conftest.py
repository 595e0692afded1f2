import numpy as np
import pytest

from psem import tables
from psem.core import Scenario, SensitivityPoint, fit_scenario
from psem.records import Marker, ObservedRecord
from psem.weights import WeightModel, fit_missingness

_MARKERS = {0: Marker.NEGATIVE, 1: Marker.POSITIVE,
            "*": Marker.UNDEFINED, None: Marker.MISSING}


def make_records(blocks):
    """Expand (count, z, y_tau, marker, y[, measured]) blocks into records.

    marker: 0/1, '*' (undefined) or None (missing).
    """
    out = []
    i = 0
    for block in blocks:
        count, z, yt, marker, y = block[:5]
        measured = block[5] if len(block) > 5 else (0 if marker is None else 1)
        for _ in range(count):
            i += 1
            rec = ObservedRecord(id=f"r{i}", z=z, y_tau=yt,
                                 marker=_MARKERS[marker], y=y, measured=measured)
            rec.validate()
            out.append(rec)
    return out


def weighted_from_blocks(blocks, model=None):
    return fit_missingness(make_records(blocks), model)


def error_text(error):
    """An exception as "Class: text", the form ``psem``'s stderr line writes;
    None stays None."""
    return None if error is None else f"{type(error).__name__}: {error}"


def failure_map(failures, flat=False):
    """The failed entries of a failure array as {index: exception}: by (b, g)
    for a (B, G) array (``SweepResult.failures``), by flat index for a 1-D one
    (``fit_ceps``' failures) or with ``flat`` (``Checks.failed``)."""
    at = np.flatnonzero(np.not_equal(failures, None)).tolist()
    keys = at if flat or failures.ndim == 1 else [divmod(i, failures.shape[1]) for i in at]
    return dict(zip(keys, failures.flat[at]))


def fit(weighted, scenario, with_cov=True, **betas):
    """fit_scenario at the sensitivity point ``betas`` of ``scenario``."""
    return fit_scenario(weighted, SensitivityPoint(scenario, betas), with_cov)


@pytest.fixture
def worked_blocks():
    """The two-stratum worked example: 100 active survivors (40 negative
    with 20 events, 60 positive with 6 events) and 100 control survivors
    (30 events, all markers measured negative)."""
    return [
        (20, 1, 0, 0, 1), (20, 1, 0, 0, 0),
        (6, 1, 0, 1, 1), (54, 1, 0, 1, 0),
        (30, 0, 0, 0, 1), (70, 0, 0, 0, 0),
    ]


@pytest.fixture
def worked_weighted(worked_blocks):
    return weighted_from_blocks(worked_blocks)


def random_cb_dataset(rng, n=600, nu=1.0, a=0.45, b=0.3, early=0.15):
    """Random dataset satisfying equal early risk and a constant control
    marker, optionally case-cohort masked; returns WeightedRecords."""
    yt = (rng.random(n) < early).astype(int)
    z = (rng.random(n) < 0.5).astype(int)
    pos = ((rng.random(n) < 0.6) & (yt == 0) & (z == 1)).astype(int)
    py = np.where(yt == 1, 1.0, np.where(z == 1, np.where(pos, b, a), 0.4))
    y = (rng.random(n) < py).astype(int)
    sub = rng.random(n) < nu
    measured = (yt == 1) | sub | (y == 1)
    s_code = np.where(yt == 1, tables.S_UNDEF,
                      np.where(measured, np.where(pos, tables.S_POS, tables.S_NEG),
                               tables.S_MISS))
    cells = tables.from_arrays(z, yt, s_code, y)
    return fit_missingness(cells, WeightModel.design_known(nu))


# per scenario: (active early rate, control early rate, control marker rate)
SCENARIO_DATA = {
    Scenario.A: (0.15, 0.15, 0.3),
    Scenario.B: (0.15, 0.15, 0.0),
    Scenario.C_PROTECT: (0.1, 0.25, 0.0),
    Scenario.C_HARM: (0.25, 0.1, 0.0),
}


def scenario_dataset(scenario, seed, n, nu):
    """Random case-cohort dataset shaped so that ``scenario`` fits."""
    early1, early0, ctrl_pos = SCENARIO_DATA[scenario]
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(int)
    yt = (rng.random(n) < np.where(z == 1, early1, early0)).astype(int)
    pos = (rng.random(n) < np.where(z == 1, 0.6, ctrl_pos)) & (yt == 0)
    risk = np.where(z == 1, np.where(pos, 0.25, 0.45), np.where(pos, 0.3, 0.4))
    y = np.where(yt == 1, 1, (rng.random(n) < risk).astype(int))
    measured = (yt == 1) | (y == 1) | (rng.random(n) < nu)
    s_code = np.where(yt == 1, tables.S_UNDEF,
                      np.where(measured, np.where(pos, tables.S_POS, tables.S_NEG),
                               tables.S_MISS))
    return fit_missingness(tables.from_arrays(z, yt, s_code, y),
                           WeightModel.design_known(nu))

"""The public names of ``psem``. Adding or removing one is an API change:
edit this list in the same change, so that it shows in review."""

import psem

PUBLIC = [
    "CepResult", "ConfigError", "Contrast", "DataError", "DatasetSummary",
    "Direction", "EstimationError", "GeneratorConfig",
    "IncompatibleSensitivityError", "IntervalResult", "Marker",
    "ObservedRecord", "OrderingError", "PositivityError", "PotentialRecord",
    "PsemError", "RiskEstimates", "Scenario", "SensitivityConfig",
    "SensitivityPoint", "SeparationError", "StudyConfig", "StudyResult",
    "WeightModel", "WeightedRecords", "cep",
    "check_assumptions", "core", "delta_method", "effective_sample", "errors",
    "eui", "fit_missingness", "fit_scenario",
    "generate", "interval_for", "intervals", "load_csv", "mathutil", "mean_shift_cep",
    "oracle_estimands", "records", "run_study", "selection_sace",
    "sensitivity", "simulate", "summarize", "sweep", "sweeps", "tables",
    "test_effect_modification", "weights", "write_csv",
]


def test_public_api_is_pinned():
    assert sorted(psem.__all__) == PUBLIC

"""Principal-stratification effect modification (PSEM) for a binary
post-randomization biomarker: scenario-based estimators adapted from the
survivor-average-causal-effect literature, two-phase sampling weights,
sensitivity analysis with ignorance/uncertainty intervals, and a
reproducible Monte Carlo study harness.
"""

__version__ = "0.1.0"

from .core import (CepResult, Contrast, RiskEstimates, Scenario,
                   SensitivityPoint, cep, check_assumptions, delta_method,
                   estimate_identified, fit_scenario, mean_shift_cep,
                   selection_sace, Direction)
from .errors import (ConfigError, DataError, EstimationError,
                     IncompatibleSensitivityError, OrderingError, PsemError,
                     PositivityError, SeparationError)
from .records import Marker, ObservedRecord, load_csv, write_csv
from .sensitivity import (IntervalResult, SensitivityConfig, eui,
                          interval_for, sweep, sweeps, test_effect_modification)
from .simulate import (GeneratorConfig, PotentialRecord, StudyConfig,
                       StudyResult, generate,
                       oracle_estimands, run_study)
from .tables import DatasetSummary, summarize
from .weights import WeightModel, WeightedRecords, effective_sample, fit_missingness

__all__ = [name for name in dir() if not name.startswith("_")]

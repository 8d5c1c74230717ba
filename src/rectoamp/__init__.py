"""Rank-one estimation in rectangular spiked matrix models with rotationally
invariant noise: spectral measures, optimal orthogonal AMP, state evolution,
and baselines.
"""

from .baselines import gaussian_amp_run, pca_estimate
from .harness import (AggregateReport, ExperimentConfig, emit_csv,
                      load_config, parse_config, run_experiment, write_report)
from .model import (PriorModel, ProblemInstance, SvdCache, make_instance,
                    thin_svd)
from .oamp import DenoiserSet, IterationTrace, optimal_oamp_run
from .scalar_channel import ScalarChannel
from .spectra import (InducedMeasures, MarchenkoPastur, Measure, ShiftedBeta,
                      ShrinkageSet, SpectrumModel, Tabulated,
                      detection_threshold)
from .state_evolution import (SeTrace, gaussian_fixed_point, optimal_se_run,
                              se_step_general)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "DenoiserSet", "ExperimentConfig",
    "InducedMeasures", "IterationTrace", "MarchenkoPastur", "Measure",
    "PriorModel", "ProblemInstance", "ScalarChannel", "SeTrace", "ShiftedBeta",
    "ShrinkageSet", "SpectrumModel", "SvdCache", "Tabulated",
    "detection_threshold", "emit_csv",
    "gaussian_amp_run", "gaussian_fixed_point",
    "load_config", "make_instance", "optimal_oamp_run", "optimal_se_run",
    "parse_config", "pca_estimate",
    "run_experiment", "se_step_general", "thin_svd", "write_report",
]

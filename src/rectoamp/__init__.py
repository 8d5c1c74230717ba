"""Rank-one estimation in rectangular spiked matrix models with rotationally
invariant noise: spectral measures, optimal orthogonal AMP, state evolution,
and baselines.
"""

from .baselines import gaussian_amp_run, pca_estimate
from .harness import (AggregateReport, ExperimentConfig, emit_csv,
                      load_config, parse_config, run_experiment, write_report)
from .model import ProblemInstance, SvdCache, make_instance, thin_svd
from .oamp import DenoiserSet, IterationTrace, optimal_oamp_run
from .scalar_channel import ScalarChannel
from .spectra import (InducedMeasures, MarchenkoPastur, Measure, ShiftedBeta,
                      ShrinkageSet, SpectrumModel, detection_threshold)
from .state_evolution import SeTrace, gaussian_fixed_point, optimal_se_run

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "DenoiserSet", "ExperimentConfig",
    "InducedMeasures", "IterationTrace", "MarchenkoPastur", "Measure",
    "ProblemInstance", "ScalarChannel", "SeTrace", "ShiftedBeta",
    "ShrinkageSet", "SpectrumModel", "SvdCache",
    "detection_threshold", "emit_csv",
    "gaussian_amp_run", "gaussian_fixed_point",
    "load_config", "make_instance", "optimal_oamp_run", "optimal_se_run",
    "parse_config", "pca_estimate",
    "run_experiment", "thin_svd", "write_report",
]

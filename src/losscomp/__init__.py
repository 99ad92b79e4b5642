"""Desk-scale simulation of detector-loss compensation in quantum-state
measurement: when the efficiency drops to 1/2 or below, the statistical
error of the compensated homodyne estimate diverges with the truncation
index, while direct photodetection of the diagonal keeps converging.
"""

from .compensation import (CompensationResult, convergence_scan,
                           error_vs_eta, measure_ray)
from .direct_detection import (CountHistogram, estimate_probabilities,
                               sample_counts)
from .exceptions import (ExtrapolationError, NoConvergenceError,
                         NumericalSanityError, UndefinedRatioError)
from .experiments import (ExperimentConfig, config_hash, default_config,
                          parse_config, run_direct_contrast, run_fig1,
                          run_fig2, serialize_config)
from .fock_core import (DensityMatrix, GaussianQuadratureLaw, StateSpec,
                        make_coherent, make_fock, make_thermal)
from .homodyne import (MeasuredRay, QuadratureData, error_saturation_profile,
                       estimate_element, sample_quadratures)
from .loss_channel import (InversionResult, analytic_threshold, apply_loss,
                           decay_ratio, inverse_coefficient, invert_loss)
from .oscillator import evaluate_pattern

__version__ = "0.1.0"

__all__ = [
    "CompensationResult", "convergence_scan", "error_vs_eta", "measure_ray",
    "CountHistogram", "estimate_probabilities", "sample_counts",
    "ExtrapolationError", "NoConvergenceError", "NumericalSanityError",
    "UndefinedRatioError",
    "ExperimentConfig", "config_hash", "default_config", "parse_config",
    "run_direct_contrast", "run_fig1", "run_fig2", "serialize_config",
    "DensityMatrix", "GaussianQuadratureLaw", "StateSpec", "make_coherent",
    "make_fock", "make_thermal",
    "MeasuredRay", "QuadratureData", "error_saturation_profile",
    "estimate_element", "sample_quadratures",
    "InversionResult", "analytic_threshold", "apply_loss", "decay_ratio",
    "inverse_coefficient", "invert_loss", "evaluate_pattern",
    "__version__",
]

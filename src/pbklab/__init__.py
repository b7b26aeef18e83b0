"""Numerical laboratory for kernels of spectral projections on the projective line."""

from .circle_spectral import (IntegerSpectrumOperator, NodeCountError,
                              SpectralConfig, snapped_ceil,
                              spectral_projector_eig,
                              spectral_projector_quadrature)
from .cp1_geometry import (ChartError, ProjectivePoint, gradient_flow, height,
                           level_point, projective_equal, rotate, xh_norm)
from .exact_kernels import (LogComplex, bergman_coeff, bergman_coeff_closed,
                            equivariant_coeff, logc_rel_difference,
                            partial_coeff, partial_via_hilbert,
                            propagator_coeff, section_coeff, toeplitz_diag)
from .asymptotics import (AsymptoticPrediction, FitResult, ScalingProbe,
                          error_metric, loglog_fit, predict_equivariant,
                          predict_partial, stirling_estimate)
from .rotated_observables import (RotationAxis, caps_disjoint,
                                  projection_product_norm,
                                  rotated_height_operator, su2_rep_matrix)
from .harness import ExperimentConfig, RunReport, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction", "ChartError", "ExperimentConfig", "FitResult",
    "IntegerSpectrumOperator", "LogComplex", "NodeCountError",
    "ProjectivePoint", "RotationAxis", "RunReport", "ScalingProbe",
    "SpectralConfig", "bergman_coeff", "bergman_coeff_closed",
    "caps_disjoint", "equivariant_coeff", "error_metric", "gradient_flow",
    "height", "level_point", "logc_rel_difference", "loglog_fit",
    "partial_coeff", "partial_via_hilbert", "predict_equivariant",
    "predict_partial", "projection_product_norm", "projective_equal",
    "propagator_coeff", "rotate", "rotated_height_operator",
    "run_experiment", "section_coeff", "snapped_ceil",
    "spectral_projector_eig", "spectral_projector_quadrature",
    "stirling_estimate", "su2_rep_matrix", "toeplitz_diag", "xh_norm",
]

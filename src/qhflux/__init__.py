"""Determinantal quasi-hole numerics: stable kernels, exact partition
functions, emergent gauge/scalar potentials, and independent oracles."""

from .kernel import (DerivOrder, KernelSpec, LogComplex, kernel_derivative,
                     kernel_eval, kernel_infty, kernel_tail_bound,
                     reproducing_residual)
from .partition import (HoleConfig, PartitionValue, SingularConfigurationError,
                        SingularMatrixError, log_partition, theta,
                        theta_polarized, upsilon, upsilon_derivative,
                        upsilon_prediction)
from .potentials import (DegenerateConfigurationError, EmergentField,
                         asymptotic_prediction, correction_a, correction_v,
                         emergent_field_derivative, emergent_field_integral,
                         emergent_fields, refined_fields)
from .quadrature import (IntegrationError, QuadratureGrid, cartesian_grid,
                         finite_diff_gradient, integrate2d, polar_grid)

__version__ = "0.1.0"

__all__ = [
    "LogComplex",
    "SingularMatrixError",
    "QuadratureGrid", "cartesian_grid", "polar_grid", "integrate2d",
    "finite_diff_gradient", "IntegrationError",
    "KernelSpec", "DerivOrder", "kernel_eval", "kernel_infty",
    "kernel_derivative", "kernel_tail_bound", "reproducing_residual",
    "HoleConfig", "PartitionValue", "SingularConfigurationError",
    "upsilon", "upsilon_derivative", "log_partition", "theta",
    "theta_polarized", "upsilon_prediction",
    "EmergentField", "DegenerateConfigurationError",
    "emergent_field_derivative", "emergent_field_integral", "emergent_fields",
    "correction_a", "correction_v", "refined_fields", "asymptotic_prediction",
    "__version__",
]

"""Determinantal quasi-hole numerics: stable kernels, exact partition
functions, emergent gauge/scalar potentials, and independent oracles."""

from .kernel import (DerivOrder, KernelSpec, LogComplex, kernel_eval,
                     kernel_infty, kernel_tail_bound)
from .partition import (DegenerateConfigurationError, HoleConfig, PartitionValue,
                        SingularConfigurationError, log_partition, theta,
                        theta_polarized, upsilon, upsilon_prediction)
from .potentials import (EmergentField, asymptotic_prediction, correction_a, correction_v,
                         emergent_field_derivative, emergent_field_integral,
                         emergent_fields)
from .quadrature import QuadratureGrid, cartesian_grid

__version__ = "0.1.0"

__all__ = [
    "LogComplex",
    "QuadratureGrid", "cartesian_grid",
    "KernelSpec", "DerivOrder", "kernel_eval", "kernel_infty",
    "kernel_tail_bound",
    "HoleConfig", "PartitionValue", "SingularConfigurationError",
    "upsilon", "log_partition", "theta",
    "theta_polarized", "upsilon_prediction",
    "EmergentField", "DegenerateConfigurationError",
    "emergent_field_derivative", "emergent_field_integral", "emergent_fields",
    "correction_a", "correction_v", "asymptotic_prediction",
    "__version__",
]

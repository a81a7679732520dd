"""Measurement-noise susceptibility of Fisher information.

Computes how sensitive the (classical) Fisher information of a quantum
measurement is to infinitesimal POVM noise, for single- and
multi-parameter statistical models, together with certified lower/upper
bounds and optimality diagnostics.
"""

from .linalg import HermiticityError, eig_hermitian, hermitize, trace_norm
from .model import (DomainError, Povm, PovmValidation, StatisticalModel,
                    mix_povm, tensor_model, tensor_povm, validate_povm)
from .fisher import (FisherBundle, QfiBundle, SingularFisherError,
                     SingularScoreError, fisher_bundle, qfi_matrix, r_metric,
                     r_nuisance, sld, weak_commutativity)
from .susceptibility import (ExactWorstCase, g_matrix, sigma_exact,
                             sigma_lower, sigma_single, sigma_upper,
                             x_finite_mix, x_scalar, xi_matrix)
from .models import (PointSourceConfig, bell_povm, hg_overlap,
                     hg_overlap_closed_form, optimal_povm_point_sources,
                     point_source_model, qubit_phase_dephasing,
                     separable_povm, x_opt)

__version__ = "0.1.0"

__all__ = [
    "HermiticityError", "eig_hermitian", "hermitize", "trace_norm",
    "DomainError", "Povm", "PovmValidation", "StatisticalModel",
    "mix_povm", "tensor_model", "tensor_povm", "validate_povm",
    "FisherBundle", "QfiBundle", "SingularFisherError", "SingularScoreError",
    "fisher_bundle", "qfi_matrix", "r_metric", "r_nuisance", "sld",
    "weak_commutativity",
    "ExactWorstCase", "g_matrix", "sigma_exact", "sigma_lower", "sigma_single",
    "sigma_upper", "x_finite_mix", "x_scalar", "xi_matrix",
    "PointSourceConfig", "bell_povm", "hg_overlap",
    "hg_overlap_closed_form", "optimal_povm_point_sources",
    "point_source_model", "qubit_phase_dephasing", "separable_povm", "x_opt",
]

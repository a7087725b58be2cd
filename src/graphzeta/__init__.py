"""Spectra, zeta functions and Casimir forces of quantum graphs.

Schroedinger operators -d^2/dx^2 + V(x) on finite metric graphs with
self-adjoint matching conditions at the vertices, magnetic phases on the
bonds, and units hbar = 2m = 1 throughout.
"""

from .casimir import (EnergyResult, ForceResult, casimir_force,
                      mu_sensitivity, vacuum_energy)
from .errors import (GraphFormatError, GraphZetaError, NumericalError,
                     UnsupportedError, ValidationError)
from .graph import (Bond, MatchingConditions, MetricGraph, VertexSpec,
                    build_vertex_conditions, load_graph, parse_graph,
                    replace_bond_length, require_valid,
                    serialize_graph, validate_matching)
from .oracle import (SpectrumWindow, eigenvalue_count,
                     energy_finite_difference, scan_spectrum, zeta_direct)
from .potentials import BumpPotential, ConstantPotential, potential_from_dict
from .secular import AsymptoticData, F_imag, asymptotic_F_coefficients
from .wkb import d_constant, u_log_expansion, wkb_coefficients
from .zeta import (MinusHalfData, ZetaEvaluation, minus_half_data,
                   zeta_dir_bond, zeta_im, zeta_total)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticData", "Bond", "BumpPotential", "ConstantPotential",
    "EnergyResult", "F_imag", "ForceResult", "GraphFormatError",
    "GraphZetaError", "MatchingConditions", "MetricGraph", "MinusHalfData",
    "NumericalError", "SpectrumWindow", "UnsupportedError",
    "ValidationError", "VertexSpec", "ZetaEvaluation",
    "asymptotic_F_coefficients", "build_vertex_conditions", "casimir_force",
    "d_constant", "eigenvalue_count", "energy_finite_difference",
    "load_graph",
    "minus_half_data", "mu_sensitivity", "parse_graph",
    "potential_from_dict", "replace_bond_length", "require_valid",
    "scan_spectrum", "serialize_graph", "u_log_expansion",
    "vacuum_energy", "validate_matching", "wkb_coefficients",
    "zeta_dir_bond", "zeta_direct", "zeta_im", "zeta_total",
]

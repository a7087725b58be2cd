"""Vacuum energy and Casimir forces, units hbar = 2m = 1.

The vacuum energy is zeta(-1/2)/2.  When zeta has a pole at -1/2 the
energy keeps a log(mu^2) scale dependence weighted by half the residue;
the force on a bond is still well defined whenever moving that bond's
far end leaves the residue alone, which is why a compactly supported
potential is required on the bond being varied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
from .secular import (asymptotic_F_coefficients, bond_solutions,
                      checked_asymptotics, dlogF_dL_imag)
from .zeta import (_require_local, integral, minus_half_data,
                   residues_at_minus_half)

TOL = 1e-10


@dataclass(frozen=True)
class EnergyResult:
    fp_half: float
    res_half: float
    mu: float
    finite_energy_at_mu: float
    ambiguous: bool
    error_estimate: float       # quadrature error of fp_half


@dataclass(frozen=True)
class ForceResult:
    bond: str
    force: float
    dirichlet_part: float
    interaction_part: float
    error_estimate: float


def vacuum_energy(graph, mc, mu: float = 1.0) -> EnergyResult:
    """Vacuum energy zeta(-1/2)/2 at the renormalisation scale mu.

    fp_half and res_half are half the finite part and half the residue of
    zeta at s = -1/2, taken from minus_half_data; the energy at mu is
    fp_half + res_half log(mu^2), taken as 2 res_half log(mu), since
    mu^2 overflows or underflows for some finite mu.  ambiguous flags a
    nonzero residue, where that energy depends on the choice of mu.
    error_estimate is the quadrature error of fp_half, half that of the
    finite part.
    """
    if not 0.0 < mu < math.inf:
        raise UnsupportedError("mu must be finite and positive")
    data = minus_half_data(graph, mc)
    fp_half = data.fp_total / 2.0
    res_half = data.res_total / 2.0
    return EnergyResult(
        fp_half=fp_half,
        res_half=res_half,
        mu=mu,
        finite_energy_at_mu=fp_half + 2.0 * res_half * math.log(mu),
        ambiguous=bool(abs(res_half) > 1e-10),
        error_estimate=data.quadrature_error / 2.0)


def casimir_force(graph, mc, bond_id: str) -> ForceResult:
    """Force -dE/dL on the far end of one bond.

    Negative values pull the end inward.  Split into the detached-bond
    Dirichlet part, whose length derivative is the logarithmic derivative
    u'(L)/u(L) (the L-end field of the bond solution), and the
    interaction part, the exact length derivative of log F from
    dlogF_dL_imag; both are t-integrals along the imaginary axis, taken
    as the two columns of one integral, and the error estimate is their
    quadrature error.  The set-up is the energy's (checked_asymptotics):
    a model that fails its large-t check, or an F that vanishes at the
    bottom of the ray, raises NumericalError; the energy and the force
    of one (graph, mc) share it.
    """
    _require_local(mc, "casimir_force")
    floor = graph.spectral_floor()
    if floor > 0.0:
        raise NumericalError(
            "Casimir integrals need the gamma=0 ray, unreachable below the "
            f"spectral floor {floor:.6g} of a negative potential")
    bond = graph.bond_by_id(bond_id)
    if not bond.potential.compact(bond.length):
        raise UnsupportedError(
            f"force on bond '{bond_id}' needs a compactly supported "
            "potential; a potential reaching the moving end does work of "
            "its own and the vacuum force alone is not defined")
    checked_asymptotics(graph, mc)

    b = graph.bonds.index(bond)

    def g(t):
        sols = bond_solutions(graph, t, derivative=False)
        # d/dL [log u(L) - t L] = u'(L)/u(L) - t = -(f_prime_at_L + t)
        dirichlet = -(sols[b].f_prime_at_L + t)
        return np.stack((dirichlet,
                         dlogF_dL_imag(graph, mc, bond_id, t, sols).real),
                        axis=-1)

    (i_dir, i_int), (e_dir, e_int), _ = integral(g, 0.5, TOL)
    dirichlet_part = float(-i_dir / (2.0 * math.pi))
    interaction_part = float(-i_int / (2.0 * math.pi))
    return ForceResult(bond=bond_id, force=dirichlet_part + interaction_part,
                       dirichlet_part=dirichlet_part,
                       interaction_part=interaction_part,
                       error_estimate=float(e_dir + e_int) / (2.0 * math.pi))


def mu_sensitivity(graph, mc, bond_id: str, h: float = 1e-4) -> float:
    """d(res_half)/dL for one bond, by central differences with the step
    h L, h relative.

    Measures how much the scale-ambiguous part of the energy moves when
    the bond end moves; a compactly supported potential must give zero,
    so a nonzero value flags a force computation that cannot be trusted.
    """
    _require_local(mc, "mu_sensitivity")
    if not 0.0 < h < 1.0:
        raise UnsupportedError(
            "mu_sensitivity needs a finite relative step h with 0 < h < 1")
    bond = graph.bond_by_id(bond_id)
    L = bond.length
    step = h * L
    if bond.potential.kind == "bump" and not bond.potential.compact(L - step):
        raise UnsupportedError(
            f"mu_sensitivity on bond '{bond_id}' needs the bump inside the "
            f"bond at lengths {L - step:g} and {L + step:g}")

    def res_half(g):
        res_im, res_dir = residues_at_minus_half(
            g, asymptotic_F_coefficients(g, mc, check=False))
        return (res_im + sum(res_dir.values())) / 2.0

    plus = res_half(replace_bond_length(graph, bond_id, L + step))
    minus = res_half(replace_bond_length(graph, bond_id, L - step))
    return (plus - minus) / (2.0 * step)

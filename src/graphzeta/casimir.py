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

from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
from .interval import solve_imag_axis
from .secular import asymptotic_F_coefficients, dF_dL_imag
from .zeta import (_probe_secular_zero, _require_local, integral,
                   minus_half_data, residues_at_minus_half)

TOL = 1e-10


@dataclass(frozen=True)
class EnergyResult:
    fp_half: float
    res_half: float
    mu: float
    finite_energy_at_mu: float
    ambiguous: bool


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
    fp_half + res_half log(mu^2), and ambiguous flags a nonzero residue,
    where that energy depends on the choice of mu.
    """
    if mu <= 0.0:
        raise UnsupportedError("mu must be positive")
    data = minus_half_data(graph, mc)
    fp_half = data.fp_total / 2.0
    res_half = data.res_total / 2.0
    return EnergyResult(
        fp_half=fp_half,
        res_half=res_half,
        mu=mu,
        finite_energy_at_mu=fp_half + res_half * math.log(mu * mu),
        ambiguous=bool(abs(res_half) > 1e-10))


def casimir_force(graph, mc, bond_id: str) -> ForceResult:
    """Force -dE/dL on the far end of one bond.

    Negative values pull the end inward.  Split into the detached-bond
    Dirichlet part, whose length derivative is the logarithmic derivative
    u'(L)/u(L) (obtained from the reversed-orientation solve), and the
    interaction part, the exact length derivative of log F from
    dF_dL_imag; both are t-integrals along the imaginary axis, and the
    error estimate is their quadrature error.
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
    asym = asymptotic_F_coefficients(graph, mc, check=False)
    _probe_secular_zero(graph, mc, asym, 0.0)

    def dirichlet_integrand(t):
        # d/dL [log u(L) - t L] = u'(L)/u(L) - t; the reversed decaying
        # solution gives u'(L)/u(L) = -f'_rev(0).
        f_rev = solve_imag_axis(bond, t, reverse=True).f_prime_at_0
        return -(f_rev + t)

    i_dir, e_dir = integral(dirichlet_integrand, 0.5, TOL)
    i_int, e_int = integral(lambda t: dF_dL_imag(graph, mc, bond_id, t),
                            0.5, TOL)
    dirichlet_part = -i_dir / (2.0 * math.pi)
    interaction_part = -i_int / (2.0 * math.pi)
    return ForceResult(bond=bond_id, force=dirichlet_part + interaction_part,
                       dirichlet_part=dirichlet_part,
                       interaction_part=interaction_part,
                       error_estimate=(e_dir + e_int) / (2.0 * math.pi))


def mu_sensitivity(graph, mc, bond_id: str, h: float = 1e-4) -> float:
    """d(res_half)/dL for one bond, by central differences.

    Measures how much the scale-ambiguous part of the energy moves when
    the bond end moves; a compactly supported potential must give zero,
    so a nonzero value flags a force computation that cannot be trusted.
    """
    _require_local(mc, "mu_sensitivity")
    L = graph.bond_by_id(bond_id).length
    step = h * L

    def res_half(g):
        res_im, res_dir = residues_at_minus_half(
            g, asymptotic_F_coefficients(g, mc, check=False))
        return (res_im + sum(res_dir.values())) / 2.0

    plus = res_half(replace_bond_length(graph, bond_id, L + step))
    minus = res_half(replace_bond_length(graph, bond_id, L - step))
    return (plus - minus) / (2.0 * step)

"""WKB data of a bond on the imaginary axis.

For the solution decaying towards the far end, f'/f = -t + sum_j s_j t^-j
with the s_j built from the potential and its derivatives at the entry
point.  The Dirichlet solution satisfies
log u(L;t) ~ t L - log 2t + sum_j e_j t^-j; the e_j combine integrals of V
with endpoint data and drive the large-t subtractions of the zeta
integrands.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnsupportedError

J_MAX = 4
# Bonds compare by value, and every rescaled or length-perturbed graph
# brings new ones: an unbounded cache would grow for the life of the
# process.  One operation needs a few entries per bond.
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def wkb_coefficients(bond, *, reverse: bool = False, j_max: int = J_MAX):
    """(s_1, ..., s_jmax) at the entry vertex of the given direction."""
    if j_max > J_MAX:
        raise UnsupportedError(f"WKB table only goes to order {J_MAX}")
    pot = bond.potential
    x0 = bond.length if reverse else 0.0
    sign = -1.0 if reverse else 1.0
    v0 = pot.value(x0, 0)
    v1 = sign * pot.value(x0, 1)
    v2 = pot.value(x0, 2)
    v3 = sign * pot.value(x0, 3)
    s = (-v0 / 2.0,
         -v1 / 4.0,
         (v0 * v0 - v2) / 8.0,
         v0 * v1 / 4.0 - v3 / 16.0)
    return s[:j_max]


@lru_cache(maxsize=CACHE_SIZE)
def u_log_expansion(bond, depth: int = 4):
    """Coefficients {j: e_j} of the large-t expansion of log u(L;t).

    e_1 is the half integral of V; the higher orders mix the integral of
    V^2 with endpoint derivatives and the normalisation correction from
    the Wronskian of the two WKB branches.
    """
    if depth > 4:
        raise UnsupportedError("log u expansion only goes to order 4")
    pot = bond.potential
    L = bond.length
    out = {}
    if depth >= 1:
        out[1] = 0.5 * pot.integral(L)
    if depth < 2:
        return out
    va0 = pot.value(0.0, 0)
    vaL = pot.value(L, 0)
    out[2] = -(va0 + vaL) / 4.0
    if depth < 3:
        return out
    vb0 = pot.value(0.0, 1)
    vbL = pot.value(L, 1)
    out[3] = -pot.square_integral(L) / 8.0 + (vbL - vb0) / 8.0
    if depth < 4:
        return out
    vc0 = pot.value(0.0, 2)
    vcL = pot.value(L, 2)
    out[4] = ((vaL * vaL - va0 * va0) / 8.0 - (vcL - vc0) / 16.0
              + (va0 * va0 - vc0) / 8.0 + va0 * va0 / 8.0)
    return out


def d_constant(bond) -> float:
    """d_b = (1/2) integral of V along the bond; the heat-trace constant
    behind the Dirichlet residue."""
    return 0.5 * bond.potential.integral(bond.length)

"""Secular function of the graph operator.

Imaginary axis: F(it) = det(A + B M(t)) with M built from the decaying
bond solutions; zeros of F on the real k axis are the eigenvalues.  The
determinant is carried as (log|F|, phase) so products of exponentially
large bond factors stay representable.  The kernels take an array of t:
the bond solutions of all nodes (bond_solutions, shareable between
kernels and with the Dirichlet parts; bonds of one (length, potential)
share one solve, and the vector potential enters only as the phase of
the off-diagonal entries), then M, dM/dt or dM/dL as one
(t, 2B, 2B) stack, then one stacked slogdet (logF_imag) or one stacked
solve and trace (logF_slope_imag, dlogF_dL_imag).  An exactly singular
A + B M fails with NumericalError naming its t.  F_imag is logF_imag
at one t, as a record.

Large t: the model F(it) ~ c_lead t^p exp(sum_j a_j t^-j) of
asymptotic_F_coefficients, fitted by one FFT.  checked_asymptotics is
the set-up of every zeta, energy and force call: the model, checked
against F at large t, once F has passed the zero probe at the bottom of
the integration ray, from one logF_imag call and memoised per graph on
the MatchingConditions.

Real axis: a pole-free parameterisation S(E) through bond transfer
matrices at energies E = k^2, singular exactly at eigenvalues, with the
null-space dimension as multiplicity.  S and dS/dE are float64 unless
_secular_is_complex.  Its transfer matrices are shared the same way, the
flux phase again entering only in assembly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .interval import bond_solution, transfer_matrices_real
from .wkb import CACHE_SIZE, wkb_coefficients

UNDERFLOW_LOG = 690.0


@dataclass(frozen=True)
class SecularValue:
    t: float
    log_abs: float
    phase: float


def per_distinct_bond(bonds, solve):
    """[solve(bond) for bond in bonds], calling solve once per distinct
    (length, potential), the key of everything a bond solve reads; bonds
    that share the key share the result.  The vector potential is not
    part of it: its phase enters only in assembly."""
    done = {}
    for bond in bonds:
        key = (bond.length, bond.potential)
        if key not in done:
            done[key] = solve(bond)
    return [done[(bond.length, bond.potential)] for bond in bonds]


def bond_solutions(graph, t, *, derivative: bool = True):
    """The BondSolution of every bond at the nodes t, both ends from one
    solve per distinct (length, potential) (per_distinct_bond).
    derivative as in bond_solution."""
    return per_distinct_bond(graph.bonds, lambda bond: bond_solution(
        bond, t, derivative=derivative))


def _secular_system(graph, mc, sols):
    """K = A + B M, M and dM/dt, stacked over the nodes of sols; dM is
    None when the solutions carry no t-derivatives."""
    B = graph.bond_count
    n = 2 * B
    nt = len(sols[0].log_u)
    M = np.zeros((nt, n, n), dtype=complex)
    derivative = sols[0].df_prime_at_0_dt is not None
    dM = np.zeros((nt, n, n), dtype=complex) if derivative else None
    for b, (bond, sol) in enumerate(zip(graph.bonds, sols)):
        M[:, b, b] = sol.f_prime_at_0
        M[:, B + b, B + b] = sol.f_prime_at_L
        # the off-diagonal exp(-log u) exp(+-i A L), dropped once it underflows
        keep = sol.log_u < UNDERFLOW_LOG
        decay = np.where(keep, np.exp(-np.minimum(sol.log_u, UNDERFLOW_LOG)),
                         0.0)
        phase = cmath.exp(1j * bond.vector_potential * bond.length)
        M[:, B + b, b] = decay * phase
        M[:, b, B + b] = decay * phase.conjugate()
        if derivative:
            dM[:, b, b] = sol.df_prime_at_0_dt
            dM[:, B + b, B + b] = sol.df_prime_at_L_dt
            dM[:, B + b, b] = -sol.dlog_u_dt * M[:, B + b, b]
            dM[:, b, B + b] = -sol.dlog_u_dt * M[:, b, B + b]
    return mc.A + mc.B @ M, M, dM


def _vanished(t):
    return NumericalError(f"secular determinant vanished at t={t}; "
                          "an eigenvalue sits on the integration ray")


def _solve(K, rhs, t):
    """np.linalg.solve over the stack; an exactly singular K names its t."""
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(K)[1] == -math.inf
        raise _vanished(t[np.argmax(singular)]) from None


def logF_imag(graph, mc, t, sols=None):
    """(log|F|, phase of F) over the nodes t; log|F| is -inf where F
    vanishes exactly, and the phase lies in (-pi, pi]."""
    if sols is None:
        sols = bond_solutions(graph, t, derivative=False)
    sign, log_abs = np.linalg.slogdet(_secular_system(graph, mc, sols)[0])
    phase = np.angle(sign)
    return log_abs, np.where(phase <= -math.pi, math.pi, phase)


def logF_slope_imag(graph, mc, t, sols=None):
    """d/dt log F over the nodes t: tr[(A + B M)^-1 B M'], with M'
    assembled from the solver's t-derivative outputs; no numerical
    differentiation in t.  sols must carry the t-derivatives."""
    if sols is None:
        sols = bond_solutions(graph, t)
    K, _, dM = _secular_system(graph, mc, sols)
    if dM is None:
        raise ValueError("logF_slope_imag needs bond solutions that carry "
                         "t-derivatives")
    return np.trace(_solve(K, mc.B @ dM, t), axis1=1, axis2=2)


def F_imag(graph, mc, t: float) -> SecularValue:
    log_abs, phase = logF_imag(graph, mc, np.array([float(t)]))
    return SecularValue(t=t, log_abs=float(log_abs[0]),
                        phase=float(phase[0]))


def _secular_is_complex(graph, mc) -> bool:
    return (any(b.vector_potential != 0.0 for b in graph.bonds)
            or float(np.max(np.abs(mc.A.imag))) > 0.0
            or float(np.max(np.abs(mc.B.imag))) > 0.0)


# ---------------------------------------------------------------------------
# real-axis secular matrix


def _assemble_real(graph, mc, transfer_blocks, nk, unit=1.0):
    """A phi + B dhat from the bond transfer blocks; unit = 0 assembles
    the E-derivative from the derivative blocks, since the remaining
    entries of phi and dhat do not depend on E."""
    B = graph.bond_count
    n = 2 * B
    cplx = _secular_is_complex(graph, mc)
    phi = np.zeros((nk, n, n), dtype=complex if cplx else float)
    dhat = np.zeros_like(phi)
    for b, bond in enumerate(graph.bonds):
        T = transfer_blocks[b]
        ph = cmath.exp(1j * bond.vector_potential * bond.length) if cplx else 1
        phi[..., b, b] = unit
        phi[..., B + b, b] = ph * T[..., 0, 0]
        phi[..., B + b, B + b] = ph * T[..., 0, 1]
        dhat[..., b, B + b] = unit
        dhat[..., B + b, b] = -ph * T[..., 1, 0]
        dhat[..., B + b, B + b] = -ph * T[..., 1, 1]
    # in place, so at most three (nk, n, n) arrays are alive at once
    S = (mc.A if cplx else mc.A.real) @ phi
    del phi
    S += (mc.B if cplx else mc.B.real) @ dhat
    return S


def secular_matrices_real(graph, mc, Es, *, derivative: bool = False):
    """Real-axis secular matrices S(E) over an array of energies, or with
    derivative=True (S, dS/dE), from one pass of transfer_matrices_real
    per distinct (length, potential) (per_distinct_bond); the flux phase
    enters in assembly.  float64 unless _secular_is_complex."""
    Es = np.asarray(Es, dtype=float)
    blocks = per_distinct_bond(graph.bonds, lambda b: transfer_matrices_real(
        b, Es, derivative=derivative))
    if not derivative:
        return _assemble_real(graph, mc, blocks, len(Es))
    T, dT = zip(*blocks)
    return (_assemble_real(graph, mc, T, len(Es)),
            _assemble_real(graph, mc, dT, len(Es), unit=0.0))


# ---------------------------------------------------------------------------
# large-t asymptotics of F


@dataclass(frozen=True)
class AsymptoticData:
    """Large-t model F(it) ~ c_lead t^(2B - leading_power) exp(sum a_j t^-j).

    gap is the first j with a power-law correction (inf when none), exact
    marks graphs whose WKB endpoint tables vanish identically, making the
    polynomial model exact up to exponentially small terms.
    """

    leading_power: int
    gap: float
    c_lead: complex
    log_coeffs: tuple
    strip_min: float
    exact: bool

    @property
    def residue_at_minus_half(self) -> complex:
        return self.log_coeffs[0] / (2.0 * math.pi)


def _fft_poly_coefficients(graph, mc, tables):
    n = 2 * graph.bond_count
    degree = n * (1 if all(not any(tab) for tab in tables) else 5)
    # det(tau A + B (P(tau) - 1)) is a polynomial of at most this degree,
    # each of its n columns having degree 5 in tau, or 1 when every WKB
    # table vanishes; the smallest power of two above it samples it on
    # the unit circle without aliasing, so more samples add nothing
    m = 1
    while m < degree + 1:
        m *= 2
    taus = np.exp(2j * math.pi * np.arange(m) / m)
    pvals = np.zeros((n, m), dtype=complex)
    for a, tab in enumerate(tables):
        for j, s in enumerate(tab, start=1):
            if s:
                pvals[a] += s * taus ** (j + 1)
    stack = (taus[:, None, None] * mc.A[None, :, :]
             + mc.B[None, :, :] * (pvals.T[:, None, :] - 1.0))
    dets = np.linalg.det(stack)
    g = np.fft.fft(dets) / m
    g[np.abs(g) < 1e-10 * np.max(np.abs(dets))] = 0.0
    return g


def _fit(graph, mc) -> AsymptoticData:
    """The large-t model of F from one FFT fit (_fft_poly_coefficients)."""
    B = graph.bond_count
    n = 2 * B
    tables = ([wkb_coefficients(bond) for bond in graph.bonds]
              + [wkb_coefficients(bond, reverse=True) for bond in graph.bonds])
    exact = all(not any(tab) for tab in tables)
    g = _fft_poly_coefficients(graph, mc, tables)

    nonzero = np.nonzero(g)[0]
    if len(nonzero) == 0:
        raise NumericalError("secular asymptotics vanish identically; "
                             "matching conditions look degenerate")
    N = int(nonzero[0])
    if N > n:
        raise NumericalError(
            f"secular function decays like t^{n - N}; "
            "matching conditions look degenerate")

    j_limit = len(g) - 1 - N if exact else 4
    gap = math.inf
    for j in range(1, j_limit + 1):
        if N + j < len(g) and g[N + j] != 0.0:
            gap = j
            break

    r = [g[N + j] / g[N] if N + j < len(g) else 0.0 for j in range(1, 5)]
    a1 = r[0]
    a2 = r[1] - r[0] ** 2 / 2.0
    a3 = r[2] - r[0] * r[1] + r[0] ** 3 / 3.0
    a4 = (r[3] - r[0] * r[2] - r[1] ** 2 / 2.0
          + r[0] ** 2 * r[1] - r[0] ** 4 / 4.0)
    scale = max(1.0, max(abs(x) for x in r))
    coeffs = tuple(0.0 if abs(x) < 1e-12 * scale else x
                   for x in (a1, a2, a3, a4))

    if math.isinf(gap):
        strip_min = -math.inf if exact else -2.5
    else:
        strip_min = -(gap + 1.0) / 2.0

    return AsymptoticData(leading_power=N, gap=gap, c_lead=complex(g[N]),
                          log_coeffs=coeffs, strip_min=strip_min, exact=exact)


def asymptotic_F_coefficients(graph, mc, *, check: bool = True) -> AsymptoticData:
    """The large-t model of F, fitted afresh on every call and, with
    check, compared against F itself at large t (_check_asymptotics).
    The engine reads it through checked_asymptotics, which memoises it."""
    data = _fit(graph, mc)
    if check:
        ts = _check_nodes(graph)
        _check_asymptotics(graph, data, ts, *logF_imag(graph, mc, ts))
    return data


def _check_nodes(graph):
    """The large-t nodes t0 (1, 10, 100) of _check_asymptotics."""
    lmin = min(b.length for b in graph.bonds)
    vscale = max(max(abs(b.potential.maximum(b.length)),
                     abs(b.potential.minimum(b.length)))
                 for b in graph.bonds)
    t0 = max(100.0, 100.0 / lmin, 20.0 * math.sqrt(vscale) if vscale else 0.0)
    return t0 * np.array([1.0, 10.0, 100.0])


def _check_asymptotics(graph, data: AsymptoticData, ts, log_abs,
                       phase) -> None:
    """Compare the polynomial model against F itself, (log|F|, phase) at
    the nodes ts of _check_nodes."""
    power = 2 * graph.bond_count - data.leading_power
    zs = []
    for t, la, ph in zip(ts.tolist(), log_abs, phase):
        y = complex(la - power * math.log(t), ph)
        yhat = cmath.log(data.c_lead) + sum(
            a / t ** j for j, a in enumerate(data.log_coeffs, start=1))
        diff = y - yhat
        if diff.real > 50.0 or abs(cmath.exp(diff) - 1.0) > 1e-6:
            raise NumericalError(
                "computed secular function disagrees with its large-t "
                f"asymptotics at t={t:g} (mismatch {abs(cmath.exp(diff) - 1.0):.2e})")
        zs.append(y - sum(a / t ** j
                          for j, a in enumerate(data.log_coeffs, start=1)))
    slope_dev = abs((zs[2] - zs[1]).real) / math.log(10.0)
    if slope_dev > 1e-3:
        raise NumericalError(
            "secular function has a non-integer apparent exponent at large t "
            f"(deviation {slope_dev:.2e})")


def _remember(memo: dict, key, value):
    """memo[key] = value, dropping the oldest entries past CACHE_SIZE."""
    memo[key] = value
    while len(memo) > CACHE_SIZE:
        memo.pop(next(iter(memo)), None)
    return value


def checked_asymptotics(graph, mc, gamma: float = 0.0) -> AsymptoticData:
    """The large-t model of F for (graph, mc), checked against F at large
    t, once F has passed the zero probe at the bottom of the integration
    ray, t = max(1e-4, sqrt(gamma)): an eigenvalue at or below -gamma
    brings |F(it)| there below 1e-8 |c_lead| and makes the rotated-axis
    representations invalid.  The set-up of every zeta, energy and force
    call.

    The model and its check depend on neither s, gamma nor a bond, so
    they are memoised per graph on mc.setups, as (model, {t: log|F(it)|}
    at the probes asked for so far), at most CACHE_SIZE graphs of at most
    CACHE_SIZE probes; a re-parsed mc starts empty.  A miss fits the model
    once and reads F at the probe and the check's three nodes in one
    logF_imag call, whose nodes do not depend on each other; a hit with a
    new probe reads F at that one node.
    """
    t_probe = max(1e-4, math.sqrt(gamma))
    setup = mc.setups.get(graph)
    if setup is None:
        asym = _fit(graph, mc)
        ts = np.concatenate(([t_probe], _check_nodes(graph)))
        log_abs, phase = logF_imag(graph, mc, ts)
        _check_asymptotics(graph, asym, ts[1:], log_abs[1:], phase[1:])
        probes = {t_probe: float(log_abs[0])}
        _remember(mc.setups, graph, (asym, probes))
    else:
        asym, probes = setup
        if t_probe not in probes:
            log_abs, _ = logF_imag(graph, mc, np.array([t_probe]))
            _remember(probes, t_probe, float(log_abs[0]))
    if probes[t_probe] <= math.log(1e-8 * abs(asym.c_lead)):
        raise NumericalError(
            "secular function is numerically zero at the bottom of the "
            f"integration ray (t={t_probe:g}); an eigenvalue at or below "
            "-gamma makes this zeta representation invalid")
    return asym


def dlogF_dL_imag(graph, mc, bond_id, t, sols=None):
    """d/dL log F(it) over the nodes t, in the length of one bond, moving
    its terminus.

    tr[(A + B M)^-1 B dM/dL].  With u the Dirichlet solution (u(0) = 0,
    u'(0) = 1) and m = -u'(L)/u(L) the L-end entry of M, the bond's
    block of dM/dL is 1/u(L)^2 on the 0-end diagonal,
    -(t^2 + V(L) - m^2) on the L-end diagonal, and m + i A and m - i A
    times the off-diagonal entries exp(+i A L)/u(L) and exp(-i A L)/u(L).
    The solves it reads are the ones M was built from, so no bond is
    solved twice, and they need not carry t-derivatives.
    """
    bond = graph.bond_by_id(bond_id)
    b = graph.bonds.index(bond)
    B = graph.bond_count
    if sols is None:
        sols = bond_solutions(graph, t, derivative=False)
    K, M, _ = _secular_system(graph, mc, sols)
    m = sols[b].f_prime_at_L
    phase = 1j * bond.vector_potential
    dM = np.zeros_like(M)
    dM[:, b, b] = np.exp(-2.0 * sols[b].log_u)
    dM[:, B + b, B + b] = -(t * t + bond.potential.value(bond.length) - m * m)
    dM[:, B + b, b] = (m + phase) * M[:, B + b, b]
    dM[:, b, B + b] = (m - phase) * M[:, b, B + b]
    return np.trace(_solve(K, mc.B @ dM, t), axis1=1, axis2=2)


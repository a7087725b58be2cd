"""Secular function of the graph operator.

Imaginary axis: F(it) = det(A + B M(t)) with M built from the decaying
bond solutions; zeros of F on the real k axis are the eigenvalues.  The
determinant is carried as (log|F|, phase) so products of exponentially
large bond factors stay representable.

Real axis: a pole-free parameterisation through bond transfer matrices,
suitable for scanning; its smallest singular value vanishes exactly at
eigenvalues, with multiplicity equal to the null-space dimension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import NumericalError
from .interval import solve_imag_axis, transfer_matrices_real
from .wkb import wkb_coefficients

UNDERFLOW_LOG = 690.0


@dataclass(frozen=True)
class SecularValue:
    t: float
    log_abs: float
    phase: float


def secular_data_imag(graph, t: float):
    """M(t) and dM/dt for the secular matrix A + B M."""
    B = graph.bond_count
    n = 2 * B
    M = np.zeros((n, n), dtype=complex)
    dM = np.zeros((n, n), dtype=complex)
    for b, bond in enumerate(graph.bonds):
        fwd = solve_imag_axis(bond, t)
        rev = solve_imag_axis(bond, t, reverse=True)
        M[b, b] = fwd.f_prime_at_0
        dM[b, b] = fwd.df_prime_at_0_dt
        M[B + b, B + b] = rev.f_prime_at_0
        dM[B + b, B + b] = rev.df_prime_at_0_dt
        if fwd.log_u < UNDERFLOW_LOG:
            theta = bond.vector_potential * bond.length
            w_in = cmath.exp(complex(-fwd.log_u, theta))
            w_out = cmath.exp(complex(-fwd.log_u, -theta))
            M[B + b, b] = w_in
            M[b, B + b] = w_out
            dM[B + b, b] = -fwd.dlog_u_dt * w_in
            dM[b, B + b] = -fwd.dlog_u_dt * w_out
    return M, dM


def _det_log(K):
    lu, piv = lu_factor(K, check_finite=False)
    diag = np.diag(lu)
    if np.any(diag == 0.0):
        return -math.inf, 0.0, (lu, piv)
    log_abs = float(np.sum(np.log(np.abs(diag))))
    phase = float(np.sum(np.angle(diag)))
    if np.count_nonzero(piv != np.arange(len(piv))) % 2:
        phase += math.pi
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    return log_abs, phase, (lu, piv)


def F_imag(graph, mc, t: float) -> SecularValue:
    M, _ = secular_data_imag(graph, t)
    log_abs, phase, _ = _det_log(mc.A + mc.B @ M)
    return SecularValue(t=t, log_abs=log_abs, phase=phase)


def _secular_lu(graph, mc, t: float):
    """M, dM/dt, log|F|, phase of F and the LU of A + B M, for F != 0."""
    M, dM = secular_data_imag(graph, t)
    log_abs, phase, lu = _det_log(mc.A + mc.B @ M)
    if not math.isfinite(log_abs):
        raise NumericalError(f"secular determinant vanished at t={t}; "
                             "an eigenvalue sits on the integration ray")
    return M, dM, log_abs, phase, lu


def logF_and_slope_imag(graph, mc, t: float):
    """(SecularValue, d/dt log F) sharing one LU factorisation.

    The derivative is tr[(A + B M)^-1 B M'], with M' assembled from the
    solver's t-derivative outputs; no numerical differentiation in t.
    """
    M, dM, log_abs, phase, lu = _secular_lu(graph, mc, t)
    X = lu_solve(lu, mc.B @ dM, check_finite=False)
    return SecularValue(t=t, log_abs=log_abs, phase=phase), complex(np.trace(X))


# ---------------------------------------------------------------------------
# real-axis secular matrix


def _assemble_real(graph, mc, transfer_blocks, nk, unit=1.0):
    """A phi + B dhat from the bond transfer blocks; unit = 0 assembles
    the k-derivative from the derivative blocks, since the remaining
    entries of phi and dhat do not depend on k."""
    B = graph.bond_count
    n = 2 * B
    phi = np.zeros((nk, n, n), dtype=complex)
    dhat = np.zeros((nk, n, n), dtype=complex)
    for b, bond in enumerate(graph.bonds):
        T = transfer_blocks[b]
        ph = cmath.exp(1j * bond.vector_potential * bond.length)
        phi[..., b, b] = unit
        phi[..., B + b, b] = ph * T[..., 0, 0]
        phi[..., B + b, B + b] = ph * T[..., 0, 1]
        dhat[..., b, B + b] = unit
        dhat[..., B + b, b] = -ph * T[..., 1, 0]
        dhat[..., B + b, B + b] = -ph * T[..., 1, 1]
    # in place, so at most three (nk, n, n) arrays are alive at once
    S = mc.A @ phi
    del phi
    S += mc.B @ dhat
    return S


def secular_matrices_real(graph, mc, ks, *, steps: int = 1200,
                          derivative: bool = False, richardson: bool = False):
    """Real-axis secular matrices S(k) over an array of k; with
    derivative=True the pair (S, dS/dk), both from one pass of the
    transfer matrices.  With richardson=True the transfer matrices are
    Richardson-extrapolated from steps to 2 * steps RK4 steps in that
    one pass (see transfer_matrices_real); S is affine in them, so that
    extrapolates S and dS/dk alike.
    """
    ks = np.asarray(ks, dtype=float)
    blocks = [transfer_matrices_real(bond, ks, steps=steps,
                                     derivative=derivative,
                                     richardson=richardson)
              for bond in graph.bonds]
    if not derivative:
        return _assemble_real(graph, mc, blocks, len(ks))
    T, dT = zip(*blocks)
    return (_assemble_real(graph, mc, T, len(ks)),
            _assemble_real(graph, mc, dT, len(ks), unit=0.0))


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
    m = 256
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


def asymptotic_F_coefficients(graph, mc, *, check: bool = True) -> AsymptoticData:
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

    data = AsymptoticData(leading_power=N, gap=gap, c_lead=complex(g[N]),
                          log_coeffs=coeffs, strip_min=strip_min, exact=exact)
    if check:
        _check_asymptotics(graph, mc, data)
    return data


def _check_asymptotics(graph, mc, data: AsymptoticData) -> None:
    """Compare the polynomial model against F itself at large t."""
    lmin = min(b.length for b in graph.bonds)
    vscale = max(max(abs(b.potential.maximum(b.length)),
                     abs(b.potential.minimum(b.length)))
                 for b in graph.bonds)
    t0 = max(100.0, 100.0 / lmin, 20.0 * math.sqrt(vscale) if vscale else 0.0)
    power = 2 * graph.bond_count - data.leading_power
    zs = []
    for t in (t0, 10.0 * t0, 100.0 * t0):
        sv = F_imag(graph, mc, t)
        y = complex(sv.log_abs - power * math.log(t), sv.phase)
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


def dF_dL_imag(graph, mc, bond_id: str, t: float) -> complex:
    """d/dL log F(it) in the length of one bond, moving its terminus.

    tr[(A + B M)^-1 B dM/dL], sharing one LU factorisation of A + B M.
    With u the Dirichlet solution (u(0) = 0, u'(0) = 1) and m = -u'(L)/u(L)
    the reversed-orientation entry of M, the bond's block of dM/dL is
    1/u(L)^2 on the forward diagonal, -(t^2 + V(L) - m^2) on the reverse
    diagonal, and m + i A and m - i A times the off-diagonal entries
    exp(+i A L)/u(L) and exp(-i A L)/u(L).  The solves it reads are the
    ones M was built from, so no bond is solved twice.
    """
    bond = graph.bond_by_id(bond_id)
    b = graph.bonds.index(bond)
    B = graph.bond_count
    M, _, _, _, lu = _secular_lu(graph, mc, t)
    fwd = solve_imag_axis(bond, t)
    m_rev = M[B + b, B + b]
    phase = 1j * bond.vector_potential
    dM = np.zeros_like(M)
    dM[b, b] = math.exp(-2.0 * fwd.log_u)
    dM[B + b, B + b] = -(t * t + bond.potential.value_scalar(bond.length)
                         - m_rev * m_rev)
    dM[B + b, b] = (m_rev + phase) * M[B + b, b]
    dM[b, B + b] = (m_rev - phase) * M[b, B + b]
    X = lu_solve(lu, mc.B @ dM, check_finite=False)
    return complex(np.trace(X))

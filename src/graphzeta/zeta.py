"""Spectral zeta functions from subtracted integrals along the rotated axis.

zeta(s, gamma) = sum_j (gamma + E_j)^(-s) splits into the Dirichlet parts
of the detached bonds plus the secular part carrying the matching
conditions.  Both are computed as

    sin(pi s)/pi * integral_sqrt(gamma)^inf (t^2-gamma)^(-s) h'(t) dt

with the large-t asymptotics of h removed and restored through closed
Gamma-function terms, which extends the strip of validity to the left of
Re s = 1/2.  The t-derivatives come from the solvers, never from numerical
differencing.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma as gamma_fn, rgamma

from .errors import NumericalError, UnsupportedError
from .interval import (dirichlet_log_u_subtracted,
                       dirichlet_subtracted_derivative, solve_imag_axis)
from .secular import F_imag, asymptotic_F_coefficients, logF_and_slope_imag
from .wkb import d_constant, u_log_expansion

DEPTH = 4
SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class ZetaEvaluation:
    s: complex
    gamma: float
    value: complex
    strip: tuple
    quadrature_error: float


@dataclass(frozen=True)
class MinusHalfData:
    fp_im: float
    res_im: float
    fp_dir: dict
    res_dir: dict
    fp_total: float
    res_total: float


# ---------------------------------------------------------------------------
# quadrature plumbing


def _quad_guarded(f, a, b, epsabs, epsrel, limit):
    """quad with its roundoff complaint folded into the error estimate.

    Near the noise floor of the integrands built on bond solves quadpack
    reports roundoff; the returned estimate is kept at least at epsabs then.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        v, e = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if caught:
        e = max(e, epsabs)
    return v, e


def _quadc(f, a, b, complex_path, epsabs=1e-12, epsrel=1e-10, limit=400):
    if complex_path:
        re, e1 = _quad_guarded(lambda x: f(x).real, a, b, epsabs,
                               epsrel, limit)
        im, e2 = _quad_guarded(lambda x: f(x).imag, a, b, epsabs,
                               epsrel, limit)
        return complex(re, im), e1 + e2
    v, e = _quad_guarded(f, a, b, epsabs, epsrel, limit)
    return complex(v, 0.0), e


def _head_integral(rho, s, complex_path):
    """integral_0^1 tau^(1-2s) rho(tau) dtau through tau = z^(1/w).

    With w = 2 - 2 Re s the substitution absorbs the endpoint power
    completely for real s; for complex s a bounded logarithmic
    oscillation z^(-2i Im s / w) remains for the adaptive rule.
    """
    s = complex(s)
    w = 2.0 - 2.0 * s.real
    p = 1.0 / w
    beta = 2.0 * s.imag / w
    if complex_path:
        def f(z):
            val = rho(z ** p) / w
            if beta:
                val *= cmath.exp(complex(0.0, -beta * math.log(z)))
            return val
    else:
        def f(z):
            return rho(z ** p) / w
    return _quadc(f, 0.0, 1.0, complex_path)


def _tail_integral(f, tol_abs, complex_path):
    """integral_1^inf f with width-doubling panels.

    After each panel a local power law is fitted; when the implied
    remainder is small it is added as a correction and counted towards
    the error estimate.  Exponential decay terminates even faster.  Once
    the samples fall to the rounding floor of the bond solves the power
    fit goes blind, so a small absolute floor also terminates, with
    the unresolvable remainder charged to the error estimate.
    """
    total = 0j
    err = 0.0
    a = 1.0
    width = 1.0
    floor = 1e-12 * max(1.0, abs(f(1.0)))
    panel_abs = max(1e-13, 0.2 * tol_abs)
    for _ in range(80):
        w, e = _quadc(f, a, a + width, complex_path,
                      epsabs=panel_abs, epsrel=1e-10, limit=120)
        total += w
        err += e
        a += width
        f1 = f(a)
        f2 = f(1.5 * a)
        m1, m2 = abs(f1), abs(f2)
        if max(m1, m2) <= floor:
            err += max(m1, m2) * a
            break
        if m1 < 1e-280 or m2 < 1e-280:
            if m1 * a <= tol_abs:
                break
        elif m2 < m1:
            p = math.log(m1 / m2) / math.log(1.5)
            if p > 1.1:
                rem = m1 * a / (p - 1.0)
                if rem <= 0.3 * tol_abs:
                    total += f1 * a / (p - 1.0)
                    err += 0.25 * rem
                    break
        width *= 2.0
    else:
        raise NumericalError("tail of the rotated-axis integral did not "
                             "converge")
    return total, err


# ---------------------------------------------------------------------------
# closed-form pieces


def _sin_over_pi(s):
    return cmath.sin(math.pi * s) / math.pi


def _k_frac(s, j):
    """sin(pi s) / (pi (2s + j)).

    For even j the zero of the sine cancels the pole; the series branch
    keeps the value finite when s sits on (or within rounding of) -j/2.
    """
    s = complex(s)
    if j % 2 == 0:
        d = s + j / 2.0
        sign = -1.0 if (j // 2) % 2 else 1.0
        if abs(d) < 1e-6:
            pd = math.pi * d
            return sign * (0.5 - pd * pd / 12.0)
        return sign * cmath.sin(math.pi * d) / (2.0 * math.pi * d)
    return cmath.sin(math.pi * s) / (math.pi * (2.0 * s + j))


def _gamma_power(gamma_val, expo):
    return cmath.exp(expo * math.log(gamma_val))


def _gamma_ratio(s, j):
    """Gamma(s + j/2) / Gamma(s); a plain polynomial when j is even."""
    s = complex(s)
    if j % 2 == 0:
        out = complex(1.0)
        for i in range(j // 2):
            out *= s + i
        return out
    return complex(gamma_fn(s + j / 2.0)) * complex(rgamma(s))


def _gamma_series_term(s, j, coeff, gamma_val):
    # (j coeff / 2) gamma^(-s-j/2) Gamma(s+j/2) / (Gamma(s) Gamma(1+j/2))
    return (coeff * (j / 2.0) * _gamma_power(gamma_val, -s - j / 2.0)
            * _gamma_ratio(s, j) / complex(gamma_fn(1.0 + j / 2.0)))


# ---------------------------------------------------------------------------
# guards


def _bond_floor(bond) -> float:
    vmin = bond.potential.minimum(bond.length)
    return math.sqrt(-vmin) + 1e-6 if vmin < 0.0 else 0.0


def _check_gamma(floor: float, gamma: float, what: str) -> None:
    if gamma < 0.0:
        raise UnsupportedError("gamma must be nonnegative")
    if floor > 0.0:
        if gamma == 0.0:
            raise NumericalError(
                f"{what}: gamma=0 integration ray crosses the spectral floor "
                f"{floor:.6g} of a negative potential; use gamma > floor^2")
        if math.sqrt(gamma) <= floor:
            raise NumericalError(
                f"{what}: sqrt(gamma) must exceed the spectral floor "
                f"{floor:.6g}")


def _require_local(mc, what: str) -> None:
    if not mc.local:
        raise UnsupportedError(
            f"{what} needs per-vertex matching conditions; globally supplied "
            "matrices are only usable for the eigenvalue scan")


def _probe_secular_zero(graph, mc, asym, gamma: float) -> None:
    t_probe = max(1e-4, math.sqrt(gamma))
    sv = F_imag(graph, mc, t_probe)
    if sv.log_abs <= math.log(1e-8 * abs(asym.c_lead)):
        raise NumericalError(
            "secular function is numerically zero at the bottom of the "
            f"integration ray (t={t_probe:g}); an eigenvalue at or below "
            "-gamma makes this zeta representation invalid")


def _secular_is_complex(graph, mc) -> bool:
    if any(b.vector_potential != 0.0 for b in graph.bonds):
        return True
    return (float(np.max(np.abs(mc.A.imag))) > 0.0
            or float(np.max(np.abs(mc.B.imag))) > 0.0)


# ---------------------------------------------------------------------------
# Dirichlet part


def zeta_dir_bond(bond, s, gamma: float = 0.0, *, depth: int = DEPTH,
                  tol: float = 1e-9) -> ZetaEvaluation:
    """Zeta function of the bond detached with Dirichlet ends."""
    s = complex(s)
    if not -1.0 < s.real < 1.0:
        raise UnsupportedError("zeta_dir is represented in -1 < Re s < 1")
    if abs(s - 0.5) < 1e-9:
        raise UnsupportedError("s=1/2 is a pole of zeta_dir")
    if abs(s + 0.5) < 1e-9:
        raise UnsupportedError("s=-1/2 is a pole of zeta_dir; its finite "
                               "part and residue come from minus_half_data")
    _check_gamma(_bond_floor(bond), gamma, f"bond '{bond.id}'")

    L = bond.length
    ej = u_log_expansion(bond, depth)
    complex_path = s.imag != 0.0
    K = _sin_over_pi(s)

    if gamma == 0.0:
        def rho_head(tau):
            return solve_imag_axis(bond, tau).dlog_u_dt / tau

        def t_of(tau):
            return tau
    else:
        def rho_head(tau):
            t = math.sqrt(gamma + tau * tau)
            return dirichlet_subtracted_derivative(bond, t, depth) / t

        def t_of(tau):
            return math.sqrt(gamma + tau * tau)

    i_head, e_head = _head_integral(rho_head, s, complex_path)

    if complex_path:
        def f_tail(tau):
            t = t_of(tau)
            return (tau ** (1.0 - 2.0 * s)
                    * dirichlet_subtracted_derivative(bond, t, depth) / t)
    else:
        sr = s.real

        def f_tail(tau):
            t = t_of(tau)
            return (tau ** (1.0 - 2.0 * sr)
                    * dirichlet_subtracted_derivative(bond, t, depth) / t)
    i_tail, e_tail = _tail_integral(f_tail, tol, complex_path)

    if gamma == 0.0:
        closed = K * L / (2.0 * s - 1.0) - _k_frac(s, 0)
        for j, e in ej.items():
            if e:
                closed -= j * e * _k_frac(s, j)
    else:
        closed = (L * complex(gamma_fn(s - 0.5)) * complex(rgamma(s))
                  * _gamma_power(gamma, 0.5 - s) / (2.0 * SQRT_PI)
                  - _gamma_power(gamma, -s) / 2.0)
        for j, e in ej.items():
            if e:
                closed -= _gamma_series_term(s, j, e, gamma)

    value = K * (i_head + i_tail) + closed
    return ZetaEvaluation(s=s, gamma=gamma, value=value, strip=(-1.0, 1.0),
                          quadrature_error=abs(K) * (e_head + e_tail))


# ---------------------------------------------------------------------------
# secular part


def subtracted_logF_derivative(graph, mc, t: float, *, asym=None,
                               depth: int = DEPTH) -> complex:
    """d/dt log F with the power-law asymptotics removed to the given depth."""
    if asym is None:
        asym = asymptotic_F_coefficients(graph, mc, check=False)
    power = 2 * graph.bond_count - asym.leading_power
    _, slope = logF_and_slope_imag(graph, mc, t)
    out = slope - power / t
    for j, aj in enumerate(asym.log_coeffs[:depth], start=1):
        if aj:
            out += j * aj * t ** (-j - 1)
    return out


def zeta_im(graph, mc, s, gamma: float = 0.0, *, asym=None,
            depth: int = DEPTH, tol: float = 1e-9) -> ZetaEvaluation:
    """Secular part of the zeta function."""
    s = complex(s)
    _require_local(mc, "zeta_im")
    _check_gamma(graph.spectral_floor(), gamma, "zeta_im")
    if asym is None:
        asym = asymptotic_F_coefficients(graph, mc)
    strip = (asym.strip_min, 1.0)
    if not strip[0] < s.real < strip[1]:
        raise UnsupportedError(
            f"zeta_im is represented in {strip[0]:g} < Re s < 1 for this graph")
    gap = asym.gap
    if math.isfinite(gap) and int(gap) % 2 == 1 and abs(s + gap / 2.0) < 1e-9:
        raise UnsupportedError(
            f"s={-gap / 2.0} is a pole of zeta_im; its finite part and "
            "residue come from minus_half_data")
    _probe_secular_zero(graph, mc, asym, gamma)

    power = 2 * graph.bond_count - asym.leading_power
    complex_path = s.imag != 0.0 or _secular_is_complex(graph, mc)
    K = _sin_over_pi(s)

    def h_subtracted(t):
        return subtracted_logF_derivative(graph, mc, t, asym=asym,
                                          depth=depth)

    if gamma == 0.0:
        def rho_head_c(tau):
            return logF_and_slope_imag(graph, mc, tau)[1] / tau

        def t_of(tau):
            return tau
    else:
        def rho_head_c(tau):
            t = math.sqrt(gamma + tau * tau)
            return h_subtracted(t) / t

        def t_of(tau):
            return math.sqrt(gamma + tau * tau)

    rho_head = rho_head_c if complex_path else (lambda tau: rho_head_c(tau).real)
    i_head, e_head = _head_integral(rho_head, s, complex_path)

    if complex_path:
        def f_tail(tau):
            t = t_of(tau)
            return tau ** (1.0 - 2.0 * s) * h_subtracted(t) / t
    else:
        sr = s.real

        def f_tail(tau):
            t = t_of(tau)
            return tau ** (1.0 - 2.0 * sr) * (h_subtracted(t) / t).real
    i_tail, e_tail = _tail_integral(f_tail, tol, complex_path)

    coeffs = asym.log_coeffs
    if gamma == 0.0:
        closed = power * _k_frac(s, 0)
        for j, aj in enumerate(coeffs[:depth], start=1):
            if aj:
                closed -= j * aj * _k_frac(s, j)
    else:
        closed = power * _gamma_power(gamma, -s) / 2.0
        for j, aj in enumerate(coeffs[:depth], start=1):
            if aj:
                closed -= _gamma_series_term(s, j, aj, gamma)

    value = K * (i_head + i_tail) + closed
    return ZetaEvaluation(s=s, gamma=gamma, value=value, strip=strip,
                          quadrature_error=abs(K) * (e_head + e_tail))


def zeta_total(graph, mc, s, gamma: float = 0.0, *, asym=None,
               tol: float = 1e-9) -> ZetaEvaluation:
    """zeta(s, gamma) of the full graph operator."""
    zi = zeta_im(graph, mc, s, gamma, asym=asym, tol=tol)
    value = zi.value
    err = zi.quadrature_error
    lo = zi.strip[0]
    for bond in graph.bonds:
        zd = zeta_dir_bond(bond, s, gamma, tol=tol)
        value += zd.value
        err += zd.quadrature_error
        lo = max(lo, zd.strip[0])
    return ZetaEvaluation(s=complex(s), gamma=gamma, value=value,
                          strip=(lo, 1.0), quadrature_error=err)


# ---------------------------------------------------------------------------
# s = -1/2: finite parts and residues


def minus_half_data(graph, mc, *, asym=None, tol: float = 1e-10) -> MinusHalfData:
    """Finite parts and residues of the zeta components at s = -1/2, gamma=0.

    Both t-integrals are taken after integration by parts, so only values
    of log u and log F enter; all boundary terms are finite because of the
    subtractions and are folded in below.
    """
    _require_local(mc, "minus_half_data")
    floor = graph.spectral_floor()
    if floor > 0.0:
        raise NumericalError(
            "vacuum-energy data needs the gamma=0 ray, unreachable below "
            f"the spectral floor {floor:.6g} of a negative potential")
    if asym is None:
        asym = asymptotic_F_coefficients(graph, mc)
    _probe_secular_zero(graph, mc, asym, 0.0)

    fp_dir = {}
    res_dir = {}
    for bond in graph.bonds:
        L = bond.length
        ej = u_log_expansion(bond, DEPTH)

        def log_u(t, bond=bond):
            return solve_imag_axis(bond, t).log_u

        def g_sub(t, bond=bond, ej=ej):
            out = dirichlet_log_u_subtracted(bond, t) + math.log(2.0 * t)
            for j, e in ej.items():
                if e:
                    out -= e * t ** (-j)
            return out

        i_head, _ = _quad_guarded(log_u, 0.0, 1.0, 1e-12, 1e-10, 200)
        i_tail, _ = _tail_integral(g_sub, tol, False)
        rational = -L / 2.0 + 1.0
        for j, e in ej.items():
            if j >= 2 and e:
                rational -= j * e / (j - 1.0)
        inner = log_u(1.0) - g_sub(1.0) + rational - i_head - i_tail.real
        fp_dir[bond.id] = -inner / math.pi
        res_dir[bond.id] = d_constant(bond) / math.pi

    power = 2 * graph.bond_count - asym.leading_power
    coeffs = asym.log_coeffs
    log_c = math.log(abs(asym.c_lead))

    def logF_re(t):
        return F_imag(graph, mc, t).log_abs

    def g_im(t):
        out = logF_re(t) - log_c - power * math.log(t)
        for j, aj in enumerate(coeffs, start=1):
            if aj:
                out -= (aj * t ** (-j)).real
        return out

    i_head, _ = _quad_guarded(logF_re, 0.0, 1.0, 1e-12, 1e-10, 200)
    i_tail, _ = _tail_integral(g_im, tol, False)
    boundary = log_c + sum(aj.real for aj in coeffs)
    rational = -float(power)
    for j, aj in enumerate(coeffs, start=1):
        if j >= 2 and aj:
            rational -= j * aj.real / (j - 1.0)
    fp_im = -(boundary + rational - i_head - i_tail.real) / math.pi
    res_im = (coeffs[0] / (2.0 * math.pi)).real if asym.gap == 1 else 0.0

    return MinusHalfData(
        fp_im=fp_im,
        res_im=res_im,
        fp_dir=fp_dir,
        res_dir=res_dir,
        fp_total=fp_im + sum(fp_dir.values()),
        res_total=res_im + sum(res_dir.values()))

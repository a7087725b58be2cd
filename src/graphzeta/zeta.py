"""Spectral zeta functions from subtracted integrals along the rotated axis.

zeta(s, gamma) = sum_j (gamma + E_j)^(-s) splits into the Dirichlet parts
of the detached bonds plus the secular part carrying the matching
conditions.  Both are computed as

    sin(pi s)/pi * integral_sqrt(gamma)^inf (t^2-gamma)^(-s) h'(t) dt

with the large-t asymptotics of h removed and restored through closed
Gamma-function terms (_restored), which extends the strip of validity to
the left of Re s = 1/2.  The t-derivatives come from the solvers, never
from numerical differencing.

With tau = sqrt(t^2 - gamma) that is integral_0^inf tau^(1-2s) g(tau)
dtau, g = h'(t)/t, and so are the s = -1/2 integrals of minus_half_data
and the Casimir integrals (s = 1/2, unit weight).  One driver, integral,
evaluates them all: the substitution tau = z^(1/w) with adaptive quad on
[0, 1] and the width-doubling panels on [1, inf) live there.
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
    quadrature_error: float     # of fp_total


# ---------------------------------------------------------------------------
# the rotated-axis integral


def integral(g, s, tol, complex_path=False):
    """(value, error) of integral_0^inf tau^(1-2s) g(tau) dtau.

    [0, 1] goes to one adaptive quad after tau = z^(1/w), w = 2 - 2 Re s,
    which absorbs the endpoint power completely for real s (at s = 1/2
    it is the identity); for complex s a bounded logarithmic oscillation
    z^(-2i Im s / w) remains for the adaptive rule.

    [1, inf) goes to width-doubling panels.  After each panel a local
    power law is fitted; when the implied remainder is small it is added
    as a correction and counted towards the error estimate.  Exponential
    decay terminates even faster.  Once the samples fall to the rounding
    floor of the bond solves the power fit goes blind, so a small
    absolute floor also terminates, with the unresolvable remainder
    charged to the error estimate.

    On a real path only the real part of g is integrated and the value is
    a float.  Near the noise
    floor of the integrands built on bond solves quadpack reports
    roundoff; the estimate of that piece is then kept at least at epsabs.
    Every tolerance a caller passes reaches this driver, which refuses
    one outside 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise UnsupportedError("tol must be finite and positive")
    s = complex(s)
    w = 2.0 - 2.0 * s.real
    p = 1.0 / w
    beta = 2.0 * s.imag / w
    expo = 1.0 - 2.0 * s if complex_path else 1.0 - 2.0 * s.real

    def head(z):
        val = g(z ** p) / w
        if beta:
            val *= cmath.exp(complex(0.0, -beta * math.log(z)))
        return val if complex_path else val.real

    def tail(tau):
        val = tau ** expo * g(tau)
        return val if complex_path else val.real

    def piece(f, a, b, epsabs=1e-12, limit=400):
        parts = []
        err = 0.0
        for part in ((lambda x: f(x).real, lambda x: f(x).imag)
                     if complex_path else (f,)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                v, e = quad(part, a, b, epsabs=epsabs, epsrel=1e-10,
                            limit=limit)
            parts.append(v)
            err += max(e, epsabs) if caught else e
        return complex(*parts), err

    i_head, e_head = piece(head, 0.0, 1.0)
    i_tail, e_tail = 0j, 0.0
    a = 1.0
    width = 1.0
    floor = 1e-12 * max(1.0, abs(tail(1.0)))
    panel_abs = max(1e-13, 0.2 * tol)
    for _ in range(80):
        v, e = piece(tail, a, a + width, panel_abs, 120)
        i_tail += v
        e_tail += e
        a += width
        f1 = tail(a)
        f2 = tail(1.5 * a)
        m1, m2 = abs(f1), abs(f2)
        if max(m1, m2) <= floor:
            e_tail += max(m1, m2) * a
            break
        if m1 < 1e-280 or m2 < 1e-280:
            if m1 * a <= tol:
                break
        elif m2 < m1:
            q = math.log(m1 / m2) / math.log(1.5)
            if q > 1.1:
                rem = m1 * a / (q - 1.0)
                if rem <= 0.3 * tol:
                    i_tail += f1 * a / (q - 1.0)
                    e_tail += 0.25 * rem
                    break
        width *= 2.0
    else:
        raise NumericalError("tail of the rotated-axis integral did not "
                             "converge")
    total = i_head + i_tail
    return (total if complex_path else total.real), e_head + e_tail


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


def _restored(s, gamma, power, coeffs):
    """Closed form of the large-t terms power/t - sum_j j c_j t^(-j-1)
    subtracted from h'(t), coeffs yielding the pairs (j, c_j).

    At gamma = 0 they are subtracted beyond t = 1 only and come back
    through _k_frac; for gamma > 0 they are subtracted along the whole
    ray and come back as Gamma-function series terms.
    """
    if gamma == 0.0:
        out = power * _k_frac(s, 0)
        for j, c in coeffs:
            if c:
                out -= j * c * _k_frac(s, j)
        return out
    out = power * _gamma_power(gamma, -s) / 2.0
    for j, c in coeffs:
        if c:
            # (j c / 2) gamma^(-s-j/2) Gamma(s+j/2) / (Gamma(s) Gamma(1+j/2))
            out -= (c * (j / 2.0) * _gamma_power(gamma, -s - j / 2.0)
                    * _gamma_ratio(s, j) / complex(gamma_fn(1.0 + j / 2.0)))
    return out


def residues_at_minus_half(graph, asym):
    """(res_im, {bond id: res_dir}): the residues at s = -1/2 of the
    secular part and of each detached bond's Dirichlet part."""
    res_im = asym.residue_at_minus_half.real if asym.gap == 1 else 0.0
    return res_im, {b.id: d_constant(b) / math.pi for b in graph.bonds}


# ---------------------------------------------------------------------------
# guards


def _bond_floor(bond) -> float:
    vmin = bond.potential.minimum(bond.length)
    return math.sqrt(-vmin) + 1e-6 if vmin < 0.0 else 0.0


def _check_s(s: complex) -> None:
    if not cmath.isfinite(s):
        raise UnsupportedError("s must be finite")


def _check_gamma(floor: float, gamma: float, what: str) -> None:
    if not 0.0 <= gamma < math.inf:
        raise UnsupportedError("gamma must be finite and nonnegative")
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


def zeta_dir_bond(bond, s, gamma: float = 0.0, *,
                  tol: float = 1e-9) -> ZetaEvaluation:
    """Zeta function of the bond detached with Dirichlet ends."""
    s = complex(s)
    _check_s(s)
    if not -1.0 < s.real < 1.0:
        raise UnsupportedError("zeta_dir is represented in -1 < Re s < 1")
    if abs(s - 0.5) < 1e-9:
        raise UnsupportedError("s=1/2 is a pole of zeta_dir")
    if abs(s + 0.5) < 1e-9:
        raise UnsupportedError("s=-1/2 is a pole of zeta_dir; its finite "
                               "part and residue come from minus_half_data")
    _check_gamma(_bond_floor(bond), gamma, f"bond '{bond.id}'")

    L = bond.length
    ej = u_log_expansion(bond, DEPTH)
    K = _sin_over_pi(s)

    def g(tau):
        if gamma == 0.0 and tau < 1.0:
            return solve_imag_axis(bond, tau).dlog_u_dt / tau
        t = math.sqrt(gamma + tau * tau) if gamma else tau
        return dirichlet_subtracted_derivative(bond, t) / t

    i, err = integral(g, s, tol, s.imag != 0.0)
    if gamma == 0.0:
        closed = K * L / (2.0 * s - 1.0)
    else:
        closed = (L * complex(gamma_fn(s - 0.5)) * complex(rgamma(s))
                  * _gamma_power(gamma, 0.5 - s) / (2.0 * SQRT_PI))
    closed += _restored(s, gamma, -1, ej.items())
    return ZetaEvaluation(s=s, gamma=gamma, value=K * i + closed,
                          strip=(-1.0, 1.0), quadrature_error=abs(K) * err)


# ---------------------------------------------------------------------------
# secular part


def subtracted_logF_derivative(graph, mc, t: float, *, asym=None) -> complex:
    """d/dt log F with the power-law asymptotics removed to depth DEPTH."""
    if asym is None:
        asym = asymptotic_F_coefficients(graph, mc, check=False)
    power = 2 * graph.bond_count - asym.leading_power
    _, slope = logF_and_slope_imag(graph, mc, t)
    out = slope - power / t
    for j, aj in enumerate(asym.log_coeffs[:DEPTH], start=1):
        if aj:
            out += j * aj * t ** (-j - 1)
    return out


def zeta_im(graph, mc, s, gamma: float = 0.0, *,
            tol: float = 1e-9) -> ZetaEvaluation:
    """Secular part of the zeta function."""
    s = complex(s)
    _check_s(s)
    _require_local(mc, "zeta_im")
    _check_gamma(graph.spectral_floor(), gamma, "zeta_im")
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

    def g(tau):
        if gamma == 0.0 and tau < 1.0:
            return logF_and_slope_imag(graph, mc, tau)[1] / tau
        t = math.sqrt(gamma + tau * tau) if gamma else tau
        return subtracted_logF_derivative(graph, mc, t, asym=asym) / t

    i, err = integral(g, s, tol, complex_path)
    K = _sin_over_pi(s)
    closed = _restored(s, gamma, power,
                       enumerate(asym.log_coeffs[:DEPTH], start=1))
    return ZetaEvaluation(s=s, gamma=gamma, value=K * i + closed,
                          strip=strip, quadrature_error=abs(K) * err)


def zeta_total(graph, mc, s, gamma: float = 0.0, *,
               tol: float = 1e-9) -> ZetaEvaluation:
    """zeta(s, gamma) of the full graph operator."""
    zi = zeta_im(graph, mc, s, gamma, tol=tol)
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


def minus_half_data(graph, mc, *, tol: float = 1e-10) -> MinusHalfData:
    """Finite parts and residues of the zeta components at s = -1/2, gamma=0.

    Both t-integrals are taken after integration by parts, so only values
    of log u and log F enter; all boundary terms are finite because of the
    subtractions and are folded in below.  quadrature_error is the sum of
    the integrals' error estimates over pi, the error of fp_total.
    """
    _require_local(mc, "minus_half_data")
    floor = graph.spectral_floor()
    if floor > 0.0:
        raise NumericalError(
            "vacuum-energy data needs the gamma=0 ray, unreachable below "
            f"the spectral floor {floor:.6g} of a negative potential")
    asym = asymptotic_F_coefficients(graph, mc)
    _probe_secular_zero(graph, mc, asym, 0.0)

    fp_dir = {}
    err = 0.0
    for bond in graph.bonds:
        ej = u_log_expansion(bond, DEPTH)

        def g_dir(t, bond=bond, ej=ej):
            if t < 1.0:
                return solve_imag_axis(bond, t).log_u
            out = dirichlet_log_u_subtracted(bond, t) + math.log(2.0 * t)
            for j, e in ej.items():
                if e:
                    out -= e * t ** (-j)
            return out

        i, i_err = integral(g_dir, 0.5, tol)
        err += i_err
        rational = -bond.length / 2.0 + 1.0
        for j, e in ej.items():
            if j >= 2 and e:
                rational -= j * e / (j - 1.0)
        inner = (solve_imag_axis(bond, 1.0).log_u - g_dir(1.0) + rational
                 - i)
        fp_dir[bond.id] = -inner / math.pi

    power = 2 * graph.bond_count - asym.leading_power
    coeffs = asym.log_coeffs
    log_c = math.log(abs(asym.c_lead))

    def g_im(t):
        log_f = F_imag(graph, mc, t).log_abs
        if t < 1.0:
            return log_f
        out = log_f - log_c - power * math.log(t)
        for j, aj in enumerate(coeffs, start=1):
            if aj:
                out -= (aj * t ** (-j)).real
        return out

    i, i_err = integral(g_im, 0.5, tol)
    err += i_err
    boundary = log_c + sum(aj.real for aj in coeffs)
    rational = -float(power)
    for j, aj in enumerate(coeffs, start=1):
        if j >= 2 and aj:
            rational -= j * aj.real / (j - 1.0)
    fp_im = -(boundary + rational - i) / math.pi
    res_im, res_dir = residues_at_minus_half(graph, asym)

    return MinusHalfData(
        fp_im=fp_im,
        res_im=res_im,
        fp_dir=fp_dir,
        res_dir=res_dir,
        fp_total=fp_im + sum(fp_dir.values()),
        res_total=res_im + sum(res_dir.values()),
        quadrature_error=err / math.pi)

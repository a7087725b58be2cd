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
evaluates them all with an adaptive 21-point Gauss-Kronrod rule that
calls g once per refinement round on an array of nodes.  Every part of
one call (the secular part, each bond's Dirichlet part) is one column of
g, so the parts share their bond solves and their nodes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedError
from .interval import bond_solution, dirichlet_subtracted_derivative
from .potentials import spectral_floor
from .secular import (F_imag, _secular_is_complex, _vanished,
                      asymptotic_F_coefficients, bond_solutions, logF_imag,
                      logF_slope_imag)
from .wkb import d_constant, u_log_expansion

DEPTH = 4
SQRT_PI = math.sqrt(math.pi)
MAX_INTERVALS = 200

# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21, Piessens et al.
# 1983): the Kronrod nodes x >= 0 and their weights, and the weights of
# the embedded 10-point Gauss rule, whose nodes are every second x
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208907236102, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0])
_GK_X = np.concatenate((-_XK[:-1], _XK[::-1]))
_GK_W = np.concatenate((_WK[:-1], _WK[::-1]))
_GK_WG = np.concatenate((_WG[:-1], _WG[::-1]))


@dataclass(frozen=True)
class ZetaEvaluation:
    s: complex
    gamma: float
    value: complex
    strip: tuple
    quadrature_error: float
    nodes: int = 0              # integrand nodes of the rotated-axis integral


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


def _gk21(f, half):
    """Kronrod values and QUADPACK error estimates of the intervals whose
    21 node values are f (intervals, 21, columns) and whose half-widths
    are half; also the rounding floor 50 eps |f| of each estimate."""
    resk = np.einsum("j,ijk->ik", _GK_W, f)
    resg = np.einsum("j,ijk->ik", _GK_WG, f)
    resabs = np.einsum("j,ijk->ik", _GK_W, np.abs(f))
    resasc = np.einsum("j,ijk->ik", _GK_W, np.abs(f - 0.5 * resk[:, None]))
    h = half[:, None]
    err = np.abs(resk - resg) * h
    resasc *= h
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err),
                      where=resasc > 0.0)
    err = np.where(err > 0.0, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    floor = 50.0 * np.finfo(float).eps * resabs * h
    return resk * h, np.maximum(err, floor), floor


def integral(g, s, tol, complex_path=False):
    """(value, error, nodes) of integral_0^inf tau^(1-2s) g(tau) dtau.

    g maps a 1-d array of tau to an array with one row per tau and one
    column per integrand (a 1-d array is one column); value and error
    have one entry per column.  On
    a real path only the real part of g is integrated and the value is
    real; on a complex path the real and imaginary parts are separate
    columns of the rule.  nodes counts the tau at which g was evaluated.

    The head, tau in [0, 1], is mapped by tau = z^(1/w), w = 2 - 2 Re s.
    For real s the rule works in z, which absorbs the endpoint power
    completely (at s = 1/2 it is the identity).  For complex s the
    power leaves the bounded oscillation z^(-2i Im s / w), with no limit
    at z = 0, so the rule works in y = log z instead, where the
    integrand decays like e^y; the head is cut at y = -k log 2, where
    the first of two successive samples of the integrand in y at
    z = 2^-k, k = 0..47, falls below 1e-12 times the largest of 1, the
    value at tau = 1 and the head's samples, and the sample there is
    charged to the error.  The tail, [1, inf), is mapped by tau = e^y
    and cut at y = k log 2, where the first of two successive samples of
    tau^(1-2s) g at tau = 2^k, k = 0..47, falls below
    1e-12 max(1, |value at tau = 1|); the remainder beyond, estimated as
    that sample times 2^k, is charged to the error.  The samples are
    taken twelve at a time until the cuts show, the first twelve in the
    call that evaluates the first nodes of a real-s head.

    The pieces are intervals of one adaptive 21-point Gauss-Kronrod
    rule with the QUADPACK error estimate (Piessens et al., 1983).  Each
    round bisects the intervals with the largest errors, as many as it
    takes for the rest to meet the target max(tol / 1000, 1e-10 |value|)
    in every column, and evaluates g once on the nodes of all of them.
    Intervals whose estimate has reached the rounding floor of their
    samples are not bisected.  When four rounds have not halved the
    error (noise in g, or a g that is not integrable) the driver stops:
    an error within tol is returned, a larger one raises NumericalError.
    The error covers the rule and the cut ends, not the error of the
    values g itself returns.  Every tolerance a caller passes reaches
    this driver, which refuses one outside 0 < tol < inf; a non-finite
    value of g, and more than MAX_INTERVALS intervals, raise
    NumericalError.
    """
    if not 0.0 < tol < math.inf:
        raise UnsupportedError("tol must be finite and positive")
    s = complex(s)
    w = 2.0 - 2.0 * s.real
    expo = 1.0 - 2.0 * s if complex_path else 1.0 - 2.0 * s.real
    log_head = s.imag != 0.0
    nodes = 0

    def evaluate(tau):
        nonlocal nodes
        nodes += len(tau)
        vals = np.asarray(g(tau)).reshape(len(tau), -1)
        vals = vals.astype(complex) if complex_path else vals.real
        bad = ~np.isfinite(vals).all(axis=1)
        if bad.any():
            raise NumericalError("rotated-axis integrand is not finite at "
                                 f"tau={tau[bad][0]:.6g}")
        return vals

    def columns(vals):
        return (np.concatenate((vals.real, vals.imag), axis=1)
                if complex_path else vals)

    # x is the variable of the rule: the head's z on [0, 1] (real s) or
    # y = log z on [-k log 2, 0] (complex s), the tail's y + 1 on
    # [1, 1 + k log 2]
    def weighted(x, vals):
        head = x < 1.0
        wt = np.empty(len(x), complex if complex_path else float)
        wt[head] = (np.exp((1.0 - 2j * s.imag / w) * x[head]) / w
                    if log_head else 1.0 / w)
        wt[~head] = np.exp((expo + 1.0) * (x[~head] - 1.0))
        return columns(vals * wt[:, None])

    def taus(x):
        head = x < 1.0
        tau = np.empty_like(x)
        # tau = z^(1/w) underflows as Re s -> 1; below e^-700 g(tau) is
        # g(0) to rounding
        tau[head] = (np.exp(np.maximum(x[head] / w, -700.0)) if log_head
                     else x[head] ** (1.0 / w))
        tau[~head] = np.exp(x[~head] - 1.0)
        return tau

    def nodes_of(a, b):
        return ((0.5 * (a + b))[:, None]
                + (0.5 * (b - a))[:, None] * _GK_X).ravel()

    def cut_of(samples, ref):
        """Index of the first of two successive samples at or below
        1e-12 max(1, |ref|) in every column, or None."""
        low = (np.abs(samples) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all(
            axis=1)
        hit = np.flatnonzero(low[:-1] & low[1:])
        return hit[0] if len(hit) else None

    # the probes of the ends, in chunks until both cuts show; a real-s
    # head has its first nodes in the call of the first chunk
    first = np.empty(0) if log_head else nodes_of(np.array([0.0]),
                                                  np.array([1.0]))
    tail, head = [], []
    k_tail = k_head = None
    for chunk in np.split(np.arange(48.0), 4):
        up = 2.0 ** chunk if k_tail is None else np.empty(0)
        down = (-math.log(2.0) * chunk if log_head and k_head is None
                else np.empty(0))
        vals = evaluate(np.concatenate((taus(first), up, taus(down))))
        if len(first):
            head_vals = vals[:len(first)]
            vals = vals[len(first):]
            first = np.empty(0)
        if len(up):
            tail.append(columns(vals[:len(up)] * (up ** expo)[:, None]))
            k_tail = cut_of(np.concatenate(tail), tail[0][0])
        if len(down):
            head.append(weighted(down, vals[len(up):]))
            samples = np.concatenate(head)
            k_head = cut_of(samples, np.maximum(np.abs(tail[0][0]),
                                                np.abs(samples).max(axis=0)))
        if k_tail is not None and (k_head is not None or not log_head):
            break
    else:
        where = 2.0 ** 47 if k_tail is None else 2.0 ** (-47.0 / w)
        raise NumericalError("rotated-axis integrand has not decayed at "
                             f"tau={where:g}")
    tail = np.concatenate(tail)
    k = k_tail
    rest = np.maximum(np.abs(tail[k]), np.abs(tail[k + 1])) * 2.0 ** k
    lo, hi = [], []
    if log_head:
        head = np.concatenate(head)
        rest += np.maximum(np.abs(head[k_head]), np.abs(head[k_head + 1]))
        a = b = np.empty(0)
        val = err = rfloor = np.empty((0, head.shape[1]))
        if k_head:
            # one period of the oscillation e^(-2i Im s y / w) per interval
            y0 = -k_head * math.log(2.0)
            n = math.ceil(-y0 * abs(s.imag) / (math.pi * w))
            if n > MAX_INTERVALS:
                raise NumericalError(
                    f"rotated-axis integrand oscillates {n} times below "
                    f"tau=1, more than {MAX_INTERVALS} intervals can hold")
            edges = np.linspace(y0, 0.0, n + 1)
            lo.extend(edges[:-1])
            hi.extend(edges[1:])
    else:
        a, b = np.array([0.0]), np.array([1.0])
        val, err, rfloor = _gk21(
            weighted(nodes_of(a, b), head_vals).reshape(1, 21, -1),
            np.array([0.5]))
    # the first intervals in y wait for the first round
    if k:
        lo.append(1.0)
        hi.append(1.0 + k * math.log(2.0))
    pending = (np.array(lo), np.array(hi))
    progress = []
    while True:
        target = np.maximum(1e-3 * tol, 1e-10 * np.abs(val.sum(axis=0)))
        total = err.sum(axis=0)
        ratio = (err / target).max(axis=1)
        pick = np.empty(0, int)
        if not (total <= target).all():
            worst = taus(np.array([0.5 * (a + b)[np.argmax(ratio)]]))[0]
            # stalled: four rounds have not halved the error (noise in g,
            # or a g that is not integrable)
            progress.append(ratio.sum())
            stalled = len(progress) > 4 and progress[-1] > 0.5 * progress[-5]
            live = np.flatnonzero((err > rfloor).any(axis=1))
            if stalled or not len(live):
                if (total > np.maximum(tol, target)).any():
                    raise NumericalError(
                        "rotated-axis integral does not converge; its "
                        f"largest error sits at tau={worst:.6g}")
            else:
                order = live[np.argsort(-ratio[live])]
                left = total - np.cumsum(err[order], axis=0)
                done = (left <= 0.5 * target).all(axis=1)
                pick = order[:np.argmax(done) + 1] if done.any() else order
                if len(a) + len(pick) > MAX_INTERVALS:
                    raise NumericalError(
                        "rotated-axis integral did not converge within "
                        f"{MAX_INTERVALS} intervals; its largest error "
                        f"sits at tau={worst:.6g}")
        if not len(pick) and not len(pending[0]):
            break
        mid = 0.5 * (a[pick] + b[pick])
        lo = np.concatenate((pending[0], a[pick], mid))
        hi = np.concatenate((pending[1], mid, b[pick]))
        pending = (np.empty(0), np.empty(0))
        keep = np.ones(len(a), bool)
        keep[pick] = False
        x = nodes_of(lo, hi)
        f = weighted(x, evaluate(taus(x))).reshape(len(lo), 21, -1)
        v, e, fl = _gk21(f, 0.5 * (hi - lo))
        a = np.concatenate((a[keep], lo))
        b = np.concatenate((b[keep], hi))
        val = np.concatenate((val[keep], v))
        err = np.concatenate((err[keep], e))
        rfloor = np.concatenate((rfloor[keep], fl))
    value = val.sum(axis=0)
    error = err.sum(axis=0) + rest
    if complex_path:
        m = value.shape[0] // 2
        value = value[:m] + 1j * value[m:]
        error = error[:m] + error[m:]
    return value, error, nodes


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


# Lanczos's approximation with g = 7 and nine terms (Lanczos, SIAM J.
# Numer. Anal. B 1, 1964), used on Re z >= 1/2
_LANCZOS_G = 7.0
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6,
            1.5056327351493116e-7)


def _lanczos(z: complex) -> complex:
    z -= 1.0
    series = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        series += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((z + 0.5) * cmath.log(t)
                                                 - t) * series


def _sin_pi(z: complex) -> complex:
    """sin(pi z), reduced by the nearest integer so that it is exactly 0
    at the integers."""
    n = round(z.real)
    return (-1.0) ** n * cmath.sin(math.pi * (z - n))


def _gamma(z) -> complex:
    """Gamma(z) at complex z away from the poles; reflection below
    Re z = 1/2."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (_sin_pi(z) * _lanczos(1.0 - z))
    return _lanczos(z)


def _rgamma(z) -> complex:
    """1 / Gamma(z), exactly 0 at z = 0, -1, -2, ..."""
    z = complex(z)
    if z.real < 0.5:
        return _sin_pi(z) * _lanczos(1.0 - z) / math.pi
    return 1.0 / _lanczos(z)


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
    return _gamma(s + j / 2.0) * _rgamma(s)


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
                    * _gamma_ratio(s, j) / math.gamma(1.0 + j / 2.0))
    return out


def residues_at_minus_half(graph, asym):
    """(res_im, {bond id: res_dir}): the residues at s = -1/2 of the
    secular part and of each detached bond's Dirichlet part."""
    res_im = asym.residue_at_minus_half.real if asym.gap == 1 else 0.0
    return res_im, {b.id: d_constant(b) / math.pi for b in graph.bonds}


# ---------------------------------------------------------------------------
# guards


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


# ---------------------------------------------------------------------------
# zeta: the secular part and the Dirichlet parts


def _check_dir(bond, s: complex, gamma: float) -> None:
    if not -1.0 < s.real < 1.0:
        raise UnsupportedError("zeta_dir is represented in -1 < Re s < 1")
    if abs(s - 0.5) < 1e-9:
        raise UnsupportedError("s=1/2 is a pole of zeta_dir")
    if abs(s + 0.5) < 1e-9:
        raise UnsupportedError("s=-1/2 is a pole of zeta_dir; its finite "
                               "part and residue come from minus_half_data")
    _check_gamma(spectral_floor(bond.potential, bond.length), gamma,
                 f"bond '{bond.id}'")


def _dir_closed(bond, s: complex, gamma: float) -> complex:
    L = bond.length
    if gamma == 0.0:
        closed = _sin_over_pi(s) * L / (2.0 * s - 1.0)
    else:
        closed = (L * _gamma(s - 0.5) * _rgamma(s)
                  * _gamma_power(gamma, 0.5 - s) / (2.0 * SQRT_PI))
    return closed + _restored(s, gamma, -1, u_log_expansion(bond).items())


def _secular_setup(graph, mc, s: complex, gamma: float):
    """The checks of the secular part; returns its asymptotic data."""
    _require_local(mc, "zeta_im")
    _check_gamma(graph.spectral_floor(), gamma, "zeta_im")
    asym = asymptotic_F_coefficients(graph, mc)
    if not asym.strip_min < s.real < 1.0:
        raise UnsupportedError(
            f"zeta_im is represented in {asym.strip_min:g} < Re s < 1 for "
            "this graph")
    gap = asym.gap
    if math.isfinite(gap) and int(gap) % 2 == 1 and abs(s + gap / 2.0) < 1e-9:
        raise UnsupportedError(
            f"s={-gap / 2.0} is a pole of zeta_im; its finite part and "
            "residue come from minus_half_data")
    _probe_secular_zero(graph, mc, asym, gamma)
    return asym


def _power(graph, asym) -> int:
    return 2 * graph.bond_count - asym.leading_power


def _subtract_powers(slope, t, power, coeffs):
    """slope - power/t + sum_j j a_j t^(-j-1) over the first DEPTH a_j."""
    out = slope - power / t
    for j, aj in enumerate(coeffs[:DEPTH], start=1):
        if aj:
            out = out + j * aj * t ** (-j - 1)
    return out


def _zeta_parts(s: complex, gamma: float, tol: float, bonds, secular=None):
    """(values, errors, nodes) of the zeta parts, the secular part first
    when secular = (graph, mc, asym) is given, then the Dirichlet part of
    each bond; one integral with one column per part.

    Each column is h'(t)/t, unsubtracted below tau = 1 on the gamma = 0
    ray and subtracted above it (everywhere when gamma > 0).
    """
    if secular is not None:
        graph, mc, asym = secular
        power = _power(graph, asym)

    def g(tau):
        t = np.sqrt(gamma + tau * tau) if gamma else tau
        sub = tau >= 1.0 if gamma == 0.0 else np.ones(len(tau), bool)
        ts = t[sub]
        cols = []
        if secular is not None:
            sols = bond_solutions(graph, t)
            fwd = [f for f, _ in sols]
            col = logF_slope_imag(graph, mc, t, sols)
            col[sub] = _subtract_powers(col[sub], ts, power, asym.log_coeffs)
            cols.append(col / t)
        else:
            fwd = [bond_solution(bond, t) for bond in bonds]
        for bond, sol in zip(bonds, fwd):
            col = sol.dlog_u_dt.copy()
            col[sub] = dirichlet_subtracted_derivative(bond, ts, sol.take(sub))
            cols.append(col / t)
        return np.stack(cols, axis=-1)

    complex_path = s.imag != 0.0 or (secular is not None
                                     and _secular_is_complex(graph, mc))
    i, err, nodes = integral(g, s, tol, complex_path)
    K = _sin_over_pi(s)
    closed = [_dir_closed(bond, s, gamma) for bond in bonds]
    if secular is not None:
        closed.insert(0, _restored(s, gamma, power,
                                   enumerate(asym.log_coeffs[:DEPTH], start=1)))
    return K * i + np.array(closed), abs(K) * err, nodes


def zeta_dir_bond(bond, s, gamma: float = 0.0, *,
                  tol: float = 1e-9) -> ZetaEvaluation:
    """Zeta function of the bond detached with Dirichlet ends."""
    s = complex(s)
    _check_s(s)
    _check_dir(bond, s, gamma)
    values, errors, nodes = _zeta_parts(s, gamma, tol, [bond])
    return ZetaEvaluation(s=s, gamma=gamma, value=complex(values[0]),
                          strip=(-1.0, 1.0),
                          quadrature_error=float(errors[0]), nodes=nodes)


def subtracted_logF_derivative(graph, mc, t, *, asym=None):
    """d/dt log F with the power-law asymptotics removed to depth DEPTH,
    over an array of t, or at one t."""
    if asym is None:
        asym = asymptotic_F_coefficients(graph, mc, check=False)
    t = np.asarray(t, dtype=float)
    slope = logF_slope_imag(graph, mc, np.atleast_1d(t)).reshape(t.shape)
    return _subtract_powers(slope, t, _power(graph, asym),
                            asym.log_coeffs)[()]


def zeta_im(graph, mc, s, gamma: float = 0.0, *,
            tol: float = 1e-9) -> ZetaEvaluation:
    """Secular part of the zeta function."""
    s = complex(s)
    _check_s(s)
    asym = _secular_setup(graph, mc, s, gamma)
    values, errors, nodes = _zeta_parts(s, gamma, tol, [],
                                        (graph, mc, asym))
    return ZetaEvaluation(s=s, gamma=gamma, value=complex(values[0]),
                          strip=(asym.strip_min, 1.0),
                          quadrature_error=float(errors[0]), nodes=nodes)


def zeta_total(graph, mc, s, gamma: float = 0.0, *,
               tol: float = 1e-9) -> ZetaEvaluation:
    """zeta(s, gamma) of the full graph operator: the secular part and
    every bond's Dirichlet part, as the columns of one integral."""
    s = complex(s)
    _check_s(s)
    asym = _secular_setup(graph, mc, s, gamma)
    for bond in graph.bonds:
        _check_dir(bond, s, gamma)
    values, errors, nodes = _zeta_parts(s, gamma, tol, graph.bonds,
                                        (graph, mc, asym))
    return ZetaEvaluation(s=s, gamma=gamma, value=complex(values.sum()),
                          strip=(max(asym.strip_min, -1.0), 1.0),
                          quadrature_error=float(errors.sum()), nodes=nodes)


# ---------------------------------------------------------------------------
# s = -1/2: finite parts and residues


def minus_half_data(graph, mc, *, tol: float = 1e-10) -> MinusHalfData:
    """Finite parts and residues of the zeta components at s = -1/2, gamma=0.

    Both t-integrals are taken after integration by parts, so only values
    of log u and log F enter; all boundary terms are finite because of the
    subtractions and are folded in below.  The secular part and each
    bond's Dirichlet part are the columns of one integral, unsubtracted
    below t = 1 and subtracted above.  quadrature_error is the sum of
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

    power = _power(graph, asym)
    coeffs = asym.log_coeffs
    log_c = math.log(abs(asym.c_lead))
    expansions = [u_log_expansion(bond) for bond in graph.bonds]

    def g(t):
        sols = bond_solutions(graph, t, derivative=False)
        sub = t >= 1.0
        ts = t[sub]
        col, _ = logF_imag(graph, mc, t, sols)
        if np.isneginf(col).any():
            raise _vanished(t[np.isneginf(col)][0])
        col[sub] -= log_c + power * np.log(ts)
        for j, aj in enumerate(coeffs, start=1):
            if aj:
                col[sub] -= (aj * ts ** (-j)).real
        cols = [col]
        for bond, ej, (fwd, _) in zip(graph.bonds, expansions, sols):
            col = fwd.log_u.copy()
            col[sub] = fwd.log_u_excess[sub] + np.log(2.0 * ts)
            for j, e in ej.items():
                if e:
                    col[sub] -= e * ts ** (-j)
            cols.append(col)
        return np.stack(cols, axis=-1)

    i, i_err, _ = integral(g, 0.5, tol)
    boundary = log_c + sum(aj.real for aj in coeffs)
    rational = -float(power)
    for j, aj in enumerate(coeffs, start=1):
        if j >= 2 and aj:
            rational -= j * aj.real / (j - 1.0)
    fp_im = -(boundary + rational - i[0]) / math.pi

    fp_dir = {}
    for bond, ej, i_b in zip(graph.bonds, expansions, i[1:]):
        # the unsubtracted minus the subtracted integrand at t = 1
        jump = bond.length - math.log(2.0) + sum(ej.values())
        rational = -bond.length / 2.0 + 1.0
        for j, e in ej.items():
            if j >= 2 and e:
                rational -= j * e / (j - 1.0)
        fp_dir[bond.id] = -(jump + rational - i_b) / math.pi
    res_im, res_dir = residues_at_minus_half(graph, asym)

    return MinusHalfData(
        fp_im=fp_im,
        res_im=res_im,
        fp_dir=fp_dir,
        res_dir=res_dir,
        fp_total=fp_im + sum(fp_dir.values()),
        res_total=res_im + sum(res_dir.values()),
        quadrature_error=float(i_err.sum()) / math.pi)

"""Spectral zeta functions from subtracted integrals along the rotated axis.

zeta(s, gamma) = sum_j (gamma + E_j)^(-s) splits into the Dirichlet parts
of the detached bonds plus the secular part carrying the matching
conditions.  Both are computed as

    sin(pi s)/pi * integral_sqrt(gamma)^inf (t^2-gamma)^(-s) h'(t) dt

with the large-t powers of h' removed beyond t^2 = gamma + J^2,
J = max(1, sqrt(2 gamma)), and restored in closed form by a binomial
series in gamma / J^2 (_restored), which extends the strip of validity
to the left of Re s = 1/2.  The t-derivatives come from the solvers,
never from numerical differencing.

With tau = sqrt(t^2 - gamma) that is integral_0^inf tau^(1-2s) g(tau)
dtau, g = h'(t)/t, and so are the s = -1/2 integrals of minus_half_data
and the Casimir integrals (s = 1/2, unit weight).  One driver, integral,
evaluates them all with an adaptive 21-point Gauss-Kronrod rule that
calls g once per refinement round on an array of nodes.  Every part of
one call (the secular part, each bond's Dirichlet part) is one column of
g, so the parts share their bond solves and their nodes.  The large-t
model of the secular part and its checks come from
secular.checked_asymptotics, paid once per (graph, mc) and probe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedError
from .interval import bond_solution, dirichlet_subtracted_derivative
from .potentials import spectral_floor
from .secular import (_secular_is_complex, _vanished,
                      asymptotic_F_coefficients, bond_solutions,
                      checked_asymptotics, logF_imag, logF_slope_imag,
                      per_distinct_bond)
from .wkb import d_constant, u_log_expansion

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
    call that evaluates the first nodes of a real-s head.  The cut tail
    enters the first round as its two halves when k >= 4, as one
    interval otherwise: a tail that spans four or more octaves needs
    its halves anyway, and a single interval over it would be evaluated
    only to be bisected, while a short tail, that of a long bond, often
    meets its target whole.

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
    # the first intervals in y wait for the first round: the cut tail as
    # its two halves from k = 4 on, as one interval below
    if k:
        top = 1.0 + k * math.log(2.0)
        edges = [1.0, 0.5 * (1.0 + top), top] if k >= 4 else [1.0, top]
        lo.extend(edges[:-1])
        hi.extend(edges[1:])
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


# binom(-m/2, n) for m = 1..6 (rows) and n = 0..64 (columns), and the
# order m - 2 + 2n of the sin(pi s)/(pi (2s + order)) each multiplies in
# _restored; at r <= 1/2 the terms past n = 64 add less than 1e-17 of the
# sum
_N = np.arange(65)
_M = np.arange(1, 7)[:, None]
_BINOM = np.cumprod(np.hstack((np.ones((6, 1)),
                               (-0.5 * _M - _N[1:] + 1.0) / _N[1:])), axis=1)
_ORDER = _M - 2.0 + 2.0 * _N


def _restored(s, gamma, J, parts):
    """Closed forms, one per part, of the large-t terms c t^(-m) of h'(t)/t
    that _zeta_parts subtracts beyond tau = J, for each part's pairs (m, c),
    1 <= m <= 6.  With t^2 = gamma + tau^2 and r = gamma / J^2 <= 1/2, the
    binomial series of (1 + gamma/tau^2)^(-m/2) integrates term by term:

        sin(pi s)/pi integral_J^inf tau^(1-2s) c t^(-m) dtau
            = c J^(2-2s-m) sum_n binom(-m/2, n) r^n
              sin(pi s)/(pi (2s + m - 2 + 2n)).

    At gamma = 0 only n = 0 remains.  The sine is reduced by the nearest
    integer q, accurate near the removable poles s = q <= 0 of the even
    orders; on one a term is its limit (-1)^q/2.
    """
    q = round(s.real)
    den = 2.0 * s + _ORDER
    pole = (den == 0.0) & (_ORDER % 2 == 0)
    den[pole] = math.inf
    k = (-1.0) ** q * cmath.sin(math.pi * (s - q)) / math.pi / den
    k[pole] = 0.5 * (-1.0) ** q
    terms = (_BINOM * k) @ (gamma / (J * J)) ** _N
    return np.array([sum(c * terms[m - 1] * J ** (2.0 - 2.0 * s - m)
                         for m, c in part if c) for part in parts])


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


def _secular_setup(graph, mc, s: complex, gamma: float):
    """The checks of the secular part; returns its asymptotic data, from
    the memoised set-up of (graph, mc) (checked_asymptotics)."""
    _require_local(mc, "zeta_im")
    _check_gamma(graph.spectral_floor(), gamma, "zeta_im")
    asym = checked_asymptotics(graph, mc, gamma)
    if not asym.strip_min < s.real < 1.0:
        raise UnsupportedError(
            f"zeta_im is represented in {asym.strip_min:g} < Re s < 1 for "
            "this graph")
    gap = asym.gap
    if math.isfinite(gap) and int(gap) % 2 == 1 and abs(s + gap / 2.0) < 1e-9:
        raise UnsupportedError(
            f"s={-gap / 2.0} is a pole of zeta_im; its finite part and "
            "residue come from minus_half_data")
    return asym


def _power(graph, asym) -> int:
    return 2 * graph.bond_count - asym.leading_power


def _subtract_powers(slope, t, power, coeffs):
    """slope - power/t + sum_j j a_j t^(-j-1) over the four a_j."""
    out = slope - power / t
    for j, aj in enumerate(coeffs, start=1):
        if aj:
            out = out + j * aj * t ** (-j - 1)
    return out


def _zeta_parts(s: complex, gamma: float, tol: float, bonds, secular=None):
    """(values, errors, nodes) of the zeta parts, the secular part first
    when secular = (graph, mc, asym) is given, then the Dirichlet part of
    each bond; one integral with one column per part.

    Each column is h'(t)/t, unsubtracted below tau = J = max(1,
    sqrt(2 gamma)) and subtracted above it, where _restored gives back
    what was subtracted.  The integral runs in sigma = tau / J, so that
    the switch sits on the driver's head/tail split at sigma = 1, and is
    scaled back by J^(2-2s); the tolerance is divided by that scale, and
    a gamma that puts the scale or the tolerance beyond floating point
    raises NumericalError.  Bonds of one (length, potential) share their
    Dirichlet column (per_distinct_bond); bonds is either graph.bonds or
    holds the one bond of a secular-free call.
    """
    if secular is not None:
        graph, mc, asym = secular
        power = _power(graph, asym)
    J = max(1.0, math.sqrt(2.0 * gamma))
    try:
        scale = J ** (2.0 - 2.0 * s)
    except OverflowError:
        scale = math.inf
    # integral refuses a tol outside (0, inf) itself
    if 0.0 < tol < math.inf and not tol / abs(scale) > 0.0:
        raise NumericalError(
            f"gamma={gamma:g} is too large at s={s:g}: the scale "
            "J^(2-2s), J = sqrt(2 gamma), of the rotated-axis integral "
            "and its tolerance are not representable in floating point")

    def g(sigma):
        tau = J * sigma
        t = np.sqrt(gamma + tau * tau) if gamma else tau
        sub = sigma >= 1.0
        ts = t[sub]
        cols = []
        if secular is not None:
            sols = bond_solutions(graph, t)
            solved = dict(zip(graph.bonds, sols))
            col = logF_slope_imag(graph, mc, t, sols)
            col[sub] = _subtract_powers(col[sub], ts, power, asym.log_coeffs)
            cols.append(col / t)

        def dirichlet(bond):
            sol = (solved[bond] if secular is not None
                   else bond_solution(bond, t))
            col = sol.dlog_u_dt.copy()
            col[sub] = dirichlet_subtracted_derivative(bond, ts, sol.take(sub))
            return col / t

        cols += per_distinct_bond(bonds, dirichlet)
        return np.stack(cols, axis=-1)

    complex_path = s.imag != 0.0 or (secular is not None
                                     and _secular_is_complex(graph, mc))
    i, err, nodes = integral(g, s, tol / abs(scale), complex_path)
    # h'/t ~ L/t - 1/t^2 - sum_j j e_j t^(-j-2) for log u, and
    # power/t^2 - sum_j j a_j t^(-j-2) for log F
    parts = [[(2, -1.0)] + [(j + 2, -j * e)
                            for j, e in u_log_expansion(bond).items()]
             + [(1, bond.length)] for bond in bonds]
    if secular is not None:
        parts.insert(0, [(2, power)] + [(j + 2, -j * a) for j, a in
                                        enumerate(asym.log_coeffs, start=1)])
    K = _sin_over_pi(s)
    return (K * (scale * i) + _restored(s, gamma, J, parts),
            abs(K) * abs(scale) * err, nodes)


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
    """d/dt log F with the power-law asymptotics of the four a_j removed,
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
    asym = checked_asymptotics(graph, mc)

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
        for bond, ej, sol in zip(graph.bonds, expansions, sols):
            col = sol.log_u.copy()
            col[sub] = sol.log_u_excess[sub] + np.log(2.0 * ts)
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

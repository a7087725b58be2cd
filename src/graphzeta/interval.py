"""Single-bond solutions of -f'' + V f = k^2 f on both spectral axes.

Imaginary axis (k = i t): bond_solution returns, over an array of t, the
boundary data entering the secular matrix, the derivative f'(0) of the
solution decaying towards x = L, the logarithm of the Dirichlet solution
u(L), and their t-derivatives.  The t-derivatives come from a complex
step and are formed only on request: zeta's h'(t)/t integrand reads
them, while the vacuum energy, the Casimir force and the secular
determinant on its own read only log F and log u and take a float64
pass at about half the cost.
Zero and constant potentials have closed forms, with their small- and
large-x branches selected per node; every other potential goes through
one constant-perturbation sweep (Ixaru 1984; Ledoux, Van Daele and
Vanden Berghe, ACM TOMS 31, 2005), whose segments are exact for a
constant potential at every t, so one segment count serves all t and
all nodes sweep together.  The sweep multiplies the 2x2 segment maps
pairwise, a fixed-length block at a time, and runs the Richardson pair
of segment counts n and 2n as three rows of n segments.  All growth is
kept in log form so large t L never overflows.

Real axis: batched 2x2 transfer matrices for the magnetic-gauge-removed
equation, used by the spectral scan.  A bond is cut into the same
segments of constant potential, each mapped exactly by cos and sin (cosh
and sinh below the potential) at every k, so the error does not grow
with k; the maps are multiplied pairwise a block at a time, with the
Richardson pair as the same three rows, and the k-derivative is a
complex step through the same maps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsupportedError
from .potentials import spectral_floor
from .wkb import u_log_expansion

CSTEP = 1e-30            # complex step for the t-derivatives
KSTEP = 2.0 ** -600      # complex step for the real-axis k-derivative
SWEEP_BLOCK = 32         # segments whose maps a sweep holds at once
REAL_BLOCK = 16          # the same on the real axis, whose batches are larger


class BondSolution(NamedTuple):
    """Boundary data of one bond as arrays over the nodes t: f'(0) of the
    solution decaying towards x = L, normalised to f(0) = 1; log u(L) of
    the Dirichlet solution, u(0) = 0 and u'(0) = 1; their t-derivatives,
    None when the solve skipped them; and log u - t L computed without
    the cancellation of the difference."""

    f_prime_at_0: np.ndarray
    df_prime_at_0_dt: np.ndarray
    log_u: np.ndarray
    dlog_u_dt: np.ndarray
    log_u_excess: np.ndarray

    def take(self, mask) -> "BondSolution":
        return BondSolution(*(None if a is None else a[mask] for a in self))


def _cothm1(x):
    """coth(x) - 1 without cancellation for large x."""
    return np.where(x > 350.0, 0.0, 2.0 / np.expm1(2.0 * np.minimum(x, 350.0)))


def _coth_minus_inv(x):
    """coth(x) - 1/x; series below x=0.15 avoids the 1/x cancellation."""
    x2 = x * x
    series = x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0
                  + x2 * (-1.0 / 4725.0 + x2 * (2.0 / 93555.0)))))
    xs = np.maximum(x, 0.15)
    return np.where(x < 0.15, series, 1.0 / np.tanh(xs) - 1.0 / xs)


def _xcsch2_minus_coth(x):
    """x*csch(x)^2 - coth(x), same treatment."""
    x2 = x * x
    series = x * (-2.0 / 3.0 + x2 * (4.0 / 45.0 + x2 * (-4.0 / 315.0
                  + x2 * (8.0 / 4725.0 + x2 * (-4.0 / 18711.0)))))
    xs = np.clip(x, 0.15, 350.0)
    s = np.sinh(xs)
    mid = xs / (s * s) - 1.0 / np.tanh(xs)
    return np.where(x < 0.15, series, np.where(x > 350.0, -1.0, mid))


def _analytic(bond, t, derivative: bool) -> BondSolution:
    L = bond.length
    c = bond.potential.c
    kappa = np.sqrt(np.maximum(t * t + c, 0.0))
    x = kappa * L
    tiny = x < 1e-8
    # the closed forms on the safe stand-ins ks, xs; the series below 1e-8
    ks = np.where(tiny, 1.0, kappa)
    xs = ks * L
    fp = np.where(tiny, -1.0 / L - kappa * kappa * L / 3.0, -ks / np.tanh(xs))
    log_u = np.where(tiny, math.log(L) + x * x / 6.0,
                     xs - np.log(2.0 * ks) + np.log(-np.expm1(-2.0 * xs)))
    excess = np.where(tiny, math.log(L) + x * x / 6.0 - t * L,
                      L * c / (ks + t) - np.log(2.0 * ks)
                      + np.log(-np.expm1(-2.0 * xs)))
    if not derivative:
        return BondSolution(fp, None, log_u, None, excess)
    return BondSolution(
        fp,
        np.where(tiny, -2.0 * t * L / 3.0, (t / ks) * _xcsch2_minus_coth(xs)),
        log_u,
        np.where(tiny, t * L * L / 3.0, (t * L / ks) * _coth_minus_inv(xs)),
        excess)


def _segments(t, w, V, derivative: bool):
    """The segment maps of _sweep at the nodes t: T, P = q T and
    log cosh(kappa w) - t w, and with derivative=True the t-derivative of
    the last.

    With derivative=False, the pass of bond_solution's energy and force
    callers, all three are float64.  With derivative=True T and P are at
    the complex step t + i CSTEP, their t-derivatives formed in real
    arithmetic and entering as imaginary parts; below |kappa w| = 1e-2
    the series in z = q w^2 keep the derivative exact.  A segment of
    width zero is the identity.
    """
    t = t[:, None]
    w = w[:, None, :]
    V = V[:, None, :]
    q = t * t + V
    z = q * w * w
    small = z < 1e-4
    kappa = np.sqrt(np.where(small, 1.0, q))
    y = np.where(small, 1.0, kappa * w)
    e = np.exp(-2.0 * y)
    th = -np.expm1(-2.0 * y) / (1.0 + e)
    tanhc = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (2.0 / 15.0
                     - z * 17.0 / 315.0)), th / y)
    # log cosh(y) - t w; w (kappa - t) = w V / (kappa + t) spares it the
    # cancellation
    log_cosh = np.where(
        small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t * w,
        V * w / (kappa + t) + np.log1p(e) - math.log(2.0))
    if not derivative:
        T = w * tanhc
        return T, q * T, log_cosh, None
    dq = 2.0 * t
    dz = dq * w * w
    dy = t / kappa * w
    dtanhc = np.where(small, dz * (-1.0 / 3.0 + z * (4.0 / 15.0
                      - z * 51.0 / 315.0)), (1.0 - th * th - tanhc) * dy / y)
    dlog_cosh = np.where(small, dz * (0.5 + z * (-1.0 / 6.0 + z / 15.0)),
                         th * dy)
    T = w * (tanhc + 1j * CSTEP * dtanhc)
    return T, (q + 1j * CSTEP * dq) * T, log_cosh, dlog_cosh


def _log_step(z):
    """log z for z > 0; for complex z at the complex step, where Im z is
    of the order of the step, log Re z + i Im z / Re z."""
    if not np.iscomplexobj(z):
        return np.log(z)
    return np.log(z.real) + 1j * (z.imag / z.real)


def _matmul(B, A):
    """B A over stacks of 2x2 matrices held as (2, 2, ...) arrays."""
    BA = B[:, :, None] * A[None]        # BA[i, k, j] = B_ik A_kj
    return BA[:, 0] + BA[:, 1]


def _block_product(T, P):
    """The product of the segment maps [[1, T], [P, 1]] along the last axis,
    later segments on the left, as one (2, 2, ...) stack."""
    # the first round's stack passes to _product alone, which frees it
    # after the next round
    return _product(_first_round(T, P))


def _first_round(T, P):
    """The first round of _product on the maps [[1, T], [P, 1]], written
    from T and P directly."""
    k = T.shape[-1]
    h = k // 2
    M = np.empty((2, 2) + T.shape[:-1] + (h + k % 2,), T.dtype)
    (m00, m01), (m10, m11) = M[..., :h]
    Te, To = T[..., 0:2 * h:2], T[..., 1:2 * h:2]
    Pe, Po = P[..., 0:2 * h:2], P[..., 1:2 * h:2]
    np.multiply(To, Pe, out=m00)
    m00 += 1.0
    np.add(Te, To, out=m01)
    np.add(Pe, Po, out=m10)
    np.multiply(Po, Te, out=m11)
    m11 += 1.0
    if k % 2:
        M[0, 0, ..., -1] = M[1, 1, ..., -1] = 1.0
        M[0, 1, ..., -1] = T[..., -1]
        M[1, 0, ..., -1] = P[..., -1]
    return M


def _product(M):
    """The product along the last axis of a (2, 2, ...) stack of maps,
    later maps on the left.  Neighbouring maps are multiplied pairwise,
    so k maps take about log2(k) whole-stack rounds; an odd map out is
    carried to the next round."""
    while M.shape[-1] > 1:
        h = M.shape[-1] // 2
        paired = _matmul(M[..., 1:2 * h:2], M[..., 0:2 * h:2])
        M = (np.concatenate((paired, M[..., -1:]), axis=-1)
             if M.shape[-1] % 2 else paired)
    return M[..., 0]


def _sweep(t, w, V, derivative: bool):
    """Sweep from x = L, where f = 0 and f' = -1, across segments of widths
    w and constant potentials V, one sweep per row of w and V and per
    node of t, all at once; at the complex step t + i CSTEP with
    derivative=True, in float64 otherwise (the callers of each are
    listed at bond_solution).  Returns (R, s) with one row
    per sweep and one column per node: R, a (2, 2, rows, nodes) stack, is
    the product of the segment maps in the basis (f, -f'), and s the log
    of the scale divided out of it plus the log cosh(kappa w) - t w of
    every segment.  So (f, -f') at the far end is e^s (R01, R11).

    Keeping s of order one instead of t L keeps the absolute error of
    log u at rounding level, which the subtracted large-t integrands rely
    on.

    With q = t^2 + V, kappa = sqrt(q) and T = tanh(kappa w)/kappa, one
    segment maps (f, -f') by cosh(kappa w) [[1, T], [q T, 1]].  Every
    entry is positive, so the products of the maps are accurate in any
    order of association.  The maps of SWEEP_BLOCK segments at a time,
    a constant so that no node's result depends on the batch, are
    multiplied pairwise (_block_product); each block product then joins
    one running product per row, divided by its R11 after every block,
    the log of the divisor going to s.  No count of segments overflows,
    and the column (R01, R11) = (-m, 1) holds m = f/f', which contracts
    towards a fixed point: the rounding of one block's product is
    forgotten, where in an unscaled product the t-derivative in Im R
    would gather it from every segment.
    """
    s = np.zeros((len(w), len(t)), complex if derivative else float)
    R = None
    for lo in range(0, w.shape[1], SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        T, P, log_cosh, dlog_cosh = _segments(t, w[:, block], V[:, block],
                                              derivative)
        M = _block_product(T, P)
        R = M if R is None else _matmul(M, R)
        scale = R[1, 1].copy()
        if derivative:
            R /= scale
        else:
            # numpy divides by a complex array as times its reciprocal, so
            # the real pass rounds like the real part of the complex one
            R *= 1.0 / scale
        # summed per block first: at large t both terms are near -+log 2
        # per segment
        step = log_cosh.sum(axis=-1)
        if derivative:
            step = step + 1j * CSTEP * dlog_cosh.sum(axis=-1)
        s += step + _log_step(scale)
        # freed before the next block's maps are formed
        del T, P, log_cosh, dlog_cosh
    return R, s


def _segment_layout(bond, reverse: bool):
    """Widths and potentials (w, V) of the segments of a bump bond, as
    three rows of n + 2 in the order a sweep from x = L meets them, or
    from x = 0 with reverse=True: the n-segment cut of the support, and
    the two halves of the 2n-segment cut.  Each free stretch is one
    exact segment, and on the far side of a half a segment of width
    zero, the identity.  n = max(200, 200 (b - a) sqrt(max |V|)) is
    fixed by the bond, the same on both axes and at every t or k.
    """
    L = bond.length
    pot = bond.potential
    a, b = pot.support(L)
    vmax = max(-pot.minimum(L), pot.maximum(L))
    n = max(200, math.ceil(200.0 * (b - a) * math.sqrt(vmax)))
    first, last = (a, L - b) if reverse else (L - b, a)
    w = np.zeros((3, n + 2))
    V = np.zeros((3, n + 2))
    w[:, 0] = first, first, 0.0
    w[:, -1] = last, 0.0, last
    for rows, k in ((slice(0, 1), n), (slice(1, 3), 2 * n)):
        h = (b - a) / k
        mid = (np.arange(k) + 0.5) * h
        w[rows, 1:-1] = h
        V[rows, 1:-1] = pot.value(a + mid if reverse else b - mid).reshape(
            -1, n)
    return w, V


def _cpm(bond, t, reverse: bool, derivative: bool) -> BondSolution:
    """Constant-perturbation sweep of the solution decaying towards x = L.

    The segments are those of _segment_layout, Richardson-extrapolated
    from n to 2n: the pair runs as one sweep of its three rows, and the
    products of the two halves are joined at the end.  With
    derivative=True the t-derivatives come from a complex step through
    the same sweep; otherwise the sweep is real and they are None, as
    bond_solution's energy and force callers ask.  By
    the Wronskian the Dirichlet solution has u(L) = f(0) = m0 f'(0).
    """
    L = bond.length
    R, s = _sweep(t, *_segment_layout(bond, reverse), derivative)
    R1 = R[:, :, 0]
    R2 = _matmul(R[:, :, 2], R[:, :, 1])
    m1 = -R1[0, 1] / R1[1, 1]
    m2 = -R2[0, 1] / R2[1, 1]
    s1 = s[0] + _log_step(R1[1, 1])
    s2 = s[1] + s[2] + _log_step(R2[1, 1])
    m0 = (4.0 * m2 - m1) / 3.0
    s0 = (4.0 * s2 - s1) / 3.0
    lost = ~(m0.real < 0.0)
    if lost.any():
        raise NumericalError(
            f"bond '{bond.id}': solution lost decay at t={t[lost][0]}")
    fp = 1.0 / m0
    lu = s0 + np.log(-m0)
    if not derivative:
        return BondSolution(fp, None, t * L + lu, None, lu)
    return BondSolution(fp.real, fp.imag / CSTEP, t * L + lu.real,
                        lu.imag / CSTEP, lu.real)


def bond_solution(bond, t, *, reverse: bool = False,
                  derivative: bool = True) -> BondSolution:
    """Boundary data of one bond at every node of the 1-d array t.

    With derivative=False the t-derivative fields are None and a bump
    bond is swept in float64, at about half the cost of the complex
    step.  The integrands of the vacuum energy (minus_half_data) and of
    the Casimir force read only log F and log u, and take that pass, as
    do logF_imag and dlogF_dL_imag when they solve for themselves, which
    covers F_imag, the zero probe and the large-t asymptotics check.
    zeta's integrand and logF_slope_imag keep the complex step.
    """
    pot = bond.potential
    L = bond.length
    t = np.asarray(t, dtype=float)
    if t.size and not t.min() >= 0.0:
        raise UnsupportedError("imaginary-axis parameter t must be >= 0")
    floor = spectral_floor(pot, L)
    if t.size and t.min() < floor:
        raise NumericalError(
            f"bond '{bond.id}': t={t.min()} below the spectral floor "
            f"{floor:.6g}")
    if pot.kind == "constant":
        return _analytic(bond, t, derivative)
    if reverse and pot.symmetric(L):
        reverse = False
    return _cpm(bond, t, reverse, derivative)


def dirichlet_subtracted_derivative(bond, t, sol=None):
    """d/dt of [log u(L;t) - tL + log 2t - sum_{j<=4} e_j t^-j] over an
    array of t > 0, or at one t; sol, the bond's solution at those t,
    spares a second solve.

    Decays like t^-6; the closed-form branch avoids subtracting two O(L)
    quantities.
    """
    t = np.asarray(t, dtype=float)
    L = bond.length
    pot = bond.potential
    corr = sum(j * e * t ** (-j - 1) for j, e in u_log_expansion(bond).items())
    if pot.kind == "constant":
        c = pot.c
        kappa = np.sqrt(np.maximum(t * t + c, 0.0))
        x = kappa * L
        base = (L * (t / kappa) * _cothm1(x)
                - L * c / (kappa * (kappa + t))
                + c / (t * kappa * kappa))
        return (base + corr)[()]
    if sol is None:
        sol = bond_solution(bond, np.atleast_1d(t))
    return (sol.dlog_u_dt.reshape(t.shape) - L + 1.0 / t + corr)[()]


# ---------------------------------------------------------------------------
# real axis


def _real_segments(ks, w, V, derivative: bool):
    """The maps of segments of widths w and constant potentials V, rows
    of segments against the array ks, as one (2, 2, rows, k, segments)
    stack; with derivative=True at the complex step k + i KSTEP.

    With x = k^2 - V, C = cos(sqrt(x) w) and S = sin(sqrt(x) w)/sqrt(x),
    one segment maps (f, f') by [[C, S], [-x S, C]].  cos and sin are
    evaluated over the whole block; the cosh and sinh of x < 0 and the
    series in z = x w^2 below |z| = 1e-3, which keeps S and its
    derivative free of cancellation near x = 0, only on the elements
    their masks select.  A segment of width zero is the identity.  The
    k-derivatives, dC/dx = -w S/2 and dS/dx = (w C - S)/(2 x), are
    formed in real arithmetic and enter as imaginary parts, so the real
    parts are bitwise those of the plain maps.
    """
    k = ks[:, None]
    w = np.broadcast_to(w[:, None, :], (len(w), len(ks), w.shape[1]))
    x = k * k - V[:, None, :]
    M = np.empty((2, 2) + x.shape, complex if derivative else float)
    Mr = M.real
    C, S = Mr[0, 0], Mr[0, 1]
    z = x * w * w
    small = np.abs(z) < 1e-3
    series = small.any()
    # the closed forms fail only where x = 0, on the series branch
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(np.abs(x))
        y = r * w
        np.cos(y, out=C)
        np.sin(y, out=S)
        S /= r
        neg = x < 0.0
        if neg.any():
            C[neg] = np.cosh(y[neg])
            S[neg] = np.sinh(y[neg]) / r[neg]
        if series:
            zs, ws = z[small], w[small]
            C[small] = 1.0 + zs * (-1.0 / 2.0 + zs * (1.0 / 24.0 + zs * (
                -1.0 / 720.0 + zs / 40320.0)))
            S[small] = ws * (1.0 + zs * (-1.0 / 6.0 + zs * (1.0 / 120.0
                             + zs * (-1.0 / 5040.0 + zs / 362880.0))))
        if derivative:
            dS = (w * C - S) * k / x
    Mr[1, 1] = C
    np.multiply(-x, S, out=Mr[1, 0])
    if derivative:
        if series:
            ks_small = np.broadcast_to(k, x.shape)[small]
            dS[small] = 2.0 * ks_small * ws * ws * ws * (
                -1.0 / 6.0 + zs * (1.0 / 60.0 + zs * (-1.0 / 1680.0
                                                     + zs / 90720.0)))
        Mi = M.imag
        Mi[0, 0] = Mi[1, 1] = -KSTEP * k * w * S
        Mi[0, 1] = KSTEP * dS
        Mi[1, 0] = -KSTEP * (2.0 * k * S + x * dS)
    return M


def _real_sweep(ks, w, V, derivative: bool):
    """The transfer matrices across each row of segments of widths w and
    potentials V at every k, as one (2, 2, rows, k) stack: the maps of
    REAL_BLOCK segments at a time, a constant so that no k's result
    depends on the batch, multiplied pairwise (_product), each block
    product joining one running product per row.  A map grows only where
    k^2 < V, like cosh(sqrt(V - k^2) w), so the product is not rescaled.
    """
    R = None
    for lo in range(0, w.shape[1], REAL_BLOCK):
        block = slice(lo, lo + REAL_BLOCK)
        M = _product(_real_segments(ks, w[:, block], V[:, block], derivative))
        R = M if R is None else _matmul(M, R)
    return R


def transfer_matrices_real(bond, ks, *, derivative: bool = False,
                           richardson: bool = False):
    """Batched transfer matrices (f, f')(0) -> (f, f')(L) over an array of
    k, shape (k, 2, 2).

    The bond is cut into the segments of the imaginary-axis sweep: one
    segment for each free stretch and for a constant bond, and the n
    midpoint segments of the support, n independent of k.  Every segment
    is exact at every k, so the error of the n-segment product does not
    grow with k.  With richardson=True it is (4 T(2n) - T(n))/3, the
    n-segment pass and the two halves of the 2n-segment pass running as
    three rows of n segments; a closed-form bond returns its plain T.
    With derivative=True returns (T, dT/dk) from the same pass at the
    complex k + i KSTEP (Squire and Trapp, SIAM Rev. 40, 1998): KSTEP^2
    underflows, so T is bitwise that of the real pass and dT/dk carries
    no cancellation.
    """
    ks = np.asarray(ks, dtype=float)
    pot = bond.potential
    if pot.kind == "constant":
        w = np.array([[bond.length]])
        V = np.array([[pot.c]])
        T = _real_sweep(ks, w, V, derivative)[:, :, 0]
    else:
        # left to right in x: the layout of a sweep from x = 0
        w, V = _segment_layout(bond, reverse=True)
        if richardson:
            R = _real_sweep(ks, w, V, derivative)
            T2 = _matmul(R[:, :, 2], R[:, :, 1])
            # times 1/3: numpy divides a complex array by 3.0 as by a
            # complex number, which would move the last bit of the real part
            T = (4.0 * T2 - R[:, :, 0]) * (1.0 / 3.0)
        else:
            T = _real_sweep(ks, w[:1], V[:1], derivative)[:, :, 0]
    T = np.moveaxis(T, (0, 1), (-2, -1))
    if not derivative:
        return T
    return T.real, T.imag / KSTEP

"""Single-bond solutions of -f'' + V f = E f on both spectral axes.

Both axes read the transfer matrix of a bond on (f, f'), the product of
sixth-order three-Gauss-point Magnus segment maps (_segments) at E = -t^2
for the rotated-axis integrals and at E = k^2 for the spectral scan,
formed by one sweep from x = 0 (_sweep).  The maps are exact for a
constant potential at every E, so one count, PER_WIDTH segments per width
of a bump, serves every E and all entries sweep together.  On the
imaginary axis the exponent's corrections that grow with t are damped
past t h = 1, h the width of a segment, which keeps the maps uniform in t;
the real axis is validated up to k h = 2 (real_k_limit) and refuses
beyond.

Imaginary axis (k = i t): bond_solution returns, over an array of t, the
logarithmic derivatives f'/f at both ends of the solutions decaying away
from them, the log of the Dirichlet solution u(L), and their
t-derivatives, with all growth in log form.  The t-derivatives come from
a complex step, formed only for zeta's h'(t)/t integrand; log F and log
u alone take a float64 pass at half to three quarters of the cost.
Constant potentials take closed forms instead.

Real axis, in E: _real_sweep gives the eigenvalue count and the scan the
transfer matrices of the magnetic-gauge-removed equation, in float64,
and the Dirichlet solution's Pruefer angle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsupportedError
from .potentials import spectral_floor
from .wkb import CACHE_SIZE, u_log_expansion

CSTEP = 1e-30            # complex step for the t-derivatives
SWEEP_BLOCK = 128        # segments whose maps a sweep holds at once
REAL_BLOCK = 16          # the same on the real axis, whose batches are larger
PER_WIDTH = 150          # bump segments per width, both axes (_segment_count)


class BondSolution(NamedTuple):
    """Boundary data of one bond as arrays over the nodes t: f'(0) of the
    solution decaying towards x = L, normalised to f(0) = 1; the inward
    derivative -f'(L) of the solution decaying towards x = 0, normalised
    to f(L) = 1, which is f'(0) of the mirrored bond; log u(L) of the
    Dirichlet solution, u(0) = 0 and u'(0) = 1; their t-derivatives,
    None when the solve skipped them; and log u - t L computed without
    the cancellation of the difference."""

    f_prime_at_0: np.ndarray
    df_prime_at_0_dt: np.ndarray
    f_prime_at_L: np.ndarray
    df_prime_at_L_dt: np.ndarray
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
    # a constant bond is its own mirror image: both ends share the arrays
    if not derivative:
        return BondSolution(fp, None, fp, None, log_u, None, excess)
    dfp = np.where(tiny, -2.0 * t * L / 3.0,
                   (t / ks) * _xcsch2_minus_coth(xs))
    return BondSolution(
        fp, dfp, fp, dfp, log_u,
        np.where(tiny, t * L * L / 3.0, (t * L / ks) * _coth_minus_inv(xs)),
        excess)


def _segments(e, de, K, rho, drho, step, t):
    """The maps on (f, f') of segments with coefficients K (_gauss_layout)
    at every entry of the column e = -E (t^2 on the imaginary axis), as
    e^ell [[a + D, T], [P, a - D]]: (a, D, T, P, ell, dell, z) over
    (entries, segments), ell None where a block oscillates and no entry
    of it grows, dell None without a complex step, z = theta^2 below.

    A segment of width w maps by exp(Omega), Omega = [[beta, b], [c,
    -beta]], the three-Gauss-point Magnus exponent (Iserles and Norsett,
    Proc. R. Soc. A 455, 1999; Blanes, Casas and Ros, BIT 40, 2000), sixth
    order in w and exact for a constant potential at every e.  With the
    potentials V1, V2, V3 at its Gauss points, a2 = (sqrt 15/3) w (V3 -
    V1), a3 = (10/3) w (V3 - 2 V2 + V1) and q = V2 + e:

        beta = -w a2/12 + w^3 a2 q/180 + w^2 a2 a3/7200,
        b = w + db,  db = w^3 a2^2/3600 - w^2 a3/180,
        c = (w + dc) q + a3/12 + w a3^2/3600 - w a2^2/120,
        dc = w^2 a3/180 + w^3 a2^2/3600.

    The terms w^3 a2 e/180, dc e and db are multiplied by rho, which is
    1/(1 + (t h)^4) on the imaginary axis, h the width of the support's
    segments, and 1 on the real axis: they grow like t^3 in log u at t h
    >> 1, and rho = 1 + O((t h)^4) keeps the order at every fixed t.
    drho is d rho/dt.  Omega^2 = z = beta^2 + b c, so exp(Omega) =
    cosh(y) + (sinh(y)/y) Omega, y = sqrt z, divided below by cosh(y)
    wherever it grows:

    - A block with no c < 0, as every block of the imaginary axis, takes
      a = 1 and D, T, P = beta, b, c times tanh(y)/y (its series below z
      = 1e-4, which also takes a z rounded below zero).  ell = log cosh(y)
      - t w, at the imaginary axis's nodes t with its y - t w formed from
      beta^2 + b c|_(e=0) + e rho (w db + b dc), and at t = 0 where t is
      None.
    - Any other block takes, with y = sqrt|z|, a = cos(y) and D, T, P =
      beta, b, c times sin(y)/y; where z >= 1e-3, a = 1 and tanh(y)/y with
      log cosh(y) in ell, as the block above; and where |z| < 1e-3 the
      series in z, which keep T free of cancellation.

    A segment of width zero is the identity.  With a complex step, on the
    imaginary axis, the derivatives in t, through de and drho, are formed
    in real arithmetic and enter as imaginary parts; dell is that of the
    log cosh alone.
    """
    w, b0, b1, db, c0, dc = K
    re = rho * e
    beta = b0 + re * b1
    b = w + rho * db
    c = c0 + e * (w + rho * dc)
    bb = beta * beta
    z = bb + b * c
    if step is not None:
        dre = rho * de + e * drho
        dbeta, dbb, dcc = dre * b1, drho * db, de * w + dre * dc
        dz = 2.0 * beta * dbeta + dbb * c + b * dcc
    if t is not None or not c.min() < 0.0:
        small = z < 1e-4
        y = np.sqrt(np.where(small, 1.0, z))
        th, lc = _tanh_log_cosh(y)
        C = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (2.0 / 15.0
                     - z * 17.0 / 315.0)), th / y)
        t, num = ((0.0, z) if t is None else
                  (t, bb + b * c0 + re * (w * db + b * dc)))
        ell = np.where(
            small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t * w,
            num / (y + t * w) + lc)
        a, dell = 1.0, None
        if step is not None:
            dy = 0.5 * dz / y
            dC = np.where(small, dz * (-1.0 / 3.0 + z * (4.0 / 15.0
                          - z * 51.0 / 315.0)), (1.0 - th * th - C) * dy / y)
            dell = np.where(small, dz * (0.5 + z * (-1.0 / 6.0 + z / 15.0)),
                            th * dy)
    else:
        y = np.abs(z)
        small = y < 1e-3
        y = np.sqrt(y)
        grow = z >= 1e-3
        ell = dell = None
        # the closed forms fail only where z = 0, on the series branch
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.cos(y)
            C = np.sin(y) / y
        if grow.any():
            yg = y[grow]
            th, lc = _tanh_log_cosh(yg)
            a[grow], C[grow] = 1.0, th / yg
            ell = np.zeros(z.shape)
            ell[grow] = yg + lc
        if small.any():
            zs = z[small]
            a[small] = 1.0 + zs * (1.0 / 2.0 + zs * (1.0 / 24.0 + zs * (
                1.0 / 720.0 + zs / 40320.0)))
            C[small] = 1.0 + zs * (1.0 / 6.0 + zs * (1.0 / 120.0 + zs * (
                1.0 / 5040.0 + zs / 362880.0)))
    D, T, P = beta * C, b * C, c * C
    if step is not None:
        D = _stepped(D, step, dbeta * C + beta * dC)
        T = _stepped(T, step, dbb * C + b * dC)
        P = _stepped(P, step, dcc * C + c * dC)
    return a, D, T, P, ell, dell, z


def _tanh_log_cosh(y):
    """tanh(y) and log cosh(y) - y for y >= 0, neither overflowing."""
    ex = np.exp(-2.0 * y)
    return -np.expm1(-2.0 * y) / (1.0 + ex), np.log1p(ex) - math.log(2.0)


def _stepped(x, step, dx):
    """x + i step dx, formed without complex arithmetic."""
    out = np.empty(x.shape, complex)
    out.real = x
    np.multiply(dx, step, out=out.imag)
    return out


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


def _block_product(a, D, T, P, F=None):
    """The product of the segment maps [[a + D, T], [P, a - D]] along the
    last axis, later segments on the left, as one (2, 2, ...) stack; with
    their Pruefer angles F, the pair (stack, its angle)."""
    if F is None:
        # the first round's stack passes to _product alone, which frees it
        # after the next round
        return _product(_first_round(a, D, T, P))
    M = _first_round(a, D, T, P)
    return _product(M, _paired(M, F))


def _first_round(a, D, T, P):
    """The first round of _product on the maps [[a + D, T], [P, a - D]],
    written from a, D, T and P directly."""
    k = T.shape[-1]
    h = k // 2
    M = np.empty((2, 2) + T.shape[:-1] + (h + k % 2,), T.dtype)
    (m00, m01), (m10, m11) = M[..., :h]
    A, B = a + D, a - D
    # the map of segment 2i + 1 times that of segment 2i
    Ae, Be, Te, Pe = (X[..., 0:2 * h:2] for X in (A, B, T, P))
    Ao, Bo, To, Po = (X[..., 1:2 * h:2] for X in (A, B, T, P))
    np.multiply(Ao, Ae, out=m00)
    m00 += To * Pe
    np.multiply(Ao, Te, out=m01)
    m01 += To * Be
    np.multiply(Po, Ae, out=m10)
    m10 += Bo * Pe
    np.multiply(Bo, Be, out=m11)
    m11 += Po * Te
    if k % 2:
        M[..., -1] = [[A[..., -1], T[..., -1]], [P[..., -1], B[..., -1]]]
    return M


def _product(M, F=None):
    """The product along the last axis of a (2, 2, ...) stack of maps,
    later maps on the left, multiplied pairwise in about log2(k) rounds,
    an odd map out carried; with their angles F, (product, its angle)."""
    while M.shape[-1] > 1:
        h = M.shape[-1] // 2
        paired = _matmul(M[..., 1:2 * h:2], M[..., 0:2 * h:2])
        M = (np.concatenate((paired, M[..., -1:]), axis=-1)
             if M.shape[-1] % 2 else paired)
        if F is not None:
            F = _paired(M, F)
    return M[..., 0] if F is None else (M[..., 0], F[..., 0])


def _lift(u, du, first, then):
    """The Pruefer angle of (u, du) ~ (sin, cos), the image of (0, 1) by
    maps turning it by `first`, then `then`: the later takes [j, j + 1) pi,
    j = floor(first/pi), to then + [j, j + 1) pi; atan2 nearest its middle."""
    a = np.arctan2(u, du)
    mid = np.floor(first / math.pi) * math.pi + then + 0.5 * math.pi
    return a + 2.0 * math.pi * np.round((mid - a) / (2.0 * math.pi))


def _paired(M, F):
    """The angles of a round of pairwise products M of maps of angles F."""
    h = F.shape[-1] // 2
    return np.concatenate((_lift(M[0, 1, ..., :h], M[1, 1, ..., :h],
                                 F[..., 0:2 * h:2], F[..., 1:2 * h:2]),
                           F[..., 2 * h:]), axis=-1)


def _sweep(e, de, h, K, step, block, t):
    """Sweep from x = 0 across segments of coefficients K, the support's
    segments of width h (_gauss_layout), at every entry of the column e =
    -E at once, with de, step and t as in _segments.  Returns (R, s,
    theta), the transfer matrix (f, f')(0) -> (f, f')(L) being e^s R.
    Each `block` of segments, a constant so that no entry's result depends
    on the batch, is multiplied pairwise (_block_product) and joins one
    running product.

    - _cpm, on the imaginary axis, takes SWEEP_BLOCK and passes its t,
      from which rho = 1/(1 + (t h)^4) of _segments and its t-derivative
      are formed once: R, all of whose entries are positive, is divided by
      its R11 after every block, the log of the divisor going to s.  No
      count of segments overflows, Im R carries no rounding of the e^(t L)
      growth into the t-derivatives, and s stays of order one instead of t
      L, which keeps the absolute error of log u at rounding level.
    - The real axis takes REAL_BLOCK, as its batches are larger, t None,
      no complex step and rho = 1: no rescaling.  theta is the Pruefer
      angle at L of the Dirichlet solution, u(0) = 0 and u'(0) = 1, whose
      zeros in (0, L), about theta/pi, are the bond's Dirichlet count
      (Sturm); None on the imaginary axis.  A segment turns (0, 1) by
      less than pi, or by y = sqrt(-z) of _segments where that is real;
      products join their angles by _lift.
    """
    s = np.zeros(len(e), float if step is None else complex)
    rho, drho = 1.0, 0.0
    if t is not None:
        rho = 1.0 / (1.0 + (t * h) ** 4)
        drho = -4.0 * h ** 4 * t ** 3 * rho * rho
    R = theta = None
    for lo in range(0, K.shape[-1], block):
        a, D, T, P, ell, dell, z = _segments(e, de, K[:, lo:lo + block],
                                             rho, drho, step, t)
        if t is None:
            y = np.sqrt(np.maximum(-z, 0.0))
            M, F = _block_product(a, D, T, P, _lift(
                T, a - D, 0.0, np.floor(y / math.pi) * math.pi))
        else:
            M = _block_product(a, D, T, P)
        R = M if R is None else _matmul(M, R)
        if t is None:
            theta = F if theta is None else _lift(R[0, 1], R[1, 1], theta, F)
        if t is not None:
            scale = R[1, 1].copy()
            if step is None:
                # numpy divides by a complex array as times its reciprocal,
                # so the real pass rounds like the real part of the complex
                # one
                R *= 1.0 / scale
            else:
                R /= scale
        if ell is not None:
            # summed per block first: at large t both terms are near -+log 2
            # per segment
            ds = ell.sum(axis=-1)
            if step is not None:
                ds = ds + 1j * step * dell.sum(axis=-1)
            s += ds + _log_step(scale) if t is not None else ds
        # freed before the next block's maps are formed
        del a, D, T, P, ell, dell, z
    return R, s, theta


def _segment_count(bond, per_width: int):
    """The support (a, b) of a bump bond and its segment count
    n = max(m, m (b - a) sqrt(max |V|)), m = per_width: fixed by the bond,
    the same at every t or k."""
    L = bond.length
    pot = bond.potential
    a, b = pot.support(L)
    vmax = max(-pot.minimum(L), pot.maximum(L))
    return a, b, max(per_width,
                     math.ceil(per_width * (b - a) * math.sqrt(vmax)))


def _gauss_layout(bond, per_width: int):
    """(h, K): the width h of the support's segments and the coefficients
    K = (w, b0, b1, db, c0, dc), shape (6, segments), of the segments of a
    bond from x = 0, whose exponent of _segments is beta = b0 + rho e b1,
    b = w + rho db and c = c0 + e w + rho e dc.  One exact segment for a
    constant bond, h = L; for a bump bond one for each free stretch, whose
    corrections are zero, and, between them, _segment_count(bond,
    per_width) of the support, with Gauss points (sqrt 15/10) h off
    centre (_bump_layout, memoised)."""
    L = bond.length
    pot = bond.potential
    if pot.kind == "constant":
        return L, np.array([[L], [0.0], [0.0], [0.0], [L * pot.c], [0.0]])
    return _bump_layout(L, pot, *_segment_count(bond, per_width))


@lru_cache(maxsize=CACHE_SIZE)
def _bump_layout(L, pot, a, b, n):
    """_gauss_layout of a bump bond of length L and potential pot cut into
    n segments of its support (a, b), K read-only.  n is part of the key,
    not read from the bond, so that a changed _segment_count is a new
    layout."""
    h = (b - a) / n
    g = 0.1 * math.sqrt(15.0)
    V1, V2, V3 = pot.value(a + (np.arange(n) + np.array([[0.5 - g], [0.5],
                                                         [0.5 + g]])) * h)
    a2 = (math.sqrt(15.0) / 3.0) * h * (V3 - V1)
    a3 = (10.0 / 3.0) * h * (V3 - 2.0 * V2 + V1)
    h2a3, h3a22 = h * h * a3 / 180.0, h ** 3 * a2 * a2 / 3600.0
    dc = h2a3 + h3a22
    K = np.zeros((6, n + 2))
    K[0] = np.concatenate(([a], np.full(n, h), [L - b]))
    K[1:, 1:-1] = (-h * a2 / 12.0 + h ** 3 * a2 * V2 / 180.0
                   + h * h * a2 * a3 / 7200.0,
                   h ** 3 * a2 / 180.0,
                   h3a22 - h2a3,
                   (h + dc) * V2 + a3 / 12.0 + h * a3 * a3 / 3600.0
                   - h * a2 * a2 / 120.0,
                   dc)
    K.flags.writeable = False
    return h, K


def _cpm(bond, t, derivative: bool) -> BondSolution:
    """Both ends of a bump bond from one sweep across _gauss_layout.  With
    T = e^s R the transfer matrix (det T = 1), the solution with f(L) = 0
    has f/f' = -T01/T00 at x = 0, and the Dirichlet solution u has u(L) =
    T01 and u/u' = T01/T11 at x = L, where the inward derivative is
    -u'(L).  The t-derivatives come from a complex step through the same
    sweep with derivative=True, and are None otherwise."""
    L = bond.length
    R, s, _ = _sweep((t * t)[:, None], (2.0 * t)[:, None],
                     *_gauss_layout(bond, PER_WIDTH),
                     CSTEP if derivative else None, SWEEP_BLOCK, t[:, None])
    m0 = -R[0, 1] / R[0, 0]
    mL = -R[0, 1] / R[1, 1]
    lost = ~((m0.real < 0.0) & (mL.real < 0.0))
    if lost.any():
        raise NumericalError(
            f"bond '{bond.id}': solution lost decay at t={t[lost][0]}")
    fp0, fpL = 1.0 / m0, 1.0 / mL
    lu = s + _log_step(R[0, 1])
    if not derivative:
        return BondSolution(fp0, None, fpL, None, t * L + lu, None, lu)
    return BondSolution(fp0.real, fp0.imag / CSTEP, fpL.real,
                        fpL.imag / CSTEP, t * L + lu.real, lu.imag / CSTEP,
                        lu.real)


def bond_solution(bond, t, *, derivative: bool = True) -> BondSolution:
    """Boundary data of one bond, at both of its ends, at every node of
    the 1-d array t.  With derivative=False the t-derivative fields are
    None and a bump bond is swept in float64, at half to three quarters of
    the cost of the complex step: every caller that reads only log F and
    log u, which leaves the complex step to zeta's integrand and
    logF_slope_imag."""
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
    return _cpm(bond, t, derivative)


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


def real_k_limit(bond) -> float:
    """The largest k = sqrt|E| at which the real-axis maps of a bond are
    validated: k h = 2 on a bump bond, h the width of its support's
    segments, as the error of a map grows where k h nears pi, widened by
    1e-12 so that the rounding of h refuses no k h = 2; infinite on a
    constant bond, whose one map is exact."""
    if bond.potential.kind == "constant":
        return math.inf
    a, b, n = _segment_count(bond, PER_WIDTH)
    return 2.0 * (1.0 + 1e-12) * n / (b - a)


def _real_sweep(bond, E):
    """_sweep of _gauss_layout at PER_WIDTH over the column of energies E
    on the real axis, REAL_BLOCK segments at a time, with the Pruefer
    angle; an |E| past real_k_limit(bond)^2 raises UnsupportedError."""
    k_max = real_k_limit(bond)
    if E.size and np.abs(E).max() > k_max * k_max:
        bad = E.flat[np.argmax(np.abs(E))]
        raise UnsupportedError(
            f"bond '{bond.id}': E={bad:g} is past the validated real-axis "
            f"range |E| <= {k_max * k_max:.6g}, k <= {k_max:.6g}")
    return _sweep(-E, -1.0, *_gauss_layout(bond, PER_WIDTH), None,
                  REAL_BLOCK, None)

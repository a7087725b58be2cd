"""Single-bond solutions of -f'' + V f = k^2 f on both spectral axes.

Imaginary axis (k = i t): bond_solution returns, over an array of t, the
boundary data entering the secular matrix at both ends of the bond, the
logarithmic derivatives f'/f of the solutions decaying away from each
end, the logarithm of the Dirichlet solution u(L), and their
t-derivatives.  The t-derivatives come from a complex step and are
formed only on request: zeta's h'(t)/t integrand reads them, while the
vacuum energy, the Casimir force and the secular determinant on its own
read only log F and log u and take a float64 pass at half to three
quarters of the cost.
Zero and constant potentials have closed forms, with their small- and
large-x branches selected per node; every other potential goes through
one sweep from x = 0 of fourth-order Magnus segment maps, which are
exact for a constant potential at every t, so one segment count serves
all t and all nodes sweep together.  The sweep multiplies the 2x2
segment maps pairwise, a fixed-length block at a time, and keeps all
growth in log form, so large t L never overflows; both ends of the bond
are read from the one transfer matrix it forms.

Real axis: batched 2x2 transfer matrices for the magnetic-gauge-removed
equation, used by the spectral scan.  A bump bond is cut into the
segments of the same layout, mapped by the same two-Gauss-point Magnus
exponent, here by cos and sin (cosh and sinh below the potential) at
every k, so the error does not grow with k; the maps are multiplied
pairwise a block at a time, and the k-derivative is a complex step
through the same maps.  One count rule serves both axes: PER_WIDTH for
the imaginary sweep and the scan's Newton steps and root checks,
COARSE_PER_WIDTH for the scan's coarse grid.
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
SWEEP_BLOCK = 128        # segments whose maps a sweep holds at once
REAL_BLOCK = 16          # the same on the real axis, whose batches are larger
PER_WIDTH = 300          # bump segments per width, both axes
COARSE_PER_WIDTH = 50    # the same on the scan's coarse grid


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


def _segments(t, w, V1, V2, derivative: bool):
    """The segment maps of _sweep at the nodes t: D, T, P and
    log cosh(theta) - t w, and with derivative=True the t-derivative of
    the last.

    With derivative=False, the pass of bond_solution's energy and force
    callers, all four are float64.  With derivative=True D, T and P are
    at the complex step t + i CSTEP, their t-derivatives formed in real
    arithmetic and entering as imaginary parts; below theta = 1e-2 the
    series in z = theta^2 keep the derivative exact.  A segment of width
    zero is the identity.
    """
    t = t[:, None]
    beta = (math.sqrt(3.0) / 12.0) * w * w * (V1 - V2)
    Vbar = 0.5 * (V1 + V2)
    q = t * t + Vbar
    z = beta * beta + q * w * w
    small = z < 1e-4
    y = np.sqrt(np.where(small, 1.0, z))
    e = np.exp(-2.0 * y)
    th = -np.expm1(-2.0 * y) / (1.0 + e)
    tanhc = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (2.0 / 15.0
                     - z * 17.0 / 315.0)), th / y)
    # log cosh(theta) - t w; theta - t w = (theta^2 - t^2 w^2)/(theta + t w)
    # spares it the cancellation
    log_cosh = np.where(
        small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t * w,
        (beta * beta + w * w * Vbar) / (y + t * w) + np.log1p(e)
        - math.log(2.0))
    if not derivative:
        T = w * tanhc
        return beta * tanhc, T, q * T, log_cosh, None
    dq = 2.0 * t
    dz = dq * w * w
    dy = t * w * w / y
    dtanhc = np.where(small, dz * (-1.0 / 3.0 + z * (4.0 / 15.0
                      - z * 51.0 / 315.0)), (1.0 - th * th - tanhc) * dy / y)
    dlog_cosh = np.where(small, dz * (0.5 + z * (-1.0 / 6.0 + z / 15.0)),
                         th * dy)
    tanhc = tanhc + 1j * CSTEP * dtanhc
    T = w * tanhc
    return beta * tanhc, T, (q + 1j * CSTEP * dq) * T, log_cosh, dlog_cosh


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


def _block_product(D, T, P):
    """The product of the segment maps [[1 + D, T], [P, 1 - D]] along the
    last axis, later segments on the left, as one (2, 2, ...) stack."""
    # the first round's stack passes to _product alone, which frees it
    # after the next round
    return _product(_first_round(D, T, P))


def _first_round(D, T, P):
    """The first round of _product on the maps [[1 + D, T], [P, 1 - D]],
    written from D, T and P directly."""
    k = T.shape[-1]
    h = k // 2
    M = np.empty((2, 2) + T.shape[:-1] + (h + k % 2,), T.dtype)
    (m00, m01), (m10, m11) = M[..., :h]
    A, B = 1.0 + D, 1.0 - D
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


def _sweep(t, w, V1, V2, derivative: bool):
    """Sweep from x = 0 across segments of widths w whose potentials are
    V1 and V2 at their two Gauss points, in the order of x, at every node
    of t at once; at the complex step t + i CSTEP with derivative=True,
    in float64 otherwise (the callers of each are listed at
    bond_solution).  Returns (R, s) with one column per node: R, a
    (2, 2, nodes) stack, is the product of the segment maps on (f, f'),
    and s the log of the scale divided out of it plus the log cosh(theta)
    - t w of every segment.  So the transfer matrix
    (f, f')(0) -> (f, f')(L) is e^s R, and both ends of the bond are read
    from it (_cpm).

    Keeping s of order one instead of t L keeps the absolute error of
    log u at rounding level, which the subtracted large-t integrands rely
    on.

    With q = t^2 + (V1 + V2)/2, beta = (sqrt 3/12) w^2 (V1 - V2),
    theta^2 = beta^2 + w^2 q and c = tanh(theta)/theta, one segment maps
    (f, f') by cosh(theta) [[1 + beta c, w c], [w q c, 1 - beta c]], the
    exponential of the two-Gauss-point Magnus exponent (Iserles and
    Norsett, Proc. R. Soc. A 455, 1999; Blanes, Casas, Oteo and Ros,
    Phys. Rep. 470, 2009): fourth order in w, and exact for a constant
    potential at every t.  |beta c| <= tanh(theta), so every entry is
    positive and the products of the maps are accurate in any order of
    association.  The maps of SWEEP_BLOCK segments at a time, a constant
    so that no node's result depends on the batch, are multiplied
    pairwise (_block_product); each block product then joins the running
    product, divided by its R11 after every block, the log of the
    divisor going to s.  No count of segments overflows, and the entries
    stay of the order of the ratios the callers read, so their
    t-derivatives in Im R carry no rounding of the e^(t L) growth.
    """
    s = np.zeros(len(t), complex if derivative else float)
    R = None
    for lo in range(0, len(w), SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        D, T, P, log_cosh, dlog_cosh = _segments(
            t, w[block], V1[block], V2[block], derivative)
        M = _block_product(D, T, P)
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
        del D, T, P, log_cosh, dlog_cosh
    return R, s


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
    """Widths w and Gauss-point potentials V1, V2 of the segments of a
    bump bond, in the order of x from x = 0: one exact segment for each
    free stretch, and between them the n = _segment_count(bond,
    per_width) segments of the support, whose Gauss points lie
    w/(2 sqrt 3) either side of the middle."""
    L = bond.length
    a, b, n = _segment_count(bond, per_width)
    h = (b - a) / n
    w = np.concatenate(([a], np.full(n, h), [L - b]))
    g = 0.5 / math.sqrt(3.0)
    V1, V2 = (np.concatenate(([0.0], bond.potential.value(a + d), [0.0]))
              for d in ((np.arange(n) + 0.5 - g) * h,
                        (np.arange(n) + 0.5 + g) * h))
    return w, V1, V2


def _cpm(bond, t, derivative: bool) -> BondSolution:
    """Both ends of a bump bond from one sweep across the segments of
    _gauss_layout.  With T = e^s R the transfer matrix (det T = 1), the
    solution with f(L) = 0 has f/f' = -T01/T00 at x = 0, the Dirichlet
    solution u has u(L) = T01 and u/u' = T01/T11 at x = L, and the
    inward derivative there is -u'(L).  With derivative=True the
    t-derivatives come from a complex step through the same sweep;
    otherwise the sweep is real and they are None, as bond_solution's
    energy and force callers ask.
    """
    L = bond.length
    R, s = _sweep(t, *_gauss_layout(bond, PER_WIDTH), derivative)
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
    the 1-d array t.

    With derivative=False the t-derivative fields are None and a bump
    bond is swept in float64, at half to three quarters of the cost of
    the complex step.  The integrands of the vacuum energy
    (minus_half_data) and of the Casimir force read only log F and log
    u, and take that pass, as do logF_imag and dlogF_dL_imag when they
    solve for themselves, which covers F_imag, the zero probe and the
    large-t asymptotics check.
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


# ---------------------------------------------------------------------------
# real axis


def _real_segments(ks, w, V1, V2, derivative: bool):
    """The maps on (f, f') of segments of widths w whose potentials are V1
    and V2 at their two Gauss points, from x = 0, against the array ks,
    as one (2, 2, k, segments) stack; with derivative=True at the
    complex step k + i KSTEP.

    One segment maps by exp([[beta, w], [w p, -beta]]), the exponent of
    _sweep on this axis, with p = (V1 + V2)/2 - k^2 and beta =
    (sqrt 3/12) w^2 (V1 - V2).  With g = beta/w, x = -p - g^2,
    C = cos(sqrt(x) w) and S = sin(sqrt(x) w)/sqrt(x), that is
    [[C + g S, S], [p S, C - g S]], exact at every k for a constant
    potential, where g = 0.  cos and sin are evaluated over the
    whole block; the cosh and sinh of x < 0 and the series in z = x w^2
    below |z| = 1e-3, which keeps S and its derivative free of
    cancellation near x = 0, only on the elements their masks select.  A
    segment of width zero is the identity.  The k-derivatives, with
    dx/dk = 2k, dC/dx = -w S/2 and dS/dx = (w C - S)/(2 x), are formed
    in real arithmetic and enter as imaginary parts, so the real parts
    are bitwise those of the plain maps.
    """
    k = ks[:, None]
    p = 0.5 * (V1 + V2) - k * k
    g = (math.sqrt(3.0) / 12.0) * w * (V1 - V2)
    x = -g * g - p
    w = np.broadcast_to(w, x.shape)
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
    gS = g * S
    np.subtract(C, gS, out=Mr[1, 1])
    C += gS
    np.multiply(p, S, out=Mr[1, 0])
    if derivative:
        if series:
            ks_small = np.broadcast_to(k, x.shape)[small]
            dS[small] = 2.0 * ks_small * ws * ws * ws * (
                -1.0 / 6.0 + zs * (1.0 / 60.0 + zs * (-1.0 / 1680.0
                                                     + zs / 90720.0)))
        dC = -k * w * S
        gdS = g * dS
        Mi = M.imag
        Mi[0, 0] = KSTEP * (dC + gdS)
        Mi[1, 1] = KSTEP * (dC - gdS)
        Mi[0, 1] = KSTEP * dS
        Mi[1, 0] = KSTEP * (p * dS - 2.0 * k * S)
    return M


def _real_sweep(ks, w, V1, V2, derivative: bool):
    """The transfer matrix across the segments of widths w and
    Gauss-point potentials V1, V2 at every k, as one (2, 2, k) stack:
    the maps of REAL_BLOCK segments at a time, a constant so that no k's
    result depends on the batch, multiplied pairwise (_product), each
    block product joining one running product.  A map grows only where
    k^2 is below the potential, like cosh(sqrt(V - k^2) w), so the
    product is not rescaled.
    """
    R = None
    for lo in range(0, len(w), REAL_BLOCK):
        block = slice(lo, lo + REAL_BLOCK)
        M = _product(_real_segments(ks, w[block], V1[block], V2[block],
                                    derivative))
        R = M if R is None else _matmul(M, R)
    return R


def transfer_matrices_real(bond, ks, *, derivative: bool = False,
                           coarse: bool = False):
    """Batched transfer matrices (f, f')(0) -> (f, f')(L) over an array of
    k, shape (k, 2, 2).

    A constant bond is one segment; a bump bond is cut into the segments
    of _gauss_layout, swept from x = 0, at PER_WIDTH per width of the
    support for the scan's Newton steps and root checks, or at
    COARSE_PER_WIDTH with coarse=True for its coarse grid.  The count is
    independent of k and every segment map is exact for a constant
    potential at every k, so the error does not grow with k.
    With derivative=True returns (T, dT/dk) from the same pass at the
    complex k + i KSTEP (Squire and Trapp, SIAM Rev. 40, 1998): KSTEP^2
    underflows, so T is bitwise that of the real pass and dT/dk carries
    no cancellation.
    """
    ks = np.asarray(ks, dtype=float)
    pot = bond.potential
    if pot.kind == "constant":
        V = np.array([pot.c])
        layout = np.array([bond.length]), V, V
    else:
        layout = _gauss_layout(bond,
                               COARSE_PER_WIDTH if coarse else PER_WIDTH)
    T = np.moveaxis(_real_sweep(ks, *layout, derivative), (0, 1), (-2, -1))
    if not derivative:
        return T
    return T.real, T.imag / KSTEP

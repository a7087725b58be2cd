"""Single-bond solutions of -f'' + V f = k^2 f on both spectral axes.

Imaginary axis (k = i t): bond_solution returns, over an array of t, the
boundary data entering the secular matrix, the derivative f'(0) of the
solution decaying towards x = L, the logarithm of the Dirichlet solution
u(L), and their t-derivatives; solve_imag_axis is the same at one t.
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
equation, used by the spectral scan.  Closed forms cover the free and
constant stretches, RK4 step maps the rest; the k-derivative is a complex
step through the same kernels, and the Richardson pair of step counts
runs through the RK4 kernel as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsupportedError
from .wkb import u_log_expansion

CSTEP = 1e-30            # complex step for the t-derivatives
KSTEP = 2.0 ** -600      # complex step for the real-axis k-derivative
SWEEP_BLOCK = 32         # segments whose maps a sweep holds at once


@dataclass(frozen=True)
class ImagAxisSolution:
    t: float
    f_prime_at_0: float
    df_prime_at_0_dt: float
    log_u: float
    dlog_u_dt: float
    method: str


class BondSolution(NamedTuple):
    """The fields of ImagAxisSolution as arrays over the nodes t, and
    log u - t L computed without the cancellation of the difference."""

    f_prime_at_0: np.ndarray
    df_prime_at_0_dt: np.ndarray
    log_u: np.ndarray
    dlog_u_dt: np.ndarray
    log_u_excess: np.ndarray

    def take(self, mask) -> "BondSolution":
        return BondSolution(*(a[mask] for a in self))


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


def _analytic(bond, t) -> BondSolution:
    L = bond.length
    c = getattr(bond.potential, "c", 0.0)
    kappa = np.sqrt(np.maximum(t * t + c, 0.0))
    x = kappa * L
    tiny = x < 1e-8
    # the closed forms on the safe stand-ins ks, xs; the series below 1e-8
    ks = np.where(tiny, 1.0, kappa)
    xs = ks * L
    return BondSolution(
        np.where(tiny, -1.0 / L - kappa * kappa * L / 3.0,
                 -ks / np.tanh(xs)),
        np.where(tiny, -2.0 * t * L / 3.0, (t / ks) * _xcsch2_minus_coth(xs)),
        np.where(tiny, math.log(L) + x * x / 6.0,
                 xs - np.log(2.0 * ks) + np.log(-np.expm1(-2.0 * xs))),
        np.where(tiny, t * L * L / 3.0, (t * L / ks) * _coth_minus_inv(xs)),
        np.where(tiny, math.log(L) + x * x / 6.0 - t * L,
                 L * c / (ks + t) - np.log(2.0 * ks)
                 + np.log(-np.expm1(-2.0 * xs))))


def _segments(t, w, V):
    """The segment maps of _sweep at the nodes t: T and P = q T at the
    complex step, and log cosh(kappa w) - t w with its t-derivative.

    They are evaluated in real arithmetic together with their
    t-derivatives, which enter T and P as imaginary parts; below
    |kappa w| = 1e-2 the series in z = q w^2 keep the derivative exact,
    and a segment of width zero is the identity.
    """
    t = t[:, None]
    w = w[:, None, :]
    V = V[:, None, :]
    q = t * t + V
    dq = 2.0 * t
    z = q * w * w
    dz = dq * w * w
    small = z < 1e-4
    kappa = np.sqrt(np.where(small, 1.0, q))
    y = np.where(small, 1.0, kappa * w)
    dy = t / kappa * w
    e = np.exp(-2.0 * y)
    th = -np.expm1(-2.0 * y) / (1.0 + e)
    tanhc = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (2.0 / 15.0
                     - z * 17.0 / 315.0)), th / y)
    dtanhc = np.where(small, dz * (-1.0 / 3.0 + z * (4.0 / 15.0
                      - z * 51.0 / 315.0)), (1.0 - th * th - tanhc) * dy / y)
    # log cosh(y) - t w; w (kappa - t) = w V / (kappa + t) spares it the
    # cancellation
    log_cosh = np.where(
        small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t * w,
        V * w / (kappa + t) + np.log1p(e) - math.log(2.0))
    dlog_cosh = np.where(small, dz * (0.5 + z * (-1.0 / 6.0 + z / 15.0)),
                         th * dy)
    T = w * (tanhc + 1j * CSTEP * dtanhc)
    return T, (q + 1j * CSTEP * dq) * T, log_cosh, dlog_cosh


def _log_step(z):
    """log z for z > 0 at the complex step: Im z is of the order of the
    step, so log z is log Re z + i Im z / Re z."""
    return np.log(z.real) + 1j * (z.imag / z.real)


def _matmul(B, A):
    """B A over stacks of 2x2 matrices held as (2, 2, ...) arrays."""
    BA = B[:, :, None] * A[None]        # BA[i, k, j] = B_ik A_kj
    return BA[:, 0] + BA[:, 1]


def _block_product(T, P):
    """The product of the segment maps [[1, T], [P, 1]] along the last axis,
    later segments on the left, as one (2, 2, ...) stack.

    Neighbouring maps are multiplied pairwise, the first round from T and
    P directly, so a block of k segments takes about log2(k) whole-stack
    rounds; an odd map out is carried to the next round.
    """
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
    while M.shape[-1] > 1:
        h = M.shape[-1] // 2
        paired = _matmul(M[..., 1:2 * h:2], M[..., 0:2 * h:2])
        M = (np.concatenate((paired, M[..., -1:]), axis=-1)
             if M.shape[-1] % 2 else paired)
    return M[..., 0]


def _sweep(t, w, V):
    """Sweep from x = L, where f = 0 and f' = -1, across segments of widths
    w and constant potentials V, one sweep per row of w and V and per
    node of t, all at once, at the complex step t + i CSTEP.  Returns
    (R, s) with one row per sweep and one column per node: R, a
    (2, 2, rows, nodes) stack, is the product of the segment maps in the
    basis (f, -f'), and s the log of the scale divided out of it plus the
    log cosh(kappa w) - t w of every segment.  So (f, -f') at the far end
    is e^s (R01, R11).

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
    s = np.zeros((len(w), len(t)), complex)
    R = None
    for lo in range(0, w.shape[1], SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        T, P, log_cosh, dlog_cosh = _segments(t, w[:, block], V[:, block])
        M = _block_product(T, P)
        R = M if R is None else _matmul(M, R)
        scale = R[1, 1].copy()
        R /= scale
        # summed per block first: at large t both terms are near -+log 2
        # per segment
        s += (log_cosh.sum(axis=-1) + 1j * CSTEP * dlog_cosh.sum(axis=-1)
              + _log_step(scale))
        # freed before the next block's maps are formed
        del T, P, log_cosh, dlog_cosh
    return R, s


def _cpm(bond, t, reverse: bool) -> BondSolution:
    """Constant-perturbation sweep of the solution decaying towards x = L.

    The free stretches outside the support are one exact segment each;
    the support is cut into n midpoint segments, n fixed by the bond, and
    Richardson-extrapolated from n to 2n.  The pair runs as one sweep of
    three rows of n segments: the n-segment sweep and the two halves of
    the 2n-segment one, whose products are joined at the end; a free
    stretch on the far side of a half is a segment of width zero, the
    identity.  t-derivatives come from a complex step through the same
    sweep.  By the Wronskian the Dirichlet solution has
    u(L) = f(0) = m0 f'(0).
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
    R, s = _sweep(t, w, V)
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
    return BondSolution(fp.real, fp.imag / CSTEP, t * L + lu.real,
                        lu.imag / CSTEP, lu.real)


def bond_solution(bond, t, *, reverse: bool = False) -> BondSolution:
    """Boundary data of one bond at every node of the 1-d array t."""
    pot = bond.potential
    L = bond.length
    t = np.asarray(t, dtype=float)
    if t.size and not t.min() >= 0.0:
        raise UnsupportedError("imaginary-axis parameter t must be >= 0")
    vmin = pot.minimum(L)
    if vmin < 0.0 and t.size and t.min() < math.sqrt(-vmin) + 1e-6:
        raise NumericalError(
            f"bond '{bond.id}': t={t.min()} below the spectral floor "
            f"{math.sqrt(-vmin) + 1e-6:.6g}")
    if pot.kind in ("zero", "constant"):
        return _analytic(bond, t)
    if reverse and pot.symmetric(L):
        reverse = False
    return _cpm(bond, t, reverse)


def solve_imag_axis(bond, t, *, reverse: bool = False) -> ImagAxisSolution:
    """bond_solution at one t, as a record."""
    t = float(t)
    sol = bond_solution(bond, np.array([t]), reverse=reverse)
    return ImagAxisSolution(
        t, *(float(a[0]) for a in sol[:4]),
        method="analytic" if bond.potential.kind in ("zero", "constant")
        else "cpm")


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
    if pot.kind in ("zero", "constant"):
        c = getattr(pot, "c", 0.0)
        kappa = np.sqrt(np.maximum(t * t + c, 0.0))
        x = kappa * L
        base = (L * (t / kappa) * _cothm1(x)
                - L * c / (kappa * (kappa + t))
                + c / (t * kappa * kappa))
        return (base + corr)[()]
    if sol is None:
        sol = bond_solution(bond, np.atleast_1d(t))
    return (sol.dlog_u_dt.reshape(t.shape) - L + 1.0 / t + corr)[()]


def dirichlet_log_u_subtracted(bond, t, sol=None):
    """log u(L;t) - tL over an array of t, or at one t, without the
    cancellation of the difference; sol as in
    dirichlet_subtracted_derivative."""
    t = np.asarray(t, dtype=float)
    if sol is None:
        sol = bond_solution(bond, np.atleast_1d(t))
    return sol.log_u_excess.reshape(t.shape)[()]


# ---------------------------------------------------------------------------
# real axis


def _blocks(t00, t01, t10, t11):
    out = np.empty(np.shape(t00) + (2, 2),
                   dtype=np.result_type(t00, t01, t10, t11))
    out[..., 0, 0] = t00
    out[..., 0, 1] = t01
    out[..., 1, 0] = t10
    out[..., 1, 1] = t11
    return out


def _analytic_blocks_batch(k2: np.ndarray, c: float, ell: float):
    """Transfer matrices across a stretch of constant potential c.

    With z^2 = k^2 - c the entries are cos(z ell) and sin(z ell)/z; a
    complex k^2 passes through.  Below |z^2 ell^2| = 1e-3 both come from
    one series in x = z^2 ell^2, which keeps a complex step in k free of
    the cancellation in sin(z ell)/z near z = 0.
    """
    z2 = k2 - c
    x = z2 * ell * ell
    small = np.abs(x) < 1e-3
    z = np.sqrt(np.where(small, 1.0, z2).astype(complex))
    arg = z * ell
    cosv = np.where(small, 1.0 + x * (-1.0 / 2.0 + x * (1.0 / 24.0 + x * (
        -1.0 / 720.0 + x / 40320.0))), np.cos(arg))
    sov = np.where(small, ell * (1.0 + x * (-1.0 / 6.0 + x * (1.0 / 120.0
                   + x * (-1.0 / 5040.0 + x / 362880.0)))), np.sin(arg) / z)
    if not np.iscomplexobj(k2):
        cosv, sov = cosv.real, sov.real
    return _blocks(cosv, sov, -z2 * sov, cosv)


def _rk4_blocks_batch(pot, ks: np.ndarray, spans, n: int):
    """n classical RK4 steps of p' = q, q' = (V - k^2) p across every span
    (a, b) in `spans`, for every k at once; a complex k passes through.
    Returns the transfer matrices with shape (len(spans), len(ks), 2, 2).

    With w = V - k^2 at x, x + h/2 and x + h, one step is the exact map

        P00 = 1 + h^2/6 (w1 + 2 w2) + h^4/24 w1 w2
        P01 = h + h^3/6 w2
        P10 = h/6 (w1 + 4 w2 + w3) + h^3/12 w2 (w1 + w3)
        P11 = 1 + h^2/6 (2 w2 + w3) + h^4/24 w2 w3

    applied to both columns of T.  Each entry is at most quadratic in
    k^2, so it splits as F + c + d k^2: F holds every V-free term, k^4
    included, and is shared by all steps of a span; c and d are
    tabulated per step from one evaluation of V per node grid.  Each
    span is one column group with its own step h, F and step table, and
    all groups advance together, so independent spans of one step count
    share the per-call cost.  P is held as one (2, 2, groups, k) array of
    the dtype of k and formed in three whole-batch operations; P T takes
    twelve more, in place.
    """
    hs, tables = [], []
    for a, b in spans:
        h = (b - a) / n
        x = a + np.arange(n) * h
        v1 = pot.value(x)
        v2 = pot.value(x + 0.5 * h)
        v3 = pot.value(x + h)
        h2, h3, h4 = h * h / 6.0, h ** 3 / 12.0, h ** 4 / 24.0
        # c and d of P00, P01, P10, P11; P01 has no V-dependent k^2 term
        tables.append([[h2 * (v1 + 2.0 * v2) + h4 * v1 * v2,
                        2.0 * h3 * v2,
                        h / 6.0 * (v1 + 4.0 * v2 + v3) + h3 * v2 * (v1 + v3),
                        h2 * (2.0 * v2 + v3) + h4 * v2 * v3],
                       [-h4 * (v1 + v2),
                        np.zeros(n),
                        -h3 * (v1 + 2.0 * v2 + v3),
                        -h4 * (v2 + v3)]])
        hs.append((h, h2, h3, h4))
    # c and d of every step, (n, 2, 2, groups, 1) each
    c, d = np.array(tables).transpose(1, 3, 2, 0).reshape(
        2, n, 2, 2, len(spans), 1)
    h, h2, h3, h4 = np.array(hs).T[:, :, None]
    kk = ks * ks
    shape = (len(spans),) + kk.shape
    F = np.empty((2, 2) + shape, kk.dtype)
    F[0, 0] = F[1, 1] = 1.0 + kk * (-3.0 * h2 + h4 * kk)
    F[0, 1] = h - 2.0 * h3 * kk
    F[1, 0] = kk * (-h + 2.0 * h3 * kk)

    P = np.empty_like(F)
    (p00, p01), (p10, p11) = P
    t00, t11 = np.ones(shape, kk.dtype), np.ones(shape, kk.dtype)
    t01, t10 = np.zeros(shape, kk.dtype), np.zeros(shape, kk.dtype)
    u0, u1, tmp = np.empty((3,) + shape, kk.dtype)
    mul = np.multiply
    for ci, di in zip(c, d):
        mul(kk, di, out=P)
        P += F
        P += ci
        # row 0 of P T into (u0, u1), row 1 in place
        mul(p00, t00, out=u0)
        mul(p01, t10, out=tmp)
        u0 += tmp
        mul(p00, t01, out=u1)
        mul(p01, t11, out=tmp)
        u1 += tmp
        mul(p10, t00, out=t00)
        mul(p11, t10, out=t10)
        t10 += t00
        mul(p10, t01, out=t01)
        mul(p11, t11, out=t11)
        t11 += t01
        t00, u0 = u0, t00
        t01, u1 = u1, t01
    return _blocks(t00, t01, t10, t11)


def _transfer(bond, ks: np.ndarray, steps: int, richardson: bool):
    pot = bond.potential
    L = bond.length
    k2 = ks * ks
    if pot.kind in ("zero", "constant"):
        return _analytic_blocks_batch(k2, getattr(pot, "c", 0.0), L)
    a, b = pot.support(L)
    if richardson:
        # T(n) over [a, b] and the two halves of T(2n), as one batch
        mid = 0.5 * (a + b)
        R = _rk4_blocks_batch(pot, ks, [(a, b), (a, mid), (mid, b)], steps)
        # times 1/15: numpy divides a complex array by 15.0 as by a
        # complex number, which would move the last bit of the real part
        inner = (16.0 * (R[2] @ R[1]) - R[0]) * (1.0 / 15.0)
    else:
        inner = _rk4_blocks_batch(pot, ks, [(a, b)], steps)[0]
    return (_analytic_blocks_batch(k2, 0.0, L - b) @ inner
            @ _analytic_blocks_batch(k2, 0.0, a))


def transfer_matrices_real(bond, ks, *, steps: int = 1200,
                           derivative: bool = False,
                           richardson: bool = False):
    """Batched transfer matrices over an array of k.

    With richardson=True the RK4 block is (16 T(2 steps) - T(steps))/15,
    the step error extrapolated away; the pass of `steps` steps over the
    support and the two halves of the pass of 2 * steps steps run as one
    batch of three column groups, each `steps` steps long.  The free
    stretches on either side stay exact, and a closed-form bond returns
    its plain T.  With derivative=True returns (T, dT/dk) from one pass
    at the complex k + i KSTEP (Squire and Trapp, SIAM Rev. 40, 1998):
    KSTEP^2 underflows, so T is bitwise that of the real pass and dT/dk
    carries no cancellation.
    """
    ks = np.asarray(ks, dtype=float)
    if not derivative:
        return _transfer(bond, ks, steps, richardson)
    T = _transfer(bond, ks + 1j * KSTEP, steps, richardson)
    return T.real, T.imag / KSTEP

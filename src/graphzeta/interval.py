"""Single-bond solutions of -f'' + V f = k^2 f on both spectral axes.

Imaginary axis (k = i t): returns the boundary data entering the secular
matrix, the derivative f'(0) of the solution decaying towards x = L, the
logarithm of the Dirichlet solution u(L), and their t-derivatives.  Zero
and constant potentials have closed forms; every other potential goes
through one constant-perturbation sweep (Ixaru 1984; Ledoux, Van Daele and
Vanden Berghe, ACM TOMS 31, 2005), whose segments are exact for a constant
potential at every t, so one segment count serves all t.  All growth is
kept in log form so large t L never overflows.

Real axis: batched 2x2 transfer matrices for the magnetic-gauge-removed
equation, used by the spectral scan.  Closed forms cover the free and
constant stretches, RK4 step maps the rest; the k-derivative is a complex
step through the same kernels, and the Richardson pair of step counts
runs through the RK4 kernel as one batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, UnsupportedError
from .wkb import u_log_expansion

CSTEP = 1e-30            # complex step for the t-derivatives
KSTEP = 2.0 ** -600      # complex step for the real-axis k-derivative


@dataclass(frozen=True)
class ImagAxisSolution:
    t: float
    f_prime_at_0: float
    df_prime_at_0_dt: float
    log_u: float
    dlog_u_dt: float
    method: str


def _cothm1(x: float) -> float:
    """coth(x) - 1 without cancellation for large x."""
    if x > 350.0:
        return 0.0
    return 2.0 / math.expm1(2.0 * x)


def _coth_minus_inv(x: float) -> float:
    """coth(x) - 1/x; series below x=0.15 avoids the 1/x cancellation."""
    if x < 0.15:
        x2 = x * x
        return x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0
                    + x2 * (-1.0 / 4725.0 + x2 * (2.0 / 93555.0)))))
    return 1.0 / math.tanh(x) - 1.0 / x


def _xcsch2_minus_coth(x: float) -> float:
    """x*csch(x)^2 - coth(x), same treatment."""
    if x < 0.15:
        x2 = x * x
        return x * (-2.0 / 3.0 + x2 * (4.0 / 45.0 + x2 * (-4.0 / 315.0
                    + x2 * (8.0 / 4725.0 + x2 * (-4.0 / 18711.0)))))
    if x > 350.0:
        return -1.0
    s = math.sinh(x)
    return x / (s * s) - 1.0 / math.tanh(x)


def _analytic(bond, t: float) -> ImagAxisSolution:
    L = bond.length
    c = getattr(bond.potential, "c", 0.0)
    kappa = math.sqrt(max(t * t + c, 0.0))
    x = kappa * L
    if x < 1e-8:
        return ImagAxisSolution(
            t=t,
            f_prime_at_0=-1.0 / L - kappa * kappa * L / 3.0,
            df_prime_at_0_dt=-2.0 * t * L / 3.0,
            log_u=math.log(L) + x * x / 6.0,
            dlog_u_dt=t * L * L / 3.0,
            method="analytic")
    return ImagAxisSolution(
        t=t,
        f_prime_at_0=-kappa / math.tanh(x) if x <= 350.0 else -kappa,
        df_prime_at_0_dt=(t / kappa) * _xcsch2_minus_coth(x),
        log_u=x - math.log(2.0 * kappa) + math.log(-math.expm1(-2.0 * x)),
        dlog_u_dt=(t * L / kappa) * _coth_minus_inv(x),
        method="analytic")


def _sweep(t: complex, w, V):
    """Sweep from x = L, where f = 0 and f' = -1, across segments of widths
    w and constant potentials V; returns (m, s) at the far end.

    m = f/f' and s = log|f'| minus the free growth Re(t) * (swept length);
    keeping s of order one instead of t L keeps the absolute error of log u
    at rounding level, which the subtracted large-t integrands rely on.

    With q = t^2 + V, kappa = sqrt(q) and T = tanh(kappa w)/kappa, one
    segment is the exact map m <- (m - T)/(1 - m q T), with
    log cosh(kappa w) + log(1 - m q T) added to log|f'|.  Below |kappa w| =
    1e-2 the series in z = q w^2 keep the complex-step t-derivative exact.
    """
    q = t * t + V
    z = q * w * w
    small = np.abs(z) < 1e-4
    kappa = np.sqrt(np.where(small, 1.0, q))
    y = kappa * w
    tanhc = np.where(small, 1.0 + z * (-1.0 / 3.0 + z * (2.0 / 15.0
                     - z * 17.0 / 315.0)), np.tanh(y) / y)
    # log cosh(y) - Re(t) w; w (kappa - t) = w V / (kappa + t) spares the
    # real part the cancellation, and y carries the imaginary part whole
    log_cosh = np.where(
        small, z * (0.5 + z * (-1.0 / 12.0 + z / 45.0)) - t.real * w,
        (V * w / (kappa + t)).real + 1j * y.imag
        + np.log1p(np.exp(-2.0 * y)) - math.log(2.0))
    T = w * tanhc
    m = 0j
    dens = []
    for Ti, Pi in zip(T.tolist(), (q * T).tolist()):
        d = 1.0 - m * Pi
        m = (m - Ti) / d
        dens.append(d)
    return m, complex(log_cosh.sum() + np.log(dens).sum())


def _cpm(bond, t: float, reverse: bool) -> ImagAxisSolution:
    """Constant-perturbation sweep of the solution decaying towards x = L.

    The free stretches outside the support are one exact segment each;
    the support is cut into n midpoint segments, n fixed by the bond, and
    Richardson-extrapolated from n to 2n.  t-derivatives come from a
    complex step through the same sweep.  By the Wronskian the Dirichlet
    solution has u(L) = f(0) = m0 f'(0).
    """
    L = bond.length
    pot = bond.potential
    a, b = pot.support(L)
    vmax = max(-pot.minimum(L), pot.maximum(L))
    n = max(200, math.ceil(200.0 * (b - a) * math.sqrt(vmax)))
    first, last = (a, L - b) if reverse else (L - b, a)
    tc = complex(t, CSTEP)
    ends = []
    for k in (n, 2 * n):
        h = (b - a) / k
        mid = (np.arange(k) + 0.5) * h
        x = a + mid if reverse else b - mid
        w = np.concatenate(([first], np.full(k, h), [last]))
        V = np.concatenate(([0.0], pot.value(x), [0.0]))
        ends.append(_sweep(tc, w, V))
    (m1, s1), (m2, s2) = ends
    m0 = (4.0 * m2 - m1) / 3.0
    s0 = (4.0 * s2 - s1) / 3.0
    if not m0.real < 0.0:
        raise NumericalError(
            f"bond '{bond.id}': solution lost decay at t={t}")
    fp = 1.0 / m0
    lu = s0 + cmath.log(-m0)
    return ImagAxisSolution(
        t=t,
        f_prime_at_0=fp.real,
        df_prime_at_0_dt=fp.imag / CSTEP,
        log_u=t * L + lu.real,
        dlog_u_dt=lu.imag / CSTEP,
        method="cpm")


@lru_cache(maxsize=65536)
def _solve_cached(bond, t: float, reverse: bool) -> ImagAxisSolution:
    pot = bond.potential
    L = bond.length
    if t < 0.0:
        raise UnsupportedError("imaginary-axis parameter t must be >= 0")
    vmin = pot.minimum(L)
    if vmin < 0.0 and t < math.sqrt(-vmin) + 1e-6:
        raise NumericalError(
            f"bond '{bond.id}': t={t} below the spectral floor "
            f"{math.sqrt(-vmin) + 1e-6:.6g}")
    if pot.kind in ("zero", "constant"):
        return _analytic(bond, t)
    return _cpm(bond, t, reverse)


def solve_imag_axis(bond, t, *, reverse: bool = False) -> ImagAxisSolution:
    if reverse and bond.potential.symmetric(bond.length):
        reverse = False
    return _solve_cached(bond, float(t), bool(reverse))


def dirichlet_subtracted_derivative(bond, t: float) -> float:
    """d/dt of [log u(L;t) - tL + log 2t - sum_{j<=4} e_j t^-j].

    Decays like t^-6; the closed-form branch avoids subtracting two O(L)
    quantities.
    """
    L = bond.length
    pot = bond.potential
    ej = u_log_expansion(bond)
    corr = sum(j * e * t ** (-j - 1) for j, e in ej.items())
    if pot.kind in ("zero", "constant"):
        c = getattr(pot, "c", 0.0)
        kappa = math.sqrt(max(t * t + c, 0.0))
        x = kappa * L
        base = (L * (t / kappa) * _cothm1(x)
                - L * c / (kappa * (kappa + t))
                + c / (t * kappa * kappa))
        return base + corr
    sol = solve_imag_axis(bond, t)
    return sol.dlog_u_dt - L + 1.0 / t + corr


def dirichlet_log_u_subtracted(bond, t: float) -> float:
    """log u(L;t) - tL, stable for the closed-form potentials."""
    pot = bond.potential
    L = bond.length
    if pot.kind in ("zero", "constant"):
        c = getattr(pot, "c", 0.0)
        kappa = math.sqrt(max(t * t + c, 0.0))
        x = kappa * L
        if x < 1e-8:
            return math.log(L) + x * x / 6.0 - t * L
        return (L * c / (kappa + t) - math.log(2.0 * kappa)
                + math.log(-math.expm1(-2.0 * x)))
    sol = solve_imag_axis(bond, t)
    return sol.log_u - t * L


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

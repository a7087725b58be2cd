"""Single-bond solutions of -f'' + V f = k^2 f on both spectral axes.

Imaginary axis (k = i t): returns the boundary data entering the secular
matrix, the derivative f'(0) of the solution decaying towards x = L, the
logarithm of the Dirichlet solution u(L), and their t-derivatives.  All
growth is kept in log form so large t L never overflows.

Real axis: 2x2 transfer matrices for the magnetic-gauge-removed equation,
used by the spectral scan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NumericalError, UnsupportedError
from .wkb import u_log_expansion

CROSSOVER_TL = 20.0
STIFF_TL = 3000.0
RESCALE_LIMIT = 1e10


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


def _linear(bond, t: float, reverse: bool) -> ImagAxisSolution:
    """Forward integration of u, v and their t-derivatives, with segment
    rescaling so exponential growth stays inside double range."""
    L = bond.length
    pot = bond.potential

    def vfun(x):
        return pot.value_scalar(L - x if reverse else x)

    tt = t * t

    def rhs(x, y):
        q = tt + vfun(x)
        return (y[1], q * y[0], y[3], q * y[2],
                y[5], q * y[4] + 2.0 * t * y[0],
                y[7], q * y[6] + 2.0 * t * y[2])

    kappa_max = math.sqrt(tt + max(0.0, pot.maximum(L)))
    nseg = int(kappa_max * L / 20.0) + 1
    edges = np.linspace(0.0, L, nseg + 1)
    y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sigma = 0.0
    for i in range(nseg):
        sol = solve_ivp(rhs, (edges[i], edges[i + 1]), y, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise NumericalError(
                f"bond '{bond.id}': forward integration failed at t={t}")
        y = sol.y[:, -1]
        m = float(np.max(np.abs(y)))
        if m > RESCALE_LIMIT:
            y = y / m
            sigma += math.log(m)
    uL, vL, huL, hvL = y[0], y[2], y[4], y[6]
    if uL <= 0.0:
        raise NumericalError(
            f"bond '{bond.id}': u(L) not positive at t={t}; "
            "operator may have spectrum below -t^2")
    return ImagAxisSolution(
        t=t,
        f_prime_at_0=-vL / uL,
        df_prime_at_0_dt=-(hvL * uL - vL * huL) / (uL * uL),
        log_u=math.log(uL) + sigma,
        dlog_u_dt=huL / uL,
        method="linear")


def _riccati(bond, t: float, reverse: bool) -> ImagAxisSolution:
    """Backward Riccati integration from x = L for large t L.

    State is (m, S, mu, sigma) with m = f/f' for the decaying solution,
    S the log-magnitude with the free t(L-x) growth removed and mu, sigma
    their t-derivatives; all start from zero at x = L.  Keeping S of order
    one (instead of order tL) keeps the absolute error of log u at the
    tolerance level, which the subtracted large-t integrands rely on.
    """
    L = bond.length
    pot = bond.potential

    def vfun(x):
        return pot.value_scalar(L - x if reverse else x)

    tt = t * t

    def rhs(x, y):
        m, _, mu, _ = y
        q = tt + vfun(x)
        return (1.0 - q * m * m,
                -q * m - t,
                -2.0 * t * m * m - 2.0 * q * m * mu,
                -(2.0 * t * m + q * mu) - 1.0)

    def jac(x, y):
        m, _, mu, _ = y
        q = tt + vfun(x)
        return ((-2.0 * q * m, 0.0, 0.0, 0.0),
                (-q, 0.0, 0.0, 0.0),
                (-4.0 * t * m - 2.0 * q * mu, 0.0, -2.0 * q * m, 0.0),
                (-2.0 * t, 0.0, -q, 0.0))

    stiff = t * L > STIFF_TL
    kwargs = dict(method="Radau", jac=jac) if stiff else dict(method="DOP853")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (L, 0.0), (0.0, 0.0, 0.0, 0.0),
                        rtol=1e-12, atol=1e-18, **kwargs)
    if not sol.success:
        raise NumericalError(
            f"bond '{bond.id}': Riccati integration failed at t={t}")
    m0, s0, mu0, sig0 = sol.y[:, -1]
    if m0 >= 0.0:
        raise NumericalError(
            f"bond '{bond.id}': Riccati solution lost decay at t={t}")
    return ImagAxisSolution(
        t=t,
        f_prime_at_0=1.0 / m0,
        df_prime_at_0_dt=-mu0 / (m0 * m0),
        log_u=t * L - s0 + math.log(-m0),
        dlog_u_dt=L - sig0 + mu0 / m0,
        method="riccati")


@lru_cache(maxsize=65536)
def _solve_cached(bond, t: float, reverse: bool, method: str) -> ImagAxisSolution:
    pot = bond.potential
    L = bond.length
    if t < 0.0:
        raise UnsupportedError("imaginary-axis parameter t must be >= 0")
    vmin = pot.minimum(L)
    if vmin < 0.0 and t < math.sqrt(-vmin) + 1e-6:
        raise NumericalError(
            f"bond '{bond.id}': t={t} below the spectral floor "
            f"{math.sqrt(-vmin) + 1e-6:.6g}")
    analytic_ok = pot.kind in ("zero", "constant")
    if method == "auto":
        if analytic_ok:
            method = "analytic"
        else:
            method = "linear" if t * L < CROSSOVER_TL else "riccati"
    if method == "analytic":
        if not analytic_ok:
            raise UnsupportedError(
                "closed form only available for zero or constant potentials")
        return _analytic(bond, t)
    if method == "linear":
        return _linear(bond, t, reverse)
    if method == "riccati":
        return _riccati(bond, t, reverse)
    raise UnsupportedError(f"unknown solver method '{method}'")


def solve_imag_axis(bond, t, *, reverse: bool = False,
                    method: str = "auto") -> ImagAxisSolution:
    if reverse and bond.potential.symmetric(bond.length):
        reverse = False
    return _solve_cached(bond, float(t), bool(reverse), method)


def dirichlet_subtracted_derivative(bond, t: float, depth: int = 4) -> float:
    """d/dt of [log u(L;t) - tL + log 2t - sum_{j<=depth} e_j t^-j].

    Decays like t^(-depth-2); the closed-form branch avoids subtracting
    two O(L) quantities.
    """
    L = bond.length
    pot = bond.potential
    ej = u_log_expansion(bond, depth)
    corr = sum(j * ej[j] * t ** (-j - 1) for j in range(1, depth + 1))
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


def _analytic_block(k2: float, c: float, ell: float) -> np.ndarray:
    z2 = k2 - c
    z = cmath.sqrt(complex(z2, 0.0))
    arg = z * ell
    if abs(arg) < 1e-6:
        x = z2 * ell * ell
        sov = ell * (1.0 - x / 6.0 + x * x / 120.0)
        cosv = 1.0 - x / 2.0 + x * x / 24.0
    else:
        sov = (cmath.sin(arg) / z).real
        cosv = cmath.cos(arg).real
    return np.array([[cosv, sov], [-z2 * sov, cosv]])


def transfer_matrix_real(bond, k: float) -> np.ndarray:
    """(psi(L), psi'(L)) = T (psi(0), psi'(0)) for -psi'' + V psi = k^2 psi.

    Magnetic phases are not included here; the secular assembly applies
    them.  Richardson extrapolation of the fixed-step interior pass keeps
    the roots of the secular function accurate to ~1e-9 in k.
    """
    pot = bond.potential
    L = bond.length
    if pot.kind in ("zero", "constant"):
        return _analytic_block(k * k, getattr(pot, "c", 0.0), L)
    a, b = pot.support(L)
    n = max(400, int(20.0 * (abs(k) + 1.0) * (b - a)))
    ks = np.array([k])
    t_n = _rk4_blocks_batch(pot, ks, a, b, n)[0]
    t_2n = _rk4_blocks_batch(pot, ks, a, b, 2 * n)[0]
    mid = (16.0 * t_2n - t_n) / 15.0
    out = _analytic_block(k * k, 0.0, L - b) @ mid @ _analytic_block(k * k, 0.0, a)
    det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise NumericalError(
            f"bond '{bond.id}': transfer matrix lost unimodularity at k={k}")
    return out


def _analytic_blocks_batch(k2: np.ndarray, c: float, ell: float) -> np.ndarray:
    z2 = k2 - c
    z = np.sqrt(z2.astype(complex))
    arg = z * ell
    small = np.abs(arg) < 1e-6
    zsafe = np.where(small, 1.0, z)
    sov = np.where(small, ell * (1.0 - z2 * ell * ell / 6.0),
                   (np.sin(arg) / zsafe).real)
    cosv = np.cos(arg).real
    out = np.empty(k2.shape + (2, 2))
    out[:, 0, 0] = cosv
    out[:, 0, 1] = sov
    out[:, 1, 0] = -z2 * sov
    out[:, 1, 1] = cosv
    return out


def _rk4_blocks_batch(pot, ks: np.ndarray, a: float, b: float,
                      n: int) -> np.ndarray:
    kk = ks * ks
    h = (b - a) / n
    p0 = np.ones_like(ks)
    q0 = np.zeros_like(ks)
    p1 = np.zeros_like(ks)
    q1 = np.ones_like(ks)
    val = pot.value_scalar
    for i in range(n):
        x = a + i * h
        w1 = val(x) - kk
        w2 = val(x + 0.5 * h) - kk
        w3 = val(x + h) - kk
        for col in (0, 1):
            p, q = (p0, q0) if col == 0 else (p1, q1)
            k1p, k1q = q, w1 * p
            k2p = q + 0.5 * h * k1q
            k2q = w2 * (p + 0.5 * h * k1p)
            k3p = q + 0.5 * h * k2q
            k3q = w2 * (p + 0.5 * h * k2p)
            k4p = q + h * k3q
            k4q = w3 * (p + h * k3p)
            p = p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            q = q + h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            if col == 0:
                p0, q0 = p, q
            else:
                p1, q1 = p, q
    out = np.empty(ks.shape + (2, 2))
    out[:, 0, 0] = p0
    out[:, 0, 1] = p1
    out[:, 1, 0] = q0
    out[:, 1, 1] = q1
    return out


def transfer_matrices_real(bond, ks, *, steps: int = 1200) -> np.ndarray:
    """Batched transfer matrices over an array of k, for the coarse scan."""
    ks = np.asarray(ks, dtype=float)
    pot = bond.potential
    L = bond.length
    if pot.kind in ("zero", "constant"):
        return _analytic_blocks_batch(ks * ks, getattr(pot, "c", 0.0), L)
    a, b = pot.support(L)
    mid = _rk4_blocks_batch(pot, ks, a, b, steps)
    left = _analytic_blocks_batch(ks * ks, 0.0, a)
    right = _analytic_blocks_batch(ks * ks, 0.0, L - b)
    return right @ mid @ left

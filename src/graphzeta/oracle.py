"""Independent verification paths.

Eigenvalues are located on the real k axis through the pole-free secular
matrix S(k), entirely separate from the imaginary-axis machinery the zeta
engine uses: a coarse grid of singular values, at a sixth of the
Newton steps' bump segments, flags a dip near every root, Newton steps
on the pencil (S(k), -dS/dk) converge from each dip to the roots of
det S, and the singular values of S at each converged root confirm it
and give its multiplicity.  S is float64 unless a flux or complex
matching makes it complex.  Zeta values are then checked by direct
summation with a Weyl-density tail, and the force by finite
differences of the energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
from .potentials import _gauss_legendre
from .secular import secular_matrices_real
from .zeta import minus_half_data

NEWTON_STEPS = 12
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumWindow:
    k_max: float
    roots: tuple            # ((k, multiplicity), ...) strictly increasing
    count_estimate: float   # total_length * k_max / pi

    @property
    def count(self) -> int:
        return sum(m for _, m in self.roots)


class _WeylAnomaly(Exception):
    pass


def _matrices(graph, mc, ks):
    """(S, dS/dk) at the Newton count of bump segments, one pass."""
    return secular_matrices_real(graph, mc, ks, derivative=True)


def _singulars(graph, mc, ks):
    """Coarse grid's singular values of S: a sixth of the Newton count of
    bump segments, float64 if real."""
    S = secular_matrices_real(graph, mc, ks, coarse=True)
    return np.linalg.svd(S, compute_uv=False)


def _pencil_steps(S, dS, shift):
    """Eigenvalues delta of the pencils S + delta dS, shape (nk, n).

    With mu the eigenvalues of (S + shift dS)^-1 dS, delta = shift -
    1/mu.  The shift keeps the solve away from S itself, which is
    exactly singular in floating point at a root Newton has converged
    to.  dS has rank at most B, so at least half of the deltas are
    infinite or huge.
    """
    mu = np.linalg.eigvals(np.linalg.solve(S + shift * dS, dS))
    return shift - np.divide(1.0, mu, out=np.full_like(mu, np.inf),
                             where=mu != 0.0)


def _newton(graph, mc, starts, dk):
    """Roots of det S(k) by Newton steps k <- k + delta on the secular
    pencil, from every start at once (successive linear problems; Ruhe,
    SIAM J. Numer. Anal. 10, 1973).

    The first step branches into every pencil eigenvalue with |delta| <
    dk, so two roots in one coarse cell each get an iterate; later steps
    take the eigenvalue nearest zero.  An iterate has converged once
    |delta| < NEWTON_TOL.  It is dropped when a step reaches dk, or when
    it is still going after NEWTON_STEPS steps (the k = 0 mode of a
    graph, a double root of the even function det S(k), converges only
    linearly).  Returns k + delta for each converged iterate, sorted, and
    S at k.
    """
    S, dS = _matrices(graph, mc, starts)
    # any shift inside the cell serves; see _pencil_steps
    deltas = _pencil_steps(S, dS, 0.5 * dk)
    row, col = np.nonzero(np.abs(deltas) < dk)
    ks = starts[row] + deltas[row, col].real
    roots, mats = [np.empty(0)], [S[:0]]
    for _ in range(NEWTON_STEPS):
        if not len(ks):
            break
        S, dS = _matrices(graph, mc, ks)
        deltas = _pencil_steps(S, dS, 0.5 * dk)
        delta = deltas[np.arange(len(ks)), np.argmin(np.abs(deltas), axis=1)]
        done = np.abs(delta) < NEWTON_TOL
        roots.append(ks[done] + delta[done].real)
        mats.append(S[done])
        going = ~done & (np.abs(delta) < dk)
        ks = ks[going] + delta[going].real
    roots = np.concatenate(roots)
    order = np.argsort(roots, kind="stable")
    return roots[order], np.concatenate(mats)[order]


def _dips(y, half):
    """Local minima of y, +inf beyond its ends, and the maximum of y over
    i - half .. i + half, clipped at the ends."""
    low = (y <= np.r_[math.inf, y[:-1]]) & (y <= np.r_[y[1:], math.inf])
    pad = np.full(half, -math.inf)
    return low, np.lib.stride_tricks.sliding_window_view(
        np.r_[pad, y, pad], 2 * half + 1).max(axis=1)


def _scan_once(graph, mc, k_max, dk):
    m = int(math.ceil(k_max / dk)) + 1
    ks = np.linspace(0.0, k_max, m)
    dk = ks[1] - ks[0]
    svals = _singulars(graph, mc, ks)
    sigma = svals[:, -1]
    with np.errstate(divide="ignore"):
        logdet = np.sum(np.log(svals), axis=-1)
    background = float(np.median(sigma))
    if background <= 0.0:
        raise NumericalError("secular matrix is singular on the whole grid")

    # Two complementary dip detectors.  sigma_min drops to zero in a
    # neighbourhood that can be very narrow when an almost-singular
    # direction saturates it (a delta coupling at large k shrinks the well
    # like 1/k), while log|det| picks up the wide logarithmic funnel every
    # root carries regardless of that saturation.  k = 0 has no left
    # neighbour, so a root below dk/2 shows as a one-sided dip there.
    low, local = _dips(sigma, 3)
    cand = low & ((sigma < 0.8 * background) | (sigma < 0.55 * local))
    low, local = _dips(logdet, 4)
    with np.errstate(invalid="ignore"):  # -inf - -inf where S is singular
        cand |= low & (local - logdet >= 0.5)
    # S is even in k, so dS/dk vanishes at 0: start that dip mid-cell
    starts = np.where(ks > 0.0, ks, 0.5 * dk)[cand]

    roots = []
    total = 0
    if len(starts):
        found, mats = _newton(graph, mc, starts, dk)
        # iterates that converged onto one root, from neighbouring dips or
        # from the two pencil eigenvalues of a double root, agree to
        # within NEWTON_TOL
        keep = np.ones(len(found), dtype=bool)
        keep[1:] = np.diff(found) >= NEWTON_TOL
        keep &= (found > 0.0) & (found <= k_max)
        if np.any(keep):
            svals = np.linalg.svd(mats[keep], compute_uv=False)
            for k, sv in zip(found[keep].tolist(), svals):
                if sv[-1] >= 1e-5 * background:
                    continue
                # sv[0] itself collapses when the matrix loses full rank,
                # so anchor the multiplicity scale to the grid background
                scale = max(sv[0], background)
                mult = int(np.count_nonzero(sv < 1e-6 * scale))
                roots.append((k, max(mult, 1)))
                total += max(mult, 1)
    roots = tuple(roots)

    estimate = graph.total_length() * k_max / math.pi
    bound = 2 * graph.bond_count + 2
    if abs(total - estimate) > bound:
        raise _WeylAnomaly(
            f"found {total} roots up to k={k_max:g} where the Weyl estimate "
            f"is {estimate:.2f} +- {bound}; a root was probably missed")
    return SpectrumWindow(k_max=float(k_max), roots=roots,
                          count_estimate=estimate)


def scan_spectrum(graph, mc, k_max: float, *, threads: int = 1) -> SpectrumWindow:
    """All roots in (0, k_max] with multiplicities.

    A coarse grid of spacing dk ~ pi / (16 total length) flags dips of the
    smallest singular value and of log|det S|, a bump bond cut into
    COARSE_PER_WIDTH Magnus segments per width of its support.  From each
    dip, Newton steps on the pencil (S(k), -dS/dk) converge to the roots of
    det S within one grid cell, with dS/dk exact through the transfer
    matrices, both at PER_WIDTH segments per width, the count of the
    imaginary axis.  The singular values of that S at each converged root
    confirm it and give its multiplicity.  S is float64 without flux or
    complex matching.  A Weyl-count anomaly triggers one rescan at dk/4
    before giving up.  The scan runs on the calling thread: `threads` must
    be at least 1 but reaches no computation, and is removed in the
    benchmark-only change of ROADMAP item 2 (benchmark upkeep) that drops
    the benchmark's threads = 2 operation.
    """
    if not math.isfinite(k_max):
        raise UnsupportedError("k_max must be finite")
    if k_max <= 0.0:
        raise UnsupportedError("k_max must be positive")
    if threads < 1:
        raise UnsupportedError("threads must be at least 1")
    dk = math.pi / (16.0 * graph.total_length())
    try:
        return _scan_once(graph, mc, k_max, dk)
    except _WeylAnomaly:
        pass
    try:
        return _scan_once(graph, mc, k_max, dk / 4.0)
    except _WeylAnomaly as exc:
        raise NumericalError(str(exc)) from None


# ---------------------------------------------------------------------------
# direct zeta summation


def _gauss(f, lo, hi):
    """integral of f over [lo, hi] by the Gauss-Legendre rule, and its
    change between the whole interval and its two halves as the error.

    lo and hi may be arrays of pieces; f maps nodes of shape
    lo.shape + (GL_NODES,) to values with the nodes on the last axis."""
    x, w = _gauss_legendre()
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def rule(a, b):
        h = 0.5 * (b - a)
        return f((a + h)[..., None] + h[..., None] * x) @ w * h

    mid = 0.5 * (lo + hi)
    halves = rule(lo, mid) + rule(mid, hi)
    return halves[()], np.abs(halves - rule(lo, hi))[()]


def _tail_int(K, s, gamma, extra: int = 0):
    """(value, error) of integral_K^inf (gamma + k^2)^(-s) k^(-extra) dk.

    Beyond J = max(K, 2 sqrt(gamma)) the binomial series of
    (1 + gamma/k^2)^(-s) integrates term by term, in powers of
    r = gamma/J^2 <= 1/4; the stretch [K, J] goes to the Gauss-Legendre
    rule.
    """
    s = complex(s)
    J = max(K, 2.0 * math.sqrt(gamma))
    r = gamma / (J * J)
    term, total, n = 1.0, 0.0, 0
    while True:
        piece = term / (2.0 * s - 1.0 + extra + 2 * n)
        total += piece
        if not abs(piece) > 1e-17 * abs(total):  # negligible, or nan
            break
        term *= -(s + n) / (n + 1) * r
        n += 1
    scale = J ** (1.0 - extra - 2.0 * s)
    value, err = total * scale, abs(piece * scale)
    if J > K:
        near, near_err = _gauss(
            lambda k: (gamma + k * k) ** (-s) * k ** (-extra), K, J)
        value, err = value + near, err + near_err
    return value, err


def _counting_fit(ks, ms, density, A, B):
    """Fit N(k) - density*k to c + a/k with a Hann weight on [A, B].

    Eigenvalue ladders behind a delta coupling or a bond potential drift
    like 1/k, so the counting function carries a decaying a/k term on top
    of the Weyl line; the smooth weight keeps the step-function
    oscillation out of the fitted moments.  Returns (c, a).
    """
    om = 2.0 * np.pi / (B - A)

    def int_w(x):
        return 0.5 * ((x - A) - np.sin(om * (x - A)) / om)

    def w_over_k(k):
        w = 0.5 * (1.0 - np.cos(om * (k - A)))
        return np.stack([w / k, w / (k * k)])

    # integral_lo^B of w/k and w/k^2, on [A, B] and beyond each root
    kc = np.clip(ks, A, B)
    moments, _ = _gauss(w_over_k, np.r_[A, kc], B)
    g11 = float(int_w(B))
    g12, g22 = moments[:, 0]

    b1 = float(np.sum(ms * (g11 - int_w(kc)))) - density * (B * B - A * A) / 4.0
    b2 = float(np.sum(ms * moments[0, 1:])) - density * (B - A) / 2.0

    c, a = np.linalg.solve(np.array([[g11, g12], [g12, g22]]),
                           np.array([b1, b2]))
    return float(c), float(a)


def zeta_direct(spectrum: SpectrumWindow, s, gamma: float = 0.0):
    """(value, bound) for sum (gamma + k_j^2)^(-s) over the whole spectrum.

    The exact sum is faded into the Weyl-density integral with a cos^2
    taper spread over the top of the window.  Written as a Stieltjes
    integral of the taper against the counting function, the constant
    offset of N(k) integrates away exactly and the oscillatory part is
    damped by the smoothness of the taper, which is what a hard cut at a
    gap midpoint cannot achieve.  The 1/k drift of N(k) is fitted from
    the roots themselves and fed into the tail measure.  The spread
    across taper placements goes into the error bound.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise UnsupportedError("s must be finite")
    if s.real <= 0.5:
        raise UnsupportedError("direct summation needs Re s > 1/2")
    if not 0.0 <= gamma < math.inf:
        raise UnsupportedError("gamma must be finite and nonnegative")
    if not spectrum.roots:
        raise UnsupportedError("empty spectrum window")

    ks = np.array([k for k, _ in spectrum.roots])
    ms = np.array([m for _, m in spectrum.roots], dtype=float)
    density = spectrum.count_estimate / spectrum.k_max

    if np.count_nonzero(ks >= 0.5 * spectrum.k_max) < 5:
        raise UnsupportedError(
            "spectrum window too small for the requested accuracy; "
            "scan to a larger k_max")

    # drift of the counting function, with its sensitivity to the fit window
    if np.count_nonzero(ks >= 0.30 * spectrum.k_max) >= 40:
        _, drift = _counting_fit(ks, ms, density,
                                 0.30 * spectrum.k_max, spectrum.k_max)
        _, drift_alt = _counting_fit(ks, ms, density,
                                     0.45 * spectrum.k_max, spectrum.k_max)
        drift_err = abs(drift - drift_alt)
    else:
        drift, drift_err = 0.0, 1.0

    zs = []
    quad_err = 0.0
    drift_scale = 0.0
    for frac_lo, frac_hi in ((0.50, 0.97), (0.60, 0.97),
                             (0.50, 0.88), (0.40, 0.97)):
        lo, hi = frac_lo * spectrum.k_max, frac_hi * spectrum.k_max
        width = hi - lo

        def taper(k):
            u = np.clip((k - lo) / width, 0.0, 1.0)
            return np.cos(0.5 * np.pi * u) ** 2

        head = np.sum(ms * (gamma + ks * ks) ** (-s) * taper(ks))

        def ramp(extra):
            return lambda k: ((1.0 - taper(k)) * (gamma + k * k) ** (-s)
                              * k ** (-extra))

        mid, emid = _gauss(ramp(0), lo, hi)
        tail, etail = _tail_int(hi, s, gamma)
        # dN = (density - drift/k^2) dk beyond the exact sum
        mid2, emid2 = _gauss(ramp(2), lo, hi)
        tail2, etail2 = _tail_int(hi, s, gamma, extra=2)
        zs.append(head + density * (mid + tail) - drift * (mid2 + tail2))
        quad_err = max(quad_err,
                       (emid + etail) * density + (emid2 + etail2) * abs(drift))
        drift_scale = max(drift_scale, abs(mid2 + tail2))

    zs = np.array(zs)
    value = complex(np.mean(zs))
    spread = float(np.max(np.abs(zs - value)))
    # allowance for the k^-3 counting residual the drift fit leaves behind
    lo_min = 0.40 * spectrum.k_max
    model_resid = ((1.0 + abs(drift)) * lo_min ** (-2.0 * s.real - 2.0)
                   / (2.0 * s.real + 2.0))
    bound = (4.0 * spread + quad_err + 3.0 * drift_err * drift_scale
             + model_resid + 1e-13 * abs(value))
    return value, float(bound)


# ---------------------------------------------------------------------------
# finite differences against the energy


def energy_finite_difference(graph, mc, bond_id: str, h: float = 1e-4) -> float:
    """-(fp_half(L+h) - fp_half(L-h)) / (2h), the reference for casimir_force.

    The potential must be compactly supported at L and L - h, so the
    residue at s = -1/2 is the same at both lengths and drops out.
    """
    bond = graph.bond_by_id(bond_id)
    L = bond.length
    if not 0.0 < h < L:
        raise UnsupportedError(
            f"energy difference on bond '{bond_id}' needs a finite step h "
            f"with 0 < h < L = {L:g}")
    if not (bond.potential.compact(L) and bond.potential.compact(L - h)):
        raise UnsupportedError(
            f"energy difference on bond '{bond_id}' needs a potential "
            f"compactly supported at lengths {L - h:g} to {L + h:g}")
    plus = minus_half_data(replace_bond_length(graph, bond_id, L + h), mc)
    minus = minus_half_data(replace_bond_length(graph, bond_id, L - h), mc)
    return -(plus.fp_total - minus.fp_total) / (4.0 * h)

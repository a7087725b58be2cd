"""Independent verification paths.

Eigenvalues are located on the real k axis through the pole-free secular
matrix S(k), entirely separate from the imaginary-axis machinery the zeta
engine uses: a coarse grid of singular values flags a dip near every
root, Newton steps on the pencil (S(k), -dS/dk) converge from each dip to
the roots of det S, and the singular values of S at each converged root
confirm it and give its multiplicity.  Zeta values are then checked by
direct summation with a Weyl-density tail.  A finite-difference
discretization of the operator provides a third, fully matrix-based
reference for test graphs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import eigs
from scipy.special import sici

from .casimir import mu_sensitivity
from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
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


def _rk4_steps(graph, k_max: float) -> int:
    width = 0.0
    for b in graph.bonds:
        support = getattr(b.potential, "support", None)
        if support is not None:
            x0, x1 = support(b.length)
            width = max(width, x1 - x0)
    return max(1200, int(6.0 * (k_max + 1.0) * width))


def _matrices(graph, mc, ks, steps):
    """(S, dS/dk) with the transfer step error extrapolated away: one
    pass whose RK4 blocks are (16 T(2 steps) - T(steps))/15."""
    return secular_matrices_real(graph, mc, ks, steps=steps, derivative=True,
                                 richardson=True)


def _singulars(graph, mc, ks, steps):
    S = secular_matrices_real(graph, mc, ks, steps=steps)
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


def _newton(graph, mc, starts, dk, steps):
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
    S, dS = _matrices(graph, mc, starts, steps)
    # any shift inside the cell serves; see _pencil_steps
    deltas = _pencil_steps(S, dS, 0.5 * dk)
    row, col = np.nonzero(np.abs(deltas) < dk)
    ks = starts[row] + deltas[row, col].real
    roots, mats = [np.empty(0)], [S[:0]]
    for _ in range(NEWTON_STEPS):
        if not len(ks):
            break
        S, dS = _matrices(graph, mc, ks, steps)
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


def _scan_once(graph, mc, k_max, dk, steps):
    m = int(math.ceil(k_max / dk)) + 1
    ks = np.linspace(0.0, k_max, m)
    dk = ks[1] - ks[0]
    svals = _singulars(graph, mc, ks, steps)
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
    cand_idx = set()
    for i in range(m):
        left = sigma[i - 1] if i > 0 else math.inf
        right = sigma[i + 1] if i + 1 < m else math.inf
        if sigma[i] <= left and sigma[i] <= right:
            local = float(np.max(sigma[max(i - 3, 0):i + 4]))
            if sigma[i] < 0.8 * background or sigma[i] < 0.55 * local:
                cand_idx.add(i)
    for i in range(m):
        left = logdet[i - 1] if i > 0 else math.inf
        right = logdet[i + 1] if i + 1 < m else math.inf
        if logdet[i] <= left and logdet[i] <= right:
            local = float(np.max(logdet[max(i - 4, 0):i + 5]))
            if local - logdet[i] >= 0.5:
                cand_idx.add(i)
    # S is even in k, so dS/dk vanishes at 0: start that dip mid-cell
    starts = np.array([ks[i] if i else 0.5 * dk for i in sorted(cand_idx)])

    roots = []
    total = 0
    if len(starts):
        found, mats = _newton(graph, mc, starts, dk, steps)
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

    A coarse grid of spacing dk ~ pi / (16 total length) flags dips of
    the smallest singular value and of log|det S|.  From each dip, Newton
    steps on the pencil (S(k), -dS/dk) converge to the roots of det S
    within one grid cell, with dS/dk exact through the transfer matrices
    and both Richardson-extrapolated in the RK4 step count.  The singular
    values of S at each converged root confirm it and give its
    multiplicity.  A Weyl-count anomaly triggers one rescan at dk/4
    before giving up.  The scan runs on the calling thread: `threads`
    must be at least 1 but reaches no computation, and is removed in the
    benchmark-only change of ROADMAP item 6 that drops the benchmark's
    threads = 2 operation.
    """
    if not math.isfinite(k_max):
        raise UnsupportedError("k_max must be finite")
    if k_max <= 0.0:
        raise UnsupportedError("k_max must be positive")
    if threads < 1:
        raise UnsupportedError("threads must be at least 1")
    dk = math.pi / (16.0 * graph.total_length())
    steps = _rk4_steps(graph, k_max)
    try:
        return _scan_once(graph, mc, k_max, dk, steps)
    except _WeylAnomaly:
        pass
    try:
        return _scan_once(graph, mc, k_max, dk / 4.0, steps)
    except _WeylAnomaly as exc:
        raise NumericalError(str(exc)) from None


# ---------------------------------------------------------------------------
# direct zeta summation


def _tail_int(K, s, gamma, extra: int = 0):
    """integral_K^inf (gamma + k^2)^(-s) k^(-extra) dk via k = K/x on (0, 1]."""
    s = complex(s)
    ratio = gamma / (K * K)
    alpha = 2.0 * s.real - 2.0 + extra
    beta = 2.0 * s.imag

    def smooth(x):
        val = (1.0 + ratio * x * x) ** (-s)
        if beta:
            # x^(i beta) has modulus one but no limit at x = 0
            val *= cmath.exp(complex(0.0, beta * math.log(x))) if x > 0.0 else 0.0
        return val

    re, er = quad(lambda x: smooth(x).real, 0.0, 1.0, weight="alg",
                  wvar=(alpha, 0.0), epsabs=1e-13, epsrel=1e-11, limit=200)
    if s.imag == 0.0:
        im, ei = 0.0, 0.0
    else:
        im, ei = quad(lambda x: smooth(x).imag, 0.0, 1.0, weight="alg",
                      wvar=(alpha, 0.0), epsabs=1e-13, epsrel=1e-11, limit=200)
    scale = K ** (1.0 - extra - 2.0 * s)
    return complex(re, im) * scale, (er + ei) * abs(scale)


def _counting_fit(ks, ms, density, A, B):
    """Fit N(k) - density*k to c + a/k with a Hann weight on [A, B].

    Eigenvalue ladders behind a delta coupling or a bond potential drift
    like 1/k, so the counting function carries a decaying a/k term on top
    of the Weyl line; the smooth weight keeps the step-function
    oscillation out of the fitted moments.  Returns (c, a).
    """
    om = 2.0 * np.pi / (B - A)
    si_A, ci_A = sici(om * A)

    def cos_over_k(x):
        si_x, ci_x = sici(om * x)
        return np.cos(om * A) * (ci_x - ci_A) + np.sin(om * A) * (si_x - si_A)

    def sin_over_k(x):
        si_x, ci_x = sici(om * x)
        return np.cos(om * A) * (si_x - si_A) - np.sin(om * A) * (ci_x - ci_A)

    def int_w(x):
        return 0.5 * ((x - A) - np.sin(om * (x - A)) / om)

    def int_w_over_k(x):
        return 0.5 * np.log(x / A) - 0.5 * cos_over_k(x)

    g11 = float(int_w(B))
    g12 = float(int_w_over_k(B))
    g22 = float(0.5 * om * sin_over_k(B))

    kc = np.clip(ks, A, B)
    b1 = float(np.sum(ms * (g11 - int_w(kc)))) - density * (B * B - A * A) / 4.0
    b2 = float(np.sum(ms * (g12 - int_w_over_k(kc)))) - density * (B - A) / 2.0

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
    if s.real <= 0.5:
        raise UnsupportedError("direct summation needs Re s > 1/2")
    if gamma < 0.0:
        raise UnsupportedError("gamma must be nonnegative")
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

        def ramp(k, extra=0):
            return (1.0 - taper(k)) * (gamma + k * k) ** (-s) * k ** (-extra)

        def band(extra):
            re, er = quad(lambda k: ramp(k, extra).real, lo, hi,
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            if s.imag == 0.0:
                return complex(re, 0.0), er
            im, ei = quad(lambda k: ramp(k, extra).imag, lo, hi,
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            return complex(re, im), er + ei

        mid, emid = band(0)
        tail, etail = _tail_int(hi, s, gamma)
        # dN = (density - drift/k^2) dk beyond the exact sum
        mid2, emid2 = band(2)
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
    return value, bound


# ---------------------------------------------------------------------------
# finite differences against the energy


def energy_finite_difference(graph, mc, bond_id: str, h: float = 1e-4) -> float:
    """-(fp_half(L+h) - fp_half(L-h)) / (2h), the reference for casimir_force."""
    bond = graph.bond_by_id(bond_id)
    if not bond.potential.compact(bond.length):
        raise UnsupportedError(
            f"energy difference on bond '{bond_id}' needs a compactly "
            "supported potential")
    drift = mu_sensitivity(graph, mc, bond_id)
    if abs(drift) > 1e-8:
        raise UnsupportedError(
            f"residue at -1/2 moves with the length of '{bond_id}' "
            f"(rate {drift:.2e}); the force is scale-ambiguous")
    L = bond.length
    plus = minus_half_data(replace_bond_length(graph, bond_id, L + h), mc)
    minus = minus_half_data(replace_bond_length(graph, bond_id, L - h), mc)
    return -(plus.fp_total - minus.fp_total) / (4.0 * h)


# ---------------------------------------------------------------------------
# discretized operator


def _fd_eigenvalues(graph, specs, n_per_bond, count):
    B = graph.bond_count
    sizes = [n_per_bond] * B
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    hs = [b.length / (n_per_bond + 1) for b in graph.bonds]

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # interior second-difference rows
    for b, bond in enumerate(graph.bonds):
        h = hs[b]
        base = offsets[b]
        x = (np.arange(1, n_per_bond + 1)) * h
        v = bond.potential.value(x)
        for i in range(n_per_bond):
            add(base + i, base + i, 2.0 / (h * h) + float(v[i]))
            if i > 0:
                add(base + i, base + i - 1, -1.0 / (h * h))
            if i + 1 < n_per_bond:
                add(base + i, base + i + 1, -1.0 / (h * h))

    # vertex values eliminated through the delta condition
    for vtx in range(graph.vertex_count):
        spec = specs[vtx]
        ends = []             # (adjacent interior node, next one, h, base row)
        for b, bond in enumerate(graph.bonds):
            h = hs[b]
            base = offsets[b]
            if bond.origin == vtx:
                ends.append((base, base + 1, h))
            if bond.terminus == vtx:
                last = base + n_per_bond - 1
                ends.append((last, last - 1, h))
        if spec.kind == "dirichlet":
            continue
        lam = spec.lam if spec.kind == "delta" else 0.0
        denom = lam + sum(3.0 / (2.0 * h) for _, _, h in ends)
        if denom == 0.0:
            raise NumericalError("degenerate vertex elimination in the "
                                 "discretization oracle")
        weights = []
        for first, second, h in ends:
            weights.append((first, 2.0 / (h * denom)))
            weights.append((second, -1.0 / (2.0 * h * denom)))
        # neighbouring interior rows see the vertex value
        for first, _, h in ends:
            for col, w in weights:
                add(first, col, -w / (h * h))

    A = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)),
                                    shape=(total, total)))
    want = min(count + 6, total - 2)
    vals_e = eigs(A, k=want, sigma=-0.5, which="LM",
                  return_eigenvectors=False)
    out = np.sort(np.real(vals_e))
    return out[:count]


def discretized_eigenvalues(graph, mc, count: int = 10,
                            points_per_bond: int = 10000) -> np.ndarray:
    """Lowest eigenvalues from a second-order grid, Richardson improved.

    Supports dirichlet / neumann / delta vertices without magnetic
    phases; meant as a test reference, not a production path.
    """
    if mc.vertex_specs is None:
        raise UnsupportedError("discretization oracle needs per-vertex "
                               "conditions")
    if any(b.vector_potential != 0.0 for b in graph.bonds):
        raise UnsupportedError("discretization oracle does not support "
                               "vector potentials")
    specs = {}
    for spec in mc.vertex_specs:
        if spec.kind not in ("dirichlet", "neumann", "delta"):
            raise UnsupportedError("discretization oracle supports only "
                                   "dirichlet, neumann and delta vertices")
        specs[spec.vertex] = spec
    n_fine = points_per_bond | 1        # odd, so the coarse spacing is exactly 2h
    n_coarse = (n_fine - 1) // 2
    coarse = _fd_eigenvalues(graph, specs, n_coarse, count)
    fine = _fd_eigenvalues(graph, specs, n_fine, count)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Riemann zeta reference, independent of scipy


def reference_zeta_R(s: float, terms: int = 50) -> float:
    """zeta_R(s) through the accelerated alternating series."""
    if s <= 0.0 or s == 1.0:
        raise UnsupportedError("reference valid for s > 0, s != 1")
    d = ((3.0 + math.sqrt(8.0)) ** terms
         + (3.0 - math.sqrt(8.0)) ** terms) / 2.0
    b = -1.0
    c = -d
    eta = 0.0
    for k in range(terms):
        c = b - c
        eta += c * (k + 1.0) ** (-s)
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    eta /= d
    return eta / (1.0 - 2.0 ** (1.0 - s))

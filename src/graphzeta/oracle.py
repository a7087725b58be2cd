"""Independent verification paths.

Eigenvalues are located on the real axis, in E = k^2, apart from the
zeta engine's imaginary axis: the exact eigenvalue count marks the grid
cells that hold roots, Newton steps on the pencil of the secular matrix
S(E) converge from them, and count differences give multiplicities.
Zeta values are then checked by direct summation with a Weyl-density
tail, and the force by finite differences of the energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
from .interval import _real_sweep, real_k_limit
from .potentials import _gauss_legendre
from .secular import per_distinct_bond, secular_matrices_real
from .zeta import minus_half_data

NEWTON_STEPS = 12
NEWTON_TOL = 1e-10
# half-width over E of the interval whose count is a root's multiplicity,
# where the count holds though -DtN cancels to O(dE^2) at a Dirichlet root
SPLIT = 1e-6


@dataclass(frozen=True)
class SpectrumWindow:
    k_max: float
    roots: tuple            # ((k, multiplicity), ...) strictly increasing
    count_estimate: float   # total_length * k_max / pi

    @property
    def count(self) -> int:
        return sum(m for _, m in self.roots)


def eigenvalue_count(graph, mc, E):
    """The number of eigenvalues below each energy of the array E, exact
    off the eigenvalues and the bonds' Dirichlet eigenvalues: N(E) =
    sum_b N_D,b(E) + n_-(Q(E)) (Friedlander, Arch. Rational Mech. Anal.
    116, 1991; Berkolaiko and Kuchment, Introduction to Quantum Graphs,
    2013).  N_D,b counts the zeros of bond b's Dirichlet solution (the
    Pruefer angle of interval._sweep).  Q = U*(-DtN + Lam)U on psi = U c, U
    an orthonormal basis of ran B*, <psi, psihat> = c* Lam c, Lam = -U* B^+
    A U, for every kind of matching; each bond adds [[T00, -e^(-iAL)],
    [-e^(iAL), T11]] / T01 to -DtN."""
    E = np.asarray(E, dtype=float)
    sweeps = per_distinct_bond(graph.bonds, lambda bond: _real_sweep(
        bond, E[:, None], None))
    W, sv, Vh = np.linalg.svd(mc.B)
    r = int(np.count_nonzero(sv > sv.max() * len(sv) * np.finfo(float).eps))
    U, n = Vh[:r].conj().T, graph.bond_count
    dtn = np.zeros((len(E), 2 * n, 2 * n), complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b, (bond, (R, s, _)) in enumerate(zip(graph.bonds, sweeps)):
            off = -np.exp(-s) / R[0, 1] * cmath.exp(
                -1j * bond.vector_potential * bond.length)
            dtn[:, b, b] = R[0, 0] / R[0, 1]
            dtn[:, n + b, n + b] = R[1, 1] / R[0, 1]
            dtn[:, b, n + b], dtn[:, n + b, b] = off, off.conj()
        lam = -(W[:, :r].conj().T @ mc.A @ U) / sv[:r, None]
        Q = U.conj().T @ dtn @ U + 0.5 * (lam + lam.conj().T)
    # u(L) = e^s R01 fixes the parity of the zeros, which theta loses at j pi
    j = [(np.round(th / math.pi), R[0, 1] > 0) for R, _, th in sweeps]
    count = sum(n - (n % 2 == positive) for n, positive in j)
    finite = np.isfinite(count) & np.isfinite(Q).all(axis=(1, 2))
    if not np.all(finite):
        raise NumericalError(f"count not finite at E={E[np.argmin(finite)]:g}")
    return (count + np.count_nonzero(np.linalg.eigvalsh(Q) < 0.0, axis=-1)
            ).astype(int)


def _matrices(graph, mc, Es):
    """(S, dS/dE) at the Newton count of bump segments, one pass."""
    return secular_matrices_real(graph, mc, Es, derivative=True)


def _resolution(E):
    """The step in E that a step of NEWTON_TOL in k = sqrt(E) makes."""
    return 2.0 * NEWTON_TOL * np.sqrt(np.maximum(E, 0.0))


def _pencil_steps(S, dS, shift):
    """Eigenvalues delta of the pencils S + delta dS, shape (nE, n), as
    shift - 1/mu, mu those of (S + shift dS)^-1 dS: the shift keeps the
    solve off S, singular at a converged root.  dS has rank at most B, so
    at least half of the deltas are infinite or huge."""
    mu = np.linalg.eigvals(np.linalg.solve(S + shift[:, None, None] * dS, dS))
    return shift[:, None] - np.divide(1.0, mu, out=np.full_like(mu, np.inf),
                                      where=mu != 0.0)


def _newton(graph, mc, cells):
    """Roots of det S(E), sorted and merged within _resolution, by Newton
    steps E <- E + delta on the secular pencil from the middle of every
    cell (lo, hi) at once (Ruhe, SIAM J. Numer. Anal. 10, 1973).  The first
    step branches into every pencil eigenvalue with |delta| below the
    cell's width, later steps take the one nearest zero.  An iterate
    converges once |delta| is below _resolution, and is dropped when a
    step reaches the width or after NEWTON_STEPS steps."""
    widths = cells[:, 1] - cells[:, 0]
    starts = cells[:, 0] + 0.5 * widths
    S, dS = _matrices(graph, mc, starts)
    # any shift inside the cell serves; see _pencil_steps
    deltas = _pencil_steps(S, dS, 0.5 * widths)
    row, col = np.nonzero(np.abs(deltas) < widths[:, None])
    Es, widths = starts[row] + deltas[row, col].real, widths[row]
    roots = [np.empty(0)]
    for _ in range(NEWTON_STEPS):
        if not len(Es):
            break
        S, dS = _matrices(graph, mc, Es)
        deltas = _pencil_steps(S, dS, 0.5 * widths)
        delta = deltas[np.arange(len(Es)), np.argmin(np.abs(deltas), axis=1)]
        done = np.abs(delta) < _resolution(Es)
        roots.append(Es[done] + delta[done].real)
        going = ~done & (np.abs(delta) < widths)
        Es, widths = Es[going] + delta[going].real, widths[going]
    roots = np.sort(np.concatenate(roots))
    return roots[np.r_[True, np.diff(roots) >= _resolution(roots[1:])]]


def _off_dirichlet(graph, E, dk):
    """E moved to dk/4 in k above each constant bond's Dirichlet energy
    c + (j pi/L)^2, where T01 = 0, that lies closer: up, so that the top
    point stays at or above k_max^2."""
    for bond in graph.bonds:
        if bond.potential.kind == "constant":
            c, L = bond.potential.c, bond.length
            y, d = L * np.sqrt(np.maximum(E - c, 0.0)), 0.25 * L * dk
            j = np.round(y / math.pi) * math.pi
            E = np.where((j > 0.0) & (np.abs(y - j) < d),
                         c + ((j + d) / L) ** 2, E)
    return E


def _scan_once(graph, mc, k_max, dk):
    """scan_spectrum on cells of width dk in k."""
    ks = np.linspace(0.0, k_max, int(math.ceil(k_max / dk)) + 1)
    dk = ks[1] - ks[0]
    E = _off_dirichlet(graph, ks * ks, dk)
    # below NEWTON_TOL dk, the resolution of E at k = dk/2, a root is E = 0
    grid = np.concatenate(([-E[1], NEWTON_TOL * dk], E[1:]))
    n = eigenvalue_count(graph, mc, grid)
    work = [(grid[i], grid[i + 1], n[i], n[i + 1])
            for i in np.nonzero(np.diff(n))[0] if i > 0]
    roots = []
    while work:
        found = _newton(graph, mc, np.array([w[:2] for w in work]))
        cuts, todo = [], []
        for lo, hi, n_lo, n_hi in work:
            inside = found[(found >= lo) & (found < hi)]
            if len(inside) == n_hi - n_lo:
                roots += [(r, 1) for r in inside]
                continue
            if hi - lo <= _resolution(hi):
                raise NumericalError(f"could not resolve {n_hi - n_lo} roots "
                                     f"near k={math.sqrt(hi):.12g}")
            # bisect a cell without roots; a root's count is its multiplicity
            gaps = np.diff(np.concatenate(([lo], inside, [hi])))
            half = np.minimum(0.25 * np.minimum(gaps[:-1], gaps[1:]),
                              SPLIT * inside)
            cut = (np.column_stack((inside - half, inside + half)).ravel()
                   if len(inside) else [0.5 * (lo + hi)])
            todo.append((lo, hi, n_lo, n_hi, inside, len(cut)))
            cuts.extend(cut)
        n_cut = eigenvalue_count(graph, mc, cuts).tolist() if cuts else []
        work = []
        for lo, hi, n_lo, n_hi, inside, m in todo:
            edges = [lo, *cuts[:m], hi]
            counts = [n_lo, *n_cut[:m], n_hi]
            cuts, n_cut = cuts[m:], n_cut[m:]
            for i in np.nonzero(np.diff(counts) > 0)[0]:
                if len(inside) and i % 2:
                    roots.append((inside[i // 2], counts[i + 1] - counts[i]))
                else:
                    work.append((edges[i], edges[i + 1], counts[i],
                                 counts[i + 1]))
    roots.sort()
    if sum(m for _, m in roots) != n[-1] - n[1]:
        raise NumericalError(f"found {sum(m for _, m in roots)} roots up to "
                             f"k={k_max:g} where the count is {n[-1] - n[1]}")
    return SpectrumWindow(
        k_max=float(k_max), roots=tuple((math.sqrt(r), m) for r, m in roots
                                        if r <= k_max * k_max),
        count_estimate=graph.total_length() * k_max / math.pi)


def scan_spectrum(graph, mc, k_max: float, *, threads: int = 1) -> SpectrumWindow:
    """All roots in (0, k_max] with multiplicities, found and counted in
    E = k^2.  eigenvalue_count on cells of width dk = pi / (4 total length)
    in k, from below E = 0 and off the constant bonds' Dirichlet energies,
    marks the cells that hold roots; Newton steps on the pencil (S(E),
    dS/dE) start in each.  A cell whose roots do not account for its count
    is bisected by counts; the count across a root is its multiplicity.
    Roots below E = NEWTON_TOL dk, zero modes, count but are not reported.
    A total short of the count raises NumericalError.  A k_max past the
    bump bonds' real_k_limit raises UnsupportedError naming the largest
    supported k.  `threads` reaches no computation; ROADMAP item 2 removes
    it with the benchmark's threads = 2 operation."""
    if not math.isfinite(k_max):
        raise UnsupportedError("k_max must be finite")
    if k_max <= 0.0:
        raise UnsupportedError("k_max must be positive")
    if threads < 1:
        raise UnsupportedError("threads must be at least 1")
    k_top = min((real_k_limit(bond) for bond in graph.bonds),
                default=math.inf)
    if k_max > k_top:
        raise UnsupportedError(
            f"k_max={k_max:g} is past the validated real-axis range of the "
            f"bump bonds; the largest supported k is {k_top:.6g}")
    return _scan_once(graph, mc, k_max,
                      math.pi / (4.0 * graph.total_length()))


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

"""Independent verification paths.

Eigenvalues are located on the real axis, in E = k^2, apart from the
zeta engine's imaginary axis: the exact eigenvalue count marks the grid
cells that hold roots, a bracketed solve on the eigenvalue branches of
the count's own Hermitian matrix, the vertex matrix Q(E) bordered so
that it has no poles, converges on every root inside them, and count
differences give multiplicities.  Zeta values are then checked by
direct summation with a Weyl-density tail, and the force by finite
differences of the energy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, UnsupportedError
from .graph import replace_bond_length
from .interval import _real_sweep, real_k_limit
from .potentials import _gauss_legendre
from .secular import _secular_is_complex, per_distinct_bond
from .zeta import minus_half_data

# in k: the zero-mode floor E = RESOLUTION dk and the narrowest cell split
RESOLUTION = 1e-10
# half-width over E of the interval whose count is a root's multiplicity
SPLIT = 1e-6
# width in k at which a root's bracket is converged, or 4 ulps of E
TOL = 2e-13
BRACKET_STEPS = 100


@dataclass(frozen=True)
class SpectrumWindow:
    k_max: float
    roots: tuple            # ((k, multiplicity), ...) strictly increasing
    count_estimate: float   # total_length * k_max / pi

    @property
    def count(self) -> int:
        return sum(m for _, m in self.roots)


class _VertexForm(NamedTuple):
    """The count's pieces at energies E: the offset sum_b (N_D,b - [d_b >
    0]), (E,), and the eigenvalues of the bordered matrix M, (E, r + B)."""

    E: np.ndarray
    offset: np.ndarray
    lam: np.ndarray

    @property
    def count(self):
        return self.offset + np.count_nonzero(self.lam < 0.0, axis=1)

    def take(self, i) -> "_VertexForm":
        return _VertexForm(*(x[i] for x in self))

    def branch(self, j):
        """f_j = lambda_(j - offset) of M, +-inf past its ends: < 0 exactly
        where the count reaches j."""
        i = j - self.offset - 1
        f = np.where(i < 0, -np.inf, np.inf)
        inside = (i >= 0) & (i < self.lam.shape[1])
        f[inside] = self.lam[inside, i[inside]]
        return f


def _vertex_basis(graph, mc):
    """The parts of _vertex_form fixed by (graph, mc): V, with V[:, i] =
    U* e_i, U an orthonormal basis of ran B*; Lam = -U* B^+ A U made
    Hermitian, which gives <psi, psihat> = c* Lam c on psi = U c for every
    kind of matching; U*P_b U, P_b the projector on bond b's ends; the
    lengths; and the flux phases e^(iAL), 1 unless _secular_is_complex,
    when everything is complex and else real."""
    cplx = _secular_is_complex(graph, mc)
    A, B = (mc.A, mc.B) if cplx else (mc.A.real, mc.B.real)
    W, sv, Vh = np.linalg.svd(B)
    r = int(np.count_nonzero(sv > sv.max() * len(sv) * np.finfo(float).eps))
    V, n = Vh[:r], graph.bond_count
    lam = -(W[:, :r].conj().T @ A @ V.conj().T) / sv[:r, None]
    L = np.array([bond.length for bond in graph.bonds])
    phase = np.exp(1j * L * [bond.vector_potential for bond in graph.bonds])
    ends = (np.einsum("ib,jb->bij", V[:, :n], V[:, :n].conj())
            + np.einsum("ib,jb->bij", V[:, n:], V[:, n:].conj()))
    return V, 0.5 * (lam + lam.conj().T), ends, L, phase if cplx else 1.0


def _vertex_form(graph, basis, E) -> _VertexForm:
    """_VertexForm over the 1-d array E, one _real_sweep per distinct bond,
    with basis = _vertex_basis.  Bond b adds N/T01 to -DtN, N = [[T00,
    -e^(-iAL)], [-e^(iAL), T11]], whose eigenvalue mu of larger modulus,
    on the unit vector n, has |mu| >= 1 and the other T01 T10 / mu: so
    N/T01 = (T10/mu)(1 - n n*) + n n*/d, d = T01/mu.  M borders Q without
    the poles, [[Q0, v_b], [v_b*, -d_b]] over the bonds, v_b = U*n, Q0 =
    Lam + sum_b (T10/mu) U*(P_b - n n*)U, P_b the projector on the bond's
    ends; its Schur complement is Q, so n_-(M) = n_-(Q) + #{d_b > 0}
    (Haynsworth, Linear Algebra Appl. 1, 1968).  Bond b's row is scaled by
    k_b = max(sqrt|E|, 1/L_b), which puts its entries on the scale of Q0
    and keeps their rounding from moving roots.  d_b crosses 0 upwards at
    each Dirichlet energy, where dT01/dE = int u^2 / T11 and T11 = 1/T00
    has the sign of mu, and N_D,b steps up there: so M and the offset are
    continuous through the poles.  They jump only where mu changes sign,
    off the poles, and no branch f_j changes sign there.  N_D,b is read from the
    Pruefer angle, its parity from the sign of u(L) = T01.  All of it is
    formed from R and e^-s, T = e^s R, so nothing overflows under a
    barrier."""
    V, lam, ends, L, phase = basis
    r, n = len(V), graph.bond_count
    # R (2, 2, E, B), s and theta (E, B): T = e^s R
    R, s, theta = (np.stack(x, axis=-1) for x in zip(*per_distinct_bond(
        graph.bonds, lambda bond: _real_sweep(bond, E[:, None]))))
    c = -np.exp(-s) * phase     # N = e^s [[R00, c*], [c, R11]]
    with np.errstate(over="ignore", invalid="ignore"):
        mid, h = 0.5 * (R[0, 0] + R[1, 1]), 0.5 * (R[0, 0] - R[1, 1])
        sign, rad = np.copysign(1.0, mid), np.hypot(h, np.abs(c))
        mu = mid + sign * rad
        # n from the larger column of N - mu_2; any n where N = R00 e^s 1
        big = np.where(rad > 0.0, np.abs(h) + rad, 1.0)
        first = sign * h >= 0.0
        p, q = (np.where(first, big, sign * c.conj()),
                np.where(first, sign * c, big)) / np.hypot(big, np.abs(c))
        v = p[..., None] * V[:, :n].T + q[..., None] * V[:, n:].T  # (E, B, r)
        g = R[1, 0] / mu
        # a T01 rounded to 0 is read just below its pole, where d < 0
        t01 = np.where(R[0, 1] == 0.0, np.copysign(1e-300, -mu), R[0, 1])
        k = np.sqrt(np.maximum(np.abs(E)[:, None], L ** -2.0))[..., None]
        M = np.empty((len(E), r + n, r + n), V.dtype)
        M[:, :r, :r] = (lam + (g @ ends.reshape(n, -1)).reshape(len(E), r, r)
                        - (g[..., None] * v).transpose(0, 2, 1) @ v.conj())
        M[:, :r, r:], M[:, r:, :r] = (k * v).transpose(0, 2, 1), k * v.conj()
        M[:, r:, r:] = -(k * k * (t01 / mu)[..., None]) * np.eye(n)
        nd = np.round(theta / math.pi)
        offset = (nd - (nd % 2 == (t01 > 0)) - (t01 / mu > 0)).sum(axis=1)
    finite = np.isfinite(offset) & np.isfinite(M).all(axis=(1, 2))
    if not np.all(finite):
        raise NumericalError(f"count not finite at E={E[np.argmin(finite)]:g}")
    return _VertexForm(E, offset.astype(int), np.linalg.eigvalsh(M))


def eigenvalue_count(graph, mc, E):
    """The number of eigenvalues below E, an int, or below each energy of
    the array E, exact off the eigenvalues: N(E) = sum_b N_D,b(E) +
    n_-(Q(E)), N_D,b bond b's Dirichlet count (Friedlander, Arch.
    Rational Mech. Anal. 116, 1991; Berkolaiko and Kuchment, 2013), read
    as sum_b (N_D,b - [d_b > 0]) + n_-(M) from _vertex_form."""
    E = np.asarray(E, dtype=float)
    count = _vertex_form(graph, _vertex_basis(graph, mc), E.ravel()).count
    return count.reshape(E.shape) if E.ndim else int(count[0])


def _converged(E):
    """A converged bracket's width at E: TOL in k, or 4 ulps of E."""
    return np.maximum(2.0 * TOL * np.sqrt(E), 4.0 * np.spacing(E))


def _bracketed(graph, basis, j, lo, hi):
    """E_j, the j-th eigenvalue, for each entry of the array j, from the
    _VertexForm lo and hi of brackets a < E_j <= b, N(a) < j <= N(b).  The
    branch f_j is the count's own test, so each step keeps the root
    bracketed; it is finite where j - offset indexes M's eigenvalues, and
    continuous but for the jumps of _vertex_form.  Brent's steps
    (Algorithms for Minimization without Derivatives, 1973): inverse
    quadratic interpolation through the ends and the end last dropped,
    else the false position; the midpoint where a value is infinite or a
    step is not below half the step before last; every step at least a
    quarter of _converged inside the bracket, which closes it next to a
    root.  Brackets stop at _converged."""
    a, b, fa, fb = lo.E.copy(), hi.E.copy(), lo.branch(j), hi.branch(j)
    c, fc = np.full(len(j), np.nan), np.full(len(j), np.nan)
    new, steps = a.copy(), np.full((2, len(j)), np.inf)  # the last 2 steps
    for _ in range(BRACKET_STEPS):
        tol = _converged(b)
        go = np.nonzero(b - a > tol)[0]
        if not len(go):
            return 0.5 * (a + b)
        x0, x1, x2, f0, f1, f2, tol = (v[go] for v in (a, b, c, fa, fb, fc,
                                                        tol))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x0 + f0 * ((x1 - x0) * f2 / ((f1 - f0) * (f1 - f2))
                           + (x2 - x0) * f1 / ((f2 - f0) * (f2 - f1)))
            x = np.where((x > x0) & (x < x1), x,
                         x0 + (x1 - x0) * (f0 / (f0 - f1)))
        step = np.abs(x - new[go])
        ok = np.isfinite(f0 - f1) & (step < 0.5 * steps[1, go])
        x = np.clip(np.where(ok, x, 0.5 * (x0 + x1)), x0 + 0.25 * tol,
                    x1 - 0.25 * tol)
        step = np.abs(x - new[go])
        steps[:, go] = step, np.where(ok, steps[0, go], step)
        f = _vertex_form(graph, basis, x).branch(j[go])
        up = f >= 0.0                          # N(x) < j: x is the lower end
        c[go], fc[go] = np.where(up, x0, x1), np.where(up, f0, f1)
        a[go], fa[go] = np.where(up, x, x0), np.where(up, f, f0)
        b[go], fb[go] = np.where(up, x1, x), np.where(up, f1, f)
        new[go] = x
    raise NumericalError(f"a root's bracket did not close in {BRACKET_STEPS} "
                         f"steps near k={math.sqrt(b[go[0]]):.12g}")


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
    basis = _vertex_basis(graph, mc)
    # below RESOLUTION dk, the resolution of E at k = dk/2, a root is E = 0
    points = _vertex_form(graph, basis, np.concatenate(
        ([-E[1], RESOLUTION * dk], E[1:])))
    n = points.count
    work = [(i, i + 1) for i in np.nonzero(np.diff(n))[0] if i > 0]
    roots = []
    while work:
        lo, hi = np.array(work).T   # each E_j; a multiple root's merge
        cell = np.repeat(np.arange(len(work)), n[hi] - n[lo])
        E = np.sort(_bracketed(graph, basis, np.concatenate(
            [np.arange(n[a] + 1, n[b] + 1) for a, b in work]),
            points.take(lo[cell]), points.take(hi[cell])))
        start = np.r_[0, np.nonzero((np.diff(cell) != 0) | (
            np.diff(E) > _converged(E[1:])))[0] + 1]
        found = np.split(np.add.reduceat(E, start) / np.diff(np.r_[
            start, len(E)]), np.nonzero(np.diff(cell[start]))[0] + 1)
        cuts, todo = [], []
        for (i_lo, i_hi), inside in zip(work, found):
            lo, hi = points.E[i_lo], points.E[i_hi]
            if len(inside) == n[i_hi] - n[i_lo]:
                roots += [(r, 1) for r in inside]
                continue
            if hi - lo <= 2.0 * RESOLUTION * math.sqrt(hi):
                raise NumericalError(f"could not resolve {n[i_hi] - n[i_lo]} "
                                     f"roots near k={math.sqrt(hi):.12g}")
            # bisect a cell without roots; a root's count is its multiplicity
            gaps = np.diff(np.concatenate(([lo], inside, [hi])))
            half = np.minimum(0.25 * np.minimum(gaps[:-1], gaps[1:]),
                              SPLIT * inside)
            cut = (np.column_stack((inside - half, inside + half)).ravel()
                   if len(inside) else [0.5 * (lo + hi)])
            todo.append((i_lo, i_hi, inside, len(cut)))
            cuts.extend(cut)
        first = len(points.E)
        if cuts:
            points = _VertexForm(*map(np.concatenate, zip(
                points, _vertex_form(graph, basis, np.array(cuts)))))
            n = points.count
        work = []
        for i_lo, i_hi, inside, m in todo:
            edges = [i_lo, *range(first, first + m), i_hi]
            first += m
            counts = n[edges]
            for i in np.nonzero(np.diff(counts) > 0)[0]:
                if len(inside) and i % 2:
                    roots.append((inside[i // 2], counts[i + 1] - counts[i]))
                else:
                    work.append((edges[i], edges[i + 1]))
    roots.sort()
    if sum(m for _, m in roots) != n[len(ks)] - n[1]:
        raise NumericalError(f"found {sum(m for _, m in roots)} roots up to k="
                             f"{k_max:g} where the count is {n[len(ks)] - n[1]}")
    return SpectrumWindow(
        k_max=float(k_max), roots=tuple((math.sqrt(r), int(m)) for r, m in roots
                                        if r <= k_max * k_max),
        count_estimate=graph.total_length() * k_max / math.pi)


def scan_spectrum(graph, mc, k_max: float, *, threads: int = 1) -> SpectrumWindow:
    """All roots in (0, k_max] with multiplicities, in E = k^2: the count
    on cells of width dk = pi / (4 total length) in k, from below E = 0 and
    off the constant bonds' Dirichlet energies, marks the cells with roots,
    and _bracketed finds them from the grid's eigenvalues of M(E), the
    bordered vertex matrix of _vertex_form.  A cell
    whose distinct roots miss its count is bisected by counts; the count
    across a root is its multiplicity.  Roots below E = RESOLUTION dk,
    zero modes, count but are not reported.  A total short of the count
    raises NumericalError; a k_max past the bump bonds' real_k_limit,
    UnsupportedError.  `threads` reaches no computation (ROADMAP item 2).
    """
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

"""Reference oracles only the tests use.

A finite-difference discretization of the operator gives a third, fully
matrix-based reference for the eigenvalue scan, and an accelerated
alternating series gives zeta_R at real s > 0, s != 1, independently of scipy and
of mpmath.  refined_segments cuts every bump bond finer, the reference of
the segment-count convergence tests, and secular_determinant is the
real-axis secular function of given bond transfer matrices.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

from graphzeta import NumericalError, UnsupportedError, interval


# ---------------------------------------------------------------------------
# bond sweeps at a finer cut


def refined_segments(monkeypatch, factor: int) -> None:
    """Cut the support of every bump bond into factor times its segments
    on both axes, for the rest of the test, by patching
    interval._segment_count."""
    count = interval._segment_count

    def refined(bond, per_width):
        a, b, n = count(bond, per_width)
        return a, b, factor * n

    monkeypatch.setattr(interval, "_segment_count", refined)


def secular_determinant(graph, mc, blocks):
    """det(A phi + B dhat) over the energies of the bond transfer matrices
    blocks[b], shape (E, 2, 2): with the values (phi) and inward
    derivatives (dhat) at both ends of the solutions of unit value or
    slope at x = 0, a function of E whose zeros are the eigenvalues,
    without poles (Kostrykin and Schrader, J. Phys. A 32, 1999)."""
    B = graph.bond_count
    nk = len(blocks[0])
    phi = np.zeros((nk, 2 * B, 2 * B), complex)
    dhat = np.zeros_like(phi)
    for b, (bond, T) in enumerate(zip(graph.bonds, blocks)):
        ph = np.exp(1j * bond.vector_potential * bond.length)
        phi[:, b, b] = 1.0
        phi[:, B + b, b] = ph * T[:, 0, 0]
        phi[:, B + b, B + b] = ph * T[:, 0, 1]
        dhat[:, b, B + b] = 1.0
        dhat[:, B + b, b] = -ph * T[:, 1, 0]
        dhat[:, B + b, B + b] = -ph * T[:, 1, 1]
    return np.linalg.det(mc.A @ phi + mc.B @ dhat)


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

"""Invariance properties over small random graphs.

Stars and chains of one to four bonds, with Dirichlet leaves, delta
couplings lambda >= 0 at the inner vertices and at most one bump of
positive height, so that no graph has a zero mode.  Examples are drawn
derandomised, so every run checks the same graphs.
"""

import math
import warnings
from dataclasses import replace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import from_doc
from graphzeta import (build_vertex_conditions, casimir_force,
                       energy_finite_difference, scan_spectrum, vacuum_energy,
                       zeta_direct, zeta_total)

# A failing example makes the hypothesis pytest plugin import its patch
# writer, whose libcst dependency warns with a DeprecationWarning that this
# suite's filters turn into an internal error, hiding the failure; loaded
# here first, a failing property stays a plain test failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# no explain phase: on a failure it reruns hundreds of variants
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40, phases=(Phase.generate, Phase.shrink))

lengths = st.floats(0.5, 2.0)
couplings = st.floats(0.0, 3.0)


@st.composite
def graph_docs(draw):
    """(document, bond id of the force) of a star or a chain."""
    n = draw(st.integers(1, 4))
    ls = draw(st.lists(lengths, min_size=n, max_size=n))
    if draw(st.booleans()):
        # star: centre 1, leaves 2..n+1
        ends = [(1, i + 2) for i in range(n)]
        inner = [1] if n > 1 else []
    else:
        ends = [(i + 1, i + 2) for i in range(n)]
        inner = list(range(2, n + 1))
    bonds = [{"id": i + 1, "origin": a, "terminus": b, "length": L}
             for i, ((a, b), L) in enumerate(zip(ends, ls))]
    if draw(st.booleans()):
        bd = bonds[draw(st.integers(0, n - 1))]
        L = bd["length"]
        center = draw(st.floats(0.35, 0.65)) * L
        bd["potential"] = {
            "kind": "bump", "center": center,
            "half_width": draw(st.floats(0.3, 0.9)) * min(center, L - center),
            "height": draw(st.floats(0.1, 2.0))}
    verts = [{"vertex": v, "kind": "delta", "lambda": draw(couplings)}
             if v in inner else {"vertex": v, "kind": "dirichlet"}
             for v in range(1, n + 2)]
    doc = {"vertices": n + 1, "bonds": bonds,
           "matching": {"mode": "per_vertex", "vertices": verts}}
    return doc, draw(st.integers(1, n))


def scaled(doc, c):
    """The same operator with every length times c: bump geometry times c,
    its height over c^2, delta couplings over c."""
    bonds = []
    for bd in doc["bonds"]:
        bd = {**bd, "length": bd["length"] * c}
        pot = bd.get("potential")
        if pot is not None:
            bd["potential"] = {**pot, "center": pot["center"] * c,
                               "half_width": pot["half_width"] * c,
                               "height": pot["height"] / (c * c)}
        bonds.append(bd)
    verts = [{**v, "lambda": v["lambda"] / c} if v["kind"] == "delta" else v
             for v in doc["matching"]["vertices"]]
    return {**doc, "bonds": bonds,
            "matching": {"mode": "per_vertex", "vertices": verts}}


def relabelled(doc, vertex_perm, bond_perm):
    """The same graph with vertex v renamed vertex_perm[v - 1] + 1 and bond
    i renamed bond_perm[i - 1] + 1, both lists in the new order.  A bond
    whose origin would follow its terminus is stored reversed, with its
    bump mirrored."""
    bonds = []
    for bd in doc["bonds"]:
        a, b = (vertex_perm[v - 1] + 1 for v in (bd["origin"], bd["terminus"]))
        bd = {**bd, "id": bond_perm[bd["id"] - 1] + 1,
              "origin": min(a, b), "terminus": max(a, b)}
        pot = bd.get("potential")
        if pot is not None and a > b:
            bd["potential"] = {**pot, "center": bd["length"] - pot["center"]}
        bonds.append(bd)
    verts = [{**v, "vertex": vertex_perm[v["vertex"] - 1] + 1}
             for v in doc["matching"]["vertices"]]
    return {**doc, "bonds": sorted(bonds, key=lambda bd: bd["id"]),
            "matching": {"mode": "per_vertex",
                         "vertices": sorted(verts, key=lambda v: v["vertex"])}}


def reversed_bond(doc, bond_id):
    """The graph and matching conditions of doc with one bond running the
    other way: its ends swapped, its bump mirrored and its flux negated.
    The document format stores every bond with origin <= terminus, so
    the ends are swapped on the parsed graph."""
    bonds = []
    for bd in doc["bonds"]:
        if bd["id"] == bond_id:
            bd = {**bd, "vector_potential": -bd.get("vector_potential", 0.0)}
            pot = bd.get("potential")
            if pot is not None:
                bd["potential"] = {**pot,
                                   "center": bd["length"] - pot["center"]}
        bonds.append(bd)
    graph, mc = from_doc({**doc, "bonds": bonds})
    bonds = [replace(b, origin=b.terminus, terminus=b.origin)
             if b.id == bond_id else b for b in graph.bonds]
    graph = replace(graph, bonds=tuple(bonds))
    return graph, build_vertex_conditions(graph, mc.vertex_specs)


def force(doc, bond_id):
    return casimir_force(*from_doc(doc), bond_id).force


# the tolerances on the integrals of zeta_total (default), minus_half_data
# (default) and casimir_force (casimir.TOL)
ZETA_TOL = 1e-9
ENERGY_TOL = 1e-10
FORCE_TOL = 1e-10
# gamma takes the values of the benchmark's zeta points, and any value in
# [0, 1] in the scaling property.  The other properties keep the three
# values: a wider draw of the cross-axis property reaches a Kirchhoff star
# whose root the scan misses (ROADMAP item 3), which no zeta change mends.
zeta_points = st.tuples(st.floats(0.6, 0.9), st.sampled_from((0.0, 0.5, 1.0)))
scaling_points = st.tuples(st.floats(0.6, 0.9), st.floats(0.0, 1.0))


def zeta(graph_mc, point):
    s, gamma = point
    return zeta_total(*graph_mc, s, gamma, tol=ZETA_TOL).value


def assert_same_physics(got, ref, point):
    """got and ref, each a graph and its matching conditions, have the same
    zeta at point and the same vacuum energy, within the calls' own
    tolerances: zeta is sin(pi s)/pi times an integral within tol, and
    fp_half half an integral over pi."""
    assert abs(zeta(got, point) - zeta(ref, point)) < 2.0 * ZETA_TOL
    e_got, e_ref = vacuum_energy(*got), vacuum_energy(*ref)
    assert abs(e_got.fp_half - e_ref.fp_half) < ENERGY_TOL
    assert abs(e_got.res_half - e_ref.res_half) < ENERGY_TOL


@SETTINGS
@given(graph_docs(), st.floats(0.8, 1.25))
def test_force_scales_as_inverse_square_length(case, c):
    doc, bond_id = case
    f = force(doc, bond_id)
    assert math.isfinite(f)
    # within the force's quadrature tolerance: the nodes move with c
    assert abs(force(scaled(doc, c), bond_id) * c * c - f) < 1e-10


@SETTINGS
@given(graph_docs())
def test_force_is_minus_the_energy_derivative(case):
    # criterion 4's tolerance; every drawn bump stays clear of the bond's
    # ends by more than the step h = 1e-4 of the central difference
    doc, bond_id = case
    graph_mc = from_doc(doc)
    fd = energy_finite_difference(*graph_mc, bond_id)
    assert abs(casimir_force(*graph_mc, bond_id).force - fd) < 1e-4


@SETTINGS
@given(graph_docs(), st.data())
def test_force_ignores_labels(case, data):
    doc, bond_id = case
    n = len(doc["bonds"])
    vertex_perm = data.draw(st.permutations(range(n + 1)))
    bond_perm = data.draw(st.permutations(range(n)))
    # the force moves the terminus, so the force bond keeps its orientation
    bond = doc["bonds"][bond_id - 1]
    o, t = bond["origin"] - 1, bond["terminus"] - 1
    if vertex_perm[o] > vertex_perm[t]:
        vertex_perm[o], vertex_perm[t] = vertex_perm[t], vertex_perm[o]
    got = force(relabelled(doc, vertex_perm, bond_perm),
                bond_perm[bond_id - 1] + 1)
    # the same nodes; only the rounding of the permuted matrices differs
    assert abs(got - force(doc, bond_id)) < 1e-12


@SETTINGS
@given(graph_docs(), st.floats(0.8, 1.25), scaling_points)
def test_zeta_scales_with_length(case, c, point):
    doc, _ = case
    s, gamma = point
    ref = zeta(from_doc(doc), point)
    got = zeta(from_doc(scaled(doc, c)), (s, gamma / (c * c)))
    # each value within its own tol; the nodes move with c
    assert abs(got - c ** (2.0 * s) * ref) < ZETA_TOL * (1.0 + c ** (2.0 * s))


@SETTINGS
@given(graph_docs(), st.data(), zeta_points)
def test_zeta_and_energy_ignore_labels(case, data, point):
    doc, _ = case
    n = len(doc["bonds"])
    vertex_perm = data.draw(st.permutations(range(n + 1)))
    bond_perm = data.draw(st.permutations(range(n)))
    assert_same_physics(from_doc(relabelled(doc, vertex_perm, bond_perm)),
                        from_doc(doc), point)


@SETTINGS
@given(graph_docs(), st.data(), zeta_points)
def test_reversing_a_bond_changes_nothing(case, data, point):
    doc, bond_id = case
    flipped = data.draw(st.integers(1, len(doc["bonds"])))
    got = reversed_bond(doc, flipped)
    assert_same_physics(got, from_doc(doc), point)
    # the force moves the terminus, which reversal makes the other end
    # of a bump bond; elsewhere it is the same force
    if flipped != bond_id or "potential" not in doc["bonds"][bond_id - 1]:
        ref = force(doc, bond_id)
        assert abs(casimir_force(*got, bond_id).force - ref) < 2 * FORCE_TOL


# the scan's window: every graph drawn has at most 8 units of length, so
# at most about 64 roots
SCAN_K_MAX = 25.0
# Newton stops once a step is below oracle.NEWTON_TOL = 1e-10
ROOT_TOL = 1e-9


def assert_same_roots(got, ref):
    """got and ref, each a graph and its matching conditions, have the
    same roots in (0, SCAN_K_MAX] with the same multiplicities."""
    got = scan_spectrum(*got, SCAN_K_MAX).roots
    ref = scan_spectrum(*ref, SCAN_K_MAX).roots
    assert [m for _, m in got] == [m for _, m in ref]
    assert all(abs(a - b) < ROOT_TOL for (a, _), (b, _) in zip(got, ref))


@SETTINGS
@given(graph_docs(), st.data())
def test_scan_ignores_labels(case, data):
    doc, _ = case
    n = len(doc["bonds"])
    vertex_perm = data.draw(st.permutations(range(n + 1)))
    bond_perm = data.draw(st.permutations(range(n)))
    assert_same_roots(from_doc(relabelled(doc, vertex_perm, bond_perm)),
                      from_doc(doc))


@SETTINGS
@given(graph_docs(), st.data())
def test_scan_ignores_bond_orientation(case, data):
    doc, _ = case
    flipped = data.draw(st.integers(1, len(doc["bonds"])))
    assert_same_roots(reversed_bond(doc, flipped), from_doc(doc))


@SETTINGS
@given(graph_docs(), st.data(), st.floats(0.1, 3.0), st.booleans())
def test_flux_on_a_tree_is_a_gauge(case, data, a, negative):
    # every drawn graph is a tree, where a flux on a bond is removed by a
    # phase on the subtree beyond it: the complex128 scan of the graph
    # with the flux finds the float64 scan's roots
    doc, _ = case
    bond_id = data.draw(st.integers(1, len(doc["bonds"])))
    bonds = [{**bd, "vector_potential": -a if negative else a}
             if bd["id"] == bond_id else bd for bd in doc["bonds"]]
    assert_same_roots(from_doc({**doc, "bonds": bonds}), from_doc(doc))


# the window of the direct sum: at least 0.5 units of length put five
# roots above its middle, which zeta_direct needs
DIRECT_K_MAX = 60.0


@SETTINGS
@given(graph_docs(), zeta_points)
def test_zeta_matches_the_direct_sum_of_the_scanned_roots(case, point):
    # the two axes agree: zeta_total integrates log F(it), zeta_direct
    # sums the roots of the real-axis scan with a Weyl tail
    doc, _ = case
    graph_mc = from_doc(doc)
    s, gamma = point
    direct, bound = zeta_direct(scan_spectrum(*graph_mc, DIRECT_K_MAX),
                                s, gamma)
    assert abs(zeta(graph_mc, point) - direct) < bound + ZETA_TOL

"""Invariance properties over small random graphs.

Stars and chains of one to four bonds, with Dirichlet leaves, delta
couplings lambda >= 0 at the inner vertices and at most one bump of
positive height, so that no graph has a zero mode.  Examples are drawn
derandomised, so every run checks the same graphs.
"""

import math
import warnings

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import from_doc
from graphzeta import casimir_force

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


def force(doc, bond_id):
    return casimir_force(*from_doc(doc), bond_id).force


@SETTINGS
@given(graph_docs(), st.floats(0.8, 1.25))
def test_force_scales_as_inverse_square_length(case, c):
    doc, bond_id = case
    f = force(doc, bond_id)
    assert math.isfinite(f)
    # within the force's quadrature tolerance: the nodes move with c
    assert abs(force(scaled(doc, c), bond_id) * c * c - f) < 1e-10


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

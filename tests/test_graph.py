import json
import math

import numpy as np
import pytest

from conftest import (from_doc, make_bump_interval, make_chain, make_circle,
                      make_interval, make_star)
from graphzeta import (GraphFormatError, MatchingConditions, ValidationError,
                       casimir_force, parse_graph, replace_bond_length,
                       serialize_graph, validate_matching, zeta_total)


def interval_doc(**overrides):
    doc = {
        "vertices": 2,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "dirichlet"},
            {"vertex": 2, "kind": "dirichlet"}]},
    }
    doc.update(overrides)
    return doc


def test_parse_example_document():
    doc = {
        "vertices": 3,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0,
                   "vector_potential": 0.0, "potential": {"kind": "zero"}},
                  {"id": 2, "origin": 2, "terminus": 3, "length": 0.5,
                   "potential": {"kind": "bump", "center": 0.25,
                                 "half_width": 0.1, "height": 1.0}}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "dirichlet"},
            {"vertex": 2, "kind": "delta", "lambda": 0.0},
            {"vertex": 3, "kind": "neumann"}]},
    }
    graph, mc = from_doc(doc)
    assert graph.vertex_count == 3
    assert [b.id for b in graph.bonds] == [1, 2]
    # internal indices are 0-based
    assert (graph.bonds[0].origin, graph.bonds[0].terminus) == (0, 1)
    assert graph.total_length() == 1.5
    assert graph.degree(1) == 2
    assert mc.local


def test_serialize_roundtrip():
    graph, mc = make_star(1.5, lengths=(1.0, 0.8, 1.2))
    doc = serialize_graph(graph, mc)
    g2, mc2 = parse_graph(doc)
    assert [b.id for b in g2.bonds] == [b.id for b in graph.bonds]
    assert [b.length for b in g2.bonds] == [b.length for b in graph.bonds]
    assert [(b.origin, b.terminus) for b in g2.bonds] \
        == [(b.origin, b.terminus) for b in graph.bonds]
    # wire format stays 1-based
    wire = json.loads(doc)
    assert wire["bonds"][0]["origin"] == 1
    assert wire["matching"]["vertices"][0]["vertex"] == 1
    assert np.allclose(mc2.A, mc.A) and np.allclose(mc2.B, mc.B)


def test_zero_potential_spellings_are_one_bond():
    # no potential, the zero kind and the constant 0 are one operator:
    # equal bonds, bitwise-equal results, and nothing written back
    results = []
    for potential in (None, {"kind": "zero"}, {"kind": "constant", "value": 0}):
        bonds = [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": L}
                 for i, L in enumerate((1.0, 1.3, 0.8))]
        if potential is not None:
            bonds[0]["potential"] = potential
        verts = [{"vertex": 1, "kind": "delta", "lambda": 1.0}]
        verts += [{"vertex": i + 2, "kind": "dirichlet"} for i in range(3)]
        graph, mc = from_doc({"vertices": 4, "bonds": bonds, "matching": {
            "mode": "per_vertex", "vertices": verts}})
        wire = json.loads(serialize_graph(graph, mc))
        assert all("potential" not in bd for bd in wire["bonds"]), potential
        z = zeta_total(graph, mc, 0.75, 0.5)
        # repr tells every float apart bitwise, -0.0 from 0.0 included
        results.append(repr((graph.bonds, z.value, z.quadrature_error,
                             casimir_force(graph, mc, 1))))
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.__setitem__("vertices", 0), "positive integer"),
    (lambda d: d.__setitem__("bonds", []), "non-empty"),
    (lambda d: d.pop("matching"), "missing top-level"),
    (lambda d: d["bonds"][0].__setitem__("id", 0), "between 1 and"),
    (lambda d: d["bonds"][0].__setitem__("id", "b1"), "between 1 and"),
    (lambda d: d["bonds"][0].__setitem__("origin", 0), "between 1 and"),
    (lambda d: d["bonds"][0].__setitem__("terminus", 3), "between 1 and"),
    (lambda d: d["bonds"][0].__setitem__("length", -1.0), "positive"),
    (lambda d: d["bonds"][0].__setitem__("length", 0.0), "positive"),
    (lambda d: d["matching"].__setitem__("mode", "mixed"), "matching mode"),
    (lambda d: d["matching"]["vertices"][0].__setitem__("kind", "robin"),
     "vertex kind"),
    (lambda d: d["matching"]["vertices"][1].__setitem__("vertex", 1),
     "twice"),
    (lambda d: d["matching"]["vertices"].pop(), "missing for vertex 2"),
    (lambda d: d["bonds"][0].__setitem__(
        "potential", {"kind": "bump", "center": 0.95, "half_width": 0.1,
                      "height": 1.0}), "strictly inside"),
    (lambda d: d["bonds"][0].__setitem__("potential", {"kind": "well"}),
     "potential kind"),
    # JSON true is a Python bool, which subclasses int
    (lambda d: d.__setitem__("vertices", True), "'vertices' must be"),
    (lambda d: d["bonds"][0].__setitem__("origin", True),
     "endpoints must be integers"),
    (lambda d: d["bonds"][0].__setitem__("terminus", True),
     "endpoints must be integers"),
    (lambda d: d["matching"]["vertices"][0].__setitem__("vertex", True),
     "vertex index"),
])
def test_parse_rejects(mutate, fragment):
    doc = interval_doc()
    mutate(doc)
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(json.dumps(doc))


def test_parse_rejects_swapped_endpoints():
    doc = interval_doc()
    doc["bonds"][0]["origin"], doc["bonds"][0]["terminus"] = 2, 1
    with pytest.raises(GraphFormatError, match="origin <= terminus"):
        parse_graph(json.dumps(doc))


def test_parse_rejects_duplicate_ids():
    doc = interval_doc(vertices=3)
    doc["bonds"] = [
        {"id": 1, "origin": 1, "terminus": 2, "length": 1.0},
        {"id": 1, "origin": 2, "terminus": 3, "length": 1.0}]
    doc["matching"]["vertices"].append({"vertex": 3, "kind": "dirichlet"})
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize("value, fragment", [
    (math.inf, "finite"), (math.nan, "finite"), ("abc", "real number"),
    ([0.3], "real number"), ("2.5", "real number"), (True, "real number")])
@pytest.mark.parametrize("field", ["value", "center", "half_width", "height"])
def test_parse_rejects_malformed_potential_numbers(field, value, fragment):
    if field == "value":
        pot = {"kind": "constant", "value": value}
    else:
        pot = {"kind": "bump", "center": 0.5, "half_width": 0.1,
               "height": 1.0, field: value}
    doc = interval_doc()
    doc["bonds"][0]["potential"] = pot
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(json.dumps(doc))


def test_parse_rejects_invalid_json():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        parse_graph("{not json")


def test_global_matching_validated():
    doc = interval_doc()
    doc["matching"] = {"mode": "global", "A": [[1, 0], [0, 0]],
                       "B": [[0, 1], [1, 0]]}
    with pytest.raises(ValidationError):
        parse_graph(json.dumps(doc))
    report = validate_matching(*parse_graph(json.dumps(doc), validate=False))
    assert not report.passed
    # Dirichlet at both ends, written globally, is fine
    doc["matching"] = {"mode": "global", "A": [[1, 0], [0, 1]],
                       "B": [[0, 0], [0, 0]]}
    graph, mc = parse_graph(json.dumps(doc))
    assert not mc.local


def test_matching_matrices_are_read_only_copies():
    # the set-up memoised on mc is computed from A and B: an edit through
    # the caller's arrays must not reach them, and one through mc raises
    A = np.eye(2, dtype=complex)
    B = np.zeros((2, 2), dtype=complex)
    mc = MatchingConditions(A, B, local=False)
    A[0, 0] = 5.0
    assert mc.A[0, 0] == 1.0
    graph, mc = make_star(1.0)
    zeta_total(graph, mc, 0.75)
    for M in (mc.A, mc.B, mc.A.real):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 2.0


def test_validate_report_structure():
    report = validate_matching(*make_star(2.0))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "self-adjoint" in names and "rank" in names
    assert all(line.startswith("ok") for line in report.lines())


def test_custom_vertex_matches_delta():
    lam = 1.7
    g_delta, mc_delta = make_star(lam)
    doc = {
        "vertices": 4,
        "bonds": [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": 1.0}
                  for i in range(3)],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "custom",
             "A": [[1, -1, 0], [0, 1, -1], [-lam, 0, 0]],
             "B": [[0, 0, 0], [0, 0, 0], [1, 1, 1]]},
            {"vertex": 2, "kind": "dirichlet"},
            {"vertex": 3, "kind": "dirichlet"},
            {"vertex": 4, "kind": "dirichlet"}]},
    }
    g_custom, mc_custom = from_doc(doc)
    from graphzeta import F_imag
    for t in (0.7, 2.3):
        a = F_imag(g_delta, mc_delta, t)
        b = F_imag(g_custom, mc_custom, t)
        # same zero set: ratio of the two determinants is t-independent
        ra = a.log_abs - b.log_abs
        assert abs(ra - (F_imag(g_delta, mc_delta, 1.1).log_abs
                         - F_imag(g_custom, mc_custom, 1.1).log_abs)) < 1e-9


def test_slots_and_degree():
    graph, _ = make_chain((1.0, 1.0, 1.0))
    B = graph.bond_count
    assert graph.slots(0) == [0]
    assert graph.slots(1) == [1, B + 0]
    assert graph.degree(1) == 2
    loop, _ = make_circle()
    assert loop.slots(0) == [0, 1]


def test_replace_bond_length():
    graph, _ = make_star(0.0)
    g2 = replace_bond_length(graph, 2, 2.5)
    assert g2.bond_by_id(2).length == 2.5
    assert g2.bond_by_id(1).length == 1.0
    assert g2.bond_by_id("2").length == 2.5
    with pytest.raises(GraphFormatError):
        replace_bond_length(graph, 9, 1.0)
    with pytest.raises(GraphFormatError):
        replace_bond_length(graph, 1, -1.0)


def test_replace_bond_length_keeps_a_bump_inside_the_bond():
    # the bump's support is 0.2..0.8; at length 0.7 it crosses the far end,
    # which parse_graph refuses, and the energy failed only in the integral
    graph, _ = make_bump_interval()
    with pytest.raises(GraphFormatError, match="strictly inside"):
        replace_bond_length(graph, 1, 0.7)
    assert replace_bond_length(graph, 1, 0.81).bond_by_id(1).length == 0.81


def test_replace_bond_length_refuses_nan_and_inf():
    # NaN passes a bare "<= 0" test and failed only deep in the integrand;
    # the length is refused at the input, as parse_graph refuses it
    graph, _ = make_interval(1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(GraphFormatError, match="finite"):
            replace_bond_length(graph, 1, bad)

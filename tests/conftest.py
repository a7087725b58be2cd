"""Shared graph builders, all in the document wire format (1-based)."""

import json

from graphzeta import parse_graph

BUMP = {"kind": "bump", "center": 0.5, "half_width": 0.3, "height": 3.0}


def from_doc(doc):
    return parse_graph(json.dumps(doc))


def make_interval(L=1.0, potential=None, kinds=("dirichlet", "dirichlet")):
    bond = {"id": 1, "origin": 1, "terminus": 2, "length": L}
    if potential is not None:
        bond["potential"] = potential
    return from_doc({
        "vertices": 2,
        "bonds": [bond],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": kinds[0]},
            {"vertex": 2, "kind": kinds[1]}]},
    })


def make_bump_interval(L=1.0, center=0.5, half_width=0.3, height=3.0):
    return make_interval(L, potential={"kind": "bump", "center": center,
                                       "half_width": half_width,
                                       "height": height})


def make_star(lam=0.0, lengths=(1.0, 1.0, 1.0), leaf="dirichlet",
              potentials=(), fluxes=()):
    """potentials and fluxes are (bond index, value) pairs."""
    n = len(lengths)
    bonds = [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": L}
             for i, L in enumerate(lengths)]
    for i, pot in potentials:
        bonds[i]["potential"] = pot
    for i, a in fluxes:
        bonds[i]["vector_potential"] = a
    verts = [{"vertex": 1, "kind": "delta", "lambda": lam}]
    verts += [{"vertex": i + 2, "kind": leaf} for i in range(n)]
    return from_doc({"vertices": n + 1, "bonds": bonds,
                     "matching": {"mode": "per_vertex", "vertices": verts}})


def make_chain(lengths=(1.0, 1.0, 1.0), bump=None, bump_bond=1):
    n = len(lengths)
    bonds = []
    for i, L in enumerate(lengths):
        bd = {"id": i + 1, "origin": i + 1, "terminus": i + 2, "length": L}
        if bump is not None and i == bump_bond:
            bd["potential"] = bump
        bonds.append(bd)
    verts = [{"vertex": 1, "kind": "dirichlet"}]
    verts += [{"vertex": i + 2, "kind": "delta", "lambda": 0.0}
              for i in range(n - 1)]
    verts += [{"vertex": n + 1, "kind": "dirichlet"}]
    return from_doc({"vertices": n + 1, "bonds": bonds,
                     "matching": {"mode": "per_vertex", "vertices": verts}})


def make_circle(L=1.0, A=0.0):
    return from_doc({
        "vertices": 1,
        "bonds": [{"id": 1, "origin": 1, "terminus": 1, "length": L,
                   "vector_potential": A}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "delta", "lambda": 0.0}]},
    })

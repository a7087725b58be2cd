"""Fixture graphs, seeded scaling and the operation lists of each workload.

Every pool graph is written at unit length scale (c = 1).  A run draws one
scale c per graph and pass from a narrow band and rescales the document
exactly: lengths and bump geometry by c, bump height by 1/c^2, delta
couplings and vector potentials by 1/c, gamma by 1/c^2 and k_max by 1/c.
The operator then is the c = 1 operator in other units, so every output
follows from the c = 1 reference through a known power of c, and no input
float repeats between passes, which keeps the package's value-keyed bond
solve cache from turning a repetition into cache hits.

Graphs with a bump stay at c = 1.  Their cost is not a smooth function of
c: the Radau bond solve at t*L = 1e4 that the large-t asymptotics check
makes takes 1.7 s at c = 1, 2.5 s at c = 0.9995 and over 100 s at
c = 0.99995, and vacuum_energy on interval_bump does not finish within
40 s at c = 0.9.  A seeded c would make those runs' length a lottery.
run.py clears the bond solve cache before every pass instead.

This module imports nothing from graphzeta, so the set-up probe can time
the package import on its own.
"""

from __future__ import annotations

import math
import random

SCALE_BAND = (0.9, 1.1)

# A milder bump than the test suite's height-3 one: the engine's cost grows
# steeply with the bump's WKB remainders, and at height 3 one vacuum energy
# takes ~50 s, longer than a whole run.  This bump still drives the bond
# solves through all three t*L bands of the ODE path.
BUMP = {"kind": "bump", "center": 0.5, "half_width": 0.3, "height": 0.3}


def _interval(potential=None):
    bond = {"id": 1, "origin": 1, "terminus": 2, "length": 1.0}
    if potential is not None:
        bond["potential"] = dict(potential)
    return {"vertices": 2, "bonds": [bond],
            "matching": {"mode": "per_vertex", "vertices": [
                {"vertex": 1, "kind": "dirichlet"},
                {"vertex": 2, "kind": "dirichlet"}]}}


def _star(lam):
    bonds = [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": 1.0}
             for i in range(3)]
    verts = [{"vertex": 1, "kind": "delta", "lambda": lam}]
    verts += [{"vertex": i + 2, "kind": "dirichlet"} for i in range(3)]
    return {"vertices": 4, "bonds": bonds,
            "matching": {"mode": "per_vertex", "vertices": verts}}


def _chain():
    bonds = []
    for i in range(3):
        bd = {"id": i + 1, "origin": i + 1, "terminus": i + 2, "length": 1.0}
        if i == 1:
            bd["potential"] = dict(BUMP)
        bonds.append(bd)
    verts = [{"vertex": 1, "kind": "dirichlet"},
             {"vertex": 2, "kind": "delta", "lambda": 0.0},
             {"vertex": 3, "kind": "delta", "lambda": 0.0},
             {"vertex": 4, "kind": "dirichlet"}]
    return {"vertices": 4, "bonds": bonds,
            "matching": {"mode": "per_vertex", "vertices": verts}}


def _circle(a):
    return {"vertices": 1,
            "bonds": [{"id": 1, "origin": 1, "terminus": 1, "length": 1.0,
                       "vector_potential": a}],
            "matching": {"mode": "per_vertex", "vertices": [
                {"vertex": 1, "kind": "delta", "lambda": 0.0}]}}


POOL = {
    "interval_dirichlet": _interval(),
    "interval_bump": _interval(BUMP),
    "star_kirchhoff": _star(0.0),
    "star_delta": _star(1.0),
    "chain_bump": _chain(),
    "circle_flux": _circle(0.5),
    "circle_a0": _circle(0.0),
    "circle_a1": _circle(1.0),
    "circle_api": _circle(math.pi),
}

S_SWEEP = [(s, g) for g in (0.5, 1.0) for s in (0.6, 0.75, 0.9)]
ZETA_POINTS = S_SWEEP + [(complex(0.75, 0.5), 0.5), (0.75, 0.0)]

# (kind, graph, argument); arguments are given at c = 1.  The bump chain
# gets the s-sweep only: its complex-s and gamma = 0 points cost ~5.5 s
# together, which would leave room for a single pass per run.
WORKLOADS = {
    "zeta_sweep": ([("zeta", "chain_bump", p) for p in S_SWEEP]
                   + [("zeta", g, p) for g in ("star_delta", "circle_flux")
                      for p in ZETA_POINTS]),
    "casimir": ([(kind, g, 1 if kind == "force" else None)
                 for g in ("interval_bump", "interval_dirichlet",
                           "star_kirchhoff")
                 for kind in ("energy", "force")]
                + [("force", "chain_bump", 1)]),
    "spectrum_scan": ([("spectrum", "star_delta", (215.0, 1)),
                       ("spectrum", "chain_bump", (215.0, 1)),
                       ("spectrum", "chain_bump", (215.0, 2))]
                      + [("spectrum", g, (33.0, 1))
                         for g in ("circle_a0", "circle_a1", "circle_api")]),
}


def graphs_of(workload):
    return sorted({g for _, g, _ in WORKLOADS[workload]})


def has_bump(name):
    return any("potential" in bd for bd in POOL[name]["bonds"])


def scale_doc(doc, c):
    """The document of the same operator with every length multiplied by c."""
    bonds = []
    for bd in doc["bonds"]:
        bd = dict(bd)
        bd["length"] = bd["length"] * c
        if "vector_potential" in bd:
            bd["vector_potential"] = bd["vector_potential"] / c
        pot = bd.get("potential")
        if pot is not None:
            bd["potential"] = {"kind": "bump", "center": pot["center"] * c,
                               "half_width": pot["half_width"] * c,
                               "height": pot["height"] / (c * c)}
        bonds.append(bd)
    verts = []
    for v in doc["matching"]["vertices"]:
        v = dict(v)
        if v["kind"] == "delta":
            v["lambda"] = v["lambda"] / c
        verts.append(v)
    return {"vertices": doc["vertices"], "bonds": bonds,
            "matching": {"mode": "per_vertex", "vertices": verts}}


def passes(workload, seed):
    """Endless seeded passes: (scale by graph, operations in run order)."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        scales = {g: 1.0 if has_bump(g) else rng.uniform(*SCALE_BAND)
                  for g in graphs_of(workload)}
        ops = list(WORKLOADS[workload])
        rng.shuffle(ops)
        yield scales, ops

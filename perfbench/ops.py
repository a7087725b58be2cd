"""Running one workload operation and checking it against its reference.

References are stored at c = 1 in refs.json and mapped to scale c through
the exact scaling laws of the operator:

    zeta:      zeta_c(s, gamma / c^2) = c^(2s) zeta(s, gamma)
    energy:    res_half_c = res_half / c
               fp_half_c = (fp_half + res_half ln c) / c
    force:     F_c = F / c^2
    spectrum:  k_c = k / c   (multiplicities unchanged)

The energy law follows from FP_c = (FP + R ln c^2) / c for the finite
part of zeta at s = -1/2, where R is its residue in s (the heat-kernel
value d_b / (2 pi)).  The package reports res_total = d_b / pi (criterion
5), twice R, so its res_half equals R and fp_half = FP / 2 moves by
res_half ln c.  Checked on interval_bump at c = 1.08 and 1.1.

Tolerances are the acceptance suite's: 1e-6 on zeta values, 1e-4 on forces,
1e-8 on eigenvalues and residues.  The finite part of the energy has no
separate acceptance tolerance; it is held to the zeta tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

TOL = {"zeta": 1e-6, "force": 1e-4, "spectrum": 1e-8, "res_half": 1e-8,
       "fp_half": 1e-6}


def zeta_key(point):
    s, gamma = point
    s = complex(s)
    return f"{s.real!r},{s.imag!r},{gamma!r}"


def load_refs():
    return json.loads(REFS_PATH.read_text())


def run(kind, graph, mc, arg, c):
    """Call the package for one operation at scale c; returns raw output."""
    import graphzeta as gz
    if kind == "zeta":
        s, gamma = arg
        return gz.zeta_total(graph, mc, s, gamma / (c * c)).value
    if kind == "energy":
        res = gz.vacuum_energy(graph, mc)
        return (res.fp_half, res.res_half)
    if kind == "force":
        return gz.casimir_force(graph, mc, arg).force
    if kind == "spectrum":
        k_max, threads = arg
        return gz.scan_spectrum(graph, mc, k_max / c, threads=threads).roots
    raise ValueError(f"unknown operation kind '{kind}'")


def expected(kind, gname, arg, c, refs):
    if kind == "zeta":
        re, im = refs["zeta"][gname][zeta_key(arg)]["value"]
        s = complex(arg[0])
        return complex(re, im) * c ** (2.0 * s)
    if kind == "energy":
        ref = refs["energy"][gname]
        return ((ref["fp_half"] + ref["res_half"] * math.log(c)) / c,
                ref["res_half"] / c)
    if kind == "force":
        return refs["force"][gname]["force"] / (c * c)
    if kind == "spectrum":
        return [(k / c, m) for k, m in refs["spectrum"][f"{gname}@{arg[0]!r}"]]
    raise ValueError(f"unknown operation kind '{kind}'")


def error_ratio(kind, got, want, c):
    """Largest error over tolerance; above 1 means the output is wrong.

    Eigenvalues are compared at unit scale, so the tolerance means the
    same thing for every c; a differing root count or multiplicity is an
    infinite error.
    """
    if kind == "zeta":
        return abs(complex(got) - want) / TOL["zeta"]
    if kind == "energy":
        return max(abs(got[0] - want[0]) / TOL["fp_half"],
                   abs(got[1] - want[1]) / TOL["res_half"])
    if kind == "force":
        return abs(got - want) / TOL["force"]
    if kind == "spectrum":
        if len(got) != len(want):
            return math.inf
        worst = 0.0
        for (k, m), (k_ref, m_ref) in zip(got, want):
            if m != m_ref:
                return math.inf
            worst = max(worst, c * abs(k - k_ref))
        return worst / TOL["spectrum"]
    raise ValueError(f"unknown operation kind '{kind}'")

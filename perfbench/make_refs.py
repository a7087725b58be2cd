"""Compute the unit-scale references in refs.json from the oracles.

    python3 perfbench/make_refs.py

Sources, per output:
  zeta      star_delta, chain_bump: zeta_direct on a real-axis scan to
            k = 215 (the criterion-3 oracle), except at complex s, where
            zeta_direct fails and zeta_total at c = 1 stands in (a
            scaling-law check only); circle_flux: the sum over
            the closed-form spectrum |2 pi j + A| in 30-digit arithmetic.
  energy    interval_dirichlet -pi/24 and star_kirchhoff -pi/16 (closed
            forms, no residue); interval_bump: residue d_b / (2 pi) with
            d_b = (1/2) int V, finite part from vacuum_energy at c = 1, a
            regression check only, since no oracle gives the finite part.
  force     interval_dirichlet -pi/24, star_kirchhoff -pi/48 (closed forms);
            bump graphs: energy_finite_difference.
  spectrum  circles: |2 pi j + A| with multiplicities; star_delta: k = j pi
            twice and the roots of sin k + 3k cos k; chain_bump: the scan
            itself at c = 1 (a regression check only).

Takes a few minutes; the output is committed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
from scipy.integrate import quad
from scipy.optimize import brentq

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import graphzeta as gz  # noqa: E402
from ops import REFS_PATH, zeta_key  # noqa: E402
from pool import BUMP, POOL, WORKLOADS, ZETA_POINTS  # noqa: E402


def parsed(name):
    return gz.parse_graph(json.dumps(POOL[name]))


def circle_zeta(a, s, gamma):
    """sum_j (gamma + (2 pi j + a)^2)^-s, as two one-sided Euler-Maclaurin
    sums (nsum's default extrapolation is off by 0.1 at s = 0.6)."""
    mpmath.mp.dps = 30
    s = mpmath.mpc(s.real, s.imag)

    def term(j):
        return (gamma + (2 * mpmath.pi * j + a) ** 2) ** (-s)
    val = (mpmath.nsum(term, [0, mpmath.inf], method="euler-maclaurin")
           + mpmath.nsum(lambda j: term(-j), [1, mpmath.inf],
                         method="euler-maclaurin"))
    return complex(val)


def circle_roots(a, k_max):
    ks = sorted(abs(2.0 * math.pi * j + a) for j in range(-20, 21))
    out = []
    for k in ks:
        if k <= 1e-12 or k > k_max:
            continue
        if out and abs(out[-1][0] - k) < 1e-9:
            out[-1][1] += 1
        else:
            out.append([k, 1])
    return out


def star_delta_roots(k_max, lam=1.0, n=3):
    """Equal-length star, Dirichlet leaves: sin k = 0 (n-1 fold) and
    lam sin k + n k cos k = 0, one root in each ((j - 1/2) pi, j pi)."""
    out = []
    j = 1
    while (j - 0.5) * math.pi < k_max:
        k = brentq(lambda x: lam * math.sin(x) + n * x * math.cos(x),
                   (j - 0.5) * math.pi, j * math.pi, xtol=1e-15, rtol=1e-15)
        if k <= k_max:
            out.append([k, 1])
        if j * math.pi <= k_max:
            out.append([j * math.pi, n - 1])
        j += 1
    return out


def bump_residue_half():
    def v(x):
        y = (x - BUMP["center"]) / BUMP["half_width"]
        if abs(y) >= 1.0:
            return 0.0
        return BUMP["height"] * math.exp(1.0 - 1.0 / (1.0 - y * y))
    lo = BUMP["center"] - BUMP["half_width"]
    hi = BUMP["center"] + BUMP["half_width"]
    d_b = 0.5 * quad(v, lo, hi, epsabs=1e-14, limit=200)[0]
    return d_b / (2.0 * math.pi)


def main():
    refs = {"zeta": {}, "energy": {}, "force": {}, "spectrum": {}}
    scans = {}

    for name in ("star_delta", "chain_bump"):
        g, mc = parsed(name)
        scans[name] = gz.scan_spectrum(g, mc, 215.0)
        table = {}
        for _, gname, (s, gamma) in WORKLOADS["zeta_sweep"]:
            if gname != name:
                continue
            if isinstance(s, complex):
                # zeta_direct's Weyl tail evaluates 0 ** (2i Im s) and
                # raises ZeroDivisionError for complex s
                value = gz.zeta_total(g, mc, s, gamma).value
                bound, source = None, "zeta_total at c=1"
            else:
                value, bound = gz.zeta_direct(scans[name], s, gamma)
                source = "zeta_direct on scan_spectrum to k=215"
            table[zeta_key((s, gamma))] = {
                "value": [value.real, value.imag], "bound": bound,
                "source": source}
        refs["zeta"][name] = table
        print(name, "zeta done", flush=True)

    a = POOL["circle_flux"]["bonds"][0]["vector_potential"]
    refs["zeta"]["circle_flux"] = {
        zeta_key((s, gamma)): {
            "value": [v.real, v.imag], "bound": None,
            "source": "sum over |2 pi j + A|, 30 digits"}
        for s, gamma in ZETA_POINTS
        for v in [circle_zeta(a, complex(s), gamma)]}

    res_bump = bump_residue_half()
    closed = {"interval_dirichlet": (-math.pi / 24.0, -math.pi / 24.0),
              "star_kirchhoff": (-math.pi / 16.0, -math.pi / 48.0)}
    for name, (energy, force) in closed.items():
        refs["energy"][name] = {"fp_half": energy, "res_half": 0.0,
                                "source": "closed form"}
        refs["force"][name] = {"force": force, "source": "closed form"}
    for name in ("interval_bump", "chain_bump"):
        g, mc = parsed(name)
        if name == "interval_bump":
            e = gz.vacuum_energy(g, mc)
            refs["energy"][name] = {
                "fp_half": e.fp_half, "res_half": res_bump,
                "source": "res_half d_b/(2 pi); fp_half vacuum_energy at c=1"}
        refs["force"][name] = {
            "force": gz.energy_finite_difference(g, mc, 1, h=1e-4),
            "source": "energy_finite_difference, h=1e-4"}
        print(name, "energy/force done", flush=True)

    for _, name, (k_max, _) in WORKLOADS["spectrum_scan"]:
        key = f"{name}@{k_max!r}"
        if name.startswith("circle"):
            a = POOL[name]["bonds"][0]["vector_potential"]
            refs["spectrum"][key] = circle_roots(a, k_max)
        elif name == "star_delta":
            refs["spectrum"][key] = star_delta_roots(k_max)
        else:
            refs["spectrum"][key] = [list(r) for r in scans[name].roots]

    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print("wrote", REFS_PATH)


if __name__ == "__main__":
    main()

"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single summary line with its
runtime so `pytest -v -s` reads as a checklist.  Reference values come from
closed forms or from oracles built in-line, never from the engine itself.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (BUMP, make_bump_interval, make_chain, make_circle,
                      make_interval, make_star)
from graphzeta import (asymptotic_F_coefficients, casimir_force,
                       energy_finite_difference, minus_half_data,
                       mu_sensitivity, reference_zeta_R, scan_spectrum,
                       solve_imag_axis, zeta_direct, zeta_total)
from graphzeta.interval import dirichlet_subtracted_derivative
from graphzeta.zeta import subtracted_logF_derivative


def report(n, dt, budget, detail):
    print(f"criterion {n}: PASS ({dt:.1f}s of {budget:.0f}s) {detail}")
    assert dt < budget, f"criterion {n} exceeded its {budget}s budget ({dt:.1f}s)"


def euler_zeta_R(s, depth=48):
    """Riemann zeta via the Euler transform of the alternating series."""
    b = [(j + 1.0) ** (-s) for j in range(depth + 1)]
    eta = 0.0
    for k in range(depth + 1):
        eta += b[0] / 2.0 ** (k + 1)
        b = [b[j] - b[j + 1] for j in range(len(b) - 1)]
    return eta / (1.0 - 2.0 ** (1.0 - s))


def test_criterion_1_interval_force():
    t0 = time.time()
    f1 = casimir_force(*make_interval(1.0), 1).force
    f2 = casimir_force(*make_interval(2.0), 1).force
    d1 = abs(f1 - (-math.pi / 24.0))
    d2 = abs(f2 - (-math.pi / 96.0))
    assert f1 == pytest.approx(-0.13089969389957, abs=1e-6)
    assert d1 < 1e-6 and d2 < 1e-6
    report(1, time.time() - t0, 5.0,
           f"interval force, errors {d1:.1e} (L=1), {d2:.1e} (L=2)")


def test_criterion_2_dirichlet_zeta_identity():
    t0 = time.time()
    ev = zeta_total(*make_interval(1.0), 0.75)
    zr = euler_zeta_R(1.5)
    assert abs(zr - reference_zeta_R(1.5)) < 1e-13
    exact = math.pi ** -1.5 * zr
    diff = abs(ev.value - exact)
    assert diff < 1e-8
    report(2, time.time() - t0, 5.0,
           f"zeta(0.75,0) vs pi^-1.5 zeta_R(1.5), error {diff:.1e}")


def test_criterion_3_engine_matches_direct_summation():
    t0 = time.time()
    worst = 0.0
    for graph, mc in (make_star(1.0), make_chain((1.0, 1.0, 1.0), bump=BUMP)):
        window = scan_spectrum(graph, mc, 215.0)
        assert window.count >= 200
        for s in (0.6, 0.75, 0.9):
            for gamma in (0.5, 1.0):
                engine = zeta_total(graph, mc, s, gamma).value
                direct, bound = zeta_direct(window, s, gamma)
                diff = abs(engine - direct)
                assert diff < 1e-6, (s, gamma, diff)
                worst = max(worst, diff)
    report(3, time.time() - t0, 60.0,
           f"12 (s, gamma) points on star and bump chain, worst {worst:.1e}")


def test_criterion_4_force_matches_energy_derivative():
    t0 = time.time()
    results = []
    for graph_mc, bond in ((make_star(0.0), 2), (make_bump_interval(), 1)):
        force = casimir_force(*graph_mc, bond).force
        fd = energy_finite_difference(*graph_mc, bond, h=1e-4)
        results.append(abs(force - fd))
        assert results[-1] < 1e-4
    report(4, time.time() - t0, 120.0,
           "force vs -d(fp_half)/dL, diffs "
           f"{results[0]:.1e} (star), {results[1]:.1e} (bump interval)")


def test_criterion_5_residue_formulas():
    t0 = time.time()

    def bump_value(x):
        y = (x - BUMP["center"]) / BUMP["half_width"]
        if abs(y) >= 1.0:
            return 0.0
        return BUMP["height"] * math.exp(1.0 - 1.0 / (1.0 - y * y))

    d_b = 0.5 * quad(bump_value, 0.2, 0.8, epsabs=1e-13, limit=200)[0]
    data = minus_half_data(*make_bump_interval(), tol=1e-9)
    diff_dir = abs(data.res_total - d_b / math.pi)
    assert diff_dir < 1e-8

    graph, mc = make_star(1.0)
    asym = asymptotic_F_coefficients(graph, mc)
    assert asym.exact
    poly_res = asym.residue_at_minus_half        # c_{N+1} / (2 pi c_N)
    num_res = minus_half_data(graph, mc).res_im
    diff_im = abs(num_res - poly_res)
    assert diff_im < 1e-8
    assert abs(poly_res - 1.0 / (6 * math.pi)) < 1e-12
    report(5, time.time() - t0, 30.0,
           f"res_total vs d_b/pi {diff_dir:.1e}; "
           f"res_im vs polynomial path {diff_im:.1e}")


def test_criterion_6_star_forces_equal_across_bonds():
    t0 = time.time()
    graph, mc = make_star(0.0)
    forces = [casimir_force(graph, mc, b).force for b in (1, 2, 3)]
    spread = max(forces) - min(forces)
    assert spread < 1e-8
    report("6 (equality)", time.time() - t0, 60.0,
           f"three bond forces agree to {spread:.1e}")


def neumann_star_force(n, L, lam):
    """Force on one bond of the equal-length star with Neumann leaves.

    Antisymmetric modes k = (m + 1/2) pi / L (multiplicity n - 1) give
    E_a = (n - 1) pi / (48 L).  The symmetric sector's secular function is
    n t sinh(tL) + lam cosh(tL); its d/dL log minus the Weyl term t is g(t)
    below, written without cancellation.  With all bonds equal, each one
    carries 1/n of -dE/dL.
    """
    def g(t):
        e = math.exp(-2.0 * t * L)
        return (2.0 * t * e / (1.0 + e) * (n * t - lam)
                / (n * t * math.tanh(t * L) + lam))

    tail = quad(g, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    dE_dL = -(n - 1) * math.pi / (48.0 * L * L) + tail / (2.0 * math.pi)
    return -dE_dL / n


def test_criterion_6_star_force_positive():
    # Sign table: Dirichlet leaves attract with -pi/(48 L^2), Neumann leaves
    # with lam > 0 repel (Fulling, Kaplan and Wilson, Phys. Rev. A 76 (2007)).
    t0 = time.time()
    force = casimir_force(*make_star(0.0), 1).force
    assert force == pytest.approx(-math.pi / 48.0, abs=1e-9)
    assert force < 0.0

    repulsive = casimir_force(*make_star(1.0, leaf="neumann"), 1).force
    oracle = neumann_star_force(3, 1.0, 1.0)
    diff = abs(repulsive - oracle)
    assert diff < 1e-8
    assert repulsive > 0.0, (
        f"force on the Neumann-leaf delta(1)-star bond is {repulsive:.12f}")
    report("6 (sign)", time.time() - t0, 10.0,
           f"Dirichlet leaves {force:.12f} = -pi/48; Neumann leaves "
           f"{repulsive:+.12f}, sector oracle error {diff:.1e}")


def test_criterion_7_wkb_property_suite():
    t0 = time.time()
    bond = make_interval(1.0)[0].bonds[0]

    def closed(t):
        e = math.expm1(-2.0 * t)
        fp = -t / math.tanh(t)
        log_u = t + math.log(-e) - math.log(2.0 * t)
        return fp, log_u

    worst = 0.0
    for t in np.geomspace(0.1, 1000.0, 25):
        routes = [solve_imag_axis(bond, float(t))]
        if t <= 400.0:
            routes.append(solve_imag_axis(bond, float(t), method="linear"))
        if t >= 20.0:
            routes.append(solve_imag_axis(bond, float(t), method="riccati"))
        fp, log_u = closed(float(t))
        for sol in routes:
            worst = max(worst,
                        abs(sol.f_prime_at_0 - fp) / max(1.0, abs(fp)),
                        abs(sol.log_u - log_u) / max(1.0, abs(log_u)))
    assert worst < 1e-10

    from test_wkb import _SymbolicBond, riccati_recursion
    import sympy as sp
    from graphzeta import wkb_coefficients
    x, V, derived = riccati_recursion(2)
    v = sp.symbols("v0 v1 v2 v3")
    table = wkb_coefficients(_SymbolicBond(v), j_max=2)
    assert sp.simplify(derived[0].subs(V(x), v[0]) - table[0]) == 0
    assert sp.simplify(
        derived[1].subs(sp.Derivative(V(x), x), v[1]) - table[1]) == 0
    assert sp.simplify(table[0] + v[0] / 2) == 0
    assert sp.simplify(table[1] + v[1] / 4) == 0

    bump_bond = make_bump_interval()[0].bonds[0]
    v1 = abs(dirichlet_subtracted_derivative(bump_bond, 30.0))
    v2 = abs(dirichlet_subtracted_derivative(bump_bond, 90.0))
    slope_dir = math.log(v2 / v1) / math.log(3.0)
    assert slope_dir <= -2.0

    graph, mc = make_star(1.0)            # J = 1 for the delta coupling
    w1 = abs(subtracted_logF_derivative(graph, mc, 30.0))
    w2 = abs(subtracted_logF_derivative(graph, mc, 90.0))
    slope_im = math.log(w2 / w1) / math.log(3.0)
    assert slope_im <= -2.0
    report(7, time.time() - t0, 30.0,
           f"closed forms to {worst:.1e}; s1, s2 symbolic; "
           f"slopes {slope_dir:.2f}, {slope_im:.2f}")


def test_criterion_8_force_is_scale_independent():
    t0 = time.time()
    worst = 0.0
    for center in (0.35, 0.5, 0.65):
        graph, mc = make_bump_interval(center=center, half_width=0.2)
        worst = max(worst, abs(mu_sensitivity(graph, mc, 1)))
    assert worst < 1e-8
    report(8, time.time() - t0, 30.0,
           f"d(res_half)/dL across three bump placements, worst {worst:.1e}")


def test_criterion_9_flux_circle_spectrum():
    t0 = time.time()
    worst = 0.0
    for A in (0.0, 1.0, math.pi):
        window = scan_spectrum(*make_circle(1.0, A), 33.0)
        got = []
        for k, m in window.roots:
            got.extend([k] * m)
        expected = sorted(abs(2 * math.pi * j + A) for j in range(-6, 7)
                          if abs(2 * math.pi * j + A) > 1e-12)
        for have, want in zip(got[:10], expected[:10]):
            worst = max(worst, abs(have - want))
        assert len(got) >= 10
    assert worst < 1e-8
    report(9, time.time() - t0, 10.0,
           f"first 10 roots for A in {{0, 1, pi}}, worst {worst:.1e}")

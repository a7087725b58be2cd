import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import BUMP, make_chain, make_circle, make_interval, make_star
from graphzeta import UnsupportedError, scan_spectrum, zeta_direct, zeta_total
from oracles import discretized_eigenvalues, reference_zeta_R


def test_scan_interval():
    graph, mc = make_interval(1.0)
    window = scan_spectrum(graph, mc, 20.0)
    ks = [k for k, m in window.roots]
    assert all(m == 1 for _, m in window.roots)
    assert len(ks) == 6
    for j, k in enumerate(ks, start=1):
        assert k == pytest.approx(j * math.pi, abs=1e-9)


def test_scan_kirchhoff_star_multiplicities():
    graph, mc = make_star(0.0)
    window = scan_spectrum(graph, mc, 7.0)
    # doubles at j*pi from the leaf-antisymmetric modes, simple roots at
    # the half-integers where cos k = 0
    expected = [(0.5 * math.pi, 1), (math.pi, 2), (1.5 * math.pi, 1),
                (2 * math.pi, 2)]
    assert len(window.roots) == len(expected)
    for (k, m), (k_ref, m_ref) in zip(window.roots, expected):
        assert k == pytest.approx(k_ref, abs=1e-8)
        assert m == m_ref


def test_scan_delta_star_against_root_solver():
    lam = 1.0
    graph, mc = make_star(lam)
    window = scan_spectrum(graph, mc, 12.0)
    simple = []
    for n in range(4):
        lo, hi = (n + 0.5) * math.pi + 1e-9, (n + 1) * math.pi - 1e-9
        simple.append(brentq(lambda k: lam * math.tan(k) + 3.0 * k, lo, hi,
                             xtol=1e-13))
    expected = sorted([(k, 1) for k in simple]
                      + [(n * math.pi, 2) for n in (1, 2, 3)])
    assert len(window.roots) == len(expected)
    for (k, m), (k_ref, m_ref) in zip(window.roots, expected):
        assert k == pytest.approx(k_ref, abs=1e-8)
        assert m == m_ref


def test_scan_circle_flux():
    for A in (0.0, 1.0, math.pi):
        graph, mc = make_circle(1.0, A)
        window = scan_spectrum(graph, mc, 20.0)
        expected = {}
        for j in range(-4, 5):
            k = abs(2 * math.pi * j + A)
            if 1e-12 < k <= 20.0:
                key = round(k, 9)
                expected[key] = expected.get(key, 0) + 1
        got = {round(k, 9): m for k, m in window.roots}
        assert len(got) == len(expected)
        for k, m in window.roots:
            match = min(expected, key=lambda x: abs(x - k))
            assert k == pytest.approx(match, abs=1e-8)
            assert m == expected[match]


def test_scan_circle_small_flux():
    # the lowest root k = A sits below half a coarse cell, where the only
    # dip is the one-sided one at k = 0
    for A in (0.05, 0.01):
        graph, mc = make_circle(1.0, A)
        window = scan_spectrum(graph, mc, 20.0)
        expected = sorted(abs(2 * math.pi * j + A) for j in range(-3, 4))
        assert len(window.roots) == 7
        for (k, m), k_ref in zip(window.roots, expected):
            assert k == pytest.approx(k_ref, abs=1e-10)
            assert m == 1


def test_scan_roots_meet_closed_forms():
    graph, mc = make_interval(1.0)
    window = scan_spectrum(graph, mc, 20.0)
    assert [m for _, m in window.roots] == [1] * 6
    for j, (k, _) in enumerate(window.roots, start=1):
        assert abs(k - j * math.pi) <= 1e-11
    # the delta(1) star's leaf-antisymmetric doubles at k = m pi
    graph, mc = make_star(1.0)
    window = scan_spectrum(graph, mc, 30.0)
    doubles = [k for k, m in window.roots if m == 2]
    assert len(doubles) == 9
    for n, k in enumerate(doubles, start=1):
        assert abs(k - n * math.pi) <= 1e-11
    graph, mc = make_circle(1.0, 1.0)
    window = scan_spectrum(graph, mc, 20.0)
    expected = sorted(abs(2 * math.pi * j + 1.0) for j in range(-3, 4))
    assert [m for _, m in window.roots] == [1] * 7
    for (k, _), k_ref in zip(window.roots, expected):
        assert abs(k - k_ref) <= 1e-11


def test_scan_rejects_non_finite_k_max():
    graph, mc = make_interval(1.0)
    for k_max in (math.nan, math.inf):
        with pytest.raises(UnsupportedError):
            scan_spectrum(graph, mc, k_max)


def test_scan_respects_weyl_count():
    graph, mc = make_chain((1.0, 0.7, 1.3), bump=BUMP, bump_bond=0)
    window = scan_spectrum(graph, mc, 30.0)
    weyl = graph.total_length() * 30.0 / math.pi
    assert abs(window.count - weyl) < 4.0


def test_scan_rejects_thread_count_below_one():
    graph, mc = make_interval(1.0)
    for threads in (0, -2):
        with pytest.raises(UnsupportedError):
            scan_spectrum(graph, mc, 10.0, threads=threads)


def test_scan_matches_discretization():
    graph, mc = make_chain((1.0, 1.0, 1.0), bump=BUMP)
    window = scan_spectrum(graph, mc, 8.0)
    evs = discretized_eigenvalues(graph, mc, count=6, points_per_bond=4000)
    scan_evs = []
    for k, m in window.roots:
        scan_evs.extend([k * k] * m)
    for a, b in zip(scan_evs[:6], evs):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_discretization_rejects_flux_and_custom():
    graph, mc = make_circle(1.0, 1.0)
    with pytest.raises(UnsupportedError):
        discretized_eigenvalues(graph, mc)


def test_zeta_direct_interval():
    graph, mc = make_interval(1.0)
    window = scan_spectrum(graph, mc, 220.0)
    for s in (0.75, 0.9):
        value, bound = zeta_direct(window, s)
        exact = math.pi ** (-2 * s) * reference_zeta_R(2 * s)
        assert abs(value - exact) <= max(bound, 1e-8)
        assert bound < 1e-6


def test_zeta_direct_complex_s():
    graph, mc = make_star(1.0)
    window = scan_spectrum(graph, mc, 215.0)
    for s in (0.75 + 0.5j, 0.9 - 0.3j):
        value, bound = zeta_direct(window, s, 0.5)
        assert abs(value - zeta_total(graph, mc, s, 0.5).value) <= bound


def test_zeta_direct_needs_window():
    graph, mc = make_interval(1.0)
    window = scan_spectrum(graph, mc, 10.0)
    with pytest.raises(UnsupportedError):
        zeta_direct(window, 0.3)
    from graphzeta import SpectrumWindow
    with pytest.raises(UnsupportedError):
        zeta_direct(SpectrumWindow(k_max=10.0, roots=(),
                                   count_estimate=3.0), 0.75)


def test_reference_zeta_R_known_values():
    assert reference_zeta_R(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert reference_zeta_R(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-14)
    assert reference_zeta_R(1.5) == pytest.approx(2.6123753486854883, rel=1e-13)
    with pytest.raises(UnsupportedError):
        reference_zeta_R(1.0)

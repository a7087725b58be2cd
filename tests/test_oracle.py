import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import (BUMP, from_doc, make_chain, make_circle, make_interval,
                      make_star)
from graphzeta import (NumericalError, UnsupportedError, eigenvalue_count,
                       oracle, scan_spectrum, zeta_direct, zeta_total)
from graphzeta.interval import transfer_matrices_real
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
    # the lowest root k = A sits in the grid's first cell in k, above the
    # energies that count as E <= 0
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


def test_count_closed_forms():
    # energies between the roots, each away from a bond's Dirichlet energy
    rng = np.random.default_rng(3)
    ks = np.sort(rng.uniform(0.0, 60.0, 200))
    Es = np.concatenate(([-4.0, -1e-3], ks * ks))
    k = np.sqrt(np.maximum(Es, 0.0))
    # Dirichlet interval: floor(k L / pi)
    graph, mc = make_interval(1.3)
    assert np.array_equal(eigenvalue_count(graph, mc, Es),
                          np.floor(k * 1.3 / math.pi))
    # flux circle: the roots |2 pi j + A|
    graph, mc = make_circle(1.0, A=0.3)
    roots = np.abs(2.0 * math.pi * np.arange(-12, 13) + 0.3)
    assert np.array_equal(eigenvalue_count(graph, mc, Es),
                          np.count_nonzero(roots < k[:, None], axis=1)
                          * (Es > 0.0))
    # Kirchhoff star, Dirichlet leaves: sum floor(k L_b / pi), plus one
    # where sum cot(k L_b) < 0
    lengths = np.array([1.0, 1.3, 0.8])
    graph, mc = make_star(0.0, lengths=tuple(lengths))
    kL = k[2:, None] * lengths
    expect = (np.floor(kL / math.pi).sum(axis=1)
              + (np.sum(1.0 / np.tan(kL), axis=1) < 0.0))
    assert np.array_equal(eigenvalue_count(graph, mc, Es),
                          np.concatenate(([0, 0], expect)))


def test_count_on_the_dirichlet_energies_of_a_loop():
    # at E = (j pi/L)^2, j odd, u(L) = T01 is of the order of rounding and
    # the Pruefer angle rounds onto j pi; the sign of T01 fixes the parity
    # of the Dirichlet count.  The Kirchhoff loop's roots are 0 and the
    # doubles at (2 pi m/L)^2
    L = 0.8834434871717249
    graph, mc = make_circle(L)
    Es = (np.array([1.0, 3.0, 5.0, 7.0]) * math.pi / L) ** 2
    assert list(eigenvalue_count(graph, mc, Es)) == [1, 3, 5, 7]


def test_count_below_the_first_root_of_a_neumann_leaf_star():
    # sum_b k tan(k L_b) = lambda on the delta star with Neumann leaves:
    # lambda > 0 repels, so its lowest root is positive, and lambda < 0
    # puts one below zero, -kappa with sum_b kappa tanh(kappa L_b) = -lambda.
    # Only probes below the first root tell the sign of lambda in Q
    lengths = (1.0, 1.3, 0.8)
    for lam in (1.0, -1.0):
        graph, mc = make_star(lam, lengths=lengths, leaf="neumann")
        if lam > 0.0:
            first = brentq(lambda k: sum(k * math.tan(k * L)
                                         for L in lengths) - lam,
                           1e-6, 1.0) ** 2
        else:
            first = -brentq(lambda q: sum(q * math.tanh(q * L)
                                          for L in lengths) + lam,
                            1e-6, 3.0) ** 2
        probes = np.array([first - 0.1, first - 1e-6, first + 1e-6])
        assert list(eigenvalue_count(graph, mc, probes)) == [0, 0, 1], lam


def copies_of_the_delta_star():
    """The delta(1) star with lengths (1, 1.3, 0.8) in per-vertex form, in
    global form with its conditions mixed across vertices by an invertible
    C, and with its centre as a custom vertex."""
    lengths = (1.0, 1.3, 0.8)
    graph, mc = make_star(1.0, lengths=lengths)
    C = np.eye(6) + 0.3 * np.random.default_rng(5).standard_normal((6, 6))
    bonds = [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": L}
             for i, L in enumerate(lengths)]

    def rows(M):
        return [[float(x) for x in row] for row in M]
    mixed = from_doc({"vertices": 4, "bonds": bonds, "matching": {
        "mode": "global", "A": rows(C @ mc.A.real),
        "B": rows(C @ mc.B.real)}})
    leaves = [{"vertex": i + 2, "kind": "dirichlet"} for i in range(3)]
    custom = from_doc({"vertices": 4, "bonds": bonds, "matching": {
        "mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "custom",
             "A": [[1, -1, 0], [0, 1, -1], [-1, 0, 0]],
             "B": [[0, 0, 0], [0, 0, 0], [1, 1, 1]]}] + leaves}})
    return (graph, mc), mixed, custom


def test_global_and_custom_matching_count_like_per_vertex():
    (graph, mc), *copies = copies_of_the_delta_star()
    Es = np.linspace(-3.0, 900.0, 397)
    count = eigenvalue_count(graph, mc, Es)
    window = scan_spectrum(graph, mc, 30.0)
    for copy in copies:
        assert np.array_equal(eigenvalue_count(*copy, Es), count)
        roots = scan_spectrum(*copy, 30.0).roots
        assert [m for _, m in roots] == [m for _, m in window.roots]
        assert all(abs(a - b) <= 1e-11
                   for (a, _), (b, _) in zip(roots, window.roots))


def test_scan_counts_the_close_pair_and_the_lowest_root_of_a_weak_flux():
    # the A = 1e-4 circle: k = 1e-4 and the pairs 2 pi n -+ 1e-4, 2e-4
    # apart, all simple
    graph, mc = make_circle(1.0, A=1e-4)
    window = scan_spectrum(graph, mc, 60.0)
    expected = sorted(abs(2.0 * math.pi * j + 1e-4) for j in range(-9, 10))
    assert window.count == len(window.roots) == 19
    for (k, m), ref in zip(window.roots, expected):
        assert m == 1 and abs(k - ref) <= 1e-10


def test_scan_counts_the_kirchhoff_star_root_between_close_ladders():
    # Dirichlet leaves of lengths (1, 1, 1.5625, 1.5625): the root at
    # k = 28.1977, between 14 pi / 1.5625 and 9 pi, where sum cot(k L_b)
    # changes sign
    lengths = (1.0, 1.0, 1.5625, 1.5625)
    graph, mc = make_star(0.0, lengths=lengths)
    window = scan_spectrum(graph, mc, 60.0)
    assert window.count == 96
    assert window.count == eigenvalue_count(graph, mc, [3600.0])[0]
    root = brentq(lambda k: sum(1.0 / math.tan(k * L) for L in lengths),
                  28.15, 28.27, xtol=1e-14)
    assert min(abs(k - root) for k, _ in window.roots) <= 1e-10


def test_scan_keeps_close_simple_pairs_of_a_bump_star_apart():
    # the delta(1) star with a height-3 bump on its length-1.3 bond: near
    # k = 10 j pi two simple roots sit 0.003 to 0.0008 apart
    bump = {"kind": "bump", "center": 0.65, "half_width": 0.39,
            "height": 3.0}
    graph, mc = make_star(1.0, lengths=(1.0, 1.3, 0.8),
                          potentials=[(1, bump)])
    window = scan_spectrum(graph, mc, 500.0)
    assert window.count == eigenvalue_count(graph, mc, [250000.0])[0]
    assert all(m == 1 for _, m in window.roots)


def test_scan_counts_up_to_k_max_next_to_dirichlet_energies():
    # k_max^2 lies within a quarter cell of Dirichlet energies of two
    # bonds, below them: the top of the grid moves up, off both, and the
    # root between it and k_max^2 is still found
    graph, mc = from_doc({
        "vertices": 3,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2,
                   "length": 0.9680303682724722},
                  {"id": 2, "origin": 2, "terminus": 3,
                   "length": 0.7566574959143659,
                   "potential": {"kind": "constant",
                                 "value": -0.4648116135541873}},
                  {"id": 3, "origin": 1, "terminus": 3,
                   "length": 0.9115542339761047}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "dirichlet"},
            {"vertex": 2, "kind": "dirichlet"},
            {"vertex": 3, "kind": "delta", "lambda": 2.194101593807736}]}})
    k_max = 20.747718124917718
    window = scan_spectrum(graph, mc, k_max)
    assert window.count == eigenvalue_count(graph, mc, [k_max ** 2])[0] == 17


def test_scan_of_a_window_without_roots_under_a_large_potential():
    # c L^2 = 4e5 and 1e6 put the lowest root near k = 632 and 1000: the
    # count up to k = 10 is 0, so no Newton step runs, and a sweep whose
    # transfer matrix overflows raises NumericalError
    for c in (4e5, 1e6):
        graph, mc = make_interval(1.0, potential={"kind": "constant",
                                                  "value": c})
        assert scan_spectrum(graph, mc, 10.0).roots == ()
    with pytest.raises(NumericalError, match="not finite"):
        transfer_matrices_real(graph.bonds[0], np.array([0.0]))


def test_scan_rejects_non_finite_k_max():
    graph, mc = make_interval(1.0)
    for k_max in (math.nan, math.inf):
        with pytest.raises(UnsupportedError):
            scan_spectrum(graph, mc, k_max)


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


def test_zeta_direct_refuses_non_finite_s_and_gamma():
    graph, mc = make_interval(1.0)
    window = scan_spectrum(graph, mc, 60.0)
    nan, inf = math.nan, math.inf
    for s, gamma in ((nan, 0.0), (inf, 0.0), (complex(0.75, inf), 0.0),
                     (complex(nan, 0.0), 0.5), (0.75, nan), (0.75, inf)):
        with pytest.raises(UnsupportedError, match="finite"):
            zeta_direct(window, s, gamma)


def quad_tail(K, s, gamma, extra):
    """integral_K^inf (gamma + k^2)^(-s) k^(-extra) dk by QUADPACK: k = K/x
    on (0, 1], with the power x^(2 Re s - 2 + extra) as the algebraic
    weight."""
    ratio = gamma / (K * K)

    def smooth(x):
        # x^(2i Im s) has modulus one but no limit at x = 0
        phase = x ** complex(0.0, 2.0 * s.imag) if x > 0.0 else 0.0
        return (1.0 + ratio * x * x) ** (-s) * phase

    re, im = (quad(lambda x: part(smooth(x)), 0.0, 1.0, weight="alg",
                   wvar=(2.0 * s.real - 2.0 + extra, 0.0), epsabs=0.0,
                   epsrel=1e-12, limit=200)[0]
              for part in (lambda z: z.real, lambda z: z.imag))
    return complex(re, im) * K ** (1.0 - extra - 2.0 * s)


def test_tail_series_matches_quad():
    # r = gamma/K^2 above 1/4 puts a stretch [K, 2 sqrt(gamma)] on the
    # Gauss-Legendre rule ahead of the series
    for K in (10.0, 30.0, 58.0, 190.0):
        for s in (0.6, 0.75, 0.9, 0.75 + 0.5j, 0.9 - 0.3j, 0.9 + 3j):
            s = complex(s)
            for r in (0.0, 1e-3, 0.2, 0.5, 4.0, 100.0):
                for extra in (0, 2):
                    got, _ = oracle._tail_int(K, s, r * K * K, extra)
                    ref = quad_tail(K, s, r * K * K, extra)
                    assert abs(got - ref) <= 1e-10 * abs(ref), (K, s, r, extra)


def test_counting_fit_recovers_the_drift():
    # a ladder whose counting function is rho k + a/k + c, rounded down:
    # its roots are where that line crosses the integers
    rho, c, k_max = 3.0 / math.pi, 0.3, 215.0
    for a in (-1.5, 0.0, 0.7, 3.0):
        n = np.arange(math.ceil(rho * 0.2 * k_max + a / (0.2 * k_max) + c),
                      math.floor(rho * k_max + a / k_max + c) + 1)
        ks = ((n - c) + np.sqrt((n - c) ** 2 - 4.0 * rho * a)) / (2.0 * rho)
        for lo in (0.30, 0.45):
            _, drift = oracle._counting_fit(ks, np.ones_like(ks), rho,
                                            lo * k_max, k_max)
            assert abs(drift - a) < 1e-3, (a, lo)


def test_reference_zeta_R_known_values():
    assert reference_zeta_R(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert reference_zeta_R(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-14)
    assert reference_zeta_R(1.5) == pytest.approx(2.6123753486854883, rel=1e-13)
    with pytest.raises(UnsupportedError):
        reference_zeta_R(1.0)

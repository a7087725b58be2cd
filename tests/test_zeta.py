import math

import mpmath
import pytest

from conftest import make_circle, make_interval, make_star
from graphzeta import (UnsupportedError, minus_half_data, reference_zeta_R,
                       zeta_dir_bond, zeta_im, zeta_total)


def riemann_zeta(x):
    """zeta_R(x); mpmath takes the complex arguments."""
    if isinstance(x, complex):
        return complex(mpmath.zeta(x))
    return reference_zeta_R(x)


def eigenvalue_sum(s, gamma, terms=16):
    """sum_j ((j pi)^2 + gamma)^(-s) via the binomial series in gamma.

    The j = 1 term is kept exact; for j >= 2 the ratio gamma / (j pi)^2
    stays below 1/39, so a dozen terms reach machine precision.
    """
    total = (math.pi ** 2 + gamma) ** (-s)
    coeff = 1.0
    for m in range(terms):
        z = math.pi ** (-2 * s - 2 * m) * (riemann_zeta(2 * s + 2 * m)
                                           - 1.0)
        total += coeff * gamma ** m * z
        coeff *= -(s + m) / (m + 1.0)
    return total


def test_dirichlet_interval_zeta_identity():
    graph, mc = make_interval(1.0)
    for s in (0.6, 0.75, 0.9):
        ev = zeta_total(graph, mc, s)
        exact = math.pi ** (-2 * s) * reference_zeta_R(2 * s)
        assert abs(ev.value - exact) < 1e-12
        assert abs(ev.value.imag) < 1e-12
        assert ev.quadrature_error < 1e-9
    # complex s takes the oscillating branch of the [0, 1] substitution
    for s in (complex(0.75, 0.5), complex(0.75, -0.5), complex(0.6, -1.2),
              complex(0.9, 3.0)):
        ev = zeta_total(graph, mc, s)
        exact = math.pi ** (-2 * s) * riemann_zeta(2 * s)
        assert abs(ev.value - exact) <= ev.quadrature_error


def test_dirichlet_interval_zeta_with_gamma():
    graph, mc = make_interval(1.0)
    for s, gamma in ((0.6, 0.5), (0.75, 1.0), (0.9, 1.0)):
        ev = zeta_total(graph, mc, s, gamma)
        ref = eigenvalue_sum(s, gamma)
        assert abs(ev.value - ref) < 1e-10
    s = complex(0.75, 0.5)
    for gamma in (0.5, 1.0):
        ev = zeta_total(graph, mc, s, gamma)
        ref = eigenvalue_sum(s, gamma)
        assert abs(ev.value - ref) <= ev.quadrature_error


def test_zeta_scaling_with_length():
    # eigenvalues scale as 1/L^2, so zeta picks up L^(2s)
    s = 0.8
    z1 = zeta_total(*make_interval(1.0), s).value
    z2 = zeta_total(*make_interval(2.0), s).value
    assert z2 == pytest.approx(2.0 ** (2 * s) * z1, rel=1e-11)


def test_zeta_complex_argument_conjugate_symmetry():
    graph, mc = make_star(1.0)
    s = complex(0.75, 0.4)
    ev = zeta_total(graph, mc, s)
    ev_bar = zeta_total(graph, mc, s.conjugate())
    assert ev.value.conjugate() == pytest.approx(ev_bar.value, rel=1e-10)


def test_zeta_dir_bond_domain_guards():
    bond = make_interval(1.0)[0].bonds[0]
    with pytest.raises(UnsupportedError):
        zeta_dir_bond(bond, 1.5)
    with pytest.raises(UnsupportedError):
        zeta_dir_bond(bond, 0.5)
    with pytest.raises(UnsupportedError):
        zeta_dir_bond(bond, 0.75, gamma=-1.0)


def test_zeta_rejects_global_conditions():
    import json

    from graphzeta import parse_graph
    doc = {
        "vertices": 2,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
        "matching": {"mode": "global", "A": [[1, 0], [0, 1]],
                     "B": [[0, 0], [0, 0]]},
    }
    graph, mc = parse_graph(json.dumps(doc))
    with pytest.raises(UnsupportedError):
        zeta_total(graph, mc, 0.75)
    with pytest.raises(UnsupportedError):
        minus_half_data(graph, mc)


def test_zeta_im_vanishes_for_detached_graph():
    # an interval with Dirichlet ends is its own Dirichlet part, so the
    # secular piece must carry no extra spectrum
    graph, mc = make_interval(1.0)
    s = 0.75
    zi = zeta_im(graph, mc, s)
    zd = zeta_dir_bond(graph.bonds[0], s)
    total = zeta_total(graph, mc, s)
    assert zi.value + zd.value == pytest.approx(total.value, rel=1e-12)
    assert abs(zi.value) < 1e-10


def test_minus_half_interval_closed_form():
    graph, mc = make_interval(1.0)
    data = minus_half_data(graph, mc)
    assert data.fp_total == pytest.approx(-math.pi / 12.0, abs=1e-11)
    assert data.res_total == pytest.approx(0.0, abs=1e-12)
    g2, mc2 = make_interval(2.0)
    data2 = minus_half_data(g2, mc2)
    assert data2.fp_total == pytest.approx(-math.pi / 24.0, abs=1e-11)


def test_minus_half_delta_star_residue():
    lam = 1.0
    graph, mc = make_star(lam)
    data = minus_half_data(graph, mc)
    assert data.res_im == pytest.approx(lam / (6 * math.pi), abs=1e-11)
    assert data.res_total == pytest.approx(lam / (6 * math.pi), abs=1e-11)


def test_minus_half_kirchhoff_star_closed_form():
    graph, mc = make_star(0.0)
    data = minus_half_data(graph, mc)
    assert data.fp_total == pytest.approx(-math.pi / 8.0, abs=1e-11)
    assert data.res_total == pytest.approx(0.0, abs=1e-12)


def test_zeta_on_flux_circle():
    # spectrum {(2 pi j + A)^2 : j in Z} is two Hurwitz zeta ladders
    from scipy.special import zeta as hurwitz
    graph, mc = make_circle(1.0, 1.0)
    s = 0.8
    ev = zeta_total(graph, mc, s)
    q = 1.0 / (2 * math.pi)
    direct = (2 * math.pi) ** (-2 * s) * (hurwitz(2 * s, q)
                                          + hurwitz(2 * s, 1.0 - q))
    assert abs(ev.value - direct) < 1e-10

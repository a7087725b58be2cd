import cmath
import json
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from conftest import (BUMP, make_bump_interval, make_chain, make_circle,
                      make_interval, make_star)
from graphzeta import (NumericalError, UnsupportedError, casimir_force,
                       minus_half_data, vacuum_energy, zeta_dir_bond, zeta_im,
                       zeta_total)
import graphzeta.zeta as zeta_module
from graphzeta.cli import main
from graphzeta.zeta import _restored, integral
from oracles import reference_zeta_R


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
    # complex s takes the head in log z; at 0.3 + 0.2i and -0.3 + 0.2i,
    # left of Re s = 1/2, the value is -0.58804 - 0.39420i and
    # -0.34492 - 0.08132i
    for s in (complex(0.75, 0.5), complex(0.75, -0.5), complex(0.6, -1.2),
              complex(0.9, 3.0), complex(0.3, 0.2), complex(-0.3, 0.2)):
        ev = zeta_total(graph, mc, s)
        exact = math.pi ** (-2 * s) * riemann_zeta(2 * s)
        assert abs(ev.value - exact) <= ev.quadrature_error
        assert abs(ev.value - exact) < 1e-9


def test_dirichlet_interval_zeta_with_gamma():
    graph, mc = make_interval(1.0)
    for s, gamma in ((0.6, 0.5), (0.75, 1.0), (0.9, 1.0)):
        ev = zeta_total(graph, mc, s, gamma)
        ref = eigenvalue_sum(s, gamma)
        assert abs(ev.value - ref) < 1e-10
    for s, gamma in ((complex(0.75, 0.5), 0.5), (complex(0.75, 0.5), 1.0),
                     (complex(0.3, 0.2), 0.5), (complex(-0.3, 0.2), 0.5)):
        ev = zeta_total(graph, mc, s, gamma)
        ref = eigenvalue_sum(s, gamma)
        assert abs(ev.value - ref) <= ev.quadrature_error


@pytest.mark.parametrize("name", ["bump_interval", "star_delta"])
def test_complex_s_left_of_one_half_scales_with_length(name):
    # lengths by c, potentials by c^-2 and couplings by 1/c give
    # zeta_c(s, gamma / c^2) = c^(2s) zeta(s, gamma) exactly
    def build(c):
        if name == "star_delta":
            return make_star(1.0 / c, lengths=(c, c, c))
        return make_bump_interval(c, 0.5 * c, 0.3 * c, 3.0 / c ** 2)

    s, gamma, c = complex(-0.3, 0.2), 0.5, 1.1
    ev = zeta_total(*build(1.0), s, gamma)
    ev_c = zeta_total(*build(c), s, gamma / c ** 2)
    scale = c ** (2 * s)
    assert abs(ev_c.value - scale * ev.value) <= (
        abs(scale) * ev.quadrature_error + ev_c.quadrature_error)


@pytest.mark.parametrize("lam, exact", [(None, -0.5), (1.0, -1.0)],
                         ids=["interval", "star_delta"])
def test_zeta_at_zero_with_gamma(lam, exact):
    # at s = 0 the sine removes the integral and every restored term but
    # the removable pole of t^-2, which leaves half its coefficient
    graph, mc = make_interval(1.0) if lam is None else make_star(lam)
    ev = zeta_total(graph, mc, 0.0, 0.5)
    assert abs(ev.value - exact) < 1e-12


def restored_reference(s, gamma, J, m):
    """sin(pi s)/pi integral_J^inf tau^(1-2s) (gamma + tau^2)^(-m/2) dtau.

    mpmath quadrature in y = log(tau / J) at 30 digits.  The leading
    powers binom(-m/2, n) gamma^n tau^(-m-2n) of the integrand come off
    until the rest decays faster than e^-y, and are integrated in closed
    form, their analytic continuation where the integral diverges; on a
    removable pole sin(pi s) / (pi (2s + j)) is cos(pi s) / 2.  The rest
    is cut where it has fallen by e^-40.
    """
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        lead = 0
        while (2 * s + m - 2 + 2 * lead).real <= 1.0:
            lead += 1
        coeffs = [mpmath.binomial(-m / 2.0, n) * mpmath.mpf(gamma) ** n
                  for n in range(lead)]

        def rest(y):
            tau = J * mpmath.exp(y)
            powers = sum(c * tau ** (-m - 2 * n) for n, c in enumerate(coeffs))
            return tau ** (2 - 2 * s) * ((gamma + tau ** 2) ** (-m / 2.0)
                                         - powers)

        def k_frac(j):
            if 2 * s + j == 0:
                return mpmath.cospi(s) / 2
            return mpmath.sinpi(s) / (mpmath.pi * (2 * s + j))

        value = mpmath.mpf(0)
        # at gamma = 0 the subtracted powers are the whole integrand
        if mpmath.sinpi(s) and (gamma or not lead):
            cut = 40 / (2 * s + m - 2 + 2 * lead).real
            value = mpmath.sinpi(s) / mpmath.pi * mpmath.quad(rest, [0, cut])
        for n, c in enumerate(coeffs):
            value += c * J ** (2 - 2 * s - m - 2 * n) * k_frac(m - 2 + 2 * n)
        return complex(value)


def test_restore_series_against_quadrature():
    # one subtracted term t^(-m) at a time; s = 0 and -1 sit on removable
    # poles, where the sine of a multiple of pi leaves rounding of the
    # term's size J^(2-2s-m)
    for m in range(1, 7):
        for gamma in (0.0, 1e-8, 0.3, 2.0, 50.0):
            J = max(1.0, math.sqrt(2.0 * gamma))
            for s in (0.75, -0.3, 0.0, -1.0, complex(0.6, 2.0)):
                s = complex(s)
                got = _restored(s, gamma, J, [[(m, 1.0)]])[0]
                want = restored_reference(s, gamma, J, m)
                assert cmath.isfinite(want)
                size = J ** (2.0 - 2.0 * s.real - m)
                assert abs(got - want) <= (1e-12 * abs(want)
                                           + 1e-16 * size), (m, gamma, s)


def test_zeta_at_small_gamma_on_a_bump_chain():
    # zeta(0.75, gamma) of the height-3 bump chain falls by about 0.36 gamma
    graph, mc = make_chain(bump=BUMP)
    tol = 1e-9
    at_zero = zeta_total(graph, mc, 0.75, 0.0, tol=tol).value.real
    for gamma in (1e-8, 1e-7, 1e-6, 1e-4, 1e-3):
        ev = zeta_total(graph, mc, 0.75, gamma, tol=tol)
        assert ev.quadrature_error <= tol
        assert 0.0 < at_zero - ev.value.real < gamma


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


def test_zeta_refuses_non_finite_gamma():
    graph, mc = make_star(1.0)
    for gamma in (math.nan, math.inf):
        for call in (lambda: zeta_dir_bond(graph.bonds[0], 0.75, gamma),
                     lambda: zeta_im(graph, mc, 0.75, gamma),
                     lambda: zeta_total(graph, mc, 0.75, gamma)):
            with pytest.raises(UnsupportedError, match="finite"):
                call()


def test_zeta_refuses_non_finite_s():
    graph, mc = make_star(1.0)
    for s in (complex(0.75, math.inf), complex(0.75, math.nan),
              complex(math.nan, 0.0), complex(math.inf, 0.0)):
        for call in (lambda: zeta_dir_bond(graph.bonds[0], s),
                     lambda: zeta_im(graph, mc, s),
                     lambda: zeta_total(graph, mc, s)):
            with pytest.raises(UnsupportedError, match="s must be finite"):
                call()


def test_zeta_refuses_tolerance_outside_range():
    graph, mc = make_star(1.0)
    for tol in (math.nan, -1.0, 0.0, math.inf):
        for call in (lambda: zeta_dir_bond(graph.bonds[0], 0.75, tol=tol),
                     lambda: zeta_im(graph, mc, 0.75, tol=tol),
                     lambda: zeta_total(graph, mc, 0.75, tol=tol),
                     lambda: minus_half_data(graph, mc, tol=tol)):
            with pytest.raises(UnsupportedError, match="tol"):
                call()


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


# ---------------------------------------------------------------------------
# the rotated-axis integral driver


@pytest.mark.parametrize("s", [0.6, 0.9, complex(0.75, 0.5)],
                         ids=["0.6", "0.9", "0.75+0.5i"])
def test_integral_gamma_function(s):
    # integral_0^inf tau^(1-2s) e^-tau dtau = Gamma(2 - 2s); the complex s
    # packs the real and imaginary parts into separate columns
    complex_path = isinstance(s, complex)
    value, error, nodes = integral(lambda tau: np.exp(-tau), s, 1e-9,
                                   complex_path)
    exact = complex(gamma_fn(2.0 - 2.0 * complex(s)))
    assert abs(value[0] - exact) <= error[0]
    assert error[0] < 1e-9
    assert nodes > 0
    if not complex_path:
        assert np.isrealobj(value)


def test_integral_power_law_tails_and_columns():
    # integral_0^inf tau^(1-2s) (1 + tau^2)^-n dtau, n = 3 and 1, as two
    # columns on the same nodes: Gamma(1 - s) Gamma(2 + s) / 4 with a
    # tau^-6 tail, and pi / (2 sin(pi (1 - s))) with a tau^-2 tail, whose
    # cut remainder dominates its error
    s = 0.75

    def g(tau):
        col = 1.0 / (1.0 + tau * tau)
        return np.stack((col ** 3, col), axis=-1)

    value, error, _ = integral(g, s, 1e-9)
    exact = (gamma_fn(1.0 - s) * gamma_fn(2.0 + s) / 4.0,
             math.pi / (2.0 * math.sin(math.pi * (1.0 - s))))
    assert abs(value[0] - exact[0]) <= error[0] < 1e-9
    assert abs(value[1] - exact[1]) <= error[1]


def test_integral_refuses_non_integrable_integrand():
    # tau^-2 at 0 with unit weight has no integral; the driver gives up
    # after a few rounds instead of refining towards tau = 0
    nodes = []

    def g(tau):
        nodes.append(len(tau))
        return np.exp(-tau) / (tau * tau)

    with pytest.raises(NumericalError, match="tau="):
        integral(g, 0.5, 1e-10)
    assert sum(nodes) < 1000


# Zero modes: F(it) vanishes as t -> 0, and the rotated-axis integrals do
# not exist.  Each call fails typed, whether the probe at the bottom of
# the ray sees it, the integral stops converging or a node hits a zero of
# the secular determinant.
ZERO_MODE_GRAPHS = {
    "neumann_star_123": lambda: make_star(0.0, lengths=(1.0, 2.0, 3.0),
                                          leaf="neumann"),
    "circle_a0": lambda: make_circle(1.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(ZERO_MODE_GRAPHS))
@pytest.mark.parametrize("call", ["zeta", "energy", "force"])
def test_zero_mode_graphs_fail_typed(name, call):
    graph, mc = ZERO_MODE_GRAPHS[name]()
    run = {"zeta": lambda: zeta_total(graph, mc, 0.75),
           "energy": lambda: vacuum_energy(graph, mc),
           "force": lambda: casimir_force(graph, mc, 1)}[call]
    with pytest.raises(NumericalError, match="t="):
        run()


def test_equal_length_neumann_star_zeta_fails_typed(tmp_path):
    graph, mc = make_star(0.0, leaf="neumann")
    with pytest.raises(NumericalError, match="tau="):
        zeta_total(graph, mc, 0.75)
    path = tmp_path / "star.json"
    path.write_text(json.dumps({
        "vertices": 4,
        "bonds": [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": 1.0}
                  for i in range(3)],
        "matching": {"mode": "per_vertex", "vertices": (
            [{"vertex": 1, "kind": "delta", "lambda": 0.0}]
            + [{"vertex": i + 2, "kind": "neumann"} for i in range(3)])}}))
    assert main(["zeta", "--graph", str(path), "--s", "0.75"]) == 3


# Nodes of zeta_total at s = 0.75, gamma = 0.5 on the benchmark's delta(1)
# star and flux circle, as recorded in CHANGES.md; a driver that loses the
# batching or the shared columns needs many more.
NODE_COUNTS = {"star_delta": 75, "circle_flux": 75}


@pytest.mark.parametrize("name", sorted(NODE_COUNTS))
def test_zeta_total_node_count(name):
    graph, mc = {"star_delta": lambda: make_star(1.0),
                 "circle_flux": lambda: make_circle(1.0, 0.5)}[name]()
    ev = zeta_total(graph, mc, 0.75, 0.5)
    assert 0 < ev.nodes <= 1.1 * NODE_COUNTS[name]


def spy_integrand(monkeypatch):
    """The node counts of each call of the integrand of zeta.integral."""
    calls = []

    def spied(g, *args):
        def counted(tau):
            calls.append(len(tau))
            return g(tau)
        return integral(counted, *args)

    monkeypatch.setattr(zeta_module, "integral", spied)
    return calls


def test_cut_tail_enters_as_two_halves_from_four_octaves(monkeypatch):
    # the unit interval's tail is cut at k >= 4: one call for the probes
    # and the head's first nodes (12 + 21), then one for both halves of
    # the tail, which meet the target without a further round
    calls = spy_integrand(monkeypatch)
    ev = zeta_total(*make_interval(1.0), 0.75)
    assert calls == [33, 42] and ev.nodes == 75
    # a long bond's tail is cut at k <= 3 and enters as one interval
    del calls[:]
    ev = zeta_total(*make_interval(10.0), 0.75)
    assert sum(calls) == ev.nodes == 96


@pytest.mark.parametrize("gamma", [1e200, 1e300])
def test_zeta_at_unrepresentable_gamma_fails_typed(gamma):
    # J^(2-2s) with J = sqrt(2 gamma) overflows at s = -0.9
    graph, mc = make_interval(1.0)
    with pytest.raises(NumericalError, match=re.escape(f"gamma={gamma:g}")):
        zeta_total(graph, mc, -0.9, gamma)
    with pytest.raises(NumericalError, match=re.escape(f"gamma={gamma:g}")):
        zeta_dir_bond(graph.bonds[0], -0.9, gamma)

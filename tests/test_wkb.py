import importlib
import math
import pkgutil

import numpy as np
import pytest
import sympy as sp

from conftest import make_bump_interval, make_interval
import graphzeta
from graphzeta import (d_constant, interval, replace_bond_length,
                       u_log_expansion, wkb_coefficients)
from graphzeta.secular import checked_asymptotics
from graphzeta.wkb import CACHE_SIZE


class _SymbolicPotential:
    """Feeds derivative symbols v0..v3 through the coefficient table."""

    def __init__(self, symbols):
        self.symbols = symbols

    def value(self, x, order=0):
        return self.symbols[order]


class _SymbolicBond:
    def __init__(self, symbols):
        self.potential = _SymbolicPotential(symbols)
        self.length = 1.0

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


def riccati_recursion(n=4):
    """s_j from S' + S^2 = V + t^2 with S = -t + sum_j s_j(x) t^-j."""
    x, t = sp.symbols("x t")
    V = sp.Function("V")
    funcs = [sp.Function(f"s{j}")(x) for j in range(1, n + 1)]
    S = -t + sum(f / t ** j for j, f in zip(range(1, n + 1), funcs))
    expr = sp.expand(sp.diff(S, x) + S ** 2 - V(x) - t ** 2)
    sols = {}
    for j in range(1, n + 1):
        c = expr.coeff(t, 1 - j)
        for f, sol in sols.items():
            c = c.subs(f, sol).doit()
        sols[funcs[j - 1]] = sp.expand(
            sp.solve(sp.Eq(c, 0), funcs[j - 1])[0])
    return x, V, [sols[f] for f in funcs]


def test_coefficient_table_matches_riccati_recursion():
    x, V, derived = riccati_recursion()
    v = sp.symbols("v0 v1 v2 v3")
    sub = {sp.Derivative(V(x), (x, k)): v[k] for k in range(3, 0, -1)}
    sub[V(x)] = v[0]
    table = wkb_coefficients(_SymbolicBond(v))
    assert len(table) == 4
    for want, got in zip(derived, table):
        assert sp.simplify(want.subs(sub) - got) == 0


def test_first_coefficients_closed_forms():
    x, V, derived = riccati_recursion(2)
    assert sp.simplify(derived[0] + V(x) / 2) == 0
    assert sp.simplify(derived[1] + sp.diff(V(x), x) / 4) == 0


def test_reverse_direction_flips_odd_derivatives():
    v = sp.symbols("v0 v1 v2 v3")
    fwd = wkb_coefficients(_SymbolicBond(v))
    # at the far end of the same data the outward derivative changes sign
    flipped = {v[1]: -v[1], v[3]: -v[3]}
    bond = _SymbolicBond(v)
    rev = wkb_coefficients(bond, reverse=True)
    # reverse evaluates at x = L; with symbols the site is invisible, only
    # the sign convention on odd orders remains
    for f, r in zip(fwd, rev):
        assert sp.simplify(f.subs(flipped, simultaneous=True) - r) == 0


def test_bump_has_vanishing_endpoint_data():
    bond = make_bump_interval()[0].bonds[0]
    assert wkb_coefficients(bond) == (0.0, 0.0, 0.0, 0.0)
    assert wkb_coefficients(bond, reverse=True) == (0.0, 0.0, 0.0, 0.0)


def test_u_log_expansion_leading_term_is_d_constant():
    bond = make_bump_interval(height=3.0)[0].bonds[0]
    ej = u_log_expansion(bond)
    assert ej[1] == pytest.approx(d_constant(bond), abs=1e-14)
    # interior bump leaves no endpoint contributions
    assert ej[2] == 0.0
    assert ej[3] == pytest.approx(-bond.potential.square_integral(1.0) / 8.0,
                                  abs=1e-14)


def test_u_log_expansion_constant_potential():
    bond = make_interval(2.0, potential={"kind": "constant", "value": 3.0})[0].bonds[0]
    ej = u_log_expansion(bond)
    assert ej[1] == pytest.approx(3.0, abs=1e-14)          # c L / 2
    assert ej[2] == pytest.approx(-1.5, abs=1e-14)         # -(V(0)+V(L))/4
    assert ej[3] == pytest.approx(-9.0 * 2.0 / 8.0, abs=1e-14)


def test_d_constant_quadrature():
    bond = make_bump_interval(height=3.0)[0].bonds[0]
    # d_b = half the area under the bump
    assert d_constant(bond) == pytest.approx(
        0.5 * bond.potential.integral(1.0), abs=1e-15)
    assert d_constant(make_interval(1.0)[0].bonds[0]) == 0.0


def test_large_t_solution_approaches_wkb_slope():
    bond = make_interval(1.0, potential={"kind": "constant", "value": 2.0})[0].bonds[0]
    from graphzeta.interval import bond_solution
    t = 200.0
    sol = bond_solution(bond, np.array([t]))
    s = wkb_coefficients(bond)
    model = -t + sum(sj * t ** (-j) for j, sj in enumerate(s, start=1))
    assert sol.f_prime_at_0[0] == pytest.approx(model, abs=1e-7)


def functools_caches():
    """Every functools cache defined in a graphzeta module, by name."""
    caches = {}
    for info in pkgutil.iter_modules(graphzeta.__path__):
        module = importlib.import_module(f"graphzeta.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                caches[f"{info.name}.{name}"] = value
    return caches


def test_caches_stay_bounded():
    # every distinct bond is a new key; the caches must not keep them all.
    # Only the rule of _gauss_legendre, which takes no argument, may be
    # unbounded
    caches = functools_caches()
    assert {"wkb.u_log_expansion", "wkb.wkb_coefficients",
            "interval._bump_layout"} <= set(caches)
    for name, cached in caches.items():
        if name != "potentials._gauss_legendre":
            assert cached.cache_info().maxsize == CACHE_SIZE, name
    for i in range(CACHE_SIZE + 20):
        bond = make_bump_interval(L=1.0 + 1e-3 * i)[0].bonds[0]
        u_log_expansion(bond)
        wkb_coefficients(bond)
        wkb_coefficients(bond, reverse=True)
        interval._gauss_layout(bond, interval.PER_WIDTH)
    for name, cached in caches.items():
        assert cached.cache_info().currsize <= CACHE_SIZE, name


def test_setup_record_stays_bounded():
    # one matching pair under many graphs, as a length sweep makes, and
    # one graph under many gamma: the set-up memoised on the pair keeps at
    # most CACHE_SIZE of each
    graph, mc = make_interval(1.0)
    for i in range(CACHE_SIZE + 20):
        checked_asymptotics(graph, mc, 0.01 * (i + 1))
    assert len(mc.setups[graph][1]) == CACHE_SIZE
    for i in range(CACHE_SIZE + 20):
        checked_asymptotics(replace_bond_length(graph, 1, 1.1 + 1e-3 * i),
                            mc)
    assert len(mc.setups) == CACHE_SIZE and graph not in mc.setups

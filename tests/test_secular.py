import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (BUMP, from_doc, make_bump_interval, make_chain,
                      make_circle, make_interval, make_star)
import graphzeta.interval as interval
import graphzeta.oracle as oracle
import graphzeta.secular as secular
import graphzeta.zeta as zeta_module
from graphzeta import (F_imag, NumericalError, asymptotic_F_coefficients,
                       casimir_force, eigenvalue_count, replace_bond_length,
                       vacuum_energy, zeta_total)
from graphzeta.interval import bond_solution, dirichlet_subtracted_derivative
from graphzeta.secular import (bond_solutions, checked_asymptotics,
                               dlogF_dL_imag, logF_imag, logF_slope_imag)

OFF_CENTRE = {**BUMP, "center": 0.35, "half_width": 0.2}


def test_interval_singular_exactly_at_eigenvalues():
    # the bordered vertex matrix M(E) of the eigenvalue count, 2 x 2 on the
    # interval with a Neumann end, is singular exactly at the roots k =
    # (j - 1/2) pi and not between them, at k = 2 pi on the pole of Q
    graph, mc = make_interval(1.0, kinds=("neumann", "dirichlet"))
    ks = np.array([0.5, 1.5, 2.0, 2.5]) * math.pi
    lam = np.abs(oracle._vertex_form(graph, oracle._vertex_basis(graph, mc),
                                     ks * ks).lam).min(axis=1)
    assert lam[0] < 1e-12 and lam[1] < 1e-12 and lam[3] < 1e-12
    assert lam[2] > 0.5


def test_real_matrices_memory_does_not_grow_with_segment_count():
    # the eigenvalue count on the grid of the bump chain's scan to
    # k = 215; the maps and their Pruefer angles are held a block of
    # segments at a time, so height 100 (901 segments) needs no more
    # than height 0.3 (150), with the layouts memoised or not
    Es = np.linspace(0.0, 215.0, 822) ** 2
    for warm in (False, True):
        peaks = []
        for height in (0.3, 100.0):
            graph, mc = make_bump_interval(height=height)
            if warm:
                interval._gauss_layout(graph.bonds[0], interval.PER_WIDTH)
            else:
                interval._bump_layout.cache_clear()
            tracemalloc.start()
            try:
                eigenvalue_count(graph, mc, Es)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], warm


def test_F_imag_positive_secular_function():
    # the secular function comes out normalized by the bond solutions, so
    # on the Dirichlet interval it is exactly 1 and on the Neumann
    # interval exactly t^2; positivity shows up as a vanishing phase
    graph, mc = make_interval(1.0)
    for t in (0.5, 1.0, 3.0, 10.0):
        sv = F_imag(graph, mc, t)
        assert abs(sv.log_abs) < 1e-12
        assert abs(math.sin(sv.phase)) < 1e-10
    graph, mc = make_interval(1.0, kinds=("neumann", "neumann"))
    for t in (0.5, 1.0, 3.0, 10.0):
        sv = F_imag(graph, mc, t)
        assert sv.log_abs == pytest.approx(2.0 * math.log(t), abs=1e-10)
        assert abs(math.sin(sv.phase)) < 1e-10


def test_asymptotics_exact_polynomial_for_delta_star():
    lam = 2.5
    graph, mc = make_star(lam)
    data = asymptotic_F_coefficients(graph, mc)
    assert data.exact
    assert data.leading_power == 5
    # F(it) ~ c t^(2B-N) exp(a1/t + ...) with a1 = lam / B here
    assert data.log_coeffs[0] == pytest.approx(lam / 3.0, abs=1e-12)
    assert data.residue_at_minus_half == pytest.approx(lam / (6 * math.pi),
                                                       abs=1e-12)


def test_asymptotics_kirchhoff_star_has_no_log_corrections():
    graph, mc = make_star(0.0)
    data = asymptotic_F_coefficients(graph, mc)
    assert data.exact
    assert data.log_coeffs == (0.0, 0.0, 0.0, 0.0)
    assert data.residue_at_minus_half == 0.0


def test_asymptotics_selfcheck_accepts_bump_chain():
    graph, mc = make_chain((1.0, 1.0, 1.0), bump=BUMP)
    data = asymptotic_F_coefficients(graph, mc, check=True)
    assert not math.isinf(data.gap) or data.exact


def test_asymptotics_neumann_interval():
    import json

    from graphzeta import parse_graph
    doc = {
        "vertices": 2,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
        "matching": {"mode": "global", "A": [[0, 0], [0, 0]],
                     "B": [[1, 0], [0, 1]]},
    }
    graph, mc = parse_graph(json.dumps(doc))
    data = asymptotic_F_coefficients(graph, mc)
    assert data.exact
    assert data.leading_power == 0


def test_asymptotics_rejects_degenerate_conditions():
    import json

    from graphzeta import parse_graph
    doc = {
        "vertices": 2,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
        "matching": {"mode": "global", "A": [[0, 0], [0, 0]],
                     "B": [[1, 0], [0, 0]]},
    }
    graph, mc = parse_graph(json.dumps(doc), validate=False)
    with pytest.raises(NumericalError, match="degenerate"):
        asymptotic_F_coefficients(graph, mc, check=False)


def test_length_derivative_of_log_F():
    # normalization makes log F length-independent on a single bond, so
    # the derivative must vanish identically there; elsewhere the closed
    # form must reproduce a central difference of log F itself: the
    # unequal star moves a bond unlike its neighbours, the off-centre bump
    # needs the L-end field and the flux circle the phase terms
    graph, mc = make_interval(1.0)
    got = dlogF_dL_imag(graph, mc, 1, np.array([0.8, 2.5, 12.0]))
    assert np.all(np.abs(got) <= 1e-12)

    h = 1e-6
    cases = ((make_star(1.0), 2),
             (make_star(1.0, lengths=(1.0, 1.7, 0.6)), 2),
             (make_chain(bump=OFF_CENTRE), 2),
             (make_circle(1.0, 0.5), 1))
    for (graph, mc), bond in cases:
        L = graph.bond_by_id(bond).length
        ts = np.array([0.8, 1.7, 5.0])
        for t, got in zip(ts, dlogF_dL_imag(graph, mc, bond, ts)):
            plus = F_imag(replace_bond_length(graph, bond, L + h), mc, t)
            minus = F_imag(replace_bond_length(graph, bond, L - h), mc, t)
            fd_re = (plus.log_abs - minus.log_abs) / (2.0 * h)
            fd_im = math.remainder(plus.phase - minus.phase,
                                   2.0 * math.pi) / (2.0 * h)
            assert got.real == pytest.approx(fd_re, abs=1e-6)
            assert got.imag == pytest.approx(fd_im, abs=1e-10)


def test_batched_kernels_match_single_nodes():
    # One t-array across every masked branch: x = t L below 1e-8, below
    # 0.15 and above 350 on the free and constant bonds, log u >= 690
    # where M drops the off-diagonal entries, and the series and closed
    # branches of the sweep on an off-centre bump, whose two ends differ;
    # bond 2 carries a flux.  Every node of the batch must equal
    # the call on that node alone, without a RuntimeWarning.
    graph, mc = from_doc({
        "vertices": 4,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0,
                   "potential": OFF_CENTRE},
                  {"id": 2, "origin": 2, "terminus": 3, "length": 1.3,
                   "vector_potential": 0.7},
                  {"id": 3, "origin": 3, "terminus": 4, "length": 0.8,
                   "potential": {"kind": "constant", "value": 2.0}}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "dirichlet"},
            {"vertex": 2, "kind": "delta", "lambda": 0.5},
            {"vertex": 3, "kind": "delta", "lambda": 0.0},
            {"vertex": 4, "kind": "dirichlet"}]}})
    t = np.array([1e-9, 0.1, 0.8, 5.0, 60.0, 400.0, 1000.0])

    def same(batch, one, i):
        batch, one = np.asarray(batch)[i], np.asarray(one)[0]
        assert abs(batch - one) <= 1e-15 * abs(one), (i, batch, one)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sols = bond_solutions(graph, t)
        assert not np.array_equal(sols[0].f_prime_at_0, sols[0].f_prime_at_L)
        kernels = [lambda x, s: logF_imag(graph, mc, x, s)[0],
                   lambda x, s: logF_imag(graph, mc, x, s)[1],
                   lambda x, s: logF_slope_imag(graph, mc, x, s)]
        kernels += [lambda x, s, b=b: dlogF_dL_imag(graph, mc, b, x, s)
                    for b in (1, 2, 3)]
        batched = [k(t, sols) for k in kernels]
        for i in range(len(t)):
            node = t[i:i + 1]
            one = bond_solutions(graph, node)
            for sol, sol1 in zip(sols, one):
                for field, field1 in zip(sol, sol1):
                    same(field, field1, i)
            for k, full in zip(kernels, batched):
                same(full, k(node, one), i)
            for bond in graph.bonds:
                sol = bond_solution(bond, node)
                same(dirichlet_subtracted_derivative(bond, t),
                     dirichlet_subtracted_derivative(bond, node, sol), i)
                same(bond_solution(bond, t).log_u_excess,
                     sol.log_u_excess, i)


def spy(monkeypatch, module, name):
    """The bond ids of every call of module.name, a solve per bond."""
    ids = []
    real = getattr(module, name)

    def spied(bond, *args, **kwargs):
        ids.append(bond.id)
        return real(bond, *args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    return ids


@pytest.mark.parametrize("star, solves", [
    ({}, 1),
    ({"lengths": (1.0, 1.3, 0.8)}, 3),
    ({"potentials": [(1, BUMP)]}, 2),
    ({"potentials": [(1, OFF_CENTRE)]}, 2),
    ({"fluxes": [(2, 0.7)]}, 1),
], ids=["equal", "unequal", "bump_on_one", "off_centre_bump_on_one",
        "flux_on_one"])
def test_one_solve_per_distinct_bond(monkeypatch, star, solves):
    # bonds that share (length, potential) share one solve on both axes,
    # which gives both ends of the bond, an off-centre bump's included;
    # the flux enters only in assembly.  The shared results are bitwise
    # those of a bond-by-bond solve.
    graph, mc = make_star(1.0, **star)
    t = np.array([0.01, 0.7, 3.0, 40.0, 2000.0])
    Es = np.linspace(0.1, 30.0, 9) ** 2
    solved = spy(monkeypatch, secular, "bond_solution")
    swept = spy(monkeypatch, oracle, "_real_sweep")
    for derivative in (True, False):
        del solved[:]
        sols = bond_solutions(graph, t, derivative=derivative)
        assert len(solved) == solves
        for bond, sol in zip(graph.bonds, sols):
            one = bond_solution(bond, t, derivative=derivative)
            for got, want in zip(sol, one):
                assert (got is None and want is None
                        or np.array_equal(got, want))
    eigenvalue_count(graph, mc, Es)
    assert len(swept) == solves


def test_off_centre_bump_is_swept_once(monkeypatch):
    # one sweep from x = 0 gives both ends of an off-centre bump bond, on
    # both passes; the free bonds of the chain take the closed forms
    graph, _ = make_chain(bump=OFF_CENTRE)
    sweeps = []
    sweep = interval._sweep

    def spied(e, de, h, K, step, block, t):
        sweeps.append(step is not None)
        return sweep(e, de, h, K, step, block, t)

    monkeypatch.setattr(interval, "_sweep", spied)
    t = np.array([0.01, 0.7, 3.0, 40.0, 2000.0])
    for derivative in (True, False):
        del sweeps[:]
        bond_solutions(graph, t, derivative=derivative)
        assert sweeps == [derivative]


def test_zeta_integrand_solves_and_subtracts_an_equal_star_once(monkeypatch):
    # every bond solve and Dirichlet column of zeta_total on the
    # equal-length star goes to its first bond
    graph, mc = make_star(1.0)
    solved = spy(monkeypatch, secular, "bond_solution")
    columns = spy(monkeypatch, zeta_module, "dirichlet_subtracted_derivative")
    ev = zeta_total(graph, mc, 0.75, 0.5)
    assert set(solved) == set(columns) == {1}
    assert ev.nodes > 0


def count_setups(monkeypatch):
    """The FFT fits and the node counts of the logF_imag calls that the
    set-up of the zeta, energy and force calls makes."""
    fits, evaluations = [], []
    fit, evaluate = secular._fft_poly_coefficients, secular.logF_imag

    def counted_fit(*args):
        fits.append(1)
        return fit(*args)

    def counted_evaluate(graph, mc, t, sols=None):
        evaluations.append(len(t))
        return evaluate(graph, mc, t, sols)

    monkeypatch.setattr(secular, "_fft_poly_coefficients", counted_fit)
    monkeypatch.setattr(secular, "logF_imag", counted_evaluate)
    return fits, evaluations


def test_setup_runs_once_per_graph_and_matching(monkeypatch):
    # one fit and one evaluation of F at the probe and the three nodes of
    # the large-t check serve every zeta point of a pair; a new gamma adds
    # the one node of its probe, and a re-parsed pair starts over
    fits, evaluations = count_setups(monkeypatch)
    graph, mc = make_chain(bump={**BUMP, "height": 0.3})
    for gamma in (0.5, 1.0):
        for s in (0.6, 0.75, 0.9):
            zeta_total(graph, mc, s, gamma)
    assert (len(fits), evaluations) == (1, [4, 1])
    del fits[:], evaluations[:]
    graph, mc = make_chain(bump={**BUMP, "height": 0.3})
    vacuum_energy(graph, mc)
    casimir_force(graph, mc, 2)
    assert (len(fits), evaluations) == (1, [4])
    vacuum_energy(*make_chain(bump={**BUMP, "height": 0.3}))
    assert (len(fits), evaluations) == (2, [4, 4])


def test_setup_hit_and_miss_agree_bitwise():
    # the memoised set-up returns the miss's data, and the calls read from
    # it are bitwise those of a cold pair
    graph, mc = make_star(1.0, lengths=(1.0, 1.3, 0.8),
                          potentials=[(1, BUMP)])
    cold = checked_asymptotics(graph, mc, 0.5)
    assert checked_asymptotics(graph, mc, 0.5) is cold
    assert checked_asymptotics(graph, mc, 0.0) is cold
    assert cold == asymptotic_F_coefficients(graph, mc)
    first = zeta_total(graph, mc, 0.75, 0.5)
    assert zeta_total(graph, mc, 0.75, 0.5) == first
    assert zeta_total(*make_star(1.0, lengths=(1.0, 1.3, 0.8),
                                 potentials=[(1, BUMP)]), 0.75, 0.5) == first
    energy = vacuum_energy(graph, mc)
    assert vacuum_energy(graph, mc) == energy


def test_setup_probe_refuses_a_zero_mode_on_a_hit():
    # the Neumann-leaf star has a zero mode: F vanishes at the bottom of
    # the gamma = 0 ray, while gamma = 0.5 is clear of it; the order of
    # the calls does not change either answer
    graph, mc = make_star(0.0, lengths=(1.0, 2.0, 3.0), leaf="neumann")
    for gamma in (0.5, 0.0, 0.5, 0.0):
        if gamma:
            checked_asymptotics(graph, mc, gamma)
        else:
            with pytest.raises(NumericalError, match="numerically zero"):
                checked_asymptotics(graph, mc, gamma)
    assert len(mc.setups[graph][1]) == 2

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (BUMP, from_doc, make_bump_interval, make_chain,
                      make_circle, make_interval, make_star)
import graphzeta.interval as interval
import graphzeta.secular as secular
import graphzeta.zeta as zeta_module
from graphzeta import (F_imag, NumericalError, asymptotic_F_coefficients,
                       eigenvalue_count, replace_bond_length, zeta_total)
from graphzeta.interval import (bond_solution, dirichlet_subtracted_derivative,
                                transfer_matrices_real)
from graphzeta.secular import (_assemble_real, bond_solutions, dlogF_dL_imag,
                               logF_imag, logF_slope_imag,
                               secular_matrices_real)

OFF_CENTRE = {**BUMP, "center": 0.35, "half_width": 0.2}


def test_interval_singular_exactly_at_eigenvalues():
    graph, mc = make_interval(1.0)
    ks = np.array([math.pi, 2 * math.pi, 2.5 * math.pi, 3 * math.pi])
    S = secular_matrices_real(graph, mc, ks * ks)
    sv = np.linalg.svd(S, compute_uv=False)[:, -1]
    assert sv[0] < 1e-10 and sv[1] < 1e-10 and sv[3] < 1e-10
    assert sv[2] > 0.05


def test_circle_flux_shifts_the_spectrum():
    graph, mc = make_circle(1.0, A=1.0)
    S = secular_matrices_real(graph, mc,
                              np.array([1.0, 2.0, 2 * math.pi - 1.0]) ** 2)
    sv = np.linalg.svd(S, compute_uv=False)[:, -1]
    assert sv[0] < 1e-9 and sv[2] < 1e-9
    assert sv[1] > 1e-2


def test_secular_matrix_shape_and_locality():
    graph, mc = make_star(1.0)
    S = secular_matrices_real(graph, mc, np.array([1.69]))
    assert S.shape == (1, 6, 6)


def test_real_matrix_derivative_assembly():
    # bumps with different supports on two bonds, and a flux whose phase
    # multiplies the middle bond's blocks
    graph, mc = from_doc({
        "vertices": 4,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0,
                   "potential": BUMP},
                  {"id": 2, "origin": 2, "terminus": 3, "length": 1.3,
                   "vector_potential": 0.7},
                  {"id": 3, "origin": 3, "terminus": 4, "length": 0.8,
                   "potential": {"kind": "bump", "center": 0.3,
                                 "half_width": 0.2, "height": -2.0}}],
        "matching": {"mode": "per_vertex", "vertices": [
            {"vertex": 1, "kind": "dirichlet"},
            {"vertex": 2, "kind": "delta", "lambda": 0.5},
            {"vertex": 3, "kind": "delta", "lambda": 0.0},
            {"vertex": 4, "kind": "neumann"}]}})
    Es = np.linspace(0.0, 40.0, 7) ** 2
    S, dS = secular_matrices_real(graph, mc, Es, derivative=True)
    assert np.array_equal(S, secular_matrices_real(graph, mc, Es))
    h = 1e-4
    diff = (secular_matrices_real(graph, mc, Es + h)
            - secular_matrices_real(graph, mc, Es - h))
    diff /= 2 * h
    assert np.max(np.abs(dS - diff)) < 1e-7 * np.max(np.abs(dS))


def test_real_matrices_are_float64_unless_a_flux_or_complex_matching():
    # one predicate picks the dtype on both axes: without a flux and with
    # real matching S and dS/dE are float64 and the scan runs real LAPACK;
    # a flux on any one bond, or complex matching, keeps complex128
    Es = np.linspace(0.0, 40.0, 5) ** 2

    def dtypes(graph, mc):
        S = secular_matrices_real(graph, mc, Es)
        pair = secular_matrices_real(graph, mc, Es, derivative=True)
        return {S.dtype, pair[0].dtype, pair[1].dtype}

    for graph, mc in (make_chain(bump=BUMP), make_star(1.0),
                      make_interval(1.0, kinds=("neumann", "dirichlet"))):
        assert dtypes(graph, mc) == {np.dtype(np.float64)}
    for b in range(3):
        doc = {"vertices": 4,
               "bonds": [{"id": i + 1, "origin": i + 1, "terminus": i + 2,
                          "length": 1.0, "potential": BUMP,
                          "vector_potential": 0.7 if i == b else 0.0}
                         for i in range(3)],
               "matching": {"mode": "per_vertex", "vertices": [
                   {"vertex": 1, "kind": "dirichlet"},
                   {"vertex": 2, "kind": "delta", "lambda": 0.5},
                   {"vertex": 3, "kind": "delta", "lambda": 0.0},
                   {"vertex": 4, "kind": "dirichlet"}]}}
        assert dtypes(*from_doc(doc)) == {np.dtype(np.complex128)}
    # Dirichlet ends, one of them written with the factor i
    graph, mc = from_doc({
        "vertices": 2,
        "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
        "matching": {"mode": "global", "A": [[1, 0], [0, [0, 1]]],
                     "B": [[0, 0], [0, 0]]}})
    assert dtypes(graph, mc) == {np.dtype(np.complex128)}
    assert dtypes(*make_circle(1.0, A=1.0)) == {np.dtype(np.complex128)}


def test_real_matrices_memory_does_not_grow_with_segment_count():
    # the eigenvalue count on the grid of the bump chain's scan to
    # k = 215; the maps and their Pruefer angles are held a block of
    # segments at a time, so height 100 (1,800 segments) needs no more
    # than height 0.3 (300)
    Es = np.linspace(0.0, 215.0, 822) ** 2
    peaks = []
    for height in (0.3, 100.0):
        graph, mc = make_bump_interval(height=height)
        tracemalloc.start()
        try:
            eigenvalue_count(graph, mc, Es)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


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
    swept = spy(monkeypatch, secular, "transfer_matrices_real")
    for derivative in (True, False):
        del solved[:]
        sols = bond_solutions(graph, t, derivative=derivative)
        assert len(solved) == solves
        for bond, sol in zip(graph.bonds, sols):
            one = bond_solution(bond, t, derivative=derivative)
            for got, want in zip(sol, one):
                assert (got is None and want is None
                        or np.array_equal(got, want))
    S, dS = secular_matrices_real(graph, mc, Es, derivative=True)
    assert len(swept) == solves
    T, dT = zip(*(transfer_matrices_real(bond, Es, derivative=True)
                  for bond in graph.bonds))
    assert np.array_equal(S, _assemble_real(graph, mc, T, len(Es)))
    assert np.array_equal(dS, _assemble_real(graph, mc, dT, len(Es),
                                             unit=0.0))


def test_off_centre_bump_is_swept_once(monkeypatch):
    # one sweep from x = 0 gives both ends of an off-centre bump bond, on
    # both passes; the free bonds of the chain take the closed forms
    graph, _ = make_chain(bump=OFF_CENTRE)
    sweeps = []
    sweep = interval._sweep

    def spied(e, de, w, V1, V2, step, block, t):
        sweeps.append(step is not None)
        return sweep(e, de, w, V1, V2, step, block, t)

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

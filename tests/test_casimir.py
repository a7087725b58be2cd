import math

import pytest

from conftest import (BUMP, make_bump_interval, make_chain, make_interval,
                      make_star)
from graphzeta import (UnsupportedError, casimir_force,
                       energy_finite_difference, mu_sensitivity,
                       vacuum_energy)


def test_vacuum_energy_interval():
    res = vacuum_energy(*make_interval(1.0))
    assert res.fp_half == pytest.approx(-math.pi / 24.0, abs=1e-11)
    assert res.res_half == pytest.approx(0.0, abs=1e-12)
    assert res.finite_energy_at_mu == pytest.approx(res.fp_half, abs=1e-12)
    assert res.ambiguous is False


def test_vacuum_energy_scale_dependence():
    graph, mc = make_star(1.0)
    r1 = vacuum_energy(graph, mc, mu=1.0)
    r2 = vacuum_energy(graph, mc, mu=2.0)
    assert r1.ambiguous and r2.ambiguous
    assert r1.res_half == pytest.approx(1.0 / (12 * math.pi), abs=1e-11)
    shift = r2.finite_energy_at_mu - r1.finite_energy_at_mu
    assert shift == pytest.approx(r1.res_half * math.log(4.0), rel=1e-10)
    with pytest.raises(UnsupportedError):
        vacuum_energy(graph, mc, mu=0.0)


def test_force_free_interval_closed_form():
    res = casimir_force(*make_interval(1.0), 1)
    assert res.force == pytest.approx(-math.pi / 24.0, abs=1e-10)
    assert abs(res.force + math.pi / 24.0) <= res.error_estimate
    assert res.interaction_part == pytest.approx(0.0, abs=1e-10)
    res2 = casimir_force(*make_interval(2.0), 1)
    assert res2.force == pytest.approx(-math.pi / 96.0, abs=1e-10)
    assert abs(res2.force + math.pi / 96.0) <= res2.error_estimate


def test_force_kirchhoff_star_closed_form():
    # scaling: E(L,..,L) = E(1,..,1)/L with E = -pi/16, and the three
    # partial derivatives are equal, so each bond feels -pi/(48 L^2)
    graph, mc = make_star(0.0)
    res = casimir_force(graph, mc, 1)
    assert res.force == pytest.approx(-math.pi / 48.0, abs=1e-9)
    assert abs(res.force + math.pi / 48.0) <= res.error_estimate


def test_force_equal_across_star_bonds():
    graph, mc = make_star(0.0)
    forces = [casimir_force(graph, mc, b).force for b in (1, 2, 3)]
    assert max(forces) - min(forces) < 1e-10


def test_force_against_energy_differences():
    graph, mc = make_star(0.0)
    force = casimir_force(graph, mc, 2).force
    fd = energy_finite_difference(graph, mc, 2)
    assert force == pytest.approx(fd, abs=1e-6)


def test_force_guards():
    graph, mc = make_interval(1.0, potential={"kind": "constant",
                                              "value": 2.0})
    with pytest.raises(UnsupportedError, match="compact"):
        casimir_force(graph, mc, 1)


def test_mu_sensitivity_vanishes_for_compact_support():
    for center in (0.35, 0.5, 0.65):
        graph, mc = make_bump_interval(center=center, half_width=0.2)
        assert abs(mu_sensitivity(graph, mc, 1)) < 1e-9


def test_mu_sensitivity_nonzero_for_delta_star():
    # moving one bond of the lam != 0 star changes nothing: the residue
    # lam/(6 pi) is length independent, so even here the drift vanishes
    graph, mc = make_star(1.0)
    assert abs(mu_sensitivity(graph, mc, 1)) < 1e-9


def test_energy_fd_refuses_noncompact():
    graph, mc = make_interval(1.0, potential={"kind": "constant",
                                              "value": 1.0})
    with pytest.raises(UnsupportedError):
        energy_finite_difference(graph, mc, 1)


def test_force_error_estimate_reported():
    res = casimir_force(*make_chain((1.0, 1.0, 1.0)), 2)
    assert res.error_estimate < 1e-6
    assert math.isfinite(res.force)
    assert res.force == pytest.approx(res.dirichlet_part
                                      + res.interaction_part, abs=1e-14)

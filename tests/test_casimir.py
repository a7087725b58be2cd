import math

import pytest

from conftest import (BUMP, make_bump_interval, make_chain, make_interval,
                      make_star)
from graphzeta import (F_imag, NumericalError, UnsupportedError,
                       asymptotic_F_coefficients, casimir_force,
                       energy_finite_difference, mu_sensitivity,
                       vacuum_energy, zeta_total)
from graphzeta import interval, secular


def test_vacuum_energy_interval():
    res = vacuum_energy(*make_interval(1.0))
    assert res.fp_half == pytest.approx(-math.pi / 24.0, abs=1e-11)
    assert res.res_half == pytest.approx(0.0, abs=1e-12)
    assert res.finite_energy_at_mu == pytest.approx(res.fp_half, abs=1e-12)
    assert res.ambiguous is False


def test_vacuum_energy_refuses_non_finite_mu():
    for mu in (math.nan, math.inf, 0.0):
        with pytest.raises(UnsupportedError, match="finite"):
            vacuum_energy(*make_interval(1.0), mu=mu)


def test_vacuum_energy_at_extreme_mu():
    # mu^2 underflows at 1e-200 and overflows at 1e200; the energy at mu
    # must not
    for mu in (1e-200, 1e200):
        res = vacuum_energy(*make_interval(1.0), mu=mu)
        assert math.isfinite(res.finite_energy_at_mu)
        assert res.finite_energy_at_mu == res.fp_half


def test_vacuum_energy_error_estimate_bounds_the_error():
    res = vacuum_energy(*make_interval(1.0))
    assert res.error_estimate > 0.0
    assert abs(res.fp_half + math.pi / 24.0) <= res.error_estimate


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


def test_mu_sensitivity_is_exactly_zero_on_compact_bonds():
    # compact at L and L - h, a bond's residues at L +- h come from the
    # same inputs: WKB end tables of zero and the same clipped integral of
    # V, so the difference is exactly 0.0, at the step energy differences
    # take as well as at the default
    cases = [make_bump_interval(center=c, half_width=0.2)
             for c in (0.35, 0.5, 0.65)]
    cases += [make_interval(1.3), make_star(1.0),
              make_star(0.0, lengths=(1.0, 1.3, 0.8)),
              make_chain(bump=BUMP), make_chain(bump=BUMP, bump_bond=0)]
    for graph, mc in cases:
        for bond in graph.bonds:
            if bond.potential.compact(bond.length):
                for h in (1e-4, 1e-4 / bond.length):
                    assert mu_sensitivity(graph, mc, bond.id, h) == 0.0


def test_mu_sensitivity_refuses_a_step_outside_zero_to_one():
    graph, mc = make_star(1.0)
    for h in (0.0, -1e-4, 1.0, 2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(UnsupportedError, match="0 < h < 1"):
            mu_sensitivity(graph, mc, 1, h)


def test_steps_that_move_the_bond_end_into_the_bump_exit_4():
    # the support 0.2..0.8 of the height-3 bump leaves the bond at
    # L - 0.3 L = 0.7: both differences refuse the step as unsupported,
    # before any length is replaced
    graph, mc = make_bump_interval()
    for call in (mu_sensitivity, energy_finite_difference):
        with pytest.raises(UnsupportedError) as err:
            call(graph, mc, 1, 0.3)
        assert err.value.exit_code == 4
        assert "0.7" in str(err.value), call.__name__


def test_energy_fd_refuses_a_step_outside_zero_to_l():
    graph, mc = make_star(1.0, lengths=(1.0, 0.5, 0.8))
    for h in (0.0, -1e-4, 0.5, 0.7, math.nan, math.inf, -math.inf):
        with pytest.raises(UnsupportedError, match="0 < h < L"):
            energy_finite_difference(graph, mc, 2, h)


def test_energy_fd_refuses_noncompact():
    graph, mc = make_interval(1.0, potential={"kind": "constant",
                                              "value": 1.0})
    with pytest.raises(UnsupportedError):
        energy_finite_difference(graph, mc, 1)


def test_energy_fd_refuses_a_bump_that_leaves_the_bond_at_l_minus_h():
    # support 0.2..0.8: compact at L = 0.80005, not at L - h = 0.79995
    graph, mc = make_bump_interval(0.80005)
    with pytest.raises(UnsupportedError, match="compactly supported"):
        energy_finite_difference(graph, mc, 1, h=1e-4)
    # inside at L - h, though not at L - 1.5 h: every length moves by h
    graph, mc = make_bump_interval(1.5, center=1.2, half_width=0.29987)
    fd = energy_finite_difference(graph, mc, 1, h=1e-4)
    assert abs(fd - casimir_force(graph, mc, 1).force) < 1e-4


def test_force_error_estimate_reported():
    res = casimir_force(*make_chain((1.0, 1.0, 1.0)), 2)
    assert res.error_estimate < 1e-6
    assert math.isfinite(res.force)
    assert res.force == pytest.approx(res.dirichlet_part
                                      + res.interaction_part, abs=1e-14)


def test_energy_and_force_run_no_complex_step(monkeypatch):
    # energy and force read only log F and log u, so no bump sweep of
    # theirs may pay for t-derivatives; zeta's h'(t)/t still needs them
    seen = []
    sweep = interval._sweep

    def spy(e, de, h, K, step, block, t):
        seen.append(step is not None)
        return sweep(e, de, h, K, step, block, t)

    monkeypatch.setattr(interval, "_sweep", spy)
    bump = {**BUMP, "height": 0.3}
    for graph, mc in (make_bump_interval(height=0.3), make_chain(bump=bump)):
        calls = {"energy": lambda: vacuum_energy(graph, mc),
                 "force": lambda: casimir_force(graph, mc, 1),
                 "F_imag": lambda: F_imag(graph, mc, 2.0),
                 "asymptotics": lambda: asymptotic_F_coefficients(graph, mc)}
        for name, call in calls.items():
            seen.clear()
            call()
            assert seen and not any(seen), name
        seen.clear()
        zeta_total(graph, mc, 0.75, 0.5)
        assert any(seen)


def test_force_checks_the_large_t_model(monkeypatch):
    # a fit off by a factor 2 in c_lead fails the large-t check; the force
    # shares the energy's set-up, so it raises the energy's error instead
    # of returning a number from a model it never checked
    fit = secular._fft_poly_coefficients
    monkeypatch.setattr(secular, "_fft_poly_coefficients",
                        lambda *args: 2.0 * fit(*args))
    raised = []
    for call in (vacuum_energy, lambda g, mc: casimir_force(g, mc, 2)):
        with pytest.raises(NumericalError, match="large-t asymptotics") as err:
            call(*make_chain(bump={**BUMP, "height": 0.3}))
        raised.append(str(err.value))
    assert raised[0] == raised[1]

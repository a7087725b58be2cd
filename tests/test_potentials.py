import math

import numpy as np
import pytest
from scipy.integrate import quad

from graphzeta import GraphFormatError, UnsupportedError, potential_from_dict
from graphzeta.potentials import BumpPotential, ConstantPotential


def test_zero_potential():
    p = potential_from_dict({"kind": "zero"})
    assert p == ConstantPotential(0.0)
    assert p.value(0.3) == 0.0
    assert np.all(p.value(np.linspace(0, 1, 5), 2) == 0.0)
    assert p.integral(2.0) == 0.0
    assert p.compact(1.0)
    assert potential_from_dict(p.to_dict()) == p


def test_constant_potential():
    p = ConstantPotential(c=3.5)
    assert p.value(0.1) == 3.5
    assert p.value(0.1, 1) == 0.0
    assert p.integral(2.0) == 7.0
    assert p.square_integral(2.0) == 3.5 ** 2 * 2.0
    assert not p.compact(1.0)
    assert p.minimum(1.0) == p.maximum(1.0) == 3.5
    assert potential_from_dict(p.to_dict()) == p


def test_bump_shape():
    p = BumpPotential(center=0.5, half_width=0.3, height=2.0)
    assert p.value(0.5) == pytest.approx(2.0)
    assert p.value(0.2) == 0.0 and p.value(0.8) == 0.0
    assert p.value(0.0) == 0.0
    assert p.compact(1.0)
    assert not p.compact(0.7)
    assert p.support(1.0) == (0.2, 0.8)
    xs = np.linspace(0.0, 1.0, 7)
    vals = p.value(xs)
    assert vals.shape == xs.shape
    assert np.all(vals >= 0.0)


def test_bump_derivatives_match_finite_differences():
    p = BumpPotential(center=0.5, half_width=0.3, height=2.0)
    h = 1e-5
    for x in (0.35, 0.5, 0.62, 0.74):
        for order in (1, 2, 3):
            fd = (p.value(x + h, order - 1) - p.value(x - h, order - 1)) / (2 * h)
            assert p.value(x, order) == pytest.approx(fd, rel=1e-6, abs=1e-4)
    with pytest.raises(UnsupportedError):
        p.value(0.5, 4)


def test_bump_vanishes_smoothly_at_support_edge():
    p = BumpPotential(center=0.5, half_width=0.3, height=2.0)
    for order in range(4):
        # all derivatives fade out towards the edge
        assert abs(p.value(0.7999, order)) < 1e-4
        assert p.value(0.81, order) == 0.0


def test_bump_integrals_against_quadrature():
    p = BumpPotential(center=0.5, half_width=0.3, height=3.0)

    def direct(x):
        y = (x - 0.5) / 0.3
        return 3.0 * math.exp(1.0 - 1.0 / (1.0 - y * y)) if abs(y) < 1 else 0.0

    ref, _ = quad(direct, 0.2, 0.8, limit=200)
    ref2, _ = quad(lambda x: direct(x) ** 2, 0.2, 0.8, limit=200)
    assert p.integral(1.0) == pytest.approx(ref, abs=1e-10)
    assert p.square_integral(1.0) == pytest.approx(ref2, abs=1e-10)


@pytest.mark.parametrize("center, half_width, height", [
    (0.5, 0.3, 3.0), (0.3, 0.2, 1.0), (0.5, 0.3, -2.0), (0.4, 5e-4, 1.0),
    (0.1, 0.3, 1.0)], ids=["centred", "off_centre", "negative", "narrow",
                           "clipped"])
def test_bump_integrals_match_quad(center, half_width, height):
    p = BumpPotential(center=center, half_width=half_width, height=height)
    lo, hi = p.support(1.0)
    ref, _ = quad(p.value, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    ref2, _ = quad(lambda x: p.value(x) ** 2, lo, hi, epsabs=0.0,
                   epsrel=1e-13, limit=200)
    assert abs(p.integral(1.0) / ref - 1.0) < 1e-14
    assert abs(p.square_integral(1.0) / ref2 - 1.0) < 1e-14


def test_potential_from_dict_errors():
    with pytest.raises(GraphFormatError):
        potential_from_dict({"kind": "well"})
    with pytest.raises(GraphFormatError):
        potential_from_dict({"kind": "bump", "center": 0.5})
    with pytest.raises(GraphFormatError):
        potential_from_dict({})
    with pytest.raises(GraphFormatError):
        potential_from_dict({"kind": "bump", "center": 0.5,
                             "half_width": -0.1, "height": 1.0})

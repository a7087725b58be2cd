"""Bond potentials with analytic derivatives up to third order.

Natural units hbar = 2m = 1 throughout: potentials carry dimension
1/length^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, UnsupportedError

MAX_ORDER = 3
GL_NODES = 128


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the GL_NODES-point Gauss-Legendre rule on
    [-1, 1], built on first use: Newton steps on P_n from the guesses
    cos(pi (i - 1/4) / (n + 1/2)), with P_n and P_n' from the three-term
    recurrence."""
    n = GL_NODES
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise UnsupportedError(
            f"derivative order {order} outside supported range 0..{MAX_ORDER}"
        )


def spectral_floor(potential, length: float) -> float:
    """Smallest t at which q = t^2 + V is safely positive along a bond of
    the given length: sqrt(-min V) + 1e-6 below a negative potential, 0
    otherwise."""
    vmin = potential.minimum(length)
    return math.sqrt(-vmin) + 1e-6 if vmin < 0.0 else 0.0


@dataclass(frozen=True)
class ConstantPotential:
    c: float

    kind = "constant"

    def value(self, x, order: int = 0):
        _check_order(order)
        if np.ndim(x):
            out = np.zeros_like(np.asarray(x, dtype=float))
            if order == 0:
                out += self.c
            return out
        return self.c if order == 0 else 0.0

    def integral(self, length: float) -> float:
        return self.c * length

    def square_integral(self, length: float) -> float:
        return self.c * self.c * length

    def minimum(self, length: float) -> float:
        return self.c

    def maximum(self, length: float) -> float:
        return self.c

    def compact(self, length: float) -> bool:
        return self.c == 0.0

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.c}


@dataclass(frozen=True)
class BumpPotential:
    """Smooth compactly supported bump h * exp(1 - 1/(1 - y^2)), y = (x-c)/w.

    All derivatives vanish identically at the support edges, so the WKB
    endpoint data of a bond carrying only this potential coincide with the
    free case.
    """

    center: float
    half_width: float
    height: float

    kind = "bump"

    def __post_init__(self):
        if self.half_width <= 0.0:
            raise GraphFormatError("bump half_width must be positive")

    def support(self, length: float):
        return (max(0.0, self.center - self.half_width),
                min(length, self.center + self.half_width))

    def value(self, x, order: int = 0):
        _check_order(order)
        scalar = not np.ndim(x)
        y = (np.asarray(x, dtype=float) - self.center) / self.half_width
        u = 1.0 - y * y
        inside = u > 1e-14
        us = np.where(inside, u, 1.0)
        iu = 1.0 / us
        iu2 = iu * iu
        f0 = np.exp(1.0 - iu)
        if order == 0:
            g = f0
        else:
            e1 = -2.0 * y * iu2
            if order == 1:
                g = e1 * f0
            else:
                iu3 = iu2 * iu
                e2 = -2.0 * iu2 - 8.0 * y * y * iu3
                if order == 2:
                    g = (e2 + e1 * e1) * f0
                else:
                    iu4 = iu3 * iu
                    e3 = -24.0 * y * iu3 - 48.0 * y ** 3 * iu4
                    g = (e3 + 3.0 * e1 * e2 + e1 ** 3) * f0
        out = np.where(inside, g, 0.0) * (self.height / self.half_width ** order)
        return float(out) if scalar else out

    def _support_integral(self, length: float, power: int) -> float:
        """integral of V^power over the bond: the Gauss-Legendre rule in
        y on the part of [-1, 1] the bond keeps.  Every derivative of the
        bump vanishes at y = +-1, so the rule converges fast also where
        the bond clips the support; working in y keeps the rounding of
        center +- half_width out of a narrow bump."""
        lo = max(-1.0, -self.center / self.half_width)
        hi = min(1.0, (length - self.center) / self.half_width)
        if hi <= lo:
            return 0.0
        x, w = _gauss_legendre()
        y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        v = self.height * np.exp(1.0 - 1.0 / (1.0 - y * y))
        return float(0.5 * (hi - lo) * self.half_width * np.dot(w, v ** power))

    def integral(self, length: float) -> float:
        return self._support_integral(length, 1)

    def square_integral(self, length: float) -> float:
        return self._support_integral(length, 2)

    def minimum(self, length: float) -> float:
        return min(0.0, self.height)

    def maximum(self, length: float) -> float:
        return max(0.0, self.height)

    def compact(self, length: float) -> bool:
        return (self.center - self.half_width > 0.0
                and self.center + self.half_width < length)

    def to_dict(self) -> dict:
        return {"kind": "bump", "center": self.center,
                "half_width": self.half_width, "height": self.height}


def _as_float(x, what: str) -> float:
    """A finite real number from a JSON document, or GraphFormatError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise GraphFormatError(f"{what} must be a real number")
    v = float(x)
    if not math.isfinite(v):
        raise GraphFormatError(f"{what} must be finite")
    return v


def potential_from_dict(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise GraphFormatError("potential must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "zero":
            return ConstantPotential(0.0)
        if kind == "constant":
            return ConstantPotential(
                c=_as_float(data["value"], "constant potential value"))
        if kind == "bump":
            return BumpPotential(
                center=_as_float(data["center"], "bump center"),
                half_width=_as_float(data["half_width"], "bump half_width"),
                height=_as_float(data["height"], "bump height"))
    except KeyError as exc:
        raise GraphFormatError(f"potential '{kind}' missing field {exc}") from exc
    raise GraphFormatError(f"unknown potential kind '{kind}'")

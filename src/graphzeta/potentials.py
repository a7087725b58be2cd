"""Bond potentials with analytic derivatives up to fourth order.

Natural units hbar = 2m = 1 throughout: potentials carry dimension
1/length^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import GraphFormatError, UnsupportedError

MAX_ORDER = 4


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise UnsupportedError(
            f"derivative order {order} outside supported range 0..{MAX_ORDER}"
        )


@dataclass(frozen=True)
class ZeroPotential:
    kind = "zero"

    def value(self, x, order: int = 0):
        _check_order(order)
        if np.ndim(x):
            return np.zeros_like(np.asarray(x, dtype=float))
        return 0.0

    def value_scalar(self, x: float) -> float:
        return 0.0

    def integral(self, length: float) -> float:
        return 0.0

    def square_integral(self, length: float) -> float:
        return 0.0

    def minimum(self, length: float) -> float:
        return 0.0

    def maximum(self, length: float) -> float:
        return 0.0

    def symmetric(self, length: float) -> bool:
        return True

    def compact(self, length: float) -> bool:
        return True

    def to_dict(self) -> dict:
        return {"kind": "zero"}


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

    def value_scalar(self, x: float) -> float:
        return self.c

    def integral(self, length: float) -> float:
        return self.c * length

    def square_integral(self, length: float) -> float:
        return self.c * self.c * length

    def minimum(self, length: float) -> float:
        return self.c

    def maximum(self, length: float) -> float:
        return self.c

    def symmetric(self, length: float) -> bool:
        return True

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
                    if order == 3:
                        g = (e3 + 3.0 * e1 * e2 + e1 ** 3) * f0
                    else:
                        iu5 = iu4 * iu
                        e4 = (-24.0 * iu3 - 288.0 * y * y * iu4
                              - 384.0 * y ** 4 * iu5)
                        g = (e4 + 4.0 * e1 * e3 + 3.0 * e2 * e2
                             + 6.0 * e1 * e1 * e2 + e1 ** 4) * f0
        out = np.where(inside, g, 0.0) * (self.height / self.half_width ** order)
        return float(out) if scalar else out

    def value_scalar(self, x: float) -> float:
        y = (x - self.center) / self.half_width
        u = 1.0 - y * y
        if u <= 1e-14:
            return 0.0
        return self.height * math.exp(1.0 - 1.0 / u)

    def integral(self, length: float) -> float:
        lo, hi = self.support(length)
        if hi <= lo:
            return 0.0
        val, _ = quad(self.value_scalar, lo, hi, epsabs=1e-14, epsrel=1e-12,
                      limit=200)
        return val

    def square_integral(self, length: float) -> float:
        lo, hi = self.support(length)
        if hi <= lo:
            return 0.0
        val, _ = quad(lambda x: self.value_scalar(x) ** 2, lo, hi,
                      epsabs=1e-14, epsrel=1e-12, limit=200)
        return val

    def minimum(self, length: float) -> float:
        return min(0.0, self.height)

    def maximum(self, length: float) -> float:
        return max(0.0, self.height)

    def symmetric(self, length: float) -> bool:
        return abs(self.center - 0.5 * length) <= 1e-12 * max(1.0, length)

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
            return ZeroPotential()
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

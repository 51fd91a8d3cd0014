"""Bundled numerics configuration shared by the kernels and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .oracle import QuadratureConfig
from .specfun import SeriesTolerance


@dataclass(frozen=True)
class NumericsConfig:
    """Series/quadrature tolerances and the series-vs-quadrature boundary.

    Below ``x_switch`` every closed-form path delegates to quadrature of the
    defining integral, because the Bessel sums would need O(1/x) terms
    there.  The integrands are not tame at small x: they turn at s ~ x, a
    scale that shrinks with x, which the oracle's substitution s = x sinh t
    spreads over an O(1) range.
    """

    series: SeriesTolerance = SeriesTolerance()
    quadrature: QuadratureConfig = QuadratureConfig()
    x_switch: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.x_switch) and self.x_switch > 0):
            raise DomainError(f"x_switch must be finite and > 0, got {self.x_switch!r}")


DEFAULT_NUMERICS = NumericsConfig()

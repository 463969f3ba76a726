"""The congestion cost family H(t) = a*t + t^p/p with a >= 0 and p >= 1.

H maps a nonnegative flow (or flux magnitude) to a cost density; g = H' =
a + t^(p-1) is the congestioned unit cost, and g(0) = a is the cost of an
empty road. This is the link-cost law of Beckmann, McGuire & Winsten (1956)
and of Carlier, Jimenez & Santambrogio (2008). The three configuration tags
name points of it: 'quadratic' is (0, 2), 'monomial p' is (0, p) and
'affine_power a p' is (a, p); p = 1 is the linear mass-flow cost. The
proximal map and the convex conjugate are consumed by the grid flow solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CongestedTransportError

# a Newton move this small relative to the iterate is rounding, not progress
_ULPS = 8 * np.finfo(float).eps
# parameter names of each configuration tag, in the order they are written
_TAGS = {"quadratic": (), "monomial": ("p",), "affine_power": ("a", "p")}


def _newton_power_prox(z, tau, p, shift=0.0):
    """Solve tau*s**(p-1) + s = z - tau*shift for s >= 0, elementwise.

    f(s) = tau*s**(p-1) + s - rhs is increasing. Newton starts at
    min(rhs, (rhs/tau)**(1/(p-1))), where f >= 0, and is safeguarded by the
    bracket [lo, hi] around the root, with bisection for a candidate outside
    it. It stops once no element moves by more than a few ulps of its value:
    convex f (p > 2) then descends to the root from the right, concave f
    (p < 2) overshoots once and climbs to it from the left.
    """
    z = np.asarray(z, dtype=float)
    rhs = np.maximum(z - tau * shift, 0.0)
    lo = np.zeros_like(rhs)
    hi = rhs.copy()
    with np.errstate(over="ignore"):
        s = np.minimum(rhs, np.power(rhs / tau, 1.0 / (p - 1.0)))
    for _ in range(100):
        sp = np.power(s, p - 1.0, where=s > 0, out=np.zeros_like(s))
        f = tau * sp + s - rhs
        below = f < 0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        with np.errstate(divide="ignore", over="ignore"):
            df = tau * (p - 1.0) * np.power(s, p - 2.0) + 1.0  # inf at s = 0 for p < 2
        step = np.where(np.isfinite(df) & (df > 0), f / df, 0.0)
        cand = s - step
        bad = (cand < lo) | (cand > hi) | ~np.isfinite(cand)
        s_new = np.where(bad, 0.5 * (lo + hi), cand)
        converged = np.all(np.abs(s_new - s) <= _ULPS * s_new)
        s = s_new
        if converged:
            break
    return np.where(rhs > 0, s, 0.0)


def _power(t, e):
    """t**e elementwise. numpy squares (square-roots) for a scalar exponent 2
    (0.5) but calls pow, which can differ in the last bit, for an exponent
    array; doing the same per entry keeps edge arrays equal to single specs."""
    out = np.power(t, e)
    if np.ndim(e):
        np.square(t, out=out, where=e == 2.0)
        np.sqrt(t, out=out, where=e == 0.5)
    return out


@dataclass(frozen=True)
class CongestionSpec:
    """H(t) = a*t + t^p/p on t >= 0, with a >= 0 and p >= 1.

    Attributes:
        a: slope at zero flow, the cost of an empty road.
        p: growth exponent; p = 1 is the linear mass-flow cost.
        prox: (z, tau) -> argmin_{s>=0} tau*H(s) + (s-z)^2/2, elementwise.
            Defaults to the map of (a, p); a caller may wrap it.
    """

    a: float = 0.0
    p: float = 2.0
    prox: Callable[[np.ndarray, float], np.ndarray] = field(default=None, compare=False,
                                                            repr=False)

    def __post_init__(self):
        try:
            a, p = float(self.a), float(self.p)
        except (TypeError, ValueError):
            raise CongestedTransportError(
                f"congestion parameters must be numbers, got a={self.a!r} p={self.p!r}"
            ) from None
        if not (np.isfinite(a) and np.isfinite(p) and a >= 0 and p >= 1):
            raise CongestedTransportError(
                f"congestion needs finite a >= 0 and p >= 1, got a={a} p={p}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)
        if self.prox is None or getattr(self.prox, "__func__", None) is CongestionSpec._prox:
            # (re)bind the default map, so replace(spec, a=...) cannot keep the old one
            object.__setattr__(self, "prox", self._prox)

    @staticmethod
    def quadratic() -> "CongestionSpec":
        """H(t) = t^2/2, the strictly convex textbook case."""
        return CongestionSpec(0.0, 2.0)

    @staticmethod
    def monomial(p: float) -> "CongestionSpec":
        """H(t) = t^p / p with p >= 1. p = 1 is the classic mass-flow cost."""
        return CongestionSpec(0.0, p)

    @staticmethod
    def affine_power(a: float, p: float) -> "CongestionSpec":
        """H(t) = a*t + t^p/p; g(0) = a > 0 models a nonempty-road cost."""
        return CongestionSpec(a, p)

    @staticmethod
    def from_config(text: str) -> "CongestionSpec":
        """Parse 'quadratic' | 'affine_power <a> <p>' | 'monomial <p>'."""
        kind, *values = text.split() or [""]
        names = _TAGS.get(kind.lower())
        if names is None:
            raise CongestedTransportError(f"unknown congestion family {kind!r}")
        if len(values) != len(names):
            raise CongestedTransportError(
                f"{kind} takes {len(names)} parameter(s) {' '.join(names)}, got {len(values)}"
            )
        return CongestionSpec(**dict(zip(names, values)))

    def describe(self) -> str:
        """The configuration tag of (a, p); from_config reads it back exactly."""
        a, p = (repr(x).removesuffix(".0") for x in (self.a, self.p))
        if self.a != 0.0:
            return f"affine_power {a} {p}"
        return "quadratic" if self.p == 2.0 else f"monomial {p}"

    def H(self, t):
        t = np.asarray(t, dtype=float)
        return self.a * t + _power(t, self.p) / self.p

    def g(self, t):
        return self.a + _power(np.asarray(t, dtype=float), self.p - 1.0)

    def _prox(self, z, tau):
        z = np.asarray(z, dtype=float)
        if self.p == 1.0:
            return np.maximum(z - tau * (1.0 + self.a), 0.0)
        if self.p == 2.0:
            return np.maximum(z - tau * self.a, 0.0) / (1.0 + tau)
        return _newton_power_prox(z, tau, self.p, shift=self.a)

    def conjugate(self, s):
        """H*(s) = sup_{t>=0} t*s - H(t): ((s-a)_+)^q/q with 1/p + 1/q = 1, or
        for p = 1 the indicator of s <= 1 + a (0 there, inf beyond)."""
        s = np.asarray(s, dtype=float)
        if self.p == 1.0:
            return np.where(s <= 1.0 + self.a + 1e-12, 0.0, np.inf)
        q = self.p / (self.p - 1.0)
        return np.power(np.maximum(s - self.a, 0.0), q) / q


class EdgeCosts:
    """Per-edge costs H_e(t) = a_e*t + t^p_e/p_e.

    Built from one CongestionSpec shared by every edge, which keeps a and p
    scalars, or from one spec per edge, which makes them per-edge arrays.
    """

    def __init__(self, spec, n_edges: int):
        if isinstance(spec, CongestionSpec):
            self.a, self.p = spec.a, spec.p
        else:
            specs = list(spec)
            if len(specs) != n_edges:
                raise CongestedTransportError(
                    f"{len(specs)} edge cost specs for {n_edges} edges"
                )
            self.a = np.array([sp.a for sp in specs])
            self.p = np.array([sp.p for sp in specs])
        self.n_edges = n_edges

    # the law of one spec; with array a and p it runs over every edge at once
    H = CongestionSpec.H
    g = CongestionSpec.g

"""Convex link-cost families H and their derivatives, proximal maps, and conjugates.

H maps a nonnegative flow (or flux magnitude) to a cost density; g = H' is the
congestioned unit cost. The proximal map and the convex conjugate are consumed
by the grid flow solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CongestedTransportError

_FD_POINTS = (0.1, 1.0, 10.0)
_FD_STEP = 1e-5
_FD_TOL = 1e-6
# a Newton move this small relative to the iterate is rounding, not progress
_ULPS = 8 * np.finfo(float).eps


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


@dataclass(frozen=True)
class CongestionSpec:
    """A convex increasing cost H with derivative g, prox, and conjugate.

    Attributes:
        H: vectorized map t -> cost density, H(0) = 0, convex nondecreasing.
        g: vectorized derivative H'.
        prox: (z, tau) -> argmin_{s>=0} tau*H(s) + (s-z)^2/2, elementwise.
        conjugate: vectorized H*(s) = sup_t t*s - H(t) on s >= 0 (may be inf).
        family: tag, one of "quadratic", "affine_power", "monomial", "custom".
        params: family parameters, e.g. {"a": 0.5, "p": 2.0}.
    """

    H: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[np.ndarray, float], np.ndarray]
    conjugate: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        h0 = float(self.H(np.array(0.0)))
        if abs(h0) > 1e-12:
            raise CongestedTransportError(f"H(0) must be 0, got {h0}")
        for t in _FD_POINTS:
            fd = (float(self.H(np.array(t + _FD_STEP))) - float(self.H(np.array(t - _FD_STEP)))) / (2 * _FD_STEP)
            gv = float(self.g(np.array(t)))
            if abs(fd - gv) > _FD_TOL:
                raise CongestedTransportError(
                    f"g is not the derivative of H at t={t}: finite diff {fd} vs g {gv}"
                )
            if gv < -1e-12:
                raise CongestedTransportError(f"H must be nondecreasing, g({t}) = {gv} < 0")

    @staticmethod
    def quadratic() -> "CongestionSpec":
        """H(t) = t^2/2, the strictly convex textbook case."""
        return CongestionSpec(
            H=lambda t: 0.5 * np.square(t),
            g=lambda t: np.asarray(t, dtype=float),
            prox=lambda z, tau: np.asarray(z, dtype=float) / (1.0 + tau),
            conjugate=lambda s: 0.5 * np.square(s),
            family="quadratic",
            params={},
        )

    @staticmethod
    def monomial(p: float) -> "CongestionSpec":
        """H(t) = t^p / p with p >= 1. p = 1 is the classic mass-flow cost."""
        if p < 1:
            raise CongestedTransportError(f"monomial exponent must satisfy p >= 1, got {p}")
        if p == 1.0:
            return CongestionSpec(
                H=lambda t: np.asarray(t, dtype=float),
                g=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                prox=lambda z, tau: np.maximum(np.asarray(z, dtype=float) - tau, 0.0),
                conjugate=lambda s: np.where(np.asarray(s, dtype=float) <= 1.0 + 1e-12, 0.0, np.inf),
                family="monomial",
                params={"p": 1.0},
            )
        q = p / (p - 1.0)
        return CongestionSpec(
            H=lambda t: np.power(np.asarray(t, dtype=float), p) / p,
            g=lambda t: np.power(np.asarray(t, dtype=float), p - 1.0),
            prox=lambda z, tau: _newton_power_prox(z, tau, p),
            conjugate=lambda s: np.power(np.maximum(np.asarray(s, dtype=float), 0.0), q) / q,
            family="monomial",
            params={"p": float(p)},
        )

    @staticmethod
    def affine_power(a: float, p: float) -> "CongestionSpec":
        """H(t) = a*t + t^p/p with a >= 0, p > 1; g(0) = a > 0 models a nonempty-road cost."""
        if a < 0:
            raise CongestedTransportError(f"affine coefficient must be >= 0, got {a}")
        if p <= 1:
            raise CongestedTransportError(f"power exponent must satisfy p > 1, got {p}")
        q = p / (p - 1.0)

        def conj(s):
            return np.power(np.maximum(np.asarray(s, dtype=float) - a, 0.0), q) / q

        if p == 2.0:
            prox = lambda z, tau: np.maximum(np.asarray(z, dtype=float) - tau * a, 0.0) / (1.0 + tau)
        else:
            prox = lambda z, tau: _newton_power_prox(z, tau, p, shift=a)
        return CongestionSpec(
            H=lambda t: a * np.asarray(t, dtype=float) + np.power(np.asarray(t, dtype=float), p) / p,
            g=lambda t: a + np.power(np.asarray(t, dtype=float), p - 1.0),
            prox=prox,
            conjugate=conj,
            family="affine_power",
            params={"a": float(a), "p": float(p)},
        )

    def describe(self) -> str:
        if self.family == "quadratic":
            return "quadratic"
        if self.family == "monomial":
            return f"monomial {self.params['p']:g}"
        if self.family == "affine_power":
            return f"affine_power {self.params['a']:g} {self.params['p']:g}"
        return "custom"

    @staticmethod
    def from_config(text: str) -> "CongestionSpec":
        """Parse 'quadratic' | 'affine_power <a> <p>' | 'monomial <p>'."""
        parts = text.split()
        if not parts:
            raise CongestedTransportError("empty congestion spec")
        kind = parts[0].lower()
        if kind == "quadratic":
            return CongestionSpec.quadratic()
        if kind == "affine_power":
            if len(parts) != 3:
                raise CongestedTransportError("affine_power requires two parameters: a p")
            return CongestionSpec.affine_power(float(parts[1]), float(parts[2]))
        if kind == "monomial":
            if len(parts) != 2:
                raise CongestedTransportError("monomial requires one parameter: p")
            return CongestionSpec.monomial(float(parts[1]))
        raise CongestedTransportError(f"unknown congestion family {kind!r}")


class EdgeCosts:
    """Per-edge congestion costs: one CongestionSpec per edge.

    Accepts a single spec (applied to every edge) or a sequence of specs.
    Evaluation vectorizes over groups of edges sharing a spec.
    """

    def __init__(self, spec, n_edges: int):
        if isinstance(spec, CongestionSpec):
            specs = [spec] * n_edges
        else:
            specs = list(spec)
            if len(specs) != n_edges:
                raise CongestedTransportError(
                    f"{len(specs)} edge cost specs for {n_edges} edges"
                )
        self.specs = specs
        self.n_edges = n_edges
        self._groups: list[tuple[CongestionSpec, np.ndarray]] = []
        seen: dict[int, list[int]] = {}
        order: list[int] = []
        for e, sp in enumerate(specs):
            if id(sp) not in seen:
                seen[id(sp)] = []
                order.append(id(sp))
            seen[id(sp)].append(e)
        by_id = {id(sp): sp for sp in specs}
        for k in order:
            self._groups.append((by_id[k], np.array(seen[k], dtype=np.int64)))

    def H(self, flows: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_edges)
        for sp, idx in self._groups:
            out[idx] = sp.H(flows[idx])
        return out

    def g(self, flows: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_edges)
        for sp, idx in self._groups:
            out[idx] = sp.g(flows[idx])
        return out


def as_edge_costs(spec, n_edges: int) -> EdgeCosts:
    if isinstance(spec, EdgeCosts):
        if spec.n_edges != n_edges:
            raise CongestedTransportError("edge cost vector length mismatch")
        return spec
    return EdgeCosts(spec, n_edges)

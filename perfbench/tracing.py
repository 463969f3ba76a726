"""Spans around the package's public callables, recorded from outside.

``Tracer.install()`` replaces every public function of every module, at every
module-level name that refers to it (so ``wardrop.shortest_distances`` and
``network.shortest_distances`` share one wrapper), plus the methods
``EdgeCosts.H``/``EdgeCosts.g`` and ``GridAtomTransport.solve`` and the
``prox`` of every spec built by ``CongestionSpec.from_config``.
``uninstall()`` puts the originals back. Spans (name, start, end, parent) are
kept in memory; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np

from congested_transport import (beckmann, cli, congestion, grids, kantorovich, network,
                                 urbanplan, wardrop)

MODULES = (cli, grids, network, congestion, wardrop, kantorovich, beckmann, urbanplan)
LAYERS = {m.__name__.rsplit(".", 1)[1]: m for m in MODULES}


def _sum(rows, names, field):
    return float(sum(rows.get(n, {}).get(field, 0.0) for n in names))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._atomic_values: list[tuple[int, float, np.ndarray]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), float(value))

    # -- result hooks: counts the solvers return but do not time -----------

    def _wardrop(self, res, args):
        self.count("wardrop.fw_iterations", res.iterations)
        self.peak("wardrop.rel_gap_max", res.relative_gap)

    def _ot(self, res, args):
        self.count("kantorovich.augmentations", res.iterations)
        self.peak("kantorovich.duality_gap_max",
                  abs(res.value - res.dual_value) / (1.0 + abs(res.value)))

    def _beckmann(self, res, args):
        self.count("beckmann.admm_iterations", res.iterations)
        self.peak("beckmann.certificate_gap_max", res.certificate_gap)

    def _p_nu(self, sol, args):
        self.count("urbanplan.inner_iterations", sol.iterations)
        nu = args[0]
        self._atomic_values.append((len(nu.weights), sol.value, nu.weights.copy()))

    def _quadratic_city(self, res, args):
        self.count("urbanplan.accepted", len(res.history))
        self.count("urbanplan.attempted", res.iterations)
        self._atomic_values.clear()

    def _atomic_city(self, res, args):
        """Replays the acceptance rule of the pole sweep: an outer step is
        accepted when its value does not exceed the best for the same k."""
        conc = args[2]
        best, k_prev = np.inf, None
        for k, value, w in self._atomic_values:
            if k != k_prev:
                best, k_prev = np.inf, k
            value += float(np.sum(conc.g(w)))
            self.count("urbanplan.attempted")
            if value <= best:
                self.count("urbanplan.accepted")
                best = value
        self._atomic_values.clear()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {
            "wardrop.solve_fixed_demand": self._wardrop,
            "wardrop.solve_variable_demand": self._wardrop,
            "kantorovich.solve_discrete_ot": self._ot,
            "beckmann.solve_beckmann": self._beckmann,
            "urbanplan.solve_p_nu": self._p_nu,
            "urbanplan.solve_quadratic_city": self._quadratic_city,
            "urbanplan.minimize_with_atomic_G": self._atomic_city,
        }
        wrapped = {}
        for layer, mod in LAYERS.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    wrapped[id(obj)] = self.wrap(key, obj, hooks.get(key))
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        costs = congestion.EdgeCosts
        self._set(costs, "H", self.wrap("congestion.EdgeCosts.H", costs.H))
        self._set(costs, "g", self.wrap("congestion.EdgeCosts.g", costs.g))
        transport = urbanplan.GridAtomTransport
        self._set(transport, "solve",
                  self.wrap("urbanplan.GridAtomTransport.solve", transport.solve))
        from_config = congestion.CongestionSpec.from_config

        def traced_from_config(text):
            spec = from_config(text)
            return dataclasses.replace(spec, prox=self.wrap("congestion.prox", spec.prox))

        self._set(congestion.CongestionSpec, "from_config", staticmethod(traced_from_config))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, inclusive and self seconds per span name."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced round."""
        rows = self.by_name()
        c = self.counts
        cli_spans = [n for n in rows if n.startswith("cli.")]
        grids_io = ["grids.load_scalar_csv", "grids.save_scalar_csv",
                    "grids.load_vector_csv", "grids.save_vector_csv"]
        net_load = ["network.load_network", "network.parse_network", "network.validate_network"]
        sp = ["network.shortest_distances"]
        edge = ["congestion.EdgeCosts.H", "congestion.EdgeCosts.g"]
        prox = ["congestion.prox"]
        fw = ["wardrop.solve_fixed_demand", "wardrop.solve_variable_demand"]
        ot = ["kantorovich.solve_discrete_ot"]
        bk = ["beckmann.solve_beckmann"]
        dq = ["beckmann.solve_dual_quadratic"]
        pnu = ["urbanplan.solve_p_nu"]
        gat = ["urbanplan.GridAtomTransport.solve"]
        fw_it = c.get("wardrop.fw_iterations", 0.0)
        aug = c.get("kantorovich.augmentations", 0.0)
        admm = c.get("beckmann.admm_iterations", 0.0)
        return {
            "cli.self_s": _sum(rows, cli_spans, "self_s"),
            "grids.io.self_s": _sum(rows, grids_io, "self_s"),
            "network.load.self_s": _sum(rows, net_load, "self_s"),
            "network.shortest_distances.calls": _sum(rows, sp, "calls"),
            "network.shortest_distances.self_s": _sum(rows, sp, "self_s"),
            "congestion.edge_costs.calls": _sum(rows, edge, "calls"),
            "congestion.edge_costs.self_s": _sum(rows, edge, "self_s"),
            "congestion.prox.calls": _sum(rows, prox, "calls"),
            "congestion.prox.self_s": _sum(rows, prox, "self_s"),
            "wardrop.solve.self_s": _sum(rows, fw, "self_s"),
            "wardrop.fw_iterations": fw_it,
            "wardrop.ms_per_iteration": _ratio(_sum(rows, fw, "incl_s"), fw_it, 1e3),
            "wardrop.rel_gap_max": c.get("wardrop.rel_gap_max", 0.0),
            "kantorovich.solve_discrete_ot.calls": _sum(rows, ot, "calls"),
            "kantorovich.solve_discrete_ot.self_s": _sum(rows, ot, "self_s"),
            "kantorovich.augmentations": aug,
            "kantorovich.us_per_augmentation": _ratio(_sum(rows, ot, "incl_s"), aug, 1e6),
            "kantorovich.duality_gap_max": c.get("kantorovich.duality_gap_max", 0.0),
            "beckmann.solve_beckmann.self_s": _sum(rows, bk, "self_s"),
            "beckmann.admm_iterations": admm,
            "beckmann.ms_per_iteration": _ratio(_sum(rows, bk, "incl_s"), admm, 1e3),
            "beckmann.solve_dual_quadratic.calls": _sum(rows, dq, "calls"),
            "beckmann.solve_dual_quadratic.ms_per_call":
                _ratio(_sum(rows, dq, "incl_s"), _sum(rows, dq, "calls"), 1e3),
            "beckmann.certificate_gap_max": c.get("beckmann.certificate_gap_max", 0.0),
            "urbanplan.outer_iterations": c.get("urbanplan.attempted", 0.0),
            "urbanplan.accepted_ratio": _ratio(c.get("urbanplan.accepted", 0.0),
                                               c.get("urbanplan.attempted", 0.0)),
            "urbanplan.solve_p_nu.calls": _sum(rows, pnu, "calls"),
            "urbanplan.solve_p_nu.self_s": _sum(rows, pnu, "self_s"),
            "urbanplan.inner_iterations": c.get("urbanplan.inner_iterations", 0.0),
            "urbanplan.transport_solve.calls": _sum(rows, gat, "calls"),
            "urbanplan.transport_solve.self_s": _sum(rows, gat, "self_s"),
        }


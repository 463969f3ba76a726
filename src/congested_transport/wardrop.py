"""Congested traffic assignment on networks: minimize sum_e H(i_e) over
routings of the demand, certify the equilibrium property of the result, and
provide independent brute-force oracles.

The solver is Frank-Wolfe in link-flow space: all-or-nothing directions from
shortest paths under the congestioned metric xi = H'(i), exact line search by
derivative bisection, plus pairwise (away-step) corrections over the set of
all-or-nothing vertices encountered, which restores linear convergence of the
duality gap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .congestion import EdgeCosts, as_edge_costs
from .errors import (
    DecompositionFailureError,
    InputFormatError,
    MassMismatchError,
    NegativeFlowError,
    UnreachableError,
)
from .kantorovich import DiscreteMeasure, _project_simplex, solve_discrete_ot
from .network import Network, enumerate_paths, path_cost, shortest_distances

GAP_DENOM_FLOOR = 1e-12
LINE_SEARCH_STEPS = 60
HULL_MAX_ITER = 2000  # projected-gradient steps of one hull-weight re-optimization
ORACLE_MAX_ITER = 20000  # projected-gradient steps of the fixed-demand oracle
ORACLE_GAP_TOL = 1e-9  # its relative path-space Frank-Wolfe gap at which it stops
GRID_SEARCH_ROUNDS = 4  # refinements of the oracle's nested grid search


@dataclass
class DemandSpec:
    """Either a fixed origin-destination matrix or prescribed marginals.

    ``gamma`` is indexed by (source position, destination position) in the
    order the network lists its sources and destinations.
    """

    kind: str
    gamma: np.ndarray | None = None
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None

    @staticmethod
    def fixed(gamma) -> "DemandSpec":
        gamma = np.asarray(gamma, dtype=float)
        if np.any(gamma < 0):
            raise InputFormatError("fixed demand must be nonnegative")
        return DemandSpec(kind="fixed", gamma=gamma)

    @staticmethod
    def marginals(mu, nu) -> "DemandSpec":
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if np.any(mu < 0) or np.any(nu < 0):
            raise InputFormatError("marginal weights must be nonnegative")
        if abs(mu.sum() - nu.sum()) > 1e-12 * max(1.0, mu.sum()):
            raise MassMismatchError(f"marginal masses differ: {mu.sum()} vs {nu.sum()}")
        return DemandSpec(kind="marginals", mu=mu, nu=nu)


@dataclass
class EquilibriumResult:
    flows: np.ndarray
    coupling: np.ndarray
    xi: np.ndarray
    objective: float
    relative_gap: float
    iterations: int
    converged: bool = True
    objective_history: list = field(default_factory=list)
    gap_history: list = field(default_factory=list)


@dataclass
class WardropReport:
    max_excess: float
    worst_pair: tuple[int, int] | None
    path_flows: dict = field(default_factory=dict)


def _check_flows(flows: np.ndarray, n_edges: int) -> np.ndarray:
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (n_edges,):
        raise InputFormatError(f"flow vector length {flows.shape} != edge count {n_edges}")
    if np.any(flows < 0):
        raise NegativeFlowError("link flows must be nonnegative")
    return flows


def objective(flows: np.ndarray, spec) -> float:
    """Total congestion cost sum_e H_e(i_e); spec is one CongestionSpec or a
    per-edge sequence."""
    flows = _check_flows(flows, len(flows))
    return float(np.sum(as_edge_costs(spec, len(flows)).H(flows)))


def link_metric(flows: np.ndarray, spec) -> np.ndarray:
    """Congestioned per-edge cost xi(e) = H_e'(i(e))."""
    flows = _check_flows(flows, len(flows))
    return np.asarray(as_edge_costs(spec, len(flows)).g(flows), dtype=float)


def all_or_nothing(net: Network, xi: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Route each origin-destination mass wholly along its witness shortest path."""
    coupling = np.asarray(coupling, dtype=float)
    if np.any(coupling < 0):
        raise InputFormatError("coupling must be nonnegative")
    return _route(net, shortest_distances(net, xi), coupling)


def _route(net: Network, table, gamma: np.ndarray) -> np.ndarray:
    """Link flows of sending each mass gamma[si, di] along the table's witness path."""
    flows = np.zeros(net.n_edges)
    for si, s in enumerate(net.sources):
        for di, d in enumerate(net.dests):
            mass = gamma[si, di]
            if mass <= 0:
                continue
            if (s, d) not in table.path:
                raise UnreachableError(s, d)
            for e in table.path[(s, d)]:
                flows[e] += mass
    return flows


def _distance_matrix(net: Network, xi: np.ndarray) -> tuple[np.ndarray, object]:
    table = shortest_distances(net, xi)
    dmat = np.full((len(net.sources), len(net.dests)), np.inf)
    for si, s in enumerate(net.sources):
        for di, d in enumerate(net.dests):
            if (s, d) in table.dist:
                dmat[si, di] = table.dist[(s, d)]
    return dmat, table


def _line_search(flows, direction, costs: EdgeCosts, t_max):
    """Exact minimization of t -> sum H(i + t*d) on [0, t_max] by bisecting
    the (monotone) derivative."""
    def deriv(t):
        pt = np.maximum(flows + t * direction, 0.0)
        return float(np.dot(costs.g(pt), direction))

    if t_max <= 0:
        return 0.0
    if deriv(0.0) >= 0.0:
        return 0.0
    if deriv(t_max) <= 0.0:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(LINE_SEARCH_STEPS):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _optimize_hull_weights(atoms: dict, costs: EdgeCosts):
    """Minimize sum H over the convex hull of the stored all-or-nothing
    vertices (projected gradient on the weight simplex). Cleans phantom
    weight off suboptimal vertices, which tightens both the duality gap and
    the path decomposition."""
    keys = list(atoms.keys())
    V = np.stack([atoms[k][0] for k in keys])  # (K, E)
    w = np.array([atoms[k][2] for k in keys], dtype=float)
    w = _project_simplex(w, 1.0)
    flows = V.T @ w
    value = float(np.sum(costs.H(flows)))
    step = 1.0
    for _ in range(HULL_MAX_ITER):
        g = V @ costs.g(flows)
        gap = float(np.dot(g, w) - g.min())
        if gap <= 1e-14 * (1.0 + abs(value)):
            break
        while True:
            w_new = _project_simplex(w - step * g, 1.0)
            flows_new = V.T @ w_new
            v_new = float(np.sum(costs.H(flows_new)))
            if v_new <= value + 1e-16:
                break
            step *= 0.5
            if step < 1e-18:
                w_new, flows_new, v_new = w, flows, value
                break
        if v_new >= value - 1e-18 and np.allclose(w_new, w):
            break
        w, flows, value = w_new, flows_new, v_new
        step *= 1.3
    for k, wk in zip(keys, w):
        atoms[k][2] = float(wk)
    for k in [k for k in keys if atoms[k][2] <= 1e-14]:
        del atoms[k]
    wsum = sum(rec[2] for rec in atoms.values())
    flows = sum(rec[2] * rec[0] for rec in atoms.values()) / wsum
    gamma = sum(rec[2] * rec[1] for rec in atoms.values()) / wsum
    return flows, gamma


def _frank_wolfe(net, spec, demand, tol, max_iter):
    """Pairwise Frank-Wolfe over the polytope of (link flow, coupling) pairs."""
    costs = as_edge_costs(spec, net.n_edges)
    n_s, n_d = len(net.sources), len(net.dests)

    if demand.kind == "fixed":
        gamma_fixed = demand.gamma
        total = float(gamma_fixed.sum())
    else:
        total = float(demand.mu.sum())

    if total <= 0:
        zero = np.zeros(net.n_edges)
        return EquilibriumResult(
            flows=zero,
            coupling=np.zeros((n_s, n_d)),
            xi=costs.g(zero),
            objective=0.0,
            relative_gap=0.0,
            iterations=0,
            converged=True,
            objective_history=[0.0],
            gap_history=[0.0],
        )

    def direction_vertex(xi):
        """Best all-or-nothing vertex at metric xi plus the linearized value."""
        dmat, table = _distance_matrix(net, xi)
        if demand.kind == "fixed":
            gamma = gamma_fixed
        else:
            finite = np.isfinite(dmat)
            if not finite.all():
                raise InputFormatError("some origin-destination pair is unreachable")
            mu = DiscreteMeasure(weights=demand.mu)
            nu = DiscreteMeasure(weights=demand.nu)
            gamma = solve_discrete_ot(mu, nu, dmat).coupling.plan
        lp_value = float(np.sum(dmat[gamma > 0] * gamma[gamma > 0]))
        return _route(net, table, gamma), gamma, lp_value

    xi = costs.g(np.zeros(net.n_edges))
    flows0, gamma0, _ = direction_vertex(xi)
    atoms: dict[bytes, list] = {}

    def atom_key(fv, gv):
        return fv.tobytes() + gv.tobytes()

    atoms[atom_key(flows0, gamma0)] = [flows0, gamma0, 1.0]
    flows = flows0.copy()
    gamma_cur = gamma0.copy()

    rel_gap = np.inf
    it = 0
    polished = False
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for it in range(1, max_iter + 1):
        xi = costs.g(flows)
        fw_flows, fw_gamma, lp_value = direction_vertex(xi)
        realized = float(np.dot(xi, flows))
        gap_num = realized - lp_value
        rel_gap = gap_num / max(lp_value, GAP_DENOM_FLOOR)
        obj_hist.append(float(np.sum(costs.H(flows))))
        gap_hist.append(rel_gap)
        if rel_gap <= tol:
            if not polished:
                # final cleanup so the decomposition carries no phantom paths
                atoms.setdefault(atom_key(fw_flows, fw_gamma), [fw_flows, fw_gamma, 0.0])
                flows, gamma_cur = _optimize_hull_weights(atoms, costs)
                polished = True
                continue
            return EquilibriumResult(flows, gamma_cur, xi, float(np.sum(costs.H(flows))),
                                     rel_gap, it - 1, True,
                                     objective_history=obj_hist, gap_history=gap_hist)
        polished = False

        # away atom: the active vertex the linearization most wants to leave
        away_key = max(atoms, key=lambda k: float(np.dot(xi, atoms[k][0])))
        away_flows, away_gamma, away_w = atoms[away_key]

        d_flows = fw_flows - away_flows
        d_gamma = fw_gamma - away_gamma
        if float(np.dot(xi, d_flows)) < 0.0 and away_w > 0.0:
            t = _line_search(flows, d_flows, costs, away_w)
        else:
            t = 0.0
        if t <= 0.0:
            # fall back to a classic step toward the best vertex
            d_flows = fw_flows - flows
            d_gamma = fw_gamma - gamma_cur
            t = _line_search(flows, d_flows, costs, 1.0)
            if t <= 0.0:
                break
            for rec in atoms.values():
                rec[2] *= 1.0 - t
        else:
            atoms[away_key][2] -= t
        atoms.setdefault(atom_key(fw_flows, fw_gamma), [fw_flows, fw_gamma, 0.0])[2] += t
        flows = np.maximum(flows + t * d_flows, 0.0)
        gamma_cur = np.maximum(gamma_cur + t * d_gamma, 0.0)

        for key in [k for k, rec in atoms.items() if rec[2] <= 1e-15]:
            del atoms[key]
        if it % 8 == 0:
            # periodically re-optimize the vertex weights (simplicial
            # decomposition step); also resynchronizes the iterate
            flows, gamma_cur = _optimize_hull_weights(atoms, costs)

    xi = costs.g(flows)
    _, _, lp_value = direction_vertex(xi)
    rel_gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, GAP_DENOM_FLOOR)
    converged = rel_gap <= tol
    return EquilibriumResult(flows, gamma_cur, xi, float(np.sum(costs.H(flows))),
                             rel_gap, it, converged,
                             objective_history=obj_hist, gap_history=gap_hist)


def solve_fixed_demand(net: Network, spec, gamma,
                       tol: float = 1e-6, max_iter: int = 5000) -> EquilibriumResult:
    """Minimize sum_e H(i_e) for a fixed origin-destination matrix.

    Stops when the relative duality gap
    (sum_e xi*i - sum_{s,d} d_xi*gamma) / sum_{s,d} d_xi*gamma
    drops below tol; when the iteration budget runs out the best iterate is
    returned with ``converged=False``.
    """
    if tol <= 0:
        raise InputFormatError("tol must be positive")
    demand = DemandSpec.fixed(gamma)
    if demand.gamma.shape != (len(net.sources), len(net.dests)):
        raise InputFormatError(
            f"gamma shape {demand.gamma.shape} != ({len(net.sources)}, {len(net.dests)})"
        )
    return _frank_wolfe(net, spec, demand, tol, max_iter)


def solve_variable_demand(net: Network, spec, mu, nu,
                          tol: float = 1e-6, max_iter: int = 5000) -> EquilibriumResult:
    """Minimize sum_e H(i_e) over both routings and couplings in Pi(mu, nu).

    The linearized subproblem of every iteration is a discrete Kantorovich
    problem with cost d_xi, so the returned coupling is optimal for that cost
    at the returned flows (up to the returned gap).
    """
    if tol <= 0:
        raise InputFormatError("tol must be positive")
    demand = DemandSpec.marginals(mu, nu)
    if demand.mu.shape != (len(net.sources),) or demand.nu.shape != (len(net.dests),):
        raise InputFormatError("marginal lengths must match the source/destination lists")
    return _frank_wolfe(net, spec, demand, tol, max_iter)


def verify_conservation(net: Network, result: EquilibriumResult) -> float:
    """Largest node-balance violation of the flows against the coupling.

    At every node, inflow minus outflow must equal the mass arriving there
    (as a destination) minus the mass departing (as a source).
    """
    balance = np.zeros(net.n_nodes)
    for eid, (tail, head) in enumerate(net.edges):
        balance[head] += result.flows[eid]
        balance[tail] -= result.flows[eid]
    expected = np.zeros(net.n_nodes)
    for si, s in enumerate(net.sources):
        expected[s] -= result.coupling[si].sum()
    for di, d in enumerate(net.dests):
        expected[d] += result.coupling[:, di].sum()
    return float(np.abs(balance - expected).max())


def verify_wardrop(net: Network, result: EquilibriumResult,
                   path_cap: int = 1000) -> WardropReport:
    """Decompose the flows into path flows by shortest-path peeling and report
    the worst relative excess of a used path over its pair's shortest cost.

    Raises PathExplosionError when the network has more than path_cap simple
    paths, and DecompositionFailureError when peeling strands more than 1e-6
    units of flow.
    """
    enumerate_paths(net, cap=path_cap)  # enforce the smallness precondition
    xi = result.xi
    table = shortest_distances(net, xi)

    residual = result.flows.copy()
    remaining = result.coupling.copy()
    path_flows: dict[tuple[int, int, tuple[int, ...]], float] = {}
    eps_edge = 1e-12

    adj = net.out_edges()

    def residual_shortest(s, d):
        """Dijkstra restricted to edges with remaining flow."""
        dist = {s: 0.0}
        prev: dict[int, tuple[int, int]] = {}
        seen = set()
        heap = [(0.0, s)]
        while heap:
            dv, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            if u == d:
                break
            for eid, v in adj[u]:
                if residual[eid] <= eps_edge or v in seen:
                    continue
                nd = dv + xi[eid]
                if nd < dist.get(v, np.inf):
                    dist[v] = nd
                    prev[v] = (u, eid)
                    heapq.heappush(heap, (nd, v))
        if d not in seen:
            return None
        path = []
        node = d
        while node != s:
            u, eid = prev[node]
            path.append(eid)
            node = u
        return tuple(reversed(path))

    for si, s in enumerate(net.sources):
        for di, d in enumerate(net.dests):
            while remaining[si, di] > 1e-12:
                if s == d:
                    remaining[si, di] = 0.0
                    break
                path = residual_shortest(s, d)
                if path is None:
                    break
                bottleneck = min(residual[e] for e in path)
                delta = min(remaining[si, di], bottleneck)
                if delta <= 1e-12:
                    break
                key = (s, d, path)
                path_flows[key] = path_flows.get(key, 0.0) + delta
                for e in path:
                    residual[e] -= delta
                remaining[si, di] -= delta

    stranded = max(float(remaining.sum()), float(residual.max(initial=0.0)))
    if stranded > 1e-6:
        raise DecompositionFailureError(f"peeling left {stranded} units of flow unexplained")

    max_excess = 0.0
    worst = None
    for (s, d, path), q in path_flows.items():
        if q <= 1e-8:
            continue
        excess = (path_cost(path, xi) - table.dist[(s, d)]) / max(table.dist[(s, d)], 1e-12)
        if excess > max_excess:
            max_excess = excess
            worst = (s, d)
    return WardropReport(max_excess=float(max_excess), worst_pair=worst, path_flows=path_flows)


def brute_force_equilibrium(net: Network, spec, demand: DemandSpec,
                            grid_steps: int = 21) -> EquilibriumResult:
    """Independent oracle: minimize sum_e H over explicit path flows.

    Fixed demand uses projected gradient descent on the product of scaled
    simplices (with a nested grid search refinement when at most 3 free
    dimensions remain); marginal demand solves the same convex program over
    the path polytope with an SLSQP solve. Quality is certified by the
    resulting duality gap.
    """
    costs = as_edge_costs(spec, net.n_edges)
    paths = enumerate_paths(net, cap=50)
    if demand.kind == "fixed":
        gamma = demand.gamma
    s_index = {s: i for i, s in enumerate(net.sources)}
    d_index = {d: i for i, d in enumerate(net.dests)}

    groups: dict[tuple[int, int], list[int]] = {}
    plist: list[tuple[int, int, tuple[int, ...]]] = []
    for (s, d, p) in paths.paths:
        k = len(plist)
        plist.append((s, d, p))
        groups.setdefault((s, d), []).append(k)

    n_paths = len(plist)
    inc = np.zeros((net.n_edges, n_paths))
    for k, (_, _, p) in enumerate(plist):
        for e in p:
            inc[e, k] = 1.0

    def flows_of(q):
        return inc @ q

    def total_cost(q):
        return float(np.sum(costs.H(flows_of(q))))

    def grad(q):
        return inc.T @ costs.g(flows_of(q))

    if demand.kind == "fixed":
        q = np.zeros(n_paths)
        active_groups = []
        for (s, d), idxs in groups.items():
            mass = gamma[s_index[s], d_index[d]]
            if mass <= 0:
                continue
            active_groups.append((idxs, mass))
            q[idxs[0]] = mass

        free_dims = sum(len(idxs) - 1 for idxs, _ in active_groups)
        if free_dims and free_dims <= 3 and grid_steps >= 2:
            q = _nested_grid_search(q, active_groups, total_cost, grid_steps)
        q = _projected_gradient(q, active_groups, total_cost, grad)

    else:
        q = _marginal_oracle(plist, groups, s_index, d_index, demand, total_cost, grad, n_paths)

    flows = flows_of(q)
    xi = costs.g(flows)
    coupling = np.zeros((len(net.sources), len(net.dests)))
    for k, (s, d, _) in enumerate(plist):
        coupling[s_index[s], d_index[d]] += q[k]
    dmat, _ = _distance_matrix(net, xi)
    if demand.kind == "fixed":
        lp = float(np.sum(dmat[coupling > 0] * coupling[coupling > 0]))
    else:
        lp = solve_discrete_ot(DiscreteMeasure(weights=demand.mu),
                               DiscreteMeasure(weights=demand.nu), dmat).value
    gap = (float(np.dot(xi, flows)) - lp) / max(lp, GAP_DENOM_FLOOR)
    return EquilibriumResult(flows, coupling, xi, total_cost(q), gap, 0, True)


def _nested_grid_search(q0, active_groups, total_cost, grid_steps):
    """Refined grid sweep over the (<= 3) free simplex coordinates."""
    import itertools

    # free coordinates: all but the first path of each group
    free: list[tuple[int, int, float]] = []  # (path index, group id, mass)
    for gi, (idxs, mass) in enumerate(active_groups):
        for k in idxs[1:]:
            free.append((k, gi, mass))

    def assemble(vals):
        q = np.zeros_like(q0)
        used = {}
        for (k, gi, mass), v in zip(free, vals):
            q[k] = v
            used[gi] = used.get(gi, 0.0) + v
        ok = True
        for gi, (idxs, mass) in enumerate(active_groups):
            lead = mass - used.get(gi, 0.0)
            if lead < -1e-12:
                ok = False
                break
            q[idxs[0]] = max(lead, 0.0)
        return q if ok else None

    centers = [0.5 * m for (_, _, m) in free]
    radii = [0.5 * m for (_, _, m) in free]
    best_q, best_v = None, np.inf
    for _ in range(GRID_SEARCH_ROUNDS):
        axes = [np.linspace(c - r, c + r, grid_steps) for c, r in zip(centers, radii)]
        axes = [np.clip(ax, 0.0, free[i][2]) for i, ax in enumerate(axes)]
        for vals in itertools.product(*axes):
            q = assemble(vals)
            if q is None:
                continue
            v = total_cost(q)
            if v < best_v:
                best_v, best_q = v, q
                centers = list(vals)
        radii = [2.2 * r / max(grid_steps - 1, 1) for r in radii]
    return best_q if best_q is not None else q0


def _projected_gradient(q, active_groups, total_cost, grad):
    step = 1.0
    value = total_cost(q)
    for _ in range(ORACLE_MAX_ITER):
        g = grad(q)
        # Frank-Wolfe gap in path space certifies optimality group by group
        gap = 0.0
        for idxs, mass in active_groups:
            gi = g[idxs]
            gap += float(np.dot(gi, q[idxs]) - mass * gi.min())
        if gap <= ORACLE_GAP_TOL * (1.0 + abs(value)):
            break
        while True:
            q_new = q.copy()
            for idxs, mass in active_groups:
                q_new[idxs] = _project_simplex(q[idxs] - step * g[idxs], mass)
            v_new = total_cost(q_new)
            if v_new <= value + 1e-15:
                break
            step *= 0.5
            if step < 1e-16:
                q_new, v_new = q, value
                break
        q, value = q_new, v_new
        step *= 1.3
    return q


def _marginal_oracle(plist, groups, s_index, d_index, demand, total_cost, grad, n_paths):
    from scipy.optimize import minimize

    n_s = len(s_index)
    n_d = len(d_index)
    a_eq = np.zeros((n_s + n_d, n_paths))
    for k, (s, d, _) in enumerate(plist):
        a_eq[s_index[s], k] = 1.0
        a_eq[n_s + d_index[d], k] = 1.0
    b_eq = np.concatenate([demand.mu, demand.nu])

    q0 = np.zeros(n_paths)
    # feasible start: greedy transport of mu onto nu along the first path of each pair
    mu_rem = demand.mu.copy()
    nu_rem = demand.nu.copy()
    for (s, d), idxs in sorted(groups.items()):
        si, di = s_index[s], d_index[d]
        move = min(mu_rem[si], nu_rem[di])
        if move > 0:
            q0[idxs[0]] += move
            mu_rem[si] -= move
            nu_rem[di] -= move
    if mu_rem.sum() > 1e-9 * max(1.0, demand.mu.sum()):
        raise InputFormatError("no feasible path routing for the given marginals")

    res = minimize(
        total_cost,
        q0,
        jac=lambda q: np.asarray(grad(q), dtype=float),
        bounds=[(0.0, None)] * n_paths,
        constraints=[{"type": "eq", "fun": lambda q: a_eq @ q - b_eq,
                      "jac": lambda q: a_eq}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return np.maximum(res.x, 0.0)

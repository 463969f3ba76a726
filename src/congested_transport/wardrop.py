"""Congested traffic assignment on networks: minimize sum_e H(i_e) over
routings of the demand, certify the equilibrium property of the result, and
provide independent brute-force oracles.

The solver is simplicial decomposition in link-flow space (von Hohenbalken,
Math. Prog. 1977; Hearn, Lawphongpanich & Ventura, Math. Prog. Study 1987).
Each iteration finds the all-or-nothing vertex of shortest paths under the
congestioned metric xi = H'(i), with an exact transport of the marginals when
the demand is variable, and certifies the iterate by the relative duality gap
against it. It then minimizes sum_e H exactly over the convex hull of the
vertices kept so far (the master problem, solved by projected Newton on the
vertex weights) and drops the vertices whose weight falls to zero.
"""

from __future__ import annotations

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
from .network import Network, _search, enumerate_paths, path_cost, shortest_distances

GAP_DENOM_FLOOR = 1e-12
MASTER_MAX_ITER = 100  # projected-Newton steps of one master solve
MASTER_GAP_TOL = 1e-14  # its relative gap at which it stops
ARMIJO = 1e-4  # sufficient-decrease fraction of its line search
ARMIJO_STEPS = 40  # step halvings before the line search gives up
ROUNDING = 8 * np.finfo(float).eps  # relative change of the value that is rounding
WEIGHT_FLOOR = 1e-14  # a weight this small counts as zero when a step pushes it down
CURVATURE_FLOOR = 1e-10  # share of the largest flow under which the master takes H'' at that share
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
        if not np.isfinite(gamma.sum()):
            raise InputFormatError("fixed demand must have a finite total")
        return DemandSpec(kind="fixed", gamma=gamma)

    @staticmethod
    def marginals(mu, nu) -> "DemandSpec":
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if np.any(mu < 0) or np.any(nu < 0):
            raise InputFormatError("marginal weights must be nonnegative")
        if not (np.isfinite(mu.sum()) and np.isfinite(nu.sum())):
            raise InputFormatError("marginal weights must have finite totals")
        if abs(mu.sum() - nu.sum()) > 1e-12 * max(mu.sum(), nu.sum()):
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
    used = gamma > 0
    stuck = np.argwhere(used & np.isinf(table.matrix))
    if len(stuck):
        si, di = stuck[0]
        raise UnreachableError(net.sources[si], net.dests[di])
    flows = [0.0] * net.n_edges
    for (si, di), mass in zip(np.argwhere(used).tolist(), gamma[used].tolist()):
        for e in table.witness(si, di):
            flows[e] += mass
    return np.array(flows)


def _curvature(costs: EdgeCosts, flows: np.ndarray) -> np.ndarray:
    """H_e''(i_e) = (p_e - 1) i_e^(p_e - 2), with flows below CURVATURE_FLOOR
    of the largest one raised to it, so that it stays finite on empty edges
    with p < 2. It is 0 on p = 1 edges."""
    floor = CURVATURE_FLOOR * (float(flows.max()) or 1.0)
    return (costs.p - 1.0) * np.power(np.maximum(flows, floor), costs.p - 2.0)


def _newton_step(hess: np.ndarray, g: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Newton direction of the master on the free vertices: the bordered KKT
    system of min g.d + d.hess.d/2 subject to sum(d) = 0, solved by LU."""
    idx = np.flatnonzero(free)
    n = len(idx)
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = hess[np.ix_(idx, idx)]
    kkt[n, n] = 0.0
    diag = np.arange(n)
    # rank-deficient Hessians (linear edges, dependent vertices) stay solvable
    kkt[diag, diag] += 1e-12 * kkt[diag, diag].max() or 1e-12
    step = np.zeros(len(g))
    step[idx] = np.linalg.solve(kkt, np.append(-g[idx], 0.0))[:n]
    return step


def _solve_master(V: np.ndarray, w: np.ndarray, flows: np.ndarray, costs: EdgeCosts):
    """Minimize sum_e H_e((V^T w)_e) over the weight simplex by projected Newton.

    ``V`` holds one vertex flow per row and ``flows`` is V^T w. A step solves
    the bordered KKT system of the quadratic model on the free set: the
    vertices with weight above WEIGHT_FLOOR, and those below it whose gradient
    is under the weighted mean and which the step does not push down. The
    step is cut at the first weight it takes to zero and halved until it
    passes the Armijo test. A step that keeps the value within rounding of the
    lowest one reached and moves its linear model by rounding only is taken
    as well; unless it zeroed a weight, the solve then goes on only while the
    gap falls. Returns the weights, the flows and the value; the flows object
    is returned unchanged when no step was taken.
    """
    value = base = float(np.sum(costs.H(flows)))
    last_gap = np.inf
    for _ in range(MASTER_MAX_ITER):
        g = V @ costs.g(flows)
        mean = float(g @ w)
        gap = mean - g.min()
        if gap <= MASTER_GAP_TOL * (1.0 + abs(value)) or gap >= last_gap:
            break
        free = (w > WEIGHT_FLOOR) | (g < mean)
        hess = (V * _curvature(costs, flows)) @ V.T
        while True:
            step = _newton_step(hess, g, free)
            push = np.where(w > WEIGHT_FLOOR, 0.0, np.minimum(step, 0.0))
            if not push.any():
                break
            free[np.argmin(push)] = False  # it enters on a later step, if at all
        down = np.flatnonzero(step < 0)
        if not len(down):
            break
        ratios = w[down] / -step[down]
        block = down[np.argmin(ratios)]
        t = t_full = min(1.0, float(ratios.min()))
        rounding = ROUNDING * (1.0 + abs(value))
        for _ in range(ARMIJO_STEPS):
            w_new = np.maximum(w + t * step, 0.0)
            if t * step[block] <= -w[block]:
                w_new[block] = 0.0
            flows_new = V.T @ w_new
            v_new = float(np.sum(costs.H(flows_new)))
            change = float(g @ (w_new - w))
            descent = v_new < value + ARMIJO * change
            if descent or max(v_new - base, -change) <= rounding:
                break
            t *= 0.5
        else:
            break  # no step lowers the value: what is left of the gap is rounding
        w, flows, value = w_new, flows_new, v_new
        base = min(base, value)
        # after a step of rounding size that zeroed no weight, go on only
        # while the gap falls
        last_gap = np.inf if descent or t == t_full < 1.0 else gap
    return w, flows, value


def _simplicial_decomposition(net, spec, demand, tol, max_iter):
    """Simplicial decomposition over the polytope of (link flow, coupling)
    pairs: a Frank-Wolfe vertex per iteration, then the exact master over the
    hull of the vertices kept so far."""
    costs = as_edge_costs(spec, net.n_edges)
    n_s, n_d = len(net.sources), len(net.dests)

    if demand.kind == "fixed":
        gamma_fixed = demand.gamma
        total = float(gamma_fixed.sum())
    else:
        total = float(demand.mu.sum())

    # no edge carries more than the total demand, so the objective and the
    # linear term of the gap, summed over all edges at that flow, bound every
    # flow's. The bound is deliberately conservative: a path through many
    # edges can overflow even where each edge's cost is finite
    at_total = np.full(net.n_edges, total)
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = np.isfinite(np.sum(costs.H(at_total)) + np.sum(at_total * costs.g(at_total)))
    if not bounded:
        raise InputFormatError(f"demand total {total!r} overflows the edge costs: "
                               f"H or t H'(t) summed over all edges at that flow is not finite")

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
        table = shortest_distances(net, xi)
        dmat = table.matrix
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

    flows, gamma_cur, _ = direction_vertex(costs.g(np.zeros(net.n_edges)))
    V = flows[None, :]  # vertex link flows, one per row
    G = gamma_cur.reshape(1, -1)  # their couplings, flattened
    w = np.ones(1)
    value = float(np.sum(costs.H(flows)))

    rel_gap = np.inf
    it = 0
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for it in range(1, max_iter + 1):
        xi = costs.g(flows)
        fw_flows, fw_gamma, lp_value = direction_vertex(xi)
        rel_gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, GAP_DENOM_FLOOR)
        obj_hist.append(value)
        gap_hist.append(rel_gap)
        if rel_gap <= tol:
            return EquilibriumResult(flows, gamma_cur, xi, value, rel_gap, it - 1, True,
                                     objective_history=obj_hist, gap_history=gap_hist)
        V = np.vstack([V, fw_flows])
        G = np.vstack([G, fw_gamma.reshape(1, -1)])
        w, flows_new, value = _solve_master(V, np.append(w, 0.0), flows, costs)
        if flows_new is flows:
            break  # the new vertex does not help: the master is stuck at rounding
        flows = flows_new
        keep = w > 0
        V, G, w = V[keep], G[keep], w[keep]
        gamma_cur = (G.T @ w).reshape(n_s, n_d)

    xi = costs.g(flows)
    _, _, lp_value = direction_vertex(xi)
    rel_gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, GAP_DENOM_FLOOR)
    converged = rel_gap <= tol
    return EquilibriumResult(flows, gamma_cur, xi, value, rel_gap, it, converged,
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
    return _simplicial_decomposition(net, spec, demand, tol, max_iter)


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
    return _simplicial_decomposition(net, spec, demand, tol, max_iter)


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

    def residual_shortest(s, d):
        """A shortest path over the edges with remaining flow, or None."""
        residual_xi = np.where(residual > eps_edge, xi, np.inf)
        found = _search(net, residual_xi, [s], [d])
        return found.witness(0, 0) if np.isfinite(found.matrix[0, 0]) else None

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
    dmat = shortest_distances(net, xi).matrix
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

"""Congested traffic assignment on networks: minimize sum_e H(i_e) over
routings of the demand, certify the equilibrium property of the result, and
provide an independent reference: one SLSQP solve over explicit path flows
for both demand kinds (brute_force_equilibrium).

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

from .congestion import EdgeCosts
from .errors import (
    DecompositionFailureError,
    InputFormatError,
    MassMismatchError,
    NegativeFlowError,
    UnreachableError,
)
from .kantorovich import DiscreteMeasure, OTResult, solve_discrete_ot
from .network import Network, _search, enumerate_paths, path_cost, shortest_distances

GAP_DENOM_FLOOR = 1e-12
MASTER_MAX_ITER = 100  # projected-Newton steps of one master solve
MASTER_GAP_TOL = 1e-14  # its relative gap at which it stops
ARMIJO = 1e-4  # sufficient-decrease fraction of its line search
ARMIJO_STEPS = 40  # step halvings before the line search gives up
ROUNDING = 8 * np.finfo(float).eps  # relative change of the value that is rounding
WEIGHT_FLOOR = 1e-14  # a weight this small counts as zero when a step pushes it down
CURVATURE_FLOOR = 1e-10  # share of the largest flow under which the master takes H'' at that share


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
    return float(np.sum(EdgeCosts(spec, len(flows)).H(flows)))


def link_metric(flows: np.ndarray, spec) -> np.ndarray:
    """Congestioned per-edge cost xi(e) = H_e'(i(e))."""
    flows = _check_flows(flows, len(flows))
    return np.asarray(EdgeCosts(spec, len(flows)).g(flows), dtype=float)


def all_or_nothing(net: Network, xi: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Route each origin-destination mass wholly along its witness shortest path."""
    coupling = np.asarray(coupling, dtype=float)
    if np.any(coupling < 0):
        raise InputFormatError("coupling must be nonnegative")
    return _route(net, shortest_distances(net, xi), coupling)


def _raise_stuck(net: Network, stuck: np.ndarray) -> None:
    """UnreachableError for the first (source, destination) position pair set in stuck."""
    if stuck.any():
        si, di = np.argwhere(stuck)[0]
        raise UnreachableError(net.sources[si], net.dests[di], net.labels)


def _route(net: Network, table, gamma: np.ndarray) -> np.ndarray:
    """Link flows of sending each mass gamma[si, di] along the table's witness path."""
    used = gamma > 0
    _raise_stuck(net, used & np.isinf(table.matrix))
    flows = [0.0] * net.n_edges
    for (si, di), mass in zip(np.argwhere(used).tolist(), gamma[used].tolist()):
        for e in table.witness(si, di):
            flows[e] += mass
    return np.array(flows)


def _optimal_coupling(net: Network, dmat: np.ndarray, mu, nu) -> OTResult:
    """Exact transport of mu onto nu for the shortest distances dmat (sources
    by destinations). An unreachable pair (inf) is priced at
    M = 2 (n_s + n_d) d_max + 1, with d_max the largest finite distance: an
    augmenting path through it then costs more than any path of reachable
    pairs, so the successive-shortest-path solver takes one only when no
    other is left. A finite matrix is passed on unchanged. Raises
    UnreachableError when the plan puts mass on an unreachable pair."""
    finite = np.isfinite(dmat)
    cost = dmat
    if not finite.all():
        cost = np.where(finite, dmat, 2 * sum(dmat.shape) * dmat[finite].max(initial=0.0) + 1.0)
    res = solve_discrete_ot(DiscreteMeasure(weights=mu), DiscreteMeasure(weights=nu), cost)
    _raise_stuck(net, ~finite & (res.coupling.plan > 0))
    return res


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
    costs = EdgeCosts(spec, net.n_edges)
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

    def direction_vertex(xi):
        """Best all-or-nothing vertex at metric xi plus the linearized value."""
        table = shortest_distances(net, xi)
        dmat = table.matrix
        if demand.kind == "fixed":
            gamma = gamma_fixed
        else:
            gamma = _optimal_coupling(net, dmat, demand.mu, demand.nu).coupling.plan
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


def verify_wardrop(net: Network, result: EquilibriumResult) -> WardropReport:
    """Decompose the flows into path flows by shortest-path peeling and report
    the worst relative excess of a used path over its pair's shortest cost.
    Raises DecompositionFailureError when peeling strands more than 1e-6 units
    of flow."""
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


def brute_force_equilibrium(net: Network, spec, demand: DemandSpec) -> EquilibriumResult:
    """Independent oracle: minimize sum_e H over explicit path flows.

    Every simple path (at most 50) carries a flow q_k >= 0, and one SLSQP
    solve minimizes sum_e H((inc q)_e) subject to A_eq q = b. Fixed demand
    has one row per origin-destination pair with a path. Marginals have the
    source sums and the destination sums, less the last destination sum and
    any other row that a rank-revealing QR finds dependent (where
    reachability splits the pairs into components). The start spreads each
    pair's mass, gamma or mu nu^T / total, evenly over its paths.

    Raises UnreachableError when a pair with positive fixed demand has no
    path, and DecompositionFailureError when SLSQP reports failure or its
    point misses any equality by more than 1e-9 of the total. The gap is
    that of the returned flows against shortest distances, as in the solver.
    """
    from scipy.linalg import qr
    from scipy.optimize import minimize

    costs = EdgeCosts(spec, net.n_edges)
    paths = enumerate_paths(net, cap=50).paths
    n_s, n_d = len(net.sources), len(net.dests)
    src = np.array([net.sources.index(s) for s, _, _ in paths], dtype=int)
    dst = np.array([net.dests.index(d) for _, d, _ in paths], dtype=int)
    cell = src * n_d + dst  # the flattened pair of each path
    count = np.bincount(cell, minlength=n_s * n_d)
    inc = np.zeros((net.n_edges, len(paths)))
    for k, (_, _, p) in enumerate(paths):
        inc[list(p), k] = 1.0

    if demand.kind == "fixed":
        _raise_stuck(net, (demand.gamma > 0) & (count.reshape(n_s, n_d) == 0))
        start, rows = demand.gamma, np.unique(cell)
        a_eq = (cell == rows[:, None]).astype(float)
        b_eq = start.ravel()[rows]
        keep = slice(None)
    else:
        start = np.outer(demand.mu, demand.nu) / (demand.mu.sum() or 1.0)
        a_eq = np.vstack([src == np.arange(n_s)[:, None], dst == np.arange(n_d)[:, None]]).astype(float)
        b_eq = np.concatenate([demand.mu, demand.nu])
        _, r, piv = qr(a_eq[:-1].T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        keep = np.sort(piv[:np.count_nonzero(diag > 1e-9 * diag.max(initial=0.0))])

    res = minimize(
        lambda q: float(np.sum(costs.H(inc @ q))),
        start.ravel()[cell] / count[cell],
        jac=lambda q: inc.T @ costs.g(inc @ q),
        bounds=[(0.0, None)] * len(paths),
        constraints=[{"type": "eq", "fun": lambda q: a_eq[keep] @ q - b_eq[keep],
                      "jac": lambda q: a_eq[keep]}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    q = np.maximum(res.x, 0.0)
    residual = float(np.abs(a_eq @ q - b_eq).max(initial=0.0))
    if not res.success or residual > 1e-9 * start.sum():
        raise DecompositionFailureError(f"path-flow program: {res.message}; "
                                        f"equality residual {residual:.3g}")

    flows = inc @ q
    xi = costs.g(flows)
    coupling = np.bincount(cell, weights=q, minlength=n_s * n_d).reshape(n_s, n_d)
    dmat = shortest_distances(net, xi).matrix
    if demand.kind == "fixed":
        lp = float(np.sum(dmat[coupling > 0] * coupling[coupling > 0]))
    else:
        lp = _optimal_coupling(net, dmat, demand.mu, demand.nu).value
    gap = (float(np.dot(xi, flows)) - lp) / max(lp, GAP_DENOM_FLOOR)
    return EquilibriumResult(flows, coupling, xi, float(np.sum(costs.H(flows))), gap, res.nit)

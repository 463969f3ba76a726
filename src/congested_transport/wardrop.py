"""Congested traffic assignment on networks: minimize sum_e H(i_e) over
routings of the demand, certify the equilibrium property of the result, and
provide an independent reference: one SLSQP solve over explicit path flows
for both demand kinds (brute_force_equilibrium).

The solver is simplicial decomposition (von Hohenbalken, Math. Prog. 1977;
Hearn, Lawphongpanich & Ventura, Math. Prog. Study 1987). Each iteration
finds the shortest paths under the congestioned metric xi = H'(i), with an
exact transport of the marginals when the demand is variable, and certifies
the iterate by the relative duality gap against them. Fixed demand is
disaggregated by origin-destination pair (Larsson & Patriksson, Transp. Sci.
1992): each pair keeps its own simplex of path columns, and an iteration adds
the pair's shortest path when the pair does not hold it yet. Marginal demand
keeps one simplex of all-or-nothing (link flow, coupling) vertices. The
master problem then minimizes sum_e H exactly over the product of the
simplices (projected Newton on the column weights, with a pivot column in
each simplex taking up its sum) and drops the columns whose weight falls to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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
MASTER_STEPS_PER_ROUND = 2  # its steps within one decomposition round
MASTER_GAP_TOL = 1e-14  # its relative gap at which it stops
ARMIJO = 1e-4  # sufficient-decrease fraction of its line search
ARMIJO_STEPS = 40  # step halvings before the line search gives up
ROUNDING = 8 * np.finfo(float).eps  # relative change of the value that is rounding
WEIGHT_FLOOR = 1e-14  # a weight this small counts as zero when a step pushes it down
KKT_SHIFT = 1e-8  # share of each diagonal added to the master's Newton matrix
TRIANGLE_BLOCK = 64  # size below which a triangular solve is one LU solve
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


def _lower_solve(L: np.ndarray, B: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L X = B, or L^T X = B, for lower-triangular L by halves, so the
    work is matrix products. numpy has no triangular solve, and scipy's would
    load a second BLAS library into the process."""
    n = len(L)
    if n <= TRIANGLE_BLOCK:
        return np.linalg.solve(L.T if transpose else L, B)
    h = n // 2
    if transpose:
        low = _lower_solve(L[h:, h:], B[h:], True)
        return np.concatenate([_lower_solve(L[:h, :h], B[:h] - L[h:, :h].T @ low, True), low])
    top = _lower_solve(L[:h, :h], B[:h])
    return np.concatenate([top, _lower_solve(L[h:, h:], B[h:] - L[h:, :h] @ top)])


def _gram(V, c: np.ndarray) -> np.ndarray:
    """V diag(c) V^T as a dense array, for V dense or scipy-sparse CSR."""
    if isinstance(V, np.ndarray):
        return (V * c) @ V.T
    return (type(V)((V.data * c[V.indices], V.indices, V.indptr), shape=V.shape) @ V.T).toarray()


class _NewtonSystem:
    """The master's Newton system on one free set, reduced to the free
    columns other than each group's pivot: its free column of largest weight,
    whose weight takes up the changes of the others, d_pivot = -sum d_other.
    Its matrix R = D diag(H'') D^T, where D holds those columns' flows less
    their pivots', plus KKT_SHIFT of each diagonal, is factored by
    Cholesky."""

    def __init__(self, V, curvature: np.ndarray, w: np.ndarray, free: np.ndarray,
                 groups: np.ndarray, n_groups: int):
        idx = np.flatnonzero(free)
        idx = idx[np.lexsort((-w[idx], groups[idx]))]  # by group, largest weight first
        lead = np.append(True, groups[idx[1:]] != groups[idx[:-1]])
        self.pivot = np.zeros(n_groups, dtype=np.intp)
        self.pivot[groups[idx[lead]]] = idx[lead]  # every group has a free column
        self.other = other = np.sort(idx[~lead])
        self.groups, self.n_groups = groups, n_groups
        R = _gram(V[other] - V[self.pivot[groups[other]]], curvature)
        diag = R.diagonal().copy()
        # each diagonal grows by KKT_SHIFT of itself, a zero one (a column
        # that differs from its pivot on linear edges only) by KKT_SHIFT of
        # the largest: rank-deficient Hessians (linear edges, columns whose
        # differences cancel on every edge) stay positive definite, and a
        # steep empty edge with p < 2 in one column does not damp the step of
        # another
        largest = diag.max(initial=0.0) or 1.0
        R[np.diag_indices_from(R)] += KKT_SHIFT * np.where(diag > 0, diag, largest)
        self.factor = np.linalg.cholesky(R)

    def step(self, g: np.ndarray, w: np.ndarray, hold: np.ndarray) -> np.ndarray | None:
        """Newton direction for gradient g, or None when a pivot has weight
        at most WEIGHT_FLOOR. The columns in ``hold`` stay at zero, and so
        does each column of weight at most WEIGHT_FLOOR that the direction
        pushes down; a held column x_j = 0 borders the system by one row,
        and one solve by the factor serves the gradient and all of them."""
        if (w[self.pivot] <= WEIGHT_FLOOR).any():
            return None
        other, groups = self.other, self.groups
        at_zero = np.flatnonzero(w[other] <= WEIGHT_FLOOR)
        rhs = np.zeros((len(other), 1 + len(at_zero)))
        rhs[:, 0] = g[self.pivot[groups[other]]] - g[other]
        rhs[at_zero, 1 + np.arange(len(at_zero))] = 1.0
        solved = _lower_solve(self.factor, _lower_solve(self.factor, rhs), transpose=True)
        x = first = solved[:, 0]
        held = hold[other[at_zero]]
        while True:
            if held.any():
                y = solved[:, 1:][:, held]
                x = first - y @ np.linalg.solve(y[at_zero[held]], first[at_zero[held]])
                x[at_zero[held]] = 0.0
            push = ~held & (x[at_zero] < 0)
            if not push.any():
                break
            held = held | push
        step = np.zeros(len(g))
        step[other] = x
        step[self.pivot] = -np.bincount(groups[other], x, self.n_groups)
        return step


def _solve_master(V, w: np.ndarray, flows: np.ndarray, costs: EdgeCosts,
                  groups: np.ndarray | None = None, max_steps: int = MASTER_MAX_ITER):
    """Minimize sum_e H_e((V^T w)_e) over the product of the weight simplices
    of the column groups (one simplex when ``groups`` is None) by projected
    Newton.

    ``V`` holds one column flow per row, as a dense array or a scipy-sparse
    CSR one, and ``flows`` is V^T w. A step solves the Newton system of the
    quadratic model (_NewtonSystem) on the free set: the columns with weight
    above WEIGHT_FLOOR, and those below it whose gradient is under their
    group's weighted mean and which the step does not push down. Every other
    step reuses the factor of the step before it, and factors afresh when
    that gives no descent. The weights move by the step, clipped at zero and
    rescaled to each group's sum of 1; the step is cut so that no weight
    moves by more than 1, then halved until the move passes the Armijo test.
    A move that keeps the value within rounding of the lowest one reached and
    moves its linear model by rounding only is taken as well; unless it
    clipped a weight or came from a reused factor, the solve then goes on
    only while the gap falls. The gap is the sum over the groups of the
    weighted mean gradient less the least one. The solve stops at a relative
    gap of MASTER_GAP_TOL or after ``max_steps`` steps. Returns the weights,
    the flows and the value; the flows object is returned unchanged when no
    step was taken.
    """
    if groups is None:
        groups, n_groups = np.zeros(len(w), dtype=np.intp), 1
    else:
        labels, groups = np.unique(groups, return_inverse=True)
        n_groups = len(labels)
    VT = V.T
    value = base = float(np.sum(costs.H(flows)))
    last_gap = np.inf
    system = None
    for _ in range(max_steps):
        g = V @ costs.g(flows)
        mean = np.bincount(groups, g * w, n_groups)
        low = np.full(n_groups, np.inf)
        np.minimum.at(low, groups, g)
        gap = float(np.sum(mean - low))
        if gap <= MASTER_GAP_TOL * (1.0 + abs(value)) or gap >= last_gap:
            break
        free = (w > WEIGHT_FLOOR) | (g < mean[groups])
        step = None if system is None else system.step(g, w, ~free)
        reused = step is not None and (step < 0).any()
        if reused:
            system = None  # the next step factors afresh
        else:
            system = _NewtonSystem(V, _curvature(costs, flows), w, free, groups, n_groups)
            step = system.step(g, w, ~free)
            if not (step < 0).any():
                break
        # a weight moves by at most 1: a longer step (along linear edges)
        # only clips more weights, and halving it would take long
        t = min(1.0, 1.0 / float(np.abs(step).max()))
        rounding = ROUNDING * (1.0 + abs(value))
        for _ in range(ARMIJO_STEPS):
            moved = w + t * step
            w_new = np.maximum(moved, 0.0)
            w_new /= np.bincount(groups, w_new, n_groups)[groups]
            flows_new = VT @ w_new
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
        # after a move of rounding size that clipped no weight, from a fresh
        # factor, go on only while the gap falls
        last_gap = np.inf if descent or reused or (moved < 0).any() else gap
    return w, flows, value


def _simplicial_decomposition(net, spec, demand, tol, max_iter):
    """Simplicial decomposition: new columns at the shortest paths of each
    iteration, then the exact master over the columns kept so far.

    Fixed demand is disaggregated: each origin-destination pair with positive
    demand has its own simplex of path columns, and an iteration adds the
    pair's witness shortest path, carrying all of its demand, when the pair
    does not hold that path already. Marginal demand has one simplex of
    (link flow, coupling) vertices, the all-or-nothing routing of an optimal
    coupling for the shortest distances."""
    costs = EdgeCosts(spec, net.n_edges)
    n_s, n_d = len(net.sources), len(net.dests)
    fixed = demand.kind == "fixed"
    total = float(demand.gamma.sum() if fixed else demand.mu.sum())

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

    from scipy.sparse import csr_array

    if fixed:
        used = demand.gamma > 0
        pairs = np.argwhere(used).tolist()
        mass = demand.gamma[used]

    def candidates(xi):
        """The linearized value at metric xi and the columns it offers, as
        (group, column): each pair's witness path as an edge-id tuple, or the
        marginals' (all-or-nothing flow, flattened coupling)."""
        table = shortest_distances(net, xi)
        dmat = table.matrix
        if fixed:
            _raise_stuck(net, used & np.isinf(dmat))
            return (float(np.sum(dmat[used] * mass)),
                    [(k, table.witness(si, di)) for k, (si, di) in enumerate(pairs)])
        plan = _optimal_coupling(net, dmat, demand.mu, demand.nu).coupling.plan
        return (float(np.sum(dmat[plan > 0] * plan[plan > 0])),
                [(0, (_route(net, table, plan), plan.ravel()))])

    def column_matrix():
        """The flows of the columns, one per row: sparse paths carrying their
        pair's demand, or dense vertices."""
        if not fixed:
            return np.array([flow for _, (flow, _) in columns])
        indptr = np.zeros(len(columns) + 1, dtype=np.intp)
        np.cumsum([len(path) for _, path in columns], out=indptr[1:])
        edges = np.fromiter(chain.from_iterable(path for _, path in columns), np.intp, indptr[-1])
        loads = np.repeat(mass[[k for k, _ in columns]], np.diff(indptr))
        return csr_array((loads, edges, indptr), shape=(len(columns), net.n_edges))

    def coupling():
        if fixed:
            return demand.gamma.copy()
        return (np.array([plan for _, (_, plan) in columns]).T @ w).reshape(n_s, n_d)

    columns = candidates(costs.g(np.zeros(net.n_edges)))[1]
    w = np.ones(len(columns))
    flows = column_matrix().T @ w
    value = float(np.sum(costs.H(flows)))

    rel_gap = np.inf
    it = 0
    obj_hist: list[float] = []
    gap_hist: list[float] = []
    for it in range(1, max_iter + 1):
        xi = costs.g(flows)
        lp_value, offered = candidates(xi)
        rel_gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, GAP_DENOM_FLOOR)
        obj_hist.append(value)
        gap_hist.append(rel_gap)
        if rel_gap <= tol:
            return EquilibriumResult(flows, coupling(), xi, value, rel_gap, it - 1, True,
                                     objective_history=obj_hist, gap_history=gap_hist)
        held = set(columns) if fixed else ()
        offered = [c for c in offered if c not in held]
        columns += offered
        w = np.append(w, np.zeros(len(offered)))
        w, flows_new, value = _solve_master(column_matrix(), w, flows, costs,
                                            np.array([k for k, _ in columns]),
                                            MASTER_STEPS_PER_ROUND)
        if flows_new is flows:
            break  # the new columns do not help: the master is stuck at rounding
        flows = flows_new
        columns = [c for c, keep in zip(columns, w > 0) if keep]
        w = w[w > 0]

    xi = costs.g(flows)
    lp_value, _ = candidates(xi)
    rel_gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, GAP_DENOM_FLOOR)
    converged = rel_gap <= tol
    return EquilibriumResult(flows, coupling(), xi, value, rel_gap, it, converged,
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

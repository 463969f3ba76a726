"""Discrete optimal transport: exact couplings, dual potentials, Wasserstein
costs, the potential-as-derivative identity, and Hotelling price recovery.

The solver is a successive-shortest-path (SSP) min-cost flow with potentials
(Ahuja, Magnanti & Orlin, Network Flows, 1993) on a sparse candidate graph
certified against the dense cost, after Schmitzer ("A sparse multiscale
algorithm for dense optimal transport", J. Math. Imaging Vis. 2016). It
starts from the row- and column-reduction duals of Jonker & Volgenant
(Computing 1987) and routes mass along their zero-reduced-cost arcs first,
so only what is left needs augmenting paths. The graph holds the start's
tight arcs and each row's and each column's CAND least reduced costs. The
rest moves in phases, the primal-dual form of SSP: one compiled Dijkstra
(scipy.sparse.csgraph) on the graph moves the potentials by the distances
capped at the farthest open sink it reached, and every open sink it reached
then takes mass along its tree path, so one search feeds many
augmentations. A row whose arcs outside the set the potential update could
take below zero is checked on the dense cost first, and the arcs that would
go below zero join the set before the search runs again. When no supply is
left, one dense reduced-cost pass certifies the duals on the whole cost,
and a row that fails it drops to its c-transform and routes its mass
again. The solver maintains dual feasibility and complementary slackness
throughout, so the returned potentials certify optimality by strong
duality. scipy.sparse is imported on first use, so importing the package
does not load it. Hotelling demands and prices are taken for the cost
|x - y|^p between firm and consumer coordinates. The '.pts' format of
measures and firm files is read by ``parse_points`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDualError,
    InputFormatError,
    MassMismatchError,
    NonFiniteCostError,
    TransportSolverError,
)
from .network import _read_text, _records

MASS_RTOL = 1e-10
SUPPORT_EPS = 1e-8
# candidate arcs per row and per column of the SSP's sparse graph
CAND = 16
SELECT_BLOCK = 32  # rows or columns per argpartition of the candidate selection


@dataclass
class DiscreteMeasure:
    """Weighted point masses in R^d (points may be omitted when only a cost
    matrix is available)."""

    weights: np.ndarray
    points: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise InputFormatError("weights must be one-dimensional")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise InputFormatError("weights must be finite and nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.weights.sum()):
                raise InputFormatError("the total mass overflows")
        if self.points is not None:
            self.points = np.asarray(self.points, dtype=float)
            if self.points.ndim == 1:
                self.points = self.points[:, None]
            if self.points.shape[0] != self.weights.shape[0]:
                raise InputFormatError("points and weights disagree in length")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass
class Coupling:
    """Transport plan with prescribed marginals."""

    plan: np.ndarray

    def row_sums(self) -> np.ndarray:
        return self.plan.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.plan.sum(axis=0)


@dataclass
class PotentialPair:
    """Dual pair: phi per source point, psi per target point, with
    phi[i] + psi[j] <= cost[i, j] and equality on the support of the plan."""

    phi: np.ndarray
    psi: np.ndarray


@dataclass
class OTResult:
    coupling: Coupling
    potentials: PotentialPair
    value: float
    dual_value: float
    iterations: int  # augmentations
    repairs: int  # rounds that added arcs to the SSP's candidate set
    searches: int  # Dijkstra searches, each feeding one or more augmentations


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances |a_i - b_j| between the rows of two point arrays;
    InputFormatError unless the points have the same dimension. The squares
    are added one coordinate at a time, with no (m, n, d) temporary; up to
    three coordinates that is the float sum of np.sum over the last axis."""
    if a.shape[1] != b.shape[1]:
        raise InputFormatError(f"point dimensions differ: {a.shape[1]} and {b.shape[1]}")
    sq = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def lp_cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> np.ndarray:
    """Pairwise |x - y|^p between the supports (Euclidean norm). An entry
    that overflows, or a zero distance to a negative power, is inf, which the
    solvers reject as a non-finite cost."""
    if mu.points is None or nu.points is None:
        raise InputFormatError("lp metric requires point coordinates")
    with np.errstate(over="ignore", divide="ignore"):
        return np.power(pairwise_distances(mu.points, nu.points), p)


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}. An inner-loop kernel,
    private so that perfbench/tracing.py, which times every public call, does
    not split the time of the wardrop and urbanplan loops that call it."""
    if total <= 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _check_inputs(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: np.ndarray) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (mu.n, nu.n):
        raise InputFormatError(f"cost shape {cost.shape} != ({mu.n}, {nu.n})")
    if not np.all(np.isfinite(cost)):
        raise NonFiniteCostError("cost matrix has non-finite entries")
    ta, tb = mu.total_mass, nu.total_mass
    if abs(ta - tb) > MASS_RTOL * max(ta, tb):
        raise MassMismatchError(f"total masses differ: {ta} vs {tb}")
    return cost


def solve_discrete_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost) -> OTResult:
    """Exact optimal transport between two discrete measures.

    Returns the optimal plan, a feasible dual pair that is complementary-slack
    against the plan (phi normalized so that phi[0] = 0), the primal value and
    the dual value. Primal and dual agree up to float rounding, which is the
    optimality certificate.
    """
    cost = _check_inputs(mu, nu, cost)
    m, n = cost.shape
    a = mu.weights.copy()
    b = nu.weights.copy()
    total = a.sum()

    plan = np.zeros((m, n))
    if total <= 0:
        phi = np.zeros(m)
        psi = cost.min(axis=0) if m else np.zeros(n)
        return OTResult(Coupling(plan), PotentialPair(phi, psi), 0.0, 0.0, 0, 0, 0)

    tol = 1e-13 * total

    # dual-feasible start: row minima, then column minima of the reduced cost
    u = cost.min(axis=1).astype(float)
    v = (cost - u[:, None]).min(axis=0)

    it, repairs, searches = _ssp(cost, a, b, plan, u, v, tol)

    # zero-mass nodes carry no constraints; tighten them onto the c-transform
    dead_src = mu.weights <= 0
    if dead_src.any():
        u[dead_src] = (cost[dead_src] - v[None, :]).min(axis=1)
    dead_snk = nu.weights <= 0
    if dead_snk.any():
        v[dead_snk] = (cost[:, dead_snk] - u[:, None]).min(axis=0)

    # normalization: phi of the first source point is zero
    shift = u[0]
    u = u - shift
    v = v + shift

    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(plan * cost))
        dual = float(np.dot(mu.weights, u) + np.dot(nu.weights, v))
    if not (np.isfinite(value) and np.isfinite(dual)):
        raise NonFiniteCostError("the transport value overflows")
    return OTResult(Coupling(plan), PotentialPair(u, v), value, dual, it, repairs, searches)


class _Arcs:
    """The candidate arcs of _ssp and its residual graph over them, in CSR
    form. The nodes are the m sources then the n sinks. The forward arcs
    i -> m+j, by row then column, carry the reduced cost clipped at 0; a
    tail of backward arcs m+j -> i, by column then row, carries 0 wherever
    plan[i, j] > tol, which csgraph reads as edges because they are
    explicit."""

    def __init__(self, cand: np.ndarray, cost: np.ndarray):
        from scipy.sparse import csr_array

        m, n = cand.shape
        self.m, self.n = m, n
        flat = np.flatnonzero(cand)
        self.nnz = nnz = flat.size
        rows, self.j = np.divmod(flat, n)
        self.per_row = np.bincount(rows, minlength=m)
        self.cost = cost.reshape(-1)[flat]
        col_snk, col_src = np.divmod(np.flatnonzero(cand.T), m)
        self.col_flat = col_src * n + col_snk
        self.col_snk = col_snk.astype(np.int32)
        self.col_src = col_src.astype(np.int32)
        self.data = np.zeros(2 * nnz)
        self.indices = np.empty(2 * nnz, dtype=np.int32)
        self.indices[:nnz] = self.j
        self.indices[:nnz] += m
        self.indptr = np.empty(m + n + 1, dtype=np.int32)
        self.indptr[0] = 0
        np.cumsum(self.per_row, out=self.indptr[1:m + 1])
        # residual() hands the buffers to this one graph, which skips the
        # index checks of the csr_array constructor on every search
        self.graph = csr_array((m + n, m + n))
        self.graph.indptr = self.indptr

    def residual(self, u, v, plan_flat, tol):
        """The residual graph at the potentials u, v, and its forward weights."""
        nnz, m = self.nnz, self.m
        fwd = self.data[:nnz]
        np.subtract(self.cost, np.repeat(u, self.per_row), out=fwd)
        fwd -= v[self.j]
        np.maximum(fwd, 0.0, out=fwd)
        on = plan_flat[self.col_flat] > tol
        src = self.col_src[on]
        end = nnz + src.size
        self.indices[nnz:end] = src
        np.cumsum(np.bincount(self.col_snk[on], minlength=self.n), out=self.indptr[m + 1:])
        self.indptr[m + 1:] += nnz
        self.graph.data = self.data[:end]
        self.graph.indices = self.indices[:end]
        return self.graph, fwd


def _mark_least(mask, values) -> None:
    """Set mask at each row's CAND least values, SELECT_BLOCK rows at a
    time: argpartition returns an int64 index for every entry it is given,
    so a block keeps that temporary small where a whole matrix of them would
    be as large as the cost."""
    k = min(CAND, values.shape[1])
    for start in range(0, len(values), SELECT_BLOCK):
        rows = slice(start, start + SELECT_BLOCK)
        np.put_along_axis(mask[rows], np.argpartition(values[rows], k - 1, axis=1)[:, :k],
                          True, axis=1)


def _ssp(cost, a, b, plan, u, v, tol):
    """Successive shortest paths with potentials on a sparse candidate graph,
    certified on the dense cost.

    Start: on entry every column has a zero reduced cost (the column-min
    duals). One more row reduction gives every row one too without losing
    the columns' zeros, since a row holding a column's zero has row minimum
    zero. Mass then goes along these tight arcs: each column to its
    lowest-index tight row, then each row that still has supply to its tight
    open columns, in index order. Only the mass left over is augmented.

    Candidate set: the start's tight arcs plus each row's and each column's
    CAND least reduced costs at the start. A side of at most CAND points
    makes every arc a candidate, and then the set is the dense graph. Mass
    only moves along arcs of the set, so the plan's support stays inside it.

    Phases: each runs one compiled multi-source Dijkstra over the residual
    graph of the set (see _Arcs) from the roots, the sources with supply
    left. The search stops at the cap, the least reduced cost of an arc of
    the set from a root to an open sink, which puts that sink within it.
    Dijkstra settles nodes in order of distance, so every node within the
    cap gets its exact distance and a predecessor on a shortest path. The
    phase's reach D is the distance of the farthest open sink reached (at
    most the cap), and the potentials move by min(dist, D): a node past the
    cap has distance above D, so its update is D either way. That keeps
    every reduced cost nonnegative and makes every arc of the search forest
    within D tight, so each open sink reached takes mass along its tree
    path from its root, in order of distance, then index. The bottleneck
    of each path (its root's supply, its sink's demand and the plan on its
    backward arcs) is read when its turn comes: the first is positive, and
    a later path that an earlier one emptied is skipped. A reach below the
    cap moves the potentials less, so fewer rows need the check below.

    The update must not take an arc outside the set below zero: such an arc
    is a shorter path that the set missed. It lowers the reduced costs of
    row i by at most D - min(dist[i], D), so each row keeps a lower bound
    on those of its arcs outside the set, and only a row whose bound could
    go below zero is checked, on its dense row. A row that fails
    the check takes the failing arcs and its CAND least outside ones, and
    the search runs again. So every potential update is the one the dense
    graph gives, and the plans agree with the dense solver's up to ties
    between equally short paths. If no path of the set reaches an open
    sink, each root takes an arc to every open sink.

    Certificate: when no supply is left, one dense pass over
    cost - u[:,None] - v[None,:] checks the duals on the whole cost. An arc
    below the rounding tolerance would join the set, its row's potential
    drop to its c-transform min_j cost[i, j] - v[j] and the mass the row
    shipped go back to the remaining supplies and demands, and the
    augmentations resume; the row checks above leave nothing for it to find
    but rounding. Rows and columns of zero mass are left out of the checks:
    solve_discrete_ot sets their potentials to the c-transform afterwards.

    Invariants, up to rounding: cost - u[:,None] - v[None,:] >= 0 on every
    arc, and zero on every arc with plan > 0. Each augmentation zeroes a
    remaining supply, a remaining deficit, or a plan entry, each phase makes
    at least one, and every other round adds arcs to the set, so the loop
    is finite. Supply left beyond the imbalance that _check_inputs accepts
    raises TransportSolverError. Returns the number of augmentations, the
    number of rounds that added arcs (repairs) and the number of Dijkstra
    searches.
    """
    from scipy.sparse.csgraph import dijkstra

    m, n = cost.shape
    a_rem = a.copy()
    b_rem = b.copy()

    def ship(i, j, delta):
        plan[i, j] += delta
        a_rem[i] -= delta
        b_rem[j] -= delta
        if a_rem[i] < tol:
            a_rem[i] = 0.0
        if b_rem[j] < tol:
            b_rem[j] = 0.0

    rc = cost - u[:, None]
    rc -= v
    row_min = rc.min(axis=1)
    u += row_min
    tight = rc == row_min[:, None]
    for j, i in enumerate(np.argmax(tight, axis=0)):
        if a_rem[i] > tol and b_rem[j] > tol:
            ship(i, j, min(a_rem[i], b_rem[j]))
    for i in np.flatnonzero(a_rem > tol):
        for j in np.flatnonzero(tight[i] & (b_rem > tol)):
            ship(i, j, min(a_rem[i], b_rem[j]))
            if a_rem[i] <= tol:
                break

    rc -= row_min[:, None]
    cand = tight
    _mark_least(cand, rc)
    _mark_least(cand.T, rc.T)
    # zero-mass rows and columns are left out of every check: solve_discrete_ot
    # sets their potentials to the c-transform afterwards
    dead = (a <= 0)[:, None] | (b <= 0)
    # per row, a lower bound on the reduced costs of its arcs outside the set
    rc[cand | dead] = np.inf
    lb = np.maximum(rc.min(axis=1), 0.0)
    del rc
    cost_max = max(float(cost.max()), -float(cost.min()))

    def rc_tol():
        """The rounding tolerance of a reduced cost."""
        return 1e-13 * max(cost_max, float(np.abs(u).max()), float(np.abs(v).max()))

    arcs = _Arcs(cand, cost)
    plan_flat = plan.reshape(-1)
    iterations = 0
    repairs = 0
    searches = 0
    guard = 50 * (m + n) + 1000

    while True:
        is_root = a_rem > tol
        is_open = b_rem > tol
        roots = np.flatnonzero(is_root)
        open_snk = np.flatnonzero(is_open)
        if roots.size == 0 or open_snk.size == 0:
            # every sink is full: the supply left is the excess that
            # _check_inputs allows plus at most tol dropped at each sink
            if a_rem.sum() > MASS_RTOL * max(a.sum(), b.sum()) + n * tol:
                raise TransportSolverError("no augmenting path found; supply exceeds demand?")
            if arcs.nnz == m * n:
                break
            slack = cost - u[:, None]
            slack -= v
            new = (slack < -rc_tol()) & ~(cand | dead)
            if not new.any():
                break
            # a row holding an arc below zero drops to its c-transform and
            # returns the mass it shipped
            repairs += 1
            cand |= new
            rows = new.any(axis=1)
            lb = np.maximum(np.where(cand | dead, np.inf, slack).min(axis=1), 0.0)
            lb[rows] = 0.0
            u[rows] = (cost[rows] - v).min(axis=1)
            shipped = plan[rows]
            a_rem[rows] += shipped.sum(axis=1)
            b_rem += shipped.sum(axis=0)
            plan[rows] = 0.0
            arcs = _Arcs(cand, cost)
            continue

        graph, fwd = arcs.residual(u, v, plan_flat, tol)
        cap = fwd[np.repeat(is_root, arcs.per_row) & is_open[arcs.j]].min(initial=np.inf)
        dist, pred, _ = dijkstra(graph, indices=roots, min_only=True, return_predecessors=True,
                                 limit=cap)
        searches += 1
        dist_s, dist_t = dist[:m], dist[m:]

        d_open = dist_t[open_snk]
        reached = np.isfinite(d_open)
        if not reached.any():
            # no candidate path: each root takes an arc to every open sink
            repairs += 1
            cand[np.ix_(roots, open_snk)] = True
            arcs = _Arcs(cand, cost)
            continue
        reach = d_open[reached].max()
        # with D = reach, the potential update u -= min(dist_s, D),
        # v += min(dist_t, D) keeps the set's reduced costs nonnegative and
        # its support arcs tight, and lowers those of row i's arcs outside
        # the set by at most D - min(dist_s[i], D). A row whose lower bound
        # that may take below zero is checked on its dense row: an arc that
        # the update would take below zero is a shorter path the set missed
        np.minimum(dist, reach, out=dist)
        lb_next = lb - (reach - dist_s)
        risk = np.flatnonzero(lb_next < 0)
        if risk.size:
            slack = cost[risk] - (u[risk] - dist_s[risk])[:, None]
            slack -= v + dist_t
            slack[cand[risk] | dead[risk]] = np.inf
            low = slack.min(axis=1)
            below = -rc_tol()
            short = low < below
            if short.any():
                # such a row takes those arcs and its CAND least outside
                # ones, and the search runs again
                repairs += 1
                slack = slack[short]
                k = min(CAND, n)
                kth = np.partition(slack, k - 1, axis=1)[:, k - 1:k]
                cand[risk[short]] |= ((slack <= kth) | (slack < below)) & (slack < np.inf)
                arcs = _Arcs(cand, cost)
                continue
            lb_next[risk] = np.maximum(low, 0.0)
        lb = lb_next
        u -= dist_s
        v += dist_t

        # each reached open sink, nearest first, takes mass along its tree
        # path; a path that an earlier one emptied is skipped
        pred = pred.tolist()
        for target in open_snk[reached][np.argsort(d_open[reached], kind="stable")].tolist():
            arcs_fwd = []
            arcs_bwd = []
            j = target
            while True:
                i = pred[m + j]
                arcs_fwd.append((i, j))
                j_prev = pred[i] - m
                if j_prev < 0:
                    root = i
                    break
                arcs_bwd.append((i, j_prev))
                j = j_prev

            delta = min(a_rem[root], b_rem[target])
            for arc in arcs_bwd:
                delta = min(delta, plan[arc])
            if delta <= 0.0:
                continue
            iterations += 1
            if iterations > guard:
                raise TransportSolverError("transport solver exceeded its augmentation guard")

            for arc in arcs_fwd:
                plan[arc] += delta
            for arc in arcs_bwd:
                plan[arc] -= delta
                if plan[arc] < tol:
                    plan[arc] = 0.0
            a_rem[root] -= delta
            b_rem[target] -= delta
            if a_rem[root] < tol:
                a_rem[root] = 0.0
            if b_rem[target] < tol:
                b_rem[target] = 0.0

    return iterations, repairs, searches


def check_coupling(coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Largest marginal violation of the plan."""
    err_r = np.abs(coupling.row_sums() - mu.weights).max(initial=0.0)
    err_c = np.abs(coupling.col_sums() - nu.weights).max(initial=0.0)
    return float(max(err_r, err_c))


def check_potentials(pot: PotentialPair, coupling: Coupling, cost) -> tuple[float, float]:
    """(max feasibility violation, max complementary-slackness violation).
    The support is the entries above SUPPORT_EPS of the plan's total mass."""
    cost = np.asarray(cost, dtype=float)
    gap = pot.phi[:, None] + pot.psi[None, :] - cost
    feas = float(gap.max(initial=-np.inf))
    on_support = coupling.plan > SUPPORT_EPS * coupling.plan.sum()
    slack = float(np.abs(gap[on_support]).max(initial=0.0))
    return feas, slack


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p^p(mu, nu), the optimal value for the cost |x - y|^p (not the root)."""
    if p < 1:
        raise InputFormatError(f"wasserstein exponent must be >= 1, got {p}")
    return solve_discrete_ot(mu, nu, lp_cost_matrix(mu, nu, p)).value


def wasserstein_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """W_p(mu, nu) = (W_p^p)^(1/p)."""
    return wasserstein_p(mu, nu, p) ** (1.0 / p)


def _union_support(mu: DiscreteMeasure, mu1: DiscreteMeasure):
    """Common point list, in order of first appearance, carrying both weight
    vectors (zero-padded); a repeated point's weights are summed in order."""
    if mu.points is None or mu1.points is None:
        raise InputFormatError("gateaux check requires point coordinates")
    if mu1.points.shape[1] != mu.points.shape[1]:
        raise InputFormatError("point dimensions differ")
    pts = np.concatenate([mu.points, mu1.points])
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # np.unique sorts the rows; renumber them by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slot = rank[inverse.reshape(-1)]
    a0 = np.bincount(slot[:mu.n], weights=mu.weights, minlength=order.size)
    a1 = np.bincount(slot[mu.n:], weights=mu1.weights, minlength=order.size)
    return pts[first[order]], a0, a1


def _support_connected(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """True when the optimal-plan support graph joins every positive-mass
    node; the support is the entries above SUPPORT_EPS of the plan's mass."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    m, n = plan.shape
    live = np.concatenate([a > 0, b > 0])
    if not live.any():
        return True
    ii, jj = np.nonzero(plan > SUPPORT_EPS * plan.sum())
    support = coo_array((np.ones(ii.size), (ii, m + jj)), shape=(m + n, m + n))
    _, labels = connected_components(support, directed=False)
    return bool(np.all(labels[live] == labels[live][0]))


@dataclass
class GateauxReport:
    inner: float
    fd: dict[float, float] = field(default_factory=dict)
    err: dict[float, float] = field(default_factory=dict)

    @property
    def max_err(self) -> float:
        return max(self.err.values()) if self.err else 0.0


def gateaux_check(mu: DiscreteMeasure, nu: DiscreteMeasure, mu1: DiscreteMeasure,
                  p: float, eps_list) -> GateauxReport:
    """Compare the finite difference of eps -> W_p^p((1-eps)mu + eps*mu1, nu)
    against the potential pairing sum(phi * (mu1 - mu)).

    The source potential is extended off the support of mu by the c-transform
    of the target potential. Refuses (DegenerateDualError) when the optimal
    plan's support graph is disconnected, because then the potential is not
    unique and the derivative formula has no well-defined value.
    """
    pts, a0, a1 = _union_support(mu, mu1)
    if abs(a0.sum() - a1.sum()) > MASS_RTOL * max(a0.sum(), a1.sum()):
        raise MassMismatchError("mu and mu1 must carry equal mass")
    base = DiscreteMeasure(weights=a0, points=pts)
    cost = lp_cost_matrix(base, nu, p)
    res = solve_discrete_ot(base, nu, cost)
    if not _support_connected(res.coupling.plan, a0, nu.weights):
        raise DegenerateDualError("optimal plan support is disconnected; potential not unique")

    live_cols = nu.weights > 0
    phi_ext = (cost[:, live_cols] - res.potentials.psi[None, live_cols]).min(axis=1)
    inner = float(np.dot(phi_ext, a1 - a0))

    report = GateauxReport(inner=inner)
    w0 = res.value
    for eps in eps_list:
        eps = float(eps)
        blend = DiscreteMeasure(weights=(1 - eps) * a0 + eps * a1, points=pts)
        w_eps = solve_discrete_ot(blend, nu, cost).value
        fd = (w_eps - w0) / eps
        report.fd[eps] = fd
        report.err[eps] = abs(fd - inner)
    return report


def hotelling_demands(firm_points: np.ndarray, prices: np.ndarray,
                      consumers: DiscreteMeasure, metric_p: float = 1.0):
    """Assign each consumer to the firm minimizing access cost plus price.

    Ties go to the lowest firm index. Returns (assignment, demands) where
    assignment[k] is the chosen firm for consumer point k and demands[i] is
    the consumer mass captured by firm i.
    """
    firm_points = np.atleast_2d(np.asarray(firm_points, dtype=float))
    prices = np.asarray(prices, dtype=float)
    n_firms = firm_points.shape[0]
    if prices.shape != (n_firms,):
        raise InputFormatError("one price per firm required")
    firms = DiscreteMeasure(weights=np.ones(n_firms), points=firm_points)
    cost = lp_cost_matrix(firms, consumers, metric_p)
    if not np.all(np.isfinite(cost)):
        raise NonFiniteCostError("cost matrix has non-finite entries")
    score = cost + prices[:, None]
    assignment = np.argmin(score, axis=0)
    demands = np.zeros(n_firms)
    np.add.at(demands, assignment, consumers.weights)
    return assignment, demands


def hotelling_recover_prices(firm_points: np.ndarray, demands: np.ndarray,
                             consumers: DiscreteMeasure, metric_p: float = 1.0) -> np.ndarray:
    """Recover prices (up to a constant, firm 0 pinned to 0) from demands.

    The price vector is a dual potential of the transport from the firm
    measure sum_i d_i delta_{x_i} to the consumers. Within the optimal dual
    face we return the canonical minimal representative: the pointwise-least
    prices compatible with the served assignments, computed by a longest-path
    pass over the firm-exchange constraints. With the tie convention of
    hotelling_demands this inverts the demand map exactly whenever the
    assignment graph is connected.
    """
    firm_points = np.atleast_2d(np.asarray(firm_points, dtype=float))
    demands = np.asarray(demands, dtype=float)
    n_firms = firm_points.shape[0]
    firms = DiscreteMeasure(weights=demands, points=firm_points)
    cost = lp_cost_matrix(firms, consumers, metric_p)
    total = consumers.total_mass
    if abs(demands.sum() - total) > MASS_RTOL * max(demands.sum(), total):
        raise MassMismatchError("demands must sum to the consumer mass")

    res = solve_discrete_ot(firms, consumers, cost)
    plan = res.coupling.plan
    thr = SUPPORT_EPS * total

    # p_j - p_i >= max over consumers served by i of cost[i,x] - cost[j,x]
    bound = np.full((n_firms, n_firms), -np.inf)
    for i in range(n_firms):
        served = plan[i] > thr
        if not served.any():
            continue
        diff = cost[i, served][None, :] - cost[:, served]
        bound[:, i] = diff.max(axis=1)  # bound[j, i] = max_{x served by i} c[i,x] - c[j,x]
    prices = np.full(n_firms, -np.inf)
    prices[0] = 0.0
    for _ in range(n_firms):
        changed = False
        for i in range(n_firms):
            if not np.isfinite(prices[i]):
                continue
            cand = prices[i] + bound[:, i]
            upd = cand > prices + 1e-15
            if upd.any():
                prices[upd] = cand[upd]
                changed = True
        if not changed:
            break
    if not np.all(np.isfinite(prices)):
        # disconnected assignment graph: fall back to the raw LP dual
        fallback = -res.potentials.phi
        return fallback - fallback[0]
    return prices - prices[0]


def parse_numbers(fields, where: str) -> list[float]:
    """The fields of one input line as floats; InputFormatError if one is not a number."""
    try:
        return [float(x) for x in fields]
    except ValueError:
        raise InputFormatError(f"{where}: non-numeric field in {' '.join(fields)!r}") from None


def parse_points(text: str, where: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) coordinates and the n trailing values (a measure's weights or
    a firm file's prices) of the '.pts' lines 'point <x> [<y> ...] <value>'.
    InputFormatError, naming ``where`` and the line, unless there is a point,
    all of one dimension, and every field is a finite number."""
    rows = []
    for lineno, parts in _records(text):
        at = f"{where}:{lineno}"
        if parts[0].lower() != "point" or len(parts) < 3:
            raise InputFormatError(f"{at}: expected 'point <coords...> <value>'")
        vals = parse_numbers(parts[1:], at)
        if not np.all(np.isfinite(vals)):
            raise InputFormatError(f"{at}: non-finite field in {' '.join(parts[1:])!r}")
        if rows and len(vals) != len(rows[0]):
            raise InputFormatError(f"{at}: inconsistent point dimension")
        rows.append(vals)
    if not rows:
        raise InputFormatError(f"{where}: contains no points")
    rows = np.array(rows)
    return rows[:, :-1], rows[:, -1]


def parse_measure(text: str) -> DiscreteMeasure:
    """The measure of a '.pts' text (see parse_points); its values are the weights."""
    points, weights = parse_points(text, "<string>")
    return DiscreteMeasure(weights=weights, points=points)


def load_measure(path) -> DiscreteMeasure:
    points, weights = parse_points(_read_text(path), str(path))
    return DiscreteMeasure(weights=weights, points=points)

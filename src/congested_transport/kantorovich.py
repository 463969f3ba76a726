"""Discrete optimal transport: exact couplings, dual potentials, Wasserstein
costs, the potential-as-derivative identity, and Hotelling price recovery.

The solver is a successive-shortest-path min-cost flow on the dense bipartite
graph, with one compiled Dijkstra (scipy.sparse.csgraph) per augmentation. It
maintains dual feasibility and complementary slackness throughout, so the
returned potentials certify optimality by strong duality. scipy.sparse is
imported on first use, so importing the package does not load it.
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

MASS_RTOL = 1e-10
SUPPORT_EPS = 1e-8


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
    iterations: int


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances |a_i - b_j| between the rows of two point arrays;
    InputFormatError unless the points have the same dimension."""
    if a.shape[1] != b.shape[1]:
        raise InputFormatError(f"point dimensions differ: {a.shape[1]} and {b.shape[1]}")
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def lp_cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> np.ndarray:
    """Pairwise |x - y|^p between the supports (Euclidean norm)."""
    if mu.points is None or nu.points is None:
        raise InputFormatError("lp metric requires point coordinates")
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
    if abs(ta - tb) > MASS_RTOL * max(1.0, ta, tb):
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
        return OTResult(Coupling(plan), PotentialPair(phi, psi), 0.0, 0.0, 0)

    tol = 1e-13 * max(1.0, total)

    # dual-feasible start: row minima, then column minima of the reduced cost
    u = cost.min(axis=1).astype(float)
    v = (cost - u[:, None]).min(axis=0)

    if n == 1:
        plan[:, 0] = a
        it = 1
    elif m == 1:
        plan[0, :] = b
        it = 1
    else:
        it = _ssp(cost, a, b, plan, u, v, tol)

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

    value = float(np.sum(plan * cost))
    dual = float(np.dot(mu.weights, u) + np.dot(nu.weights, v))
    return OTResult(Coupling(plan), PotentialPair(u, v), value, dual, it)


def _ssp(cost, a, b, plan, u, v, tol):
    """Successive shortest paths with potentials on the dense bipartite graph.

    Each augmentation runs one compiled multi-source Dijkstra over the
    residual graph: nodes are the m sources then the n sinks, forward arcs
    i -> m+j carry the reduced cost, and backward arcs m+j -> i carry 0
    wherever plan[i, j] > tol. The target is the lowest-index sink that still
    needs mass at minimum distance.

    Invariants: cost - u[:,None] - v[None,:] >= 0 everywhere, and zero on
    every arc with plan > 0. Each augmentation zeroes a remaining supply, a
    remaining deficit, or a plan entry, so the loop is finite.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    m, n = cost.shape
    a_rem = a.copy()
    b_rem = b.copy()
    iterations = 0
    guard = 50 * (m + n) + 1000
    # forward arcs are fixed; explicit zeros in the CSR are edges to csgraph
    fwd_indices = np.tile(np.arange(m, m + n, dtype=np.int32), m)
    fwd_indptr = np.arange(0, m * n + 1, n, dtype=np.int32)

    while True:
        roots = np.flatnonzero(a_rem > tol)
        if roots.size == 0:
            break
        iterations += 1
        if iterations > guard:
            raise TransportSolverError("transport solver exceeded its augmentation guard")

        snk, src = np.divmod(np.flatnonzero(plan.T > tol), m)
        rc = cost - u[:, None]
        rc -= v
        np.maximum(rc, 0.0, out=rc)
        graph = csr_array(
            (np.concatenate([rc.ravel(), np.zeros(src.size)]),
             np.concatenate([fwd_indices, src.astype(np.int32)]),
             np.concatenate([fwd_indptr,
                             m * n + np.cumsum(np.bincount(snk, minlength=n), dtype=np.int32)])),
            shape=(m + n, m + n))
        dist, pred, _ = dijkstra(graph, indices=roots, min_only=True, return_predecessors=True)
        dist_s, dist_t = dist[:m], dist[m:]

        open_dist = np.where(b_rem > tol, dist_t, np.inf)
        target = int(np.argmin(open_dist))
        d_star = open_dist[target]
        if not np.isfinite(d_star):
            raise TransportSolverError("no augmenting path found; supply exceeds demand?")
        # potential update keeps reduced costs nonnegative and support arcs tight
        u -= np.minimum(dist_s, d_star)
        v += np.minimum(dist_t, d_star)

        # walk back from the target sink to a root source
        arcs_fwd = []
        arcs_bwd = []
        j = target
        while True:
            i = int(pred[m + j])
            arcs_fwd.append((i, j))
            j_prev = int(pred[i]) - m
            if j_prev < 0:
                root = i
                break
            arcs_bwd.append((i, j_prev))
            j = j_prev

        delta = min(a_rem[root], b_rem[target])
        for i, j2 in arcs_bwd:
            delta = min(delta, plan[i, j2])
        delta = max(delta, 0.0)

        for i, j2 in arcs_fwd:
            plan[i, j2] += delta
        for i, j2 in arcs_bwd:
            plan[i, j2] -= delta
            if plan[i, j2] < tol:
                plan[i, j2] = 0.0
        a_rem[root] -= delta
        b_rem[target] -= delta
        if a_rem[root] < tol:
            a_rem[root] = 0.0
        if b_rem[target] < tol:
            b_rem[target] = 0.0

    return iterations


def check_coupling(coupling: Coupling, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Largest marginal violation of the plan."""
    err_r = np.abs(coupling.row_sums() - mu.weights).max(initial=0.0)
    err_c = np.abs(coupling.col_sums() - nu.weights).max(initial=0.0)
    return float(max(err_r, err_c))


def check_potentials(pot: PotentialPair, coupling: Coupling, cost) -> tuple[float, float]:
    """(max feasibility violation, max complementary-slackness violation)."""
    cost = np.asarray(cost, dtype=float)
    gap = pot.phi[:, None] + pot.psi[None, :] - cost
    feas = float(gap.max(initial=-np.inf))
    on_support = coupling.plan > SUPPORT_EPS
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
    """Common point list carrying both weight vectors (zero-padded)."""
    if mu.points is None or mu1.points is None:
        raise InputFormatError("gateaux check requires point coordinates")
    d = mu.points.shape[1]
    if mu1.points.shape[1] != d:
        raise InputFormatError("point dimensions differ")
    index: dict[bytes, int] = {}
    pts: list[np.ndarray] = []

    def key(row):
        return np.ascontiguousarray(row).tobytes()

    def intern(row):
        k = key(row)
        if k not in index:
            index[k] = len(pts)
            pts.append(row)
        return index[k]

    w0 = {}
    for row, w in zip(mu.points, mu.weights):
        w0[intern(row)] = w0.get(intern(row), 0.0) + w
    w1 = {}
    for row, w in zip(mu1.points, mu1.weights):
        w1[intern(row)] = w1.get(intern(row), 0.0) + w
    pts_arr = np.vstack(pts)
    a0 = np.zeros(len(pts))
    a1 = np.zeros(len(pts))
    for i, w in w0.items():
        a0[i] = w
    for i, w in w1.items():
        a1[i] = w
    return pts_arr, a0, a1


def _support_connected(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """True when the optimal-plan support graph joins every positive-mass node."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    m, n = plan.shape
    live = np.concatenate([a > 0, b > 0])
    if not live.any():
        return True
    ii, jj = np.nonzero(plan > SUPPORT_EPS * max(1.0, plan.sum()))
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
    if abs(a0.sum() - a1.sum()) > MASS_RTOL * max(1.0, a0.sum()):
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
                      consumers: DiscreteMeasure, cost=None, metric_p: float = 1.0):
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
    if cost is None:
        firms = DiscreteMeasure(weights=np.ones(n_firms), points=firm_points)
        cost = lp_cost_matrix(firms, consumers, metric_p)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (n_firms, consumers.n):
        raise InputFormatError(f"cost shape {cost.shape} != ({n_firms}, {consumers.n})")
    score = cost + prices[:, None]
    assignment = np.argmin(score, axis=0)
    demands = np.zeros(n_firms)
    np.add.at(demands, assignment, consumers.weights)
    return assignment, demands


def hotelling_recover_prices(firm_points: np.ndarray, demands: np.ndarray,
                             consumers: DiscreteMeasure, cost=None, metric_p: float = 1.0) -> np.ndarray:
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
    if cost is None:
        cost = lp_cost_matrix(firms, consumers, metric_p)
    cost = np.asarray(cost, dtype=float)
    total = consumers.total_mass
    if abs(demands.sum() - total) > MASS_RTOL * max(1.0, total):
        raise MassMismatchError("demands must sum to the consumer mass")
    if n_firms == 1:
        return np.zeros(1)

    res = solve_discrete_ot(firms, consumers, cost)
    plan = res.coupling.plan
    thr = SUPPORT_EPS * max(1.0, total)

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


def parse_measure(text: str) -> DiscreteMeasure:
    """Read 'point <x> [<y> ...] <weight>' lines ('#' starts a comment)."""
    pts = []
    ws = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].lower() != "point" or len(parts) < 3:
            raise InputFormatError(f"line {lineno}: expected 'point <coords...> <weight>'")
        vals = parse_numbers(parts[1:], f"line {lineno}")
        coords, w = vals[:-1], vals[-1]
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise InputFormatError(f"line {lineno}: inconsistent point dimension")
        pts.append(coords)
        ws.append(w)
    if not pts:
        raise InputFormatError("measure file contains no points")
    return DiscreteMeasure(weights=np.array(ws), points=np.array(pts))


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure(fh.read())

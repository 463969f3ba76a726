import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_transport import wardrop
from congested_transport.congestion import CongestionSpec, EdgeCosts
from congested_transport.errors import NegativeFlowError
from congested_transport.kantorovich import DiscreteMeasure, _project_simplex, solve_discrete_ot
from congested_transport.network import Network, enumerate_paths, shortest_distances
from congested_transport.wardrop import (
    DemandSpec,
    EquilibriumResult,
    all_or_nothing,
    brute_force_equilibrium,
    link_metric,
    objective,
    solve_fixed_demand,
    solve_variable_demand,
    verify_conservation,
    verify_wardrop,
)
from test_acceptance import network_suite

QUAD = CongestionSpec.quadratic()
LIN = CongestionSpec.monomial(1.0)
AFFQ = CongestionSpec.affine_power(1.0, 2.0)
CUBE = CongestionSpec.monomial(3.0)


def pigou():
    net = Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])
    return net, [QUAD, LIN]


def diamond():
    return Network(n_nodes=4, edges=[(0, 1), (1, 3), (0, 2), (2, 3)], sources=[0], dests=[3])


def test_objective_examples():
    assert objective(np.zeros(3), QUAD) == 0.0
    assert objective(np.array([1.0, 2.0]), QUAD) == pytest.approx(2.5)
    assert objective(np.array([1.0, 1.0, 1.0]), AFFQ) == pytest.approx(4.5)
    with pytest.raises(NegativeFlowError):
        objective(np.array([-0.1, 1.0]), QUAD)


def test_link_metric_examples():
    assert np.allclose(link_metric(np.array([0.0, 3.0]), QUAD), [0.0, 3.0])
    assert np.allclose(link_metric(np.array([0.0, 3.0]), AFFQ), [1.0, 4.0])
    assert np.allclose(link_metric(np.array([2.0]), CUBE), [4.0])


def test_all_or_nothing_examples():
    net, _ = pigou()
    flows = all_or_nothing(net, np.array([1.0, 2.0]), np.array([[5.0]]))
    assert np.allclose(flows, [5.0, 0.0])
    flows_tie = all_or_nothing(net, np.array([1.0, 1.0]), np.array([[4.0]]))
    assert np.allclose(flows_tie, [4.0, 0.0])  # lexicographic tie-break
    dia = diamond()
    xi = np.array([1.0, 2.0, 2.0, 1.0])
    flows_d = all_or_nothing(dia, xi, np.array([[1.0]]))
    assert np.allclose(flows_d, [1.0, 1.0, 0.0, 0.0])
    # realized cost equals shortest-distance pairing
    table = shortest_distances(dia, xi)
    assert float(xi @ flows_d) == pytest.approx(table.dist[(0, 3)] * 1.0)


def test_pigou_equilibrium():
    net, specs = pigou()
    res = solve_fixed_demand(net, specs, [[1.0]], tol=1e-8)
    assert res.converged
    assert np.allclose(res.flows, [1.0, 0.0], atol=1e-7)
    assert np.allclose(res.xi, [1.0, 1.0], atol=1e-7)  # both routes cost one
    assert res.objective == pytest.approx(0.5, abs=1e-7)
    assert res.relative_gap <= 1e-8


def test_zero_demand():
    net, specs = pigou()
    res = solve_fixed_demand(net, specs, [[0.0]])
    assert res.objective == 0.0
    assert res.relative_gap == 0.0
    assert np.allclose(res.flows, 0.0)


def test_diamond_symmetry():
    res = solve_fixed_demand(diamond(), QUAD, [[2.0]], tol=1e-8)
    assert np.allclose(res.flows, 1.0, atol=1e-6)


def test_monotone_descent_and_gap_sign():
    net = Network(
        n_nodes=6,
        edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (1, 2), (2, 4)],
        sources=[0], dests=[5],
    )
    specs = [QUAD, AFFQ, LIN, QUAD, CUBE, AFFQ, QUAD, LIN, QUAD]
    res = solve_fixed_demand(net, specs, [[2.0]], tol=1e-8)
    assert res.converged
    hist = np.array(res.objective_history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert np.all(np.array(res.gap_history) >= -1e-10)


def test_variable_demand_singleton_matches_fixed():
    net, specs = pigou()
    res_v = solve_variable_demand(net, specs, [1.0], [1.0], tol=1e-8)
    res_f = solve_fixed_demand(net, specs, [[1.0]], tol=1e-8)
    assert abs(res_v.objective - res_f.objective) <= 1e-6


def variable_net():
    # sources 0, 1; dests 2, 3; cheap direct links, expensive cross links
    net = Network(n_nodes=4, edges=[(0, 2), (1, 3), (0, 3), (1, 2)],
                  sources=[0, 1], dests=[2, 3])
    specs = [QUAD, QUAD, CongestionSpec.affine_power(5.0, 2.0),
             CongestionSpec.affine_power(5.0, 2.0)]
    return net, specs


def test_variable_demand_picks_diagonal_coupling():
    net, specs = variable_net()
    res = solve_variable_demand(net, specs, [0.5, 0.5], [0.5, 0.5], tol=1e-8)
    assert res.converged
    assert np.allclose(res.coupling, np.diag([0.5, 0.5]), atol=1e-7)
    # marginals of the returned coupling
    assert np.allclose(res.coupling.sum(axis=1), [0.5, 0.5], atol=1e-8)
    assert np.allclose(res.coupling.sum(axis=0), [0.5, 0.5], atol=1e-8)


def test_variable_demand_same_node_set_stays_diagonal():
    # sources and destinations coincide; staying put costs nothing, so the
    # optimal coupling is the diagonal one (1-parameter family oracle: moving
    # t units across costs t * (d01 + d10) > 0)
    net = Network(n_nodes=2, edges=[(0, 1), (1, 0)], sources=[0, 1], dests=[0, 1])
    specs = [AFFQ, AFFQ]
    res = solve_variable_demand(net, specs, [0.5, 0.5], [0.5, 0.5], tol=1e-10)
    assert res.converged
    assert np.allclose(res.coupling, np.diag([0.5, 0.5]), atol=1e-10)
    assert np.allclose(res.flows, 0.0, atol=1e-10)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_variable_demand_kantorovich_optimality():
    net, specs = variable_net()
    rng = np.random.default_rng(2)
    for _ in range(3):
        mu = rng.uniform(0.2, 1.0, 2)
        nu = rng.uniform(0.2, 1.0, 2)
        nu *= mu.sum() / nu.sum()
        res = solve_variable_demand(net, specs, mu, nu, tol=1e-8)
        assert res.converged
        table = shortest_distances(net, res.xi)
        dmat = np.array([[table.dist[(s, d)] for d in net.dests] for s in net.sources])
        lp = solve_discrete_ot(DiscreteMeasure(weights=mu), DiscreteMeasure(weights=nu), dmat)
        realized = float(np.sum(dmat * res.coupling))
        assert abs(realized - lp.value) <= 1e-6 * max(lp.value, 1e-12)


def test_verify_wardrop_pigou():
    net, specs = pigou()
    res = solve_fixed_demand(net, specs, [[1.0]], tol=1e-8)
    rep = verify_wardrop(net, res)
    assert rep.max_excess <= 1e-6


def test_verify_wardrop_flags_non_equilibrium():
    net, specs = pigou()
    flows = np.array([0.0, 1.0])
    bad = EquilibriumResult(flows=flows, coupling=np.array([[1.0]]),
                            xi=link_metric(flows, specs), objective=1.0,
                            relative_gap=1.0, iterations=0)
    rep = verify_wardrop(net, bad)
    assert rep.max_excess >= 1e6  # clamped denominator makes this huge
    assert rep.worst_pair == (0, 1)


def test_verify_wardrop_decomposition_failure():
    from congested_transport.errors import DecompositionFailureError

    # claimed demand exceeds what the flows can carry: peeling must refuse
    net, specs = pigou()
    flows = np.array([0.5, 0.5])
    bad = EquilibriumResult(flows=flows, coupling=np.array([[2.0]]),
                            xi=link_metric(flows, specs), objective=0.0,
                            relative_gap=0.0, iterations=0)
    with pytest.raises(DecompositionFailureError):
        verify_wardrop(net, bad)


def test_verify_wardrop_zero_flows():
    net, specs = pigou()
    res = solve_fixed_demand(net, specs, [[0.0]])
    rep = verify_wardrop(net, res)
    assert rep.max_excess == 0.0


def test_node_that_is_source_and_destination():
    # b -> b is a zero-length pair: its mass stays on no edge, the peeling
    # takes it off without a path and enumeration lists its empty path
    net = Network(n_nodes=3, edges=[(0, 1), (1, 2)], sources=[0, 1], dests=[1, 2])
    res = solve_fixed_demand(net, QUAD, [[0.0, 1.0], [2.0, 0.0]], tol=1e-10)
    assert res.converged
    assert np.array_equal(res.flows, [1.0, 1.0])
    assert np.array_equal(res.coupling, [[0.0, 1.0], [2.0, 0.0]])
    assert verify_conservation(net, res) == 0.0
    rep = verify_wardrop(net, res)
    assert rep.max_excess == 0.0
    assert rep.path_flows == {(0, 2, (0, 1)): 1.0}
    assert (1, 1, ()) in enumerate_paths(net).paths


def test_brute_force_examples():
    net, specs = pigou()
    orc = brute_force_equilibrium(net, specs, DemandSpec.fixed([[1.0]]))
    assert orc.objective == pytest.approx(0.5, abs=1e-8)
    assert np.allclose(orc.flows, [1.0, 0.0], atol=1e-5)
    twin = Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])
    orc2 = brute_force_equilibrium(twin, QUAD, DemandSpec.fixed([[2.0]]))
    assert np.allclose(orc2.flows, [1.0, 1.0], atol=1e-6)
    assert orc2.objective == pytest.approx(1.0, abs=1e-8)


def test_brute_force_matches_solver_on_diamond():
    res = solve_fixed_demand(diamond(), QUAD, [[2.0]], tol=1e-8)
    orc = brute_force_equilibrium(diamond(), QUAD, DemandSpec.fixed([[2.0]]))
    assert abs(res.objective - orc.objective) <= 1e-5


def test_brute_force_marginals():
    net, specs = variable_net()
    res = solve_variable_demand(net, specs, [0.5, 0.5], [0.5, 0.5], tol=1e-8)
    orc = brute_force_equilibrium(net, specs, DemandSpec.marginals([0.5, 0.5], [0.5, 0.5]))
    assert abs(res.objective - orc.objective) <= 1e-5 * (1 + res.objective)


def unreachable_pair_net():
    # source 0 reaches both destinations, source 1 only destination 2
    return Network(n_nodes=4, edges=[(0, 2), (0, 3), (1, 2)], sources=[0, 1], dests=[2, 3])


def test_marginals_with_an_unreachable_pair():
    # the routing 0 -> 3, 1 -> 2 is the only feasible one
    net = unreachable_pair_net()
    res = solve_variable_demand(net, QUAD, [1.0, 1.0], [1.0, 1.0], tol=1e-10)
    assert res.converged
    assert np.array_equal(res.coupling, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(res.flows, [0.0, 1.0, 1.0])
    orc = brute_force_equilibrium(net, QUAD, DemandSpec.marginals([1.0, 1.0], [1.0, 1.0]))
    assert abs(res.objective - orc.objective) <= 1e-12
    assert np.allclose(orc.coupling, res.coupling, atol=1e-12)


def test_marginal_mass_that_reaches_no_destination_is_unreachable():
    from congested_transport.errors import DecompositionFailureError, UnreachableError

    net = Network(n_nodes=4, edges=[(0, 2), (0, 3)], sources=[0, 1], dests=[2, 3])
    with pytest.raises(UnreachableError):
        solve_variable_demand(net, QUAD, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DecompositionFailureError, match="equality residual"):
        brute_force_equilibrium(net, QUAD, DemandSpec.marginals([1.0, 1.0], [1.0, 1.0]))


def test_brute_force_refuses_a_demand_with_no_path():
    from congested_transport.errors import UnreachableError

    gamma = [[0.0, 0.0], [0.0, 1.0]]  # source 1 has no path to destination 3
    with pytest.raises(UnreachableError) as err:
        brute_force_equilibrium(unreachable_pair_net(), QUAD, DemandSpec.fixed(gamma))
    assert (err.value.source, err.value.dest) == (1, 3)


_SUITE = network_suite()


@st.composite
def _suite_demands(draw):
    """One of the ten networks of criteria 1 and 2 with a random fixed
    demand or random marginals (entries in [0.3, 1) times 1, 2 or 3)."""
    _, net, spec, _ = draw(st.sampled_from(_SUITE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_s, n_d = len(net.sources), len(net.dests)
    scale = draw(st.sampled_from([1.0, 2.0, 3.0]))
    if draw(st.booleans()):
        return net, spec, DemandSpec.fixed(scale * rng.uniform(0.3, 1.0, (n_s, n_d)))
    mu, nu = scale * rng.uniform(0.3, 1.0, n_s), rng.uniform(0.3, 1.0, n_d)
    return net, spec, DemandSpec.marginals(mu, nu * (mu.sum() / nu.sum()))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem=_suite_demands())
def test_brute_force_matches_simplicial_decomposition(problem):
    """The path-flow oracle meets its equalities within 1e-9 of the total,
    certifies itself by a gap of at most 1e-6, and agrees with simplicial
    decomposition at tol 1e-10 within 1e-6 (1 + J)."""
    net, spec, demand = problem
    orc = brute_force_equilibrium(net, spec, demand)
    if demand.kind == "fixed":
        res = solve_fixed_demand(net, spec, demand.gamma, tol=1e-10)
        total = demand.gamma.sum()
        residual = np.abs(orc.coupling - demand.gamma).max()
    else:
        res = solve_variable_demand(net, spec, demand.mu, demand.nu, tol=1e-10)
        total = demand.mu.sum()
        residual = max(np.abs(orc.coupling.sum(axis=1) - demand.mu).max(),
                       np.abs(orc.coupling.sum(axis=0) - demand.nu).max())
    assert residual <= 1e-9 * total
    assert res.converged
    assert orc.relative_gap <= 1e-6
    assert abs(res.objective - orc.objective) <= 1e-6 * (1.0 + abs(res.objective))


def test_monomial_flows_scale_with_demand():
    # g = t^2 is homogeneous, so doubling the demand doubles the equilibrium flows
    net = diamond()
    r1 = solve_fixed_demand(net, CUBE, [[1.0]], tol=1e-8)
    r2 = solve_fixed_demand(net, CUBE, [[2.0]], tol=1e-8)
    assert np.abs(r2.flows - 2.0 * r1.flows).max() <= 1e-5


def test_demand_spec_validation():
    from congested_transport.errors import MassMismatchError, InputFormatError

    with pytest.raises(InputFormatError):
        DemandSpec.fixed([[-1.0]])
    with pytest.raises(MassMismatchError):
        DemandSpec.marginals([1.0], [2.0])
    with pytest.raises(MassMismatchError):  # relative, with no absolute floor
        DemandSpec.marginals([1e-14], [2e-14])


def test_conservation_of_solver_output():
    net = Network(
        n_nodes=5, edges=[(0, 2), (1, 2), (2, 3), (2, 4), (0, 3), (1, 4)],
        sources=[0, 1], dests=[3, 4],
    )
    specs = [QUAD, QUAD, AFFQ, AFFQ, CUBE, CUBE]
    res = solve_fixed_demand(net, specs, [[0.7, 0.3], [0.4, 0.6]], tol=1e-8)
    assert verify_conservation(net, res) <= 1e-9
    res_v = solve_variable_demand(net, specs, [1.0, 1.0], [0.9, 1.1], tol=1e-8)
    assert verify_conservation(net, res_v) <= 1e-9


def test_all_or_nothing_propagates_unreachable():
    from congested_transport.errors import UnreachableError

    # destination 3 reachable, destination 2 not reachable from source 0
    net = Network(n_nodes=4, edges=[(0, 1), (1, 3), (2, 3)], sources=[0], dests=[2, 3])
    with pytest.raises(UnreachableError):
        all_or_nothing(net, np.ones(3), np.array([[1.0, 1.0]]))


def test_max_iterations_returns_flagged_best_iterate():
    net = Network(
        n_nodes=6,
        edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (1, 2), (2, 4)],
        sources=[0], dests=[5],
    )
    specs = [QUAD, AFFQ, LIN, QUAD, CUBE, AFFQ, QUAD, LIN, QUAD]
    res = solve_fixed_demand(net, specs, [[2.0]], tol=1e-300, max_iter=3)
    assert not res.converged
    assert res.relative_gap > 1e-300
    assert np.all(res.flows >= 0)


# ------------------------------------------------------------ the hull master


def _projected_gradient_master(V, w, costs):
    """Reference: the projected-gradient hull master that simplicial
    decomposition's Newton master replaced (2000 steps, relative gap 1e-14).
    Its step growth is capped: on a linear cost it grew until the projection
    lost the simplex to rounding. Its value is taken at the weights scaled to
    sum to 1, because a long step leaves their sum off by rounding."""
    w = _project_simplex(w, 1.0)
    flows = V.T @ w
    value = float(np.sum(costs.H(flows)))
    step = 1.0
    for _ in range(2000):
        g = V @ costs.g(flows)
        if float(np.dot(g, w) - g.min()) <= 1e-14 * (1.0 + abs(value)):
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
        step = min(1.3 * step, 1e6)
    return float(np.sum(costs.H(V.T @ (w / w.sum()))))


@st.composite
def _vertex_sets(draw):
    """Up to 8 vertex flows on up to 10 edges with mixed (a, p), some edges
    empty in some vertices and, at times, one vertex the midpoint of two others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n_edges = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    V = rng.integers(0, 3, (k, n_edges)) * rng.uniform(0.5, 2.0) * (rng.random((k, n_edges)) < 0.6)
    if k > 2 and draw(st.booleans()):
        V[-1] = 0.5 * (V[0] + V[1])
    a = rng.uniform(0.0, 2.0, n_edges) * (rng.random(n_edges) < 0.5)
    p = rng.choice([1.0, 1.5, 2.0, 3.0], n_edges)
    return V, EdgeCosts([CongestionSpec(ai, pi) for ai, pi in zip(a, p)], n_edges)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problem=_vertex_sets())
def test_master_matches_projected_gradient_oracle(problem):
    """Adding the vertices one at a time, as the solver does, the Newton
    master keeps the weights on the simplex, never raises the value beyond
    rounding, and ends at a relative KKT gap of at most 1e-12 with a value no
    higher than that of the projected-gradient master run on all vertices.
    Both masters stop at a relative gap of 1e-14, and values are sums of up to
    ten rounded terms, so "no higher" allows 1e-13 relative."""
    V, costs = problem
    rounding = 8 * np.finfo(float).eps
    w = np.ones(1)
    flows = V[0].copy()
    value = float(np.sum(costs.H(flows)))
    history = [value]
    for k in range(2, len(V) + 1):
        w, flows, value = wardrop._solve_master(V[:k], np.append(w, 0.0), flows, costs)
        assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12
        assert np.allclose(flows, V[:k].T @ w, rtol=1e-12, atol=0.0)
        assert value == float(np.sum(costs.H(flows)))
        history.append(value)
    assert np.all(np.diff(history) <= rounding * (1.0 + np.abs(history[1:])))
    g = V @ costs.g(flows)
    assert float(g @ w) - g.min() <= 1e-12 * (1.0 + abs(value))
    reference = _projected_gradient_master(V, np.full(len(V), 1.0 / len(V)), costs)
    assert value <= reference + 1e-13 * (1.0 + abs(reference))


def _grouped_projected_gradient_master(V, groups, costs):
    """Reference for the grouped master: projected gradient from even
    weights in each group, each group projected onto its own simplex, with
    the step control of _projected_gradient_master. Its value is taken at
    each group's weights scaled to sum to 1."""
    labels = np.unique(groups)

    def project(w):
        out = np.empty_like(w)
        for k in labels:
            out[groups == k] = _project_simplex(w[groups == k], 1.0)
        return out

    def gap(g, w):
        return sum(float(g[groups == k] @ w[groups == k] - g[groups == k].min()) for k in labels)

    w = project(np.zeros(len(V)))
    flows = V.T @ w
    value = float(np.sum(costs.H(flows)))
    step = 1.0
    for _ in range(2000):
        g = V @ costs.g(flows)
        if gap(g, w) <= 1e-14 * (1.0 + abs(value)):
            break
        while True:
            w_new = project(w - step * g)
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
        step = min(1.3 * step, 1e6)
    sums = np.array([w[groups == k].sum() for k in labels])
    return float(np.sum(costs.H(V.T @ (w / sums[np.searchsorted(labels, groups)]))))


@st.composite
def _grouped_vertex_sets(draw):
    """The vertex sets of _vertex_sets with a group label in 0..3 per vertex."""
    V, costs = draw(_vertex_sets())
    groups = np.array(draw(st.lists(st.integers(0, 3), min_size=len(V), max_size=len(V))))
    return V, groups, costs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problem=_grouped_vertex_sets())
def test_grouped_master_matches_projected_gradient_oracle(problem):
    """The master over a product of simplices, one per group label. Adding
    the vertices one at a time, the first of a group at weight 1 and the
    others at 0, each solve keeps every group's weights on its simplex and
    never raises the value it starts from beyond rounding. It ends at a
    relative gap, summed over the groups, of at most 1e-12, with a value no
    higher than that of the grouped projected-gradient oracle (1e-13
    relative, as in the one-group test)."""
    V, groups, costs = problem
    rounding = 8 * np.finfo(float).eps
    w = np.zeros(0)
    for k in range(1, len(V) + 1):
        w = np.append(w, 0.0 if groups[k - 1] in groups[:k - 1] else 1.0)
        flows = V[:k].T @ w
        start = float(np.sum(costs.H(flows)))
        w, flows, value = wardrop._solve_master(V[:k], w, flows, costs, groups[:k])
        assert np.all(w >= 0)
        for label in np.unique(groups[:k]):
            assert abs(w[groups[:k] == label].sum() - 1.0) <= 1e-12
        assert np.allclose(flows, V[:k].T @ w, rtol=1e-12, atol=0.0)
        assert value == float(np.sum(costs.H(flows)))
        assert value <= start + rounding * (1.0 + abs(start))
    g = V @ costs.g(flows)
    gap = sum(float(g[groups == k] @ w[groups == k] - g[groups == k].min())
              for k in np.unique(groups))
    assert gap <= 1e-12 * (1.0 + abs(value))
    reference = _grouped_projected_gradient_master(V, groups, costs)
    assert value <= reference + 1e-13 * (1.0 + abs(reference))


def test_path_columns_converge_in_few_rounds():
    """Fixed demand on a 10 x 10 bidirectional grid: 4 sources down the
    left column, 4 destinations down the right one, a pinned 4 x 4 demand in
    [0.5, 1.5] and quadratic H. With one path column per pair and round it
    converges at tol 1e-6 within 50 rounds (an all-or-nothing vertex shared
    by all pairs took 158), at the objective that vertex simplicial
    decomposition reached at tol 1e-10."""
    k = 10
    edges = []
    for i in range(k):
        for j in range(k):
            u = i * k + j
            edges += [(u, u + 1), (u + 1, u)] if j + 1 < k else []
            edges += [(u, u + k), (u + k, u)] if i + 1 < k else []
    rows = [0, 3, 6, 9]
    net = Network(n_nodes=k * k, edges=edges, sources=[r * k for r in rows],
                  dests=[r * k + k - 1 for r in rows])
    gamma = np.random.default_rng(19).uniform(0.5, 1.5, (4, 4))
    res = solve_fixed_demand(net, QUAD, gamma, tol=1e-6)
    assert res.converged
    assert res.iterations <= 50
    assert res.objective == pytest.approx(149.24905579974555, rel=1e-9)

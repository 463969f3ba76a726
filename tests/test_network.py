import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_transport.errors import (
    DanglingEdgeError,
    InputFormatError,
    NegativeMetricError,
    PathExplosionError,
    SelfLoopError,
    UnreachableError,
)
from congested_transport.network import (
    Network,
    enumerate_paths,
    parse_network,
    path_cost,
    shortest_distances,
    validate_network,
)


def two_node_parallel():
    return Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])


def diamond():
    # edges: 0: s->a, 1: a->d, 2: s->b, 3: b->d
    return Network(n_nodes=4, edges=[(0, 1), (1, 3), (0, 2), (2, 3)], sources=[0], dests=[3])


def test_validate_minimal_ok():
    validate_network(Network(n_nodes=2, edges=[(0, 1)], sources=[0], dests=[1]))


def test_validate_dangling_edge():
    with pytest.raises(DanglingEdgeError):
        validate_network(Network(n_nodes=3, edges=[(0, 7)], sources=[0], dests=[1]))


def test_validate_self_loop():
    with pytest.raises(SelfLoopError):
        validate_network(Network(n_nodes=2, edges=[(0, 0), (0, 1)], sources=[0], dests=[1]))


def test_validate_unreachable():
    net = Network(n_nodes=4, edges=[(0, 1), (2, 3)], sources=[0], dests=[3])
    with pytest.raises(UnreachableError):
        validate_network(net)


def test_shortest_zero_metric():
    net = diamond()
    table = shortest_distances(net, np.zeros(4))
    assert table.dist[(0, 3)] == 0.0


def test_shortest_parallel_edges():
    table = shortest_distances(two_node_parallel(), np.array([3.0, 1.0]))
    assert table.dist[(0, 1)] == 1.0
    assert table.path[(0, 1)] == (1,)


def test_shortest_diamond_tie_follows_the_search_tree():
    # both routes cost 3, and d keeps the first predecessor that reached 3:
    # a (settled at 1) before b (settled at 2) here
    table = shortest_distances(diamond(), np.array([1.0, 2.0, 2.0, 1.0]))
    assert table.dist[(0, 3)] == 3.0
    assert table.path[(0, 3)] == (0, 1)
    # b (settled at 1) before a (settled at 2): the witness is (2, 3), where
    # the lexicographically least edge sequence would be (0, 1)
    table = shortest_distances(diamond(), np.array([2.0, 1.0, 1.0, 2.0]))
    assert table.dist[(0, 3)] == 3.0
    assert table.path[(0, 3)] == (2, 3)


def test_negative_metric_rejected():
    with pytest.raises(NegativeMetricError):
        shortest_distances(two_node_parallel(), np.array([1.0, -0.1]))


def test_nan_metric_rejected():
    net = Network(n_nodes=3, edges=[(0, 1), (1, 2), (0, 2)], sources=[0], dests=[2])
    with pytest.raises(NegativeMetricError, match="NaN"):
        shortest_distances(net, np.array([np.nan, 1.0, 5.0]))


def test_infinite_edge_is_no_edge():
    table = shortest_distances(diamond(), np.array([np.inf, 1.0, 1.0, 1.0]))
    assert table.path[(0, 3)] == (2, 3)
    with pytest.raises(UnreachableError):
        shortest_distances(diamond(), np.array([np.inf, 1.0, 1.0, np.inf]))


def test_enumerate_counts():
    assert len(enumerate_paths(two_node_parallel())) == 2
    assert len(enumerate_paths(diamond())) == 2
    # complete directed graph on 4 nodes, one pair: 1 + 2 + 2 = 5 simple paths
    edges = [(u, v) for u in range(4) for v in range(4) if u != v]
    k4 = Network(n_nodes=4, edges=edges, sources=[0], dests=[3])
    assert len(enumerate_paths(k4)) == 5


def test_enumerate_explosion_guard():
    edges = [(u, v) for u in range(7) for v in range(7) if u != v]
    k7 = Network(n_nodes=7, edges=edges, sources=[0], dests=[6])
    with pytest.raises(PathExplosionError):
        enumerate_paths(k7, cap=100)


def test_enumerate_lexicographic_order():
    ps = enumerate_paths(diamond())
    assert [p for (_, _, p) in ps.paths] == [(0, 1), (2, 3)]


def _random_net(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(3, 7))
    edges = [(u, u + 1) for u in range(n - 1)]
    for _ in range(int(r.integers(1, 2 * n))):
        u, v = (int(x) for x in r.integers(0, n, 2))
        if u != v:
            edges.append((u, v))
    return Network(n_nodes=n, edges=edges, sources=[0], dests=[n - 1])


def test_shortest_is_minimum_over_enumerated_paths():
    for seed in range(12):
        net = _random_net(seed)
        try:
            ps = enumerate_paths(net, cap=20)
        except PathExplosionError:
            continue
        r = np.random.default_rng(100 + seed)
        xi = r.uniform(0.0, 2.0, net.n_edges)
        table = shortest_distances(net, xi)
        costs = [path_cost(p, xi) for (_, _, p) in ps.paths]
        if not costs:
            continue
        best = min(costs)
        assert table.dist[(0, net.n_nodes - 1)] == pytest.approx(best, abs=1e-12)
        assert path_cost(table.path[(0, net.n_nodes - 1)], xi) == pytest.approx(best, abs=1e-12)


def test_triangle_property_through_shared_terminal():
    # node 1 is both a destination and a source
    net = Network(n_nodes=3, edges=[(0, 1), (1, 2), (0, 2)], sources=[0, 1], dests=[1, 2])
    r = np.random.default_rng(3)
    for _ in range(10):
        xi = r.uniform(0, 2, 3)
        t = shortest_distances(net, xi)
        assert t.dist[(0, 2)] <= t.dist[(0, 1)] + t.dist[(1, 2)] + 1e-12


def test_metric_monotonicity():
    net = diamond()
    r = np.random.default_rng(9)
    for _ in range(10):
        xi = r.uniform(0, 2, 4)
        xi2 = xi + r.uniform(0, 1, 4)
        t1 = shortest_distances(net, xi)
        t2 = shortest_distances(net, xi2)
        assert t1.dist[(0, 3)] <= t2.dist[(0, 3)] + 1e-12


def _bellman_ford(n, edges, xi, s):
    """Left-fold float distances from s: relax every edge until nothing changes."""
    dist = [np.inf] * n
    dist[s] = 0.0
    changed = True
    while changed:
        changed = False
        for (u, v), w in zip(edges, xi.tolist()):
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
    return dist


@st.composite
def _multigraphs(draw):
    """Small multigraphs with parallel edges (ids apart), zero-weight edges,
    integer weights that tie, nodes no source reaches, and 1-3 sources."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=12))
    if edges:
        edges += [edges[i] for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=4))]
    weight = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 4.0))
    xi = np.array(draw(st.lists(weight, min_size=len(edges), max_size=len(edges))), dtype=float)
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return n, edges, xi, sources


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_multigraphs())
def test_shortest_paths_match_bellman_ford(case):
    n, edges, xi, sources = case
    oracle = [_bellman_ford(n, edges, xi, s) for s in sources]
    reached = [d for d in range(n) if any(dist[d] < np.inf for dist in oracle)]
    if len(reached) < n:
        with pytest.raises(UnreachableError):
            shortest_distances(Network(n, edges, sources, list(range(n))), xi)
    table = shortest_distances(Network(n, edges, sources, reached), xi)
    for s, dist in zip(sources, oracle):
        for d in reached:
            if dist[d] == np.inf:
                assert (s, d) not in table.dist and (s, d) not in table.path
                continue
            assert table.dist[(s, d)] == dist[d]  # bit for bit
            path = table.path[(s, d)]
            nodes = [s] + [edges[e][1] for e in path]
            assert all(edges[e][0] == u for e, u in zip(path, nodes))
            assert nodes[-1] == d and len(set(nodes)) == len(nodes)  # a simple s -> d path
            total = 0.0
            for e in path:
                total += xi[e]
            assert total == dist[d]
            for e in path:  # the cheapest parallel edge, the lowest id among equals
                twins = [f for f in range(len(edges)) if edges[f] == edges[e]]
                assert e == min(twins, key=lambda f: (xi[f], f))


def test_parse_network_file():
    text = """
    # demo network
    nodes 4
    edge s a
    edge a d   # comment after
    edge s b
    edge b d
    source s
    dest d
    """
    net = parse_network(text)
    assert net.n_nodes == 4
    assert net.labels == ["s", "a", "d", "b"]  # order of first appearance
    assert net.edges == [(0, 1), (1, 2), (0, 3), (3, 2)]
    assert net.sources == [0] and net.dests == [2]
    validate_network(net)


def test_parse_network_per_edge_cost_tags():
    net = parse_network("nodes 2\nedge s d quadratic\nedge s d monomial 1\nsource s\ndest d\n")
    assert net.edge_cost_tags == ["quadratic", "monomial 1"]


def test_parse_network_too_many_labels():
    with pytest.raises(InputFormatError):
        parse_network("nodes 1\nedge a b\nsource a\ndest b\n")

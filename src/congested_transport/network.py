"""Directed multigraphs with sources and destinations, and shortest paths under
a nonnegative per-edge metric. This module owns the line rule of the text
formats ('.net', '.dem', '.pts'): ``_records`` cuts each '#' comment and skips
lines left without a field.

Shortest paths come from one compiled multi-source Dijkstra
(scipy.sparse.csgraph) per metric. It runs over the network's arcs: the
distinct (tail, head) pairs in sorted order, each carrying its cheapest
parallel edge, the lowest edge id among equals. A distance is the left-fold
float sum of the metric along a shortest path, as in any label-setting
search; a path whose sum is infinite counts as no path. The witness path of a
pair is its path in csgraph's shortest-path tree, where a node keeps the first
predecessor that reached its final distance. Among equal-cost paths it is
deterministic for a given scipy, like the BLAS note in the README, but it is
not the lexicographically least edge sequence. validate_network checks
reachability by the same search at the zero metric. scipy is imported on
first use, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DanglingEdgeError,
    InputFormatError,
    NegativeMetricError,
    PathExplosionError,
    SelfLoopError,
    UnreachableError,
)

DEFAULT_PATH_CAP = 100_000


@dataclass
class Network:
    """Directed graph stored as an edge list; parallel edges are allowed.

    Node ids are dense 0-based integers. ``labels`` preserves the original
    string labels when the network was read from a file.
    """

    n_nodes: int
    edges: list[tuple[int, int]]
    sources: list[int]
    dests: list[int]
    labels: list[str] | None = None
    edge_cost_tags: list[str | None] | None = None  # optional per-edge H override
    _arcs: _Arcs | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_edges(self) -> list[list[tuple[int, int]]]:
        """Adjacency as out_edges[u] = [(edge_id, head), ...] in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        for eid, (tail, head) in enumerate(self.edges):
            adj[tail].append((eid, head))
        return adj


@dataclass
class PathSet:
    """Simple paths tagged with their (source, dest) pair, as edge-id tuples."""

    paths: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.paths)


def validate_network(net: Network) -> None:
    """Check structural invariants and source-to-destination reachability.

    Raises:
        DanglingEdgeError: an edge endpoint is not a valid node id.
        SelfLoopError: an edge has tail == head.
        UnreachableError: some destination is unreachable from every source,
            as shortest_distances at the zero metric finds it.
    """
    n = net.n_nodes
    if n < 1:
        raise DanglingEdgeError("network has no nodes")
    if not net.sources or not net.dests:
        raise InputFormatError("sources and destinations must both be nonempty")
    for node in list(net.sources) + list(net.dests):
        if not (0 <= node < n):
            raise DanglingEdgeError(f"terminal node id {node} outside 0..{n - 1}")
    for eid, (tail, head) in enumerate(net.edges):
        if not (0 <= tail < n) or not (0 <= head < n):
            raise DanglingEdgeError(f"edge {eid} references node outside 0..{n - 1}")
        if tail == head:
            raise SelfLoopError(f"edge {eid} is a self-loop at node {tail}")
    shortest_distances(net, np.zeros(net.n_edges))  # raises for an unreachable destination


def _check_metric(net: Network, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (net.n_edges,):
        raise NegativeMetricError(
            f"metric length {xi.shape} does not match edge count {net.n_edges}"
        )
    if np.isnan(xi).any():
        raise NegativeMetricError("edge metric has NaN entries")
    if np.any(xi < 0):
        raise NegativeMetricError("edge metric has negative entries")
    return xi


@dataclass(frozen=True)
class _Arcs:
    """The metric-free part of the search graph of a network.

    ``order`` lists the edge ids sorted by (tail, head, id), ``starts`` the
    position in it where each arc's run of parallel edges begins, and
    ``arc_of`` the arc of each position. ``keys`` is tail * n_nodes + head
    per arc, ascending, and ``indices``/``indptr`` are the CSR structure of
    the arcs. ``edges`` is the edge list the arcs were built from.
    """

    edges: list[tuple[int, int]]
    n_nodes: int
    order: np.ndarray
    starts: np.ndarray
    arc_of: np.ndarray
    keys: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _arcs_of(net: Network) -> _Arcs:
    """The network's arcs, built once and kept while its edge list is unchanged."""
    arcs = net._arcs
    if arcs is not None and arcs.n_nodes == net.n_nodes and arcs.edges == net.edges:
        return arcs
    n = net.n_nodes
    ends = np.array(net.edges, dtype=np.int64).reshape(-1, 2)
    key = ends[:, 0] * n + ends[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new_arc = np.ones(len(key), dtype=bool)
    new_arc[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new_arc)
    keys = key[starts]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    net._arcs = arcs = _Arcs(list(net.edges), n, order, starts, np.cumsum(new_arc) - 1,
                             keys, (keys % n).astype(np.int32), indptr)
    return arcs


@dataclass
class ShortestPathTable:
    """Shortest distances from the sources to the destinations, with the
    shortest-path tree of each source.

    ``matrix[si, di]`` is the distance from ``sources[si]`` to ``dests[di]``,
    inf where there is no path. ``pred[si, v]`` is the node before v on the
    tree path from ``sources[si]`` (negative at the source and off the tree)
    and ``pred_edge[si, v]`` the edge that joins them. ``dist`` and ``path``
    give the same by (source, dest) node pair, for the pairs with a path.
    """

    sources: list[int]
    dests: list[int]
    matrix: np.ndarray
    pred: np.ndarray
    pred_edge: np.ndarray

    def witness(self, si: int, di: int) -> tuple[int, ...]:
        """Edge ids of the tree path from sources[si] to dests[di]; the pair
        must have a path."""
        s, v = self.sources[si], self.dests[di]
        pred, pred_edge = self._tree[si]
        path = []
        while v != s:
            path.append(pred_edge[v])
            v = pred[v]
        return tuple(reversed(path))

    @cached_property
    def _tree(self) -> list[tuple[list[int], list[int]]]:
        """pred and pred_edge as lists, one pair per source: a walk over
        Python ints is several times faster than one over array items."""
        return list(zip(self.pred.tolist(), self.pred_edge.tolist()))

    def _pairs(self):
        for si, s in enumerate(self.sources):
            for di, d in enumerate(self.dests):
                if np.isfinite(self.matrix[si, di]):
                    yield si, di, (s, d)

    @cached_property
    def dist(self) -> dict[tuple[int, int], float]:
        return {pair: float(self.matrix[si, di]) for si, di, pair in self._pairs()}

    @cached_property
    def path(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {pair: self.witness(si, di) for si, di, pair in self._pairs()}


def _search(net: Network, xi: np.ndarray, sources: list[int],
            dests: list[int]) -> ShortestPathTable:
    """One compiled multi-source Dijkstra over the network's arcs at metric
    ``xi``, whose entries are nonnegative or inf (no edge)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    arcs = _arcs_of(net)
    n = net.n_nodes
    w = xi[arcs.order]
    if len(arcs.starts) < len(w):
        weight = np.minimum.reduceat(w, arcs.starts)
        # the first position of each arc at its minimum is its lowest edge id there
        at_min = np.flatnonzero(w == weight[arcs.arc_of])
        first = np.diff(arcs.arc_of[at_min], prepend=-1) > 0
        edge = arcs.order[at_min[first]]
    else:
        weight, edge = w, arcs.order
    graph = csr_array((weight, arcs.indices, arcs.indptr), shape=(n, n))
    dist, pred = dijkstra(graph, indices=sources, return_predecessors=True)
    on_tree = pred >= 0
    pred_edge = np.full(pred.shape, -1)
    pred_edge[on_tree] = edge[np.searchsorted(arcs.keys, pred[on_tree].astype(np.int64) * n
                                              + np.nonzero(on_tree)[1])]
    return ShortestPathTable(list(sources), list(dests), dist[:, dests], pred, pred_edge)


def shortest_distances(net: Network, xi: np.ndarray) -> ShortestPathTable:
    """Distance d_xi(s, d) = min over paths of the summed metric, for every
    source and destination of the network, and a witness path for each pair.

    Raises NegativeMetricError for negative or NaN entries and
    UnreachableError when a destination has no path from any source (pairs
    without a path are left out of ``dist`` and ``path``).
    """
    xi = _check_metric(net, xi)
    table = _search(net, xi, net.sources, net.dests)
    reached = np.isfinite(table.matrix).any(axis=0)
    if not reached.all():
        raise UnreachableError(net.sources[0], net.dests[int(np.argmin(reached))], net.labels)
    return table


def enumerate_paths(net: Network, cap: int = DEFAULT_PATH_CAP) -> PathSet:
    """All simple paths from each source to each destination, lexicographically
    ordered by edge-id sequence.

    Raises PathExplosionError as soon as the total path count would exceed cap.
    """
    adj = net.out_edges()
    out = PathSet()
    for s in net.sources:
        for d in net.dests:
            stack_path: list[int] = []
            visited = {s}

            def dfs(u: int):
                if u == d and stack_path:
                    if len(out) >= cap:
                        raise PathExplosionError(f"more than {cap} simple paths")
                    out.paths.append((s, d, tuple(stack_path)))
                    return
                for eid, v in adj[u]:
                    if v in visited:
                        continue
                    visited.add(v)
                    stack_path.append(eid)
                    dfs(v)
                    stack_path.pop()
                    visited.remove(v)

            if s == d:
                # a trivial zero-length path carries no edges and no cost
                out.paths.append((s, d, ()))
            else:
                dfs(s)
    return out


def path_cost(path: tuple[int, ...], xi: np.ndarray) -> float:
    return float(sum(xi[e] for e in path))


def parse_network(text: str) -> Network:
    """Read the line-oriented network format.

    Format: ``nodes <n>`` header, then ``edge <tail> <head>``,
    ``source <label>``, ``dest <label>`` lines; ``#`` starts a comment.
    String labels are mapped to dense ids in order of first appearance.
    An edge line may append a per-edge congestion family, e.g.
    ``edge a b monomial 1``, overriding the problem-wide choice.
    """
    n_nodes = None
    label_ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    cost_tags: list[str | None] = []
    sources: list[int] = []
    dests: list[int] = []

    def intern(label: str) -> int:
        if label not in label_ids:
            label_ids[label] = len(label_ids)
        return label_ids[label]

    for lineno, parts in _records(text):
        kind = parts[0].lower()
        if kind == "nodes":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise InputFormatError(f"line {lineno}: expected 'nodes <n>'")
            n_nodes = int(parts[1])
        elif kind == "edge":
            if len(parts) < 3:
                raise InputFormatError(f"line {lineno}: expected 'edge <tail> <head>'")
            edges.append((intern(parts[1]), intern(parts[2])))
            cost_tags.append(" ".join(parts[3:]) if len(parts) > 3 else None)
        elif kind == "source":
            if len(parts) != 2:
                raise InputFormatError(f"line {lineno}: expected 'source <label>'")
            sources.append(intern(parts[1]))
        elif kind == "dest":
            if len(parts) != 2:
                raise InputFormatError(f"line {lineno}: expected 'dest <label>'")
            dests.append(intern(parts[1]))
        else:
            raise InputFormatError(f"line {lineno}: unknown directive {kind!r}")

    if n_nodes is None:
        n_nodes = len(label_ids)
    if len(label_ids) > n_nodes:
        raise InputFormatError(
            f"{len(label_ids)} distinct labels exceed declared node count {n_nodes}"
        )
    labels = [None] * n_nodes
    for lab, idx in label_ids.items():
        labels[idx] = lab
    labels = [lab if lab is not None else f"_n{i}" for i, lab in enumerate(labels)]
    tags = cost_tags if any(t is not None for t in cost_tags) else None
    return Network(n_nodes=n_nodes, edges=edges, sources=sources, dests=dests,
                   labels=labels, edge_cost_tags=tags)


def _records(text: str):
    """(line number, fields) of each line of a text format that has a field
    left once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def _read_text(path) -> str:
    """The text of a problem file; InputFormatError unless it is UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_network(path) -> Network:
    return parse_network(_read_text(path))

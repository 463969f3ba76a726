"""Directed multigraphs with sources and destinations, and shortest paths under
a nonnegative per-edge metric.

Ties between equal-cost paths are broken toward the lowest lexicographic
edge-id sequence so witnesses are reproducible across runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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
        UnreachableError: some destination is unreachable from every source.
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
    # BFS reachability from the source set
    adj = net.out_edges()
    seen = [False] * n
    stack = list(dict.fromkeys(net.sources))
    for s in stack:
        seen[s] = True
    while stack:
        u = stack.pop()
        for _, v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    for d in net.dests:
        if not seen[d]:
            raise UnreachableError(net.sources[0], d)


def _check_metric(net: Network, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (net.n_edges,):
        raise NegativeMetricError(
            f"metric length {xi.shape} does not match edge count {net.n_edges}"
        )
    if np.any(xi < 0):
        raise NegativeMetricError("edge metric has negative entries")
    return xi


def _lex_dijkstra(adj, xi: np.ndarray, source: int):
    """Single-source shortest paths over the adjacency ``adj`` of
    Network.out_edges; ties resolved to the lex-least edge sequence.

    Heap entries carry the full edge-id tuple so that Python tuple ordering
    settles every node with its lexicographically smallest shortest path.
    """
    dist = {source: 0.0}
    witness: dict[int, tuple[int, ...]] = {source: ()}
    settled = set()
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), source)]
    while heap:
        d, path, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        dist[u] = d
        witness[u] = path
        for eid, v in adj[u]:
            if v in settled:
                continue
            heapq.heappush(heap, (d + xi[eid], path + (eid,), v))
    return dist, witness


@dataclass
class ShortestPathTable:
    """All-pairs (source, dest) distances with one witness path per pair."""

    dist: dict[tuple[int, int], float]
    path: dict[tuple[int, int], tuple[int, ...]]


def shortest_distances(net: Network, xi: np.ndarray) -> ShortestPathTable:
    """Distance d_xi(s, d) = min over paths of the summed metric, for all pairs.

    Raises NegativeMetricError for negative entries and UnreachableError when a
    destination has no path from some source that should reach it (pairs with
    no path at all are omitted only if unreachable from every source).
    """
    xi = _check_metric(net, xi)
    table = ShortestPathTable(dist={}, path={})
    adj = net.out_edges()
    for s in net.sources:
        dist, witness = _lex_dijkstra(adj, xi, s)
        for d in net.dests:
            if d in dist:
                table.dist[(s, d)] = dist[d]
                table.path[(s, d)] = witness[d]
    for d in net.dests:
        if not any((s, d) in table.dist for s in net.sources):
            raise UnreachableError(net.sources[0], d)
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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


def _read_text(path) -> str:
    """The text of a problem file; InputFormatError unless it is UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_network(path) -> Network:
    return parse_network(_read_text(path))

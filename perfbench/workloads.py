"""Seeded input generators for the benchmark workloads.

Every workload is a batch of CLI calls. ``build(workload, seed, root)`` writes
the inputs of each call under ``root`` and returns the list of instances; the
same seed always writes byte-identical inputs. Instance sizes and why each
workload exists are recorded in ``perfbench/notes.json``.

The values of every instance come from a fixed generator seed (``PINNED``);
the run seed only applies a change that leaves the solver's work the same: a
relabeling of network nodes, a symmetry of the square grid, or a sign flip
and swap of point coordinates (the city configs have nothing to vary).
Frank-Wolfe, ADMM and the city outer loops change their iteration counts by
30% to 10x between random draws, and on a shared two-core machine that
would swamp any change a patch makes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("traffic", "flow", "city", "transport")

# The quadratic city instance (closed form at lambda; domain side 3).
CITY_SIDE = 3.0
# Generator seed of the pinned instances.
PINNED = 20101


@dataclass
class Instance:
    """One CLI call: its subcommand, arguments and output directory."""

    name: str
    command: str
    args: list[str]
    out: Path

    def argv(self) -> list[str]:
        return [self.command, *self.args, "--out", str(self.out)]

    def arg(self, flag: str) -> str:
        """The value after ``flag`` in the arguments."""
        return self.args[self.args.index(flag) + 1]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# traffic: Frank-Wolfe assignment on bidirectional k x k grid networks.

def _grid_edges(k: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(k):
        for j in range(k):
            u = i * k + j
            if j + 1 < k:
                edges += [(u, u + 1), (u + 1, u)]
            if i + 1 < k:
                edges += [(u, u + k), (u + k, u)]
    return edges


def _network(path: Path, k: int, sources, dests, label, tags=None) -> None:
    """Write a grid network; ``label`` renames node u to 'n<label[u]>'.

    Node ids follow the first appearance of a label in the edge lines, so the
    renaming leaves every edge id and node id the solver sees unchanged.
    """
    lines = [f"nodes {k * k}"]
    for e, (u, v) in enumerate(_grid_edges(k)):
        tag = f" {tags[e]}" if tags is not None else ""
        lines.append(f"edge n{label[u]} n{label[v]}{tag}")
    lines += [f"source n{label[s]}" for s in sources]
    lines += [f"dest n{label[d]}" for d in dests]
    _write(path, lines)


def _terminals(k: int, n_s: int, n_d: int):
    """Sources spread down the left column, destinations down the right one."""
    rows_s = np.round(np.linspace(0, k - 1, n_s)).astype(int)
    rows_d = np.round(np.linspace(0, k - 1, n_d)).astype(int)
    return [int(i) * k for i in rows_s], [int(i) * k + k - 1 for i in rows_d]


def _fixed_demand(path: Path, sources, dests, gamma, label) -> None:
    _write(path, [f"demand n{label[s]} n{label[d]} {_fmt(gamma[i, j])}"
                  for i, s in enumerate(sources) for j, d in enumerate(dests)])


def _marginals(path: Path, sources, dests, mu, nu, label) -> None:
    _write(path, [f"mu n{label[s]} {_fmt(m)}" for s, m in zip(sources, mu)]
           + [f"nu n{label[d]} {_fmt(m)}" for d, m in zip(dests, nu)])


def _traffic(rng, root: Path) -> list[Instance]:
    """Three pinned Frank-Wolfe instances; the run seed relabels their nodes."""
    pinned = np.random.default_rng([PINNED, 0])
    out = []
    # (a) per-edge affine_power tags: the per-edge Python loop in EdgeCosts
    k = 4
    n_edges = len(_grid_edges(k))
    a = pinned.uniform(0.5, 1.5, n_edges)
    p = pinned.uniform(1.8, 2.4, n_edges)
    tags = [f"affine_power {_fmt(ai)} {_fmt(pi)}" for ai, pi in zip(a, p)]
    s, d = _terminals(k, 3, 3)
    label = rng.permutation(k * k)
    _network(root / "a.net", k, s, d, label, tags)
    _fixed_demand(root / "a.dem", s, d, pinned.uniform(0.5, 1.5, (3, 3)), label)
    out.append(Instance("traffic.a", "wardrop",
                        ["--net", str(root / "a.net"), "--demand", str(root / "a.dem"),
                         "--H", "quadratic"], root / "out_a"))
    # (b) shared quadratic cost on a larger grid: Dijkstra and hull weights
    k = 10
    s, d = _terminals(k, 4, 4)
    label = rng.permutation(k * k)
    _network(root / "b.net", k, s, d, label)
    _fixed_demand(root / "b.dem", s, d, pinned.uniform(0.5, 1.5, (4, 4)), label)
    out.append(Instance("traffic.b", "wardrop",
                        ["--net", str(root / "b.net"), "--demand", str(root / "b.dem"),
                         "--H", "quadratic"], root / "out_b"))
    # (c) prescribed marginals: one exact 6 x 6 transport per iteration
    k = 8
    s, d = _terminals(k, 6, 6)
    label = rng.permutation(k * k)
    _network(root / "c.net", k, s, d, label)
    mu = pinned.uniform(0.5, 1.5, 6)
    nu = pinned.uniform(0.5, 1.5, 6)
    nu *= mu.sum() / nu.sum()
    _marginals(root / "c.dem", s, d, mu, nu, label)
    out.append(Instance("traffic.c", "wardrop",
                        ["--net", str(root / "c.net"), "--demand", str(root / "c.dem"),
                         "--H", "affine_power 1 2"], root / "out_c"))
    return out


# ---------------------------------------------------------------------------
# flow: Beckmann ADMM on two-blob densities.

def _blobs(rng, n: int, x_range=(0.3, 0.7)) -> np.ndarray:
    """Unit-mass mixture of two Gaussian blobs on the unit square, n x n cells,
    centered at x in ``x_range`` and y in (0.3, 0.7)."""
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    dens = np.zeros((n, n))
    for _ in range(2):
        c = np.array([rng.uniform(*x_range), rng.uniform(0.3, 0.7)])
        s = rng.uniform(0.1, 0.14)
        dens += np.exp(-((X - c[0]) ** 2 + (Y - c[1]) ** 2) / (2 * s * s))
    return dens / (dens.sum() * h * h)


def _grid_csv(path: Path, values: np.ndarray) -> Path:
    """ny rows by nx columns, with the 'grid nx ny h' sidecar."""
    nx, ny = values.shape
    _write(path, [",".join(f"{v:.17g}" for v in row) for row in values.T])
    _write(Path(str(path) + ".grid"), [f"grid {nx} {ny} {1.0 / nx!r}"])
    return path


def _symmetry(x: np.ndarray, t: int) -> np.ndarray:
    """One of the eight symmetries of the square, applied to a cell array."""
    if t & 4:
        x = x.T
    if t & 1:
        x = x[::-1, :]
    if t & 2:
        x = x[:, ::-1]
    return np.ascontiguousarray(x)


def _flow(rng, root: Path) -> list[Instance]:
    """Four pinned ADMM instances; the run seed picks one symmetry of the
    square for all of them.

    (d) moves mass from the left half to the right half; overlapping blobs
    at p = 1 can stop after a few hundred iterations instead of thousands.
    """
    pinned = np.random.default_rng([PINNED, 1])
    t = int(rng.integers(8))
    out = []
    for tag, H, extra, n, mu_x, nu_x in [
            ("a", "affine_power 1 2", [], 128, (0.3, 0.7), (0.3, 0.7)),
            ("b", "quadratic", [], 128, (0.3, 0.7), (0.3, 0.7)),
            ("c", "affine_power 1 3", [], 48, (0.3, 0.7), (0.3, 0.7)),
            ("d", "monomial 1", ["--max-iter", "20000"], 32, (0.2, 0.4), (0.6, 0.8))]:
        mu = _grid_csv(root / f"{tag}_mu.csv", _symmetry(_blobs(pinned, n, mu_x), t))
        nu = _grid_csv(root / f"{tag}_nu.csv", _symmetry(_blobs(pinned, n, nu_x), t))
        out.append(Instance(f"flow.{tag}", "beckmann",
                            ["--mu", str(mu), "--nu", str(nu), "--H", H, *extra],
                            root / f"out_{tag}"))
    return out


# ---------------------------------------------------------------------------
# city: the urban-planning functional.

def _city(rng, root: Path) -> list[Instance]:
    """Fixed configs: the closed-form quadratic city and two pole sweeps.

    The outer loops accept or reject whole steps, so their work jumps with
    any change of the pole cost; there is nothing else to draw.
    """
    cases = [
        ("a", {"p": 2, "spread": {"family": "quadratic"},
               "concentration": {"kind": "interaction"}, "lambda": 1.0,
               "grid": {"nx": 48, "ny": 48, "h": CITY_SIDE / 48}, "tol": 1e-6}),
        ("b", {"p": 2, "spread": {"family": "quadratic"},
               "concentration": {"kind": "atomic", "g": "power", "exponent": 0.5},
               "k_max": 3, "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32}, "tol": 1e-6}),
        ("c", {"p": 1, "spread": {"family": "power", "m": 3},
               "concentration": {"kind": "atomic", "g": "power", "exponent": 0.5},
               "k_max": 3, "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32}, "tol": 1e-6}),
    ]
    out = []
    for tag, cfg in cases:
        path = root / f"{tag}.json"
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        out.append(Instance(f"city.{tag}", "city", ["--config", str(path)],
                            root / f"out_{tag}"))
    return out


# ---------------------------------------------------------------------------
# transport: dense exact transport and the Hotelling round trip.

def _points(path: Path, pts: np.ndarray, w: np.ndarray) -> Path:
    return _write(path, ["point " + " ".join(_fmt(c) for c in p) + f" {_fmt(wi)}"
                         for p, wi in zip(pts, w)])


def _transport(rng, root: Path) -> list[Instance]:
    """Pinned clouds and prices. The run seed flips the signs of the
    coordinates and may swap x and y, which leaves every distance, and so
    the solver's work, bit-identical."""
    pinned = np.random.default_rng([PINNED, 3])
    t = int(rng.integers(8))
    flip = np.array([-1.0 if t & 1 else 1.0, -1.0 if t & 2 else 1.0])
    n = 200
    a = pinned.uniform(0.5, 1.5, n)
    b = pinned.uniform(0.5, 1.5, n)
    pa, pb = pinned.random((n, 2)) * flip, pinned.random((n, 2)) * flip
    if t & 4:
        pa, pb = pa[:, ::-1], pb[:, ::-1]
    _points(root / "mu.pts", pa, a / a.sum())
    _points(root / "nu.pts", pb, b / b.sum())
    ot = Instance("transport.ot", "ot",
                  ["--mu", str(root / "mu.pts"), "--nu", str(root / "nu.pts"),
                   "--metric", "lp", "2"],
                  root / "out_ot")
    # consumers 1/256 apart and prices on multiples of 1/128: every boundary
    # between two catchments falls on a consumer, so demands fix the prices
    consumers = flip[0] * np.arange(769) / 256.0
    firms = flip[0] * np.arange(4.0)
    prices = np.concatenate([[0.0], pinned.integers(-48, 49, 3) / 128.0])
    _points(root / "consumers.pts", consumers[:, None], np.full(769, 1.0 / 769))
    _points(root / "firms.pts", firms[:, None], prices)
    hot = Instance("transport.hotelling", "hotelling",
                   ["--firms", str(root / "firms.pts"),
                    "--consumers", str(root / "consumers.pts"), "--metric", "lp", "1"],
                   root / "out_hotelling")
    return [ot, hot]


_BUILDERS = {"traffic": _traffic, "flow": _flow, "city": _city, "transport": _transport}


def build(workload: str, seed: int, root: Path) -> list[Instance]:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    return _BUILDERS[workload](rng, root)

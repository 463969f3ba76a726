"""Written results that do not depend on the BLAS thread count.

Each command runs in two fresh interpreters, one with OPENBLAS_NUM_THREADS=1
and one with 2 (the thread count is read once, when numpy loads), and every
artifact must be byte-identical apart from the report's timing block. A
reduction through BLAS (np.dot, np.linalg.norm) splits a long sum among its
threads, so its last bits follow the thread count; einsum and numpy's own
reductions do not.

The Wardrop instances here keep the master's Newton systems below 100 rows.
From about 100 rows on, OpenBLAS splits a Cholesky factorization among
threads, and the result of a larger instance (such as the benchmark's 10 x 10
grid with 4 x 4 demand) may differ in its last bits between thread counts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congested_transport
from congested_transport.grids import Grid, ScalarField, save_scalar_csv

SRC = str(Path(congested_transport.__file__).resolve().parents[1])


def _artifacts(argv, out: Path, threads: int) -> dict[str, bytes]:
    """Run the command line in a fresh interpreter with the given BLAS
    thread count; return its artifacts, the report without its timing, and
    remove them."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from congested_transport.cli import main; "
            f"sys.exit(main({[*argv, '--out', str(out)]!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    blobs = {}
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        if f.name == "report.json":
            report = json.loads(data)
            report.pop("timing")
            data = json.dumps(report, sort_keys=True).encode()
        blobs[f.name] = data
    shutil.rmtree(out)
    return blobs


def _two_blobs(path: Path, n: int, rng) -> None:
    """Unit mass of two Gaussian blobs on n x n cells of the unit square."""
    grid = Grid(nx=n, ny=n, h=1.0 / n)
    x, y = grid.cell_centers()
    d = sum(np.exp(-((x - rng.uniform(0.3, 0.7)) ** 2 + (y - rng.uniform(0.3, 0.7)) ** 2)
                   / (2 * s * s)) for s in rng.uniform(0.1, 0.14, 2))
    save_scalar_csv(ScalarField(d / (d.sum() * grid.cell_area), grid), path)


def _grid_network(path: Path, k: int, n_s: int, n_d: int, tags=None) -> list[str]:
    """A bidirectional k x k grid with sources down the left column and
    destinations down the right one; returns the lines of its nodes."""
    lines = [f"nodes {k * k}"]
    for i in range(k):
        for j in range(k):
            u = i * k + j
            for v in ([u + 1] if j + 1 < k else []) + ([u + k] if i + 1 < k else []):
                for tail, head in ((u, v), (v, u)):
                    tag = f" {tags[len(lines) - 1]}" if tags is not None else ""
                    lines.append(f"edge n{tail} n{head}{tag}")
    sources = [int(r) * k for r in np.round(np.linspace(0, k - 1, n_s))]
    dests = [int(r) * k + k - 1 for r in np.round(np.linspace(0, k - 1, n_d))]
    lines += [f"source n{s}" for s in sources] + [f"dest n{d}" for d in dests]
    path.write_text("\n".join(lines) + "\n")
    return [f"n{s}" for s in sources], [f"n{d}" for d in dests]


def _beckmann(tmp: Path) -> list[str]:
    """Quadratic Beckmann between two-blob densities on 128 x 128 cells. With
    np.dot, its cost and dual value differed in the last bits between 1 and
    2 threads."""
    rng = np.random.default_rng(1)
    _two_blobs(tmp / "mu.csv", 128, rng)
    _two_blobs(tmp / "nu.csv", 128, rng)
    return ["beckmann", "--mu", str(tmp / "mu.csv"), "--nu", str(tmp / "nu.csv"),
            "--H", "quadratic"]


def _wardrop_fixed(tmp: Path) -> list[str]:
    """Fixed 3 x 3 demand on a 4 x 4 grid with per-edge affine costs."""
    rng = np.random.default_rng(7)
    a, p = rng.uniform(0.5, 1.5, 48).tolist(), rng.uniform(1.8, 2.4, 48).tolist()
    tags = [f"affine_power {ae!r} {pe!r}" for ae, pe in zip(a, p)]
    sources, dests = _grid_network(tmp / "a.net", 4, 3, 3, tags)
    gamma = rng.uniform(0.5, 1.5, (3, 3)).tolist()
    (tmp / "a.dem").write_text("".join(f"demand {s} {d} {gamma[i][j]!r}\n"
                                       for i, s in enumerate(sources)
                                       for j, d in enumerate(dests)))
    return ["wardrop", "--net", str(tmp / "a.net"), "--demand", str(tmp / "a.dem"),
            "--H", "quadratic"]


def _wardrop_marginals(tmp: Path) -> list[str]:
    """Six by six marginals on an 8 x 8 grid: one exact transport per round."""
    rng = np.random.default_rng(8)
    sources, dests = _grid_network(tmp / "c.net", 8, 6, 6)
    mu, nu = rng.uniform(0.5, 1.5, 6), rng.uniform(0.5, 1.5, 6)
    nu *= mu.sum() / nu.sum()
    (tmp / "c.dem").write_text("".join(f"mu {s} {m!r}\n" for s, m in zip(sources, mu.tolist()))
                               + "".join(f"nu {d} {m!r}\n" for d, m in zip(dests, nu.tolist())))
    return ["wardrop", "--net", str(tmp / "c.net"), "--demand", str(tmp / "c.dem"),
            "--H", "affine_power 1 2"]


@pytest.mark.parametrize("build", [_beckmann, _wardrop_fixed, _wardrop_marginals],
                         ids=["beckmann-quadratic-128", "wardrop-fixed", "wardrop-marginals"])
def test_results_do_not_depend_on_the_blas_thread_count(tmp_path, build):
    argv = build(tmp_path)
    one = _artifacts(argv, tmp_path / "out", 1)
    two = _artifacts(argv, tmp_path / "out", 2)
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name

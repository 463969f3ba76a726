"""Benchmark of the congested-transport command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

A workload is a batch of in-process ``congested_transport.cli.main`` calls on
inputs generated from the seed (see ``workloads.py``). The batch is repeated
in rounds until ``--seconds`` have passed; each round clears the per-grid
operator cache of ``beckmann`` first, so every round pays what a fresh CLI
process pays. After every call, outside the timed region, ``checks.py``
verifies the written artifacts, and the artifacts (report timing aside) must
be byte-identical to those of the first round.

Every timing is taken at a reference speed of the machine (see
``speed.py``), because the measuring machine changes speed by up to 1.5x for
seconds to minutes at a time. The raw wall times are printed next to them.

``--trace 0`` prints the end-to-end metrics:
  wall_s        sum over the batch of each call's median wall time over
                rounds, at the reference speed
  setup_s       median import time of congested_transport.cli (in fresh
                interpreters) plus median time to generate the inputs, both
                at the reference speed
  peak_rss_mib  peak resident memory of this process after the first round
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics (medians over traced rounds) plus trace.overhead_frac. Spans are
written to .perfbench/spans-<workload>-<seed>.json.gz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 means a result was printed; any
other exit code means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
IMPORT_SAMPLES = 5
GENERATE_SAMPLES = 5
IMPORT_PROBE = ("import sys; sys.path[:0] = ['src', 'perfbench']; import speed; "
                "print(speed.measure(lambda: __import__('congested_transport.cli'))[2])")

# unit of every per-layer metric, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "grids.io.self_s": "s", "network.load.self_s": "s",
    "network.shortest_distances.calls": "count", "network.shortest_distances.self_s": "s",
    "congestion.edge_costs.calls": "count", "congestion.edge_costs.self_s": "s",
    "congestion.prox.calls": "count", "congestion.prox.self_s": "s",
    "wardrop.solve.self_s": "s", "wardrop.fw_iterations": "count",
    "wardrop.ms_per_iteration": "ms", "wardrop.rel_gap_max": "ratio",
    "kantorovich.solve_discrete_ot.calls": "count",
    "kantorovich.solve_discrete_ot.self_s": "s", "kantorovich.augmentations": "count",
    "kantorovich.us_per_augmentation": "us", "kantorovich.duality_gap_max": "ratio",
    "beckmann.solve_beckmann.self_s": "s", "beckmann.admm_iterations": "count",
    "beckmann.ms_per_iteration": "ms", "beckmann.solve_dual_quadratic.calls": "count",
    "beckmann.solve_dual_quadratic.ms_per_call": "ms",
    "beckmann.certificate_gap_max": "ratio",
    "urbanplan.outer_iterations": "count", "urbanplan.accepted_ratio": "ratio",
    "urbanplan.solve_p_nu.calls": "count", "urbanplan.solve_p_nu.self_s": "s",
    "urbanplan.inner_iterations": "count", "urbanplan.transport_solve.calls": "count",
    "urbanplan.transport_solve.self_s": "s", "urbanplan.profile_l1": "l1",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter, at the
    reference speed."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import congested_transport.cli:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return _median(samples)


def machine() -> dict:
    """Where the numbers were taken: cores, CPU, library versions, BLAS and
    the thread settings found in the environment (the benchmark sets none)."""
    import platform

    import numpy
    import scipy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), "")
    blas = {}
    for lib in (numpy, scipy):
        dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = f"{dep['name']} {dep['version']}"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "CT_THREADS")},
    }


def _artifact_digest(out: Path) -> str:
    """Digest of every artifact, with the report's timing block removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timing", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Bench:
    """One workload's instances, the rounds run over them and their results."""

    def __init__(self, workload: str, seed: int):
        from congested_transport import beckmann, cli

        import checks

        self.cli, self.beckmann, self.checks = cli, beckmann, checks
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        generate = []
        for i in range(GENERATE_SAMPLES):
            self.instances, _, seconds = speed.measure(
                lambda: workloads.build(workload, seed, self.dir / f"inputs{i}"))
            generate.append(seconds)
        self.generate_s = _median(generate)
        # per call: wall seconds of every untraced round, raw and at the
        # reference speed, and of every traced round at the reference speed
        self.raw_wall = {inst.name: [] for inst in self.instances}
        self.wall = {inst.name: [] for inst in self.instances}
        self.traced_wall = {inst.name: [] for inst in self.instances}
        self.digests: dict[str, str] = {}
        self.peak_rss_mib = None
        self.values: dict[str, list] = {}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.layer_rounds: list[dict] = []
        self.spans: list[list] = []

    def measure(self, seconds: float, traced: bool) -> None:
        """Rounds while the next one is expected to end before the deadline.
        With tracing, untraced and traced rounds alternate (two at least)."""
        from tracing import Tracer

        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            tracer = Tracer() if traced and self.rounds % 2 == 1 else None
            t0 = time.perf_counter()
            self.round(tracer)
            durations.append(time.perf_counter() - t0)
            if (time.perf_counter() + _median(durations) > deadline
                    and (not traced or self.rounds >= 2)):
                return

    def round(self, tracer=None) -> None:
        """One pass over the batch, each call timed and then checked."""
        self.beckmann._ops.cache_clear()
        self.rounds += 1
        bytes_written = 0
        for inst in self.instances:
            shutil.rmtree(inst.out, ignore_errors=True)
            if tracer is not None:
                tracer.install()
            rc, raw, wall = speed.measure(lambda: self._call(inst))
            if tracer is not None:
                tracer.uninstall()
                self.traced_wall[inst.name].append(wall)
            else:
                self.raw_wall[inst.name].append(raw)
                self.wall[inst.name].append(wall)
            bytes_written += sum(p.stat().st_size for p in inst.out.rglob("*") if p.is_file())
            self.attempted += 1
            problems = self._verify(inst, rc)
            if problems:
                self.failed += 1
                print(f"FAIL {inst.name}: {'; '.join(problems)}", file=sys.stderr)
        if tracer is not None:
            metrics = tracer.layer_metrics()
            metrics["cli.bytes_written"] = float(bytes_written)
            self.layer_rounds.append(metrics)
            self.spans.append(tracer.spans)
        elif self.peak_rss_mib is None:
            # later rounds reuse the heap; a CLI user runs the batch once
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _call(self, inst):
        try:
            return self.cli.main(inst.argv())
        except Exception:
            traceback.print_exc()
            return None

    def _verify(self, inst, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            problems, values = self.checks.check(inst)
        except Exception as exc:
            return [f"check raised {exc!r}"]
        for key, value in values.items():
            self.values.setdefault(f"{inst.name}.{key}", []).append(value)
        digest = _artifact_digest(inst.out)
        if self.digests.setdefault(inst.name, digest) != digest:
            problems.append("artifacts differ from the first round")
        return problems

    def end_to_end(self, import_s: float) -> dict[str, float]:
        return {
            "wall_s": _sum_of_medians(self.wall),
            "setup_s": import_s + self.generate_s,
            "peak_rss_mib": self.peak_rss_mib,
        }

    def per_layer(self) -> dict[str, float]:
        """Medians over traced rounds; writes the spans out."""
        metrics = {k: _median([r[k] for r in self.layer_rounds]) for k in self.layer_rounds[0]}
        metrics["urbanplan.profile_l1"] = _median(self.values.get("city.a.profile_l1", []))
        metrics["trace.overhead_frac"] = (_sum_of_medians(self.traced_wall)
                                          / _sum_of_medians(self.wall) - 1.0)
        WORK.mkdir(exist_ok=True)
        with gzip.open(WORK / f"spans-{self.workload}-{self.seed}.json.gz", "wt",
                       encoding="utf-8") as fh:
            json.dump({"machine": machine(), "fields": ["name", "start", "end", "parent"],
                       "rounds": self.spans}, fh)
        return metrics

    def summary(self) -> None:
        """Human-readable lines; the result line follows them."""
        for name, t in self.wall.items():
            raw = self.raw_wall[name]
            print(f"  {name:22s} median {_median(t):8.3f} s ({_median(raw):.3f} s raw), "
                  "rounds: " + " ".join(f"{x:.3f}" for x in t))
        print(f"  batch raw wall time (sum of medians) {_sum_of_medians(self.raw_wall):.3f} s")
        for key, vals in sorted(self.values.items()):
            print(f"  {key:40s} {max(vals):.3e} (max)")
        print(f"machine {json.dumps(machine(), sort_keys=True)}")
        print(f"workload {self.workload} seed {self.seed}: {self.rounds} rounds, "
              f"failed_frac {self.failed / self.attempted:.3f} "
              f"({self.failed}/{self.attempted})")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _sum_of_medians(samples: dict[str, list]) -> float:
    return sum(_median(t) for t in samples.values())


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import_s = _import_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(workload, seed)
    try:
        bench.measure(seconds, traced)
        metrics = bench.per_layer() if traced else bench.end_to_end(import_s)
        units = LAYER_UNITS if traced else END_TO_END_UNITS
        bench.summary()
        for name, unit in units.items():
            print(f"  {name:45s} {metrics[name]:.6g} {unit}")
        return {"correct": bench.failed == 0, "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    finally:
        bench.close()


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return _fail(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results["traffic"]["metrics"])
    print(f"{'metric':45s} {'unit':6s}" + "".join(f"{w:>12s}" for w in results))
    for name in names:
        unit = results["traffic"]["metrics"][name]["unit"]
        print(f"{name:45s} {unit:6s}"
              + "".join(f"{r['metrics'][name]['value']:12.5g}" for r in results.values()))
    print(f"{'failed_frac':45s} {'ratio':6s}"
          + "".join(f"{r['failed'] / r['attempted']:12.3g}" for r in results.values()))
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "congested_transport" / "cli.py").is_file():
        return _fail("run from the root of a congested-transport checkout "
                     "(src/congested_transport/cli.py not found)")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

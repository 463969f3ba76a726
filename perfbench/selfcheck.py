"""Check of the benchmark itself.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py [--seed 1] [--workload traffic ...]

For each workload it shows that
  * a clean untraced round passes every output check;
  * a traced round writes artifacts byte-identical to the untraced round,
    apart from the report's timing block;
  * a corrupted artifact (perturbed flows or coupling, shifted flux, rescaled
    density, shifted recovered price) makes the output check fail.
Exit code 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

import run

# instance -> (artifact, (row, column), amount added to that entry)
CORRUPTIONS = {
    "traffic.a": ("flows.csv", (0, 3), 1e-3),
    "traffic.c": ("coupling.csv", (0, 0), 1e-3),
    "flow.a": ("vx.csv", (5, 5), 1e-3),
    "flow.d": ("vy.csv", (7, 3), 1e-3),
    "city.a": ("mu.csv", (20, 20), 1e-3),
    "transport.ot": ("coupling.csv", (0, 0), 1e-4),
    "transport.hotelling": ("demands.csv", (1, -1), 2.0 ** -7),
}


def _corrupt(path: Path, entry, amount: float) -> None:
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    table[entry] += amount
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in table),
                    encoding="utf-8")


def selfcheck(workload: str, seed: int) -> list[str]:
    from tracing import Tracer

    errors = []
    bench = run.Bench(workload, seed)
    try:
        bench.round()
        if bench.failed:
            errors.append(f"{workload}: clean untraced round failed its checks")
        bench.round(Tracer())
        if bench.failed:
            errors.append(f"{workload}: traced artifacts differ from untraced ones")
        for inst in bench.instances:
            if inst.name not in CORRUPTIONS:
                continue
            artifact, entry, amount = CORRUPTIONS[inst.name]
            _corrupt(inst.out / artifact, entry, amount)
            problems, _ = bench.checks.check(inst)
            print(f"  {inst.name}: corrupted {artifact} -> {problems or 'NOT DETECTED'}")
            if not problems:
                errors.append(f"{inst.name}: corrupted {artifact} passed the check")
    finally:
        bench.close()
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=["traffic", "flow", "city", "transport"])
    args = ap.parse_args(argv)
    if not (run.ROOT / "src" / "congested_transport" / "cli.py").is_file():
        return run._fail("run from the root of a congested-transport checkout")
    sys.path.insert(0, str(run.ROOT / "src"))
    errors = []
    for workload in args.workload:
        print(f"{workload}:")
        errors += selfcheck(workload, args.seed)
    for err in errors:
        print(f"FAIL {err}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

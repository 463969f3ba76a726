"""Command-line front end: parse problem files, dispatch solvers, and emit
machine-readable reports (report.json plus plot-ready CSV artifacts).

Exit codes: 0 converged, 1 input or usage error, 2 solver returned its best
iterate without meeting the tolerance. Reports are byte-stable across runs
with equal inputs, except for the timing block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import congestion, grids, kantorovich, network, urbanplan, wardrop
from .beckmann import solve_beckmann, solve_dual_quadratic
from .errors import CongestedTransportError, InputFormatError


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_report(out_dir: Path, command: str, config: dict, inputs: dict,
                  results: dict, t0: float) -> None:
    report = {
        "command": command,
        "config": config,
        "inputs": {str(k): {"sha256": _sha256(v)} for k, v in inputs.items()},
        "results": results,
        "timing": {"seconds": time.time() - t0},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv(path, array, header=None):
    """Each row of array as one line of '.17g' fields. A +0.0 entry, most of
    a transport plan, is written as the '0' that format gives it without
    formatting it; -0.0, nan, inf and every other value are formatted."""
    arr = np.atleast_2d(np.asarray(array))
    formatted = (arr != 0) | np.signbit(arr)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("#" + ",".join(header) + "\n")
        for row, todo in zip(arr, formatted):
            fields = ["0"] * row.size
            for k in np.flatnonzero(todo):
                fields[k] = f"{row[k]:.17g}"
            fh.write(",".join(fields) + "\n")


def _amount(text: str, path, lineno: int) -> float:
    """A demand or marginal value; InputFormatError unless it is a finite number."""
    value = kantorovich.parse_numbers([text], f"{path}:{lineno}")[0]
    if not np.isfinite(value):
        raise InputFormatError(f"{path}:{lineno}: demand value must be finite, got {text!r}")
    return value


def _parse_demand(path, net: network.Network):
    """Demand file: 'demand <s> <d> <v>' lines, or 'mu <label> <v>' and
    'nu <label> <v>' lines for prescribed marginals."""
    label_to_id = {lab: i for i, lab in enumerate(net.labels or [])}
    fixed: dict[tuple[int, int], float] = {}
    mu: dict[int, float] = {}
    nu: dict[int, float] = {}
    for lineno, parts in network._records(network._read_text(path)):
        kind = parts[0].lower()
        if kind == "demand" and len(parts) == 4:
            s, d = label_to_id.get(parts[1]), label_to_id.get(parts[2])
            if s is None or d is None:
                raise InputFormatError(f"{path}:{lineno}: unknown node label")
            fixed[(s, d)] = fixed.get((s, d), 0.0) + _amount(parts[3], path, lineno)
        elif kind in ("mu", "nu") and len(parts) == 3:
            node = label_to_id.get(parts[1])
            if node is None:
                raise InputFormatError(f"{path}:{lineno}: unknown node label")
            if node not in (net.sources if kind == "mu" else net.dests):
                end = "source" if kind == "mu" else "dest"
                raise InputFormatError(f"{path}:{lineno}: {kind} node is not a declared {end}")
            (mu if kind == "mu" else nu)[node] = _amount(parts[2], path, lineno)
        else:
            raise InputFormatError(f"{path}:{lineno}: unrecognized demand line")
    if fixed and (mu or nu):
        raise InputFormatError(f"{path}: mix of fixed and marginal demand lines")
    if fixed:
        gamma = np.zeros((len(net.sources), len(net.dests)))
        s_pos = {s: i for i, s in enumerate(net.sources)}
        d_pos = {d: i for i, d in enumerate(net.dests)}
        for (s, d), v in fixed.items():
            if s not in s_pos or d not in d_pos:
                raise InputFormatError(f"{path}: demand endpoint not a declared source/dest")
            gamma[s_pos[s], d_pos[d]] += v
        return wardrop.DemandSpec.fixed(gamma)
    mu_vec = np.array([mu.get(s, 0.0) for s in net.sources])
    nu_vec = np.array([nu.get(d, 0.0) for d in net.dests])
    return wardrop.DemandSpec.marginals(mu_vec, nu_vec)


def _edge_specs(net: network.Network, default: congestion.CongestionSpec):
    if not net.edge_cost_tags:
        return default
    return [congestion.CongestionSpec.from_config(tag) if tag else default
            for tag in net.edge_cost_tags]


def _cmd_wardrop(args) -> int:
    t0 = time.time()
    net = network.load_network(args.net)
    network.validate_network(net)
    default_spec = congestion.CongestionSpec.from_config(args.H)
    spec = _edge_specs(net, default_spec)
    demand = _parse_demand(args.demand, net)
    if demand.kind == "fixed":
        res = wardrop.solve_fixed_demand(net, spec, demand.gamma,
                                         tol=args.tol, max_iter=args.max_iter)
    else:
        res = wardrop.solve_variable_demand(net, spec, demand.mu, demand.nu,
                                            tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(e, net.edges[e][0], net.edges[e][1], res.flows[e], res.xi[e])
            for e in range(net.n_edges)]
    _csv(out / "flows.csv", rows, header=["edge", "tail", "head", "flow", "xi"])
    _csv(out / "coupling.csv", res.coupling)
    _write_report(out, "wardrop", _resolved(args, H=args.H),
                  {"net": args.net, "demand": args.demand},
                  {
                      "objective": res.objective,
                      "relative_gap": res.relative_gap,
                      "iterations": res.iterations,
                      "converged": res.converged,
                      "demand_kind": demand.kind,
                  }, t0)
    return 0 if res.converged else 2


def _load_cost(args, mu, nu):
    if args.cost:
        return grids._load_table(args.cost), {"cost": args.cost}
    return kantorovich.lp_cost_matrix(mu, nu, args.metric_p), {}


def _cmd_ot(args) -> int:
    t0 = time.time()
    mu = kantorovich.load_measure(args.mu)
    nu = kantorovich.load_measure(args.nu)
    cost, extra_inputs = _load_cost(args, mu, nu)
    res = kantorovich.solve_discrete_ot(mu, nu, cost)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _csv(out / "coupling.csv", res.coupling.plan)
    _csv(out / "phi.csv", res.potentials.phi[:, None])
    _csv(out / "psi.csv", res.potentials.psi[:, None])
    _write_report(out, "ot", _resolved(args, metric_p=args.metric_p),
                  {"mu": args.mu, "nu": args.nu, **extra_inputs},
                  {
                      "value": res.value,
                      "dual_value": res.dual_value,
                      "iterations": res.iterations,
                      "repairs": res.repairs,
                      "searches": res.searches,
                      "duality_gap_rel": abs(res.value - res.dual_value) / (1 + abs(res.value)),
                  }, t0)
    return 0


def _cmd_beckmann(args) -> int:
    t0 = time.time()
    mu = grids.load_scalar_csv(args.mu)
    nu = grids.load_scalar_csv(args.nu)
    grid = mu.grid
    spec = congestion.CongestionSpec.from_config(args.H)
    res = solve_beckmann(mu, nu, spec, grid, tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grids.save_vector_csv(res.v, out / "vx.csv", out / "vy.csv")
    results = {
        "cost": res.cost,
        "iterations": res.iterations,
        "converged": res.converged,
        "div_residual": res.div_residual,
        "split_residual": res.split_residual,
        "dual_value": res.dual_value,
        "certificate_gap": res.certificate_gap,
    }
    if spec == congestion.CongestionSpec.quadratic():
        _, v_ref = solve_dual_quadratic(mu, nu, grid)
        ref_cost = float(grid.cell_area * np.sum(spec.H(v_ref.cell_magnitude_rms())))
        results["poisson_reference_cost"] = ref_cost
        results["poisson_rel_diff"] = abs(res.cost - ref_cost) / max(abs(ref_cost), 1e-300)
    _write_report(out, "beckmann", _resolved(args, H=args.H),
                  {"mu": args.mu, "nu": args.nu}, results, t0)
    return 0 if res.converged else 2


def _config_section(cfg: dict, key: str, default: dict, where) -> dict:
    """cfg[key] (or default); InputFormatError unless it is a JSON object."""
    section = cfg.get(key, default)
    if not isinstance(section, dict):
        raise InputFormatError(f"{where}: {key!r} must be an object, got {section!r}")
    return section


def _config_number(cfg: dict, key: str, default, where, integer: bool = False,
                   least: float = -np.inf):
    """cfg[key] (or default) as a float, or an int if integer; InputFormatError
    unless it is a finite JSON number (integral if integer) of at least least."""
    value = cfg.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value) or (integer and value != int(value))):
        kind = "an integer" if integer else "a finite number"
        raise InputFormatError(f"{where}: {key!r} must be {kind}, got {value!r}")
    if value < least:
        raise InputFormatError(f"{where}: {key!r} must be at least {least}, got {value!r}")
    return int(value) if integer else float(value)


def _config_choice(cfg: dict, key: str, choices, where) -> str:
    """cfg[key]; InputFormatError unless it is one of choices."""
    value = cfg.get(key)
    if value not in choices:
        raise InputFormatError(f"{where}: {key!r} must be one of "
                               f"{', '.join(map(repr, choices))}, got {value!r}")
    return value


def _config_keys(cfg: dict, keys, what: str, where) -> None:
    """InputFormatError if cfg holds a key outside keys: a field that nothing
    reads must not be ignored in silence."""
    unread = sorted(set(cfg) - set(keys))
    if unread:
        raise InputFormatError(f"{where}: {what} does not read {unread[0]!r} "
                               f"(its keys: {', '.join(map(repr, sorted(keys)))})")


# The top-level keys of a city config that only one kind of city reads.
_CITY_KEYS = {"atomic": ("k_max",), "interaction": ("lambda", "n_atom_side")}


def _cmd_city(args) -> int:
    t0 = time.time()
    where = args.config
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{where}: not valid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise InputFormatError(f"{where}: the config must be a JSON object")
    gspec = _config_section(cfg, "grid", {}, where)
    grid = grids.Grid(nx=_config_number(gspec, "nx", 64, where, integer=True),
                      ny=_config_number(gspec, "ny", 64, where, integer=True),
                      h=_config_number(gspec, "h", 1.0 / 64, where))
    p = _config_number(cfg, "p", 2, where, least=1)
    tol = _config_number(cfg, "tol", 1e-6, where)
    if tol <= 0:
        raise InputFormatError(f"{where}: 'tol' must be positive, got {tol!r}")
    spread_cfg = _config_section(cfg, "spread", {"family": "quadratic"}, where)
    family = _config_choice(spread_cfg, "family", ("quadratic", "power"), where)
    if family == "quadratic":
        spread = urbanplan.SpreadSpec.quadratic()
    else:
        m = spread_cfg.get("m")
        if not isinstance(m, (int, float)) or not np.isfinite(m):
            raise InputFormatError(f"{args.config}: a power spread needs a finite exponent 'm', "
                                   f"got {m!r}")
        spread = urbanplan.SpreadSpec.power(float(m))
    conc_cfg = _config_section(cfg, "concentration", {"kind": "interaction"}, where)
    kind = _config_choice(conc_cfg, "kind", ("atomic", "interaction"), where)
    if kind == "interaction" and (p != 2 or family != "quadratic"):
        raise InputFormatError(f"{where}: the 'interaction' city is the quadratic city, "
                               f"with p = 2 and the quadratic spread; got p = {p!r} "
                               f"and a {family} spread")
    _config_keys(gspec, ("nx", "ny", "h"), "'grid'", where)
    _config_keys(spread_cfg, ("family", "m") if family == "power" else ("family",),
                 f"a {family} 'spread'", where)
    _config_keys(conc_cfg, ("kind", "g", "exponent") if kind == "atomic" else ("kind",),
                 f"an {kind} 'concentration'", where)
    _config_keys(cfg, ("grid", "p", "tol", "spread", "concentration", *_CITY_KEYS[kind]),
                 f"the {kind} city", where)

    if kind == "atomic":
        g_tag = conc_cfg.get("g", "power")
        if g_tag != "power":
            raise InputFormatError(f"{where}: unknown atomic pole cost {g_tag!r} "
                                   f"(supported: 'power')")
        conc = urbanplan.ConcentrationSpec.atomic_power(
            _config_number(conc_cfg, "exponent", 0.5, where))
        k_max = _config_number(cfg, "k_max", 3, where, integer=True, least=1)
        res = urbanplan.minimize_with_atomic_G(p, spread, conc, k_max=k_max, grid=grid, tol=tol)
        results = {
            "value": res.value,
            "k": res.k,
            "per_k": {str(k): v for k, v in res.per_k.items()},
            "per_k_converged": {str(k): v for k, v in res.per_k_converged.items()},
            "catchments_connected": res.catchments_connected,
        }
        potential = None
    else:
        lam = _config_number(cfg, "lambda", 1.0, where)
        if lam <= 0:
            raise InputFormatError(f"{where}: 'lambda' must be positive, got {lam!r}")
        n_atom_side = _config_number(cfg, "n_atom_side", 12, where, integer=True, least=1)
        res = urbanplan.solve_quadratic_city(lam, grid, tol=tol, n_atom_side=n_atom_side)
        results = {
            "value": res.value,
            "iterations": res.iterations,
            "radius_analytic": urbanplan.quadratic_city_radius(lam),
            "multiplier": res.multiplier,
        }
        potential = res.potential
    results.update({
        "converged": res.converged,
        "decomposition": {
            "transport": res.transport_value,
            "spread": res.spread_value,
            "concentration": res.concentration_value,
        },
        "residuals": {"characterization_l1": res.residual},
    })

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grids.save_scalar_csv(res.mu, out / "mu.csv")
    if potential is not None:
        grids.save_scalar_csv(potential, out / "potential.csv")
    _csv(out / "nu_atoms.csv",
         np.column_stack([res.nu.points, res.nu.weights]),
         header=["x", "y", "weight"])
    _write_report(out, "city", {"config_file": str(args.config), **cfg},
                  {"config": args.config}, results, t0)
    return 0 if res.converged else 2


# The round trip prices -> demands -> prices is the only certificate of a
# hotelling run; above this error (up to a common shift) it exits 2.
ROUNDTRIP_TOL = 1e-6


def _cmd_hotelling(args) -> int:
    t0 = time.time()
    firm_points, prices = kantorovich.parse_points(network._read_text(args.firms), args.firms)
    consumers = kantorovich.load_measure(args.consumers)
    assignment, demands = kantorovich.hotelling_demands(
        firm_points, prices, consumers, metric_p=args.metric_p)
    recovered = kantorovich.hotelling_recover_prices(
        firm_points, demands, consumers, metric_p=args.metric_p)
    shift = prices - recovered
    roundtrip = float(np.abs(shift - shift[0]).max())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _csv(out / "demands.csv", np.column_stack([
        firm_points, prices, demands, recovered]),
         header=["x"] * firm_points.shape[1] + ["price", "demand", "recovered_price"])
    _csv(out / "assignment.csv", assignment[:, None])
    _write_report(out, "hotelling", _resolved(args, metric_p=args.metric_p),
                  {"firms": args.firms, "consumers": args.consumers},
                  {
                      "demands": demands.tolist(),
                      "recovered_prices": recovered.tolist(),
                      "roundtrip_error": roundtrip,
                  }, t0)
    return 0 if roundtrip <= ROUNDTRIP_TOL else 2


def _cmd_selftest(args) -> int:
    t0 = time.time()
    failures = []

    def check(name, ok):
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    # two-route congestion game with one congested and one constant road
    net = network.Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])
    spec = [congestion.CongestionSpec.quadratic(), congestion.CongestionSpec.monomial(1.0)]
    res = wardrop.solve_fixed_demand(net, spec, [[1.0]], tol=1e-8)
    check("two-route equilibrium", abs(res.objective - 0.5) < 1e-6 and res.relative_gap <= 1e-8)

    # one-dimensional W1 against the closed form: the integral of |F - G|
    # over the merged support. On 5 points the tight-arc start leaves two
    # augmentations; 40 points, more than CAND a side, run on the candidate
    # graph and its certificate; on 200 points every path between two points
    # ties at p = 1, and each search feeds many augmentations
    for name, wa, wb in [
            ("one-dimensional transport", np.array([1, 3, 1, 2, 1]), np.array([2, 1, 1, 1, 3])),
            ("one-dimensional transport, 40 points", *np.random.default_rng(5).random((2, 40))),
            ("one-dimensional transport, 200 points",
             *np.random.default_rng(5).random((2, 200)))]:
        x, y = np.arange(wa.size, dtype=float), np.arange(wb.size) + 0.5
        mu = kantorovich.DiscreteMeasure(weights=wa / wa.sum(), points=x[:, None])
        nu = kantorovich.DiscreteMeasure(weights=wb / wb.sum(), points=y[:, None])
        merged = np.concatenate([x, y])
        order = np.argsort(merged, kind="stable")
        cdf_gap = np.cumsum(np.concatenate([mu.weights, -nu.weights])[order])[:-1]
        w1 = float(np.dot(np.abs(cdf_gap), np.diff(merged[order])))
        ot = kantorovich.solve_discrete_ot(mu, nu, kantorovich.lp_cost_matrix(mu, nu, 1.0))
        check(name, abs(ot.value - w1) < 1e-12 and ot.iterations > 0)

    # one-dimensional flow matches the cumulative-sum solution
    g1 = grids.Grid(nx=16, ny=1, h=1.0 / 16)
    rng = np.random.default_rng(3)
    a = rng.random((16, 1)); a /= a.sum() * g1.cell_area
    b = rng.random((16, 1)); b /= b.sum() * g1.cell_area
    f = (a - b).ravel()
    vx = np.concatenate([[0.0], np.cumsum(g1.h * f)])
    resb = solve_beckmann(grids.ScalarField(a, g1), grids.ScalarField(b, g1),
                          congestion.CongestionSpec.quadratic(), g1, tol=1e-10)
    check("one-dimensional flow", float(np.abs(resb.v.vx.ravel() - vx).max()) < 1e-8)
    # at p = 1 too, and the divergence fixes the flow, so the certificate is tight
    resb = solve_beckmann(grids.ScalarField(a, g1), grids.ScalarField(b, g1),
                          congestion.CongestionSpec.monomial(1.0), g1)
    check("one-dimensional W1 flow and certificate",
          float(np.abs(resb.v.vx.ravel() - vx).max()) < 1e-8
          and abs(resb.certificate_gap) <= 1e-12)

    # hotelling price recovery on the analytic split instance
    grid_pts = np.linspace(0.0, 1.0, 401)[:, None]
    consumers = kantorovich.DiscreteMeasure(weights=np.full(401, 1.0 / 401), points=grid_pts)
    firm_pts = np.array([[0.0], [1.0]])
    prices = np.array([0.0, 0.5])
    _, demands = kantorovich.hotelling_demands(firm_pts, prices, consumers, metric_p=1.0)
    rec = kantorovich.hotelling_recover_prices(firm_pts, demands, consumers, metric_p=1.0)
    check("hotelling round trip", float(np.abs(rec - prices).max()) < 1e-6)

    out = Path(args.out)
    _write_report(out, "selftest", _resolved(args), {},
                  {"failures": failures, "passed": not failures}, t0)
    return 0 if not failures else 1


def _resolved(args, **extra) -> dict:
    tolerance = {k: getattr(args, k) for k in ("tol", "max_iter") if hasattr(args, k)}
    return {"out": str(args.out), **tolerance, **extra}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1, one 'error:' line)
    instead of printing the usage and exiting 2, which means 'not converged'."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="congested-transport",
        description="Solvers for congestion-aware optimal transport problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")

    def iterative(p):  # the stopping rule of a solver that iterates to a tolerance
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=5000)

    pw = sub.add_parser("wardrop", help="congested traffic assignment on a network")
    pw.add_argument("--net", required=True)
    pw.add_argument("--demand", required=True)
    pw.add_argument("--H", default="quadratic",
                    help="'quadratic' | 'affine_power a p' | 'monomial p'")
    common(pw)
    iterative(pw)
    pw.set_defaults(func=_cmd_wardrop)

    po = sub.add_parser("ot", help="discrete optimal transport with dual potentials")
    po.add_argument("--mu", required=True)
    po.add_argument("--nu", required=True)
    po.add_argument("--metric", nargs=2, metavar=("KIND", "P"), default=None,
                    help="'lp <p>' ground metric from coordinates")
    po.add_argument("--cost", default=None, help="explicit cost matrix CSV")
    common(po)
    po.set_defaults(func=_cmd_ot)

    pb = sub.add_parser("beckmann", help="grid minimal congested flow")
    pb.add_argument("--mu", required=True)
    pb.add_argument("--nu", required=True)
    pb.add_argument("--H", default="quadratic")
    common(pb)
    iterative(pb)
    pb.set_defaults(func=_cmd_beckmann)

    pc = sub.add_parser("city", help="urban-planning functional minimization")
    pc.add_argument("--config", required=True, help="problem config JSON")
    common(pc)
    pc.set_defaults(func=_cmd_city)

    ph = sub.add_parser("hotelling", help="influence regions, demands, price recovery")
    ph.add_argument("--firms", required=True, help="measure file; weights are prices")
    ph.add_argument("--consumers", required=True)
    ph.add_argument("--metric", nargs=2, metavar=("KIND", "P"), default=None)
    common(ph)
    ph.set_defaults(func=_cmd_hotelling)

    ps = sub.add_parser("selftest", help="run the embedded oracle suite")
    common(ps)
    ps.set_defaults(func=_cmd_selftest)
    return ap


def _metric_exponent(args) -> float:
    """p of the '--metric lp <p>' option, or the command's default."""
    if args.metric is None:
        return 1.0 if args.command == "hotelling" else 2.0
    kind, p = args.metric
    if kind != "lp":
        raise InputFormatError(f"unknown metric kind {kind!r}")
    p = kantorovich.parse_numbers([p], "--metric lp")[0]
    if not np.isfinite(p):
        raise InputFormatError(f"--metric lp: exponent must be finite, got {p}")
    return p


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if hasattr(args, "metric"):
            args.metric_p = _metric_exponent(args)
        return args.func(args)
    except CongestedTransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

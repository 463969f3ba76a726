"""Independent checks of the artifacts a CLI call wrote.

Each check reads the generated inputs and the written artifacts back from
disk and recomputes the certificate the solver claims, without calling the
solver. ``check(instance)`` returns the list of problems found (empty when the
output is correct) and the values worth reporting.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

from congested_transport import grids, network

# Frank-Wolfe stops at relative gap <= --tol (default 1e-6); the recomputed
# gap may differ from the reported one by float rounding only.
WARDROP_TOL = 1e-6
ROUNDING = 1e-9


def _report(inst) -> dict:
    with open(inst.out / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _points(path) -> tuple[np.ndarray, np.ndarray]:
    """'point <coords...> <weight>' lines as (coords, weights)."""
    rows = np.loadtxt(path, dtype=str, ndmin=2)[:, 1:].astype(float)
    return rows[:, :-1], rows[:, -1]


def _edge_derivative(net: network.Network, default: str):
    """g_e = H_e' per edge, from the family tags in the network file."""
    params = []
    for tag in net.edge_cost_tags or [None] * net.n_edges:
        parts = (tag or default).split()
        if parts[0] == "quadratic":
            params.append((0.0, 2.0))
        elif parts[0] == "affine_power":
            params.append((float(parts[1]), float(parts[2])))
        else:
            raise ValueError(f"no reference derivative for {tag or default!r}")
    a, p = np.array(params).T
    return lambda f: a + np.power(f, p - 1.0)


def _exact_ot(mu, nu, cost) -> float:
    """Transport value by the HiGHS linear program, independent of the SSP solver."""
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([mu, nu]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def _demand(path, net: network.Network):
    label = {lab: i for i, lab in enumerate(net.labels)}
    s_pos = {s: i for i, s in enumerate(net.sources)}
    d_pos = {d: i for i, d in enumerate(net.dests)}
    gamma = np.zeros((len(net.sources), len(net.dests)))
    mu, nu = np.zeros(len(net.sources)), np.zeros(len(net.dests))
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            kind, *rest = line.split()
            if kind == "demand":
                gamma[s_pos[label[rest[0]]], d_pos[label[rest[1]]]] += float(rest[2])
            elif kind == "mu":
                mu[s_pos[label[rest[0]]]] = float(rest[1])
            else:
                nu[d_pos[label[rest[0]]]] = float(rest[1])
    return (gamma, None, None) if gamma.any() else (None, mu, nu)


def check_wardrop(inst) -> tuple[list[str], dict]:
    problems = []
    net = network.load_network(inst.arg("--net"))
    gamma, mu, nu = _demand(inst.arg("--demand"), net)
    table = _csv(inst.out / "flows.csv")
    flows, xi_written = table[:, 3], table[:, 4]
    coupling = _csv(inst.out / "coupling.csv")
    xi = _edge_derivative(net, inst.arg("--H"))(flows)
    if np.abs(xi - xi_written).max() > ROUNDING * (1.0 + np.abs(xi).max()):
        problems.append("written xi is not H'(flow)")
    dist = network.shortest_distances(net, xi).dist
    dmat = np.array([[dist[(s, d)] for d in net.dests] for s in net.sources])
    if gamma is not None:
        total = gamma.sum()
        if np.abs(coupling - gamma).max() > ROUNDING * total:
            problems.append("coupling differs from the fixed demand")
        lp_value = float(np.sum(gamma * dmat))
    else:
        total = mu.sum()
        if max(np.abs(coupling.sum(axis=1) - mu).max(),
               np.abs(coupling.sum(axis=0) - nu).max()) > ROUNDING * total:
            problems.append("coupling marginals differ from mu/nu")
        lp_value = _exact_ot(mu, nu, dmat)
    gap = (float(np.dot(xi, flows)) - lp_value) / max(lp_value, 1e-12)
    if gap > WARDROP_TOL + ROUNDING:
        problems.append(f"recomputed relative gap {gap:.3e} > {WARDROP_TOL}")
    # node conservation: out-flow minus in-flow equals supply minus demand
    edges = np.array(net.edges)
    balance = np.zeros(net.n_nodes)
    np.add.at(balance, edges[:, 0], flows)
    np.subtract.at(balance, edges[:, 1], flows)
    np.subtract.at(balance, np.array(net.sources), coupling.sum(axis=1))
    np.add.at(balance, np.array(net.dests), coupling.sum(axis=0))
    if np.abs(balance).max() > ROUNDING * total:
        problems.append(f"node conservation violated by {np.abs(balance).max():.3e}")
    if _report(inst)["results"]["converged"] is not True:
        problems.append("report says not converged")
    return problems, {"relative_gap": gap}


def check_ot(inst) -> tuple[list[str], dict]:
    problems = []
    x, a = _points(inst.arg("--mu"))
    y, b = _points(inst.arg("--nu"))
    p = float(inst.args[inst.args.index("--metric") + 2])
    cost = np.power(np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)), p)
    plan = _csv(inst.out / "coupling.csv")
    phi = _csv(inst.out / "phi.csv").ravel()
    psi = _csv(inst.out / "psi.csv").ravel()
    if plan.min() < 0 or max(np.abs(plan.sum(axis=1) - a).max(),
                             np.abs(plan.sum(axis=0) - b).max()) > ROUNDING:
        problems.append("coupling is not a plan between mu and nu")
    if (phi[:, None] + psi[None, :] - cost).max() > ROUNDING * (1.0 + cost.max()):
        problems.append("potentials are not dual feasible")
    primal = float(np.sum(plan * cost))
    dual = float(np.dot(a, phi) + np.dot(b, psi))
    gap = abs(primal - dual) / (1.0 + abs(primal))
    if gap > 1e-8:
        problems.append(f"primal-dual gap {gap:.3e} > 1e-8")
    reported = _report(inst)["results"]["value"]
    if abs(reported - primal) > ROUNDING * (1.0 + abs(primal)):
        problems.append("reported value differs from the written plan")
    return problems, {"duality_gap": gap}


def check_hotelling(inst) -> tuple[list[str], dict]:
    problems = []
    firms, prices = _points(inst.arg("--firms"))
    consumers, weights = _points(inst.arg("--consumers"))
    table = _csv(inst.out / "demands.csv")
    written_prices, demands, recovered = table[:, -3], table[:, -2], table[:, -1]
    cost = np.abs(firms[:, None, :] - consumers[None, :, :]).sum(axis=2) + prices[:, None]
    expected = np.bincount(np.argmin(cost, axis=0), weights=weights, minlength=len(prices))
    if np.abs(written_prices - prices).max() > 0 or np.abs(demands - expected).max() > ROUNDING:
        problems.append("demands differ from the cheapest-firm assignment")
    if not np.all(demands > 0):
        problems.append("a firm has no demand")
    err = float(np.abs((recovered - recovered[0]) - (prices - prices[0])).max())
    if err > 1e-6:
        problems.append(f"price round trip error {err:.3e} > 1e-6")
    return problems, {"roundtrip_error": err}


def check_beckmann(inst) -> tuple[list[str], dict]:
    problems = []
    mu = grids.load_scalar_csv(inst.arg("--mu"))
    nu = grids.load_scalar_csv(inst.arg("--nu"))
    grid = mu.grid
    vx = _csv(inst.out / "vx.csv").T
    vy = _csv(inst.out / "vy.csv").T
    if vx.shape != (grid.nx + 1, grid.ny) or vy.shape != (grid.nx, grid.ny + 1):
        return ["flux arrays have the wrong shape"], {}
    if max(np.abs(vx[[0, -1], :]).max(), np.abs(vy[:, [0, -1]]).max()) > 0:
        problems.append("flux crosses the boundary")
    f = mu.values - nu.values
    div = grids.divergence(grids.VectorField(vx, vy, grid), grid).values
    err = float(np.abs(div - (f - f.mean())).max())
    if err > 1e-8 * max(1.0, np.abs(f).max()):
        problems.append(f"div v differs from mu - nu by {err:.3e}")
    res = _report(inst)["results"]
    if res["dual_value"] > res["cost"] * (1.0 + ROUNDING):
        problems.append("dual value exceeds the cost")
    if inst.arg("--H") == "quadratic" and res["poisson_rel_diff"] > 1e-6:
        problems.append(f"poisson_rel_diff {res['poisson_rel_diff']:.3e} > 1e-6")
    if res["converged"] is not True:
        problems.append("report says not converged")
    return problems, {"certificate_gap": res["certificate_gap"]}


def quadratic_city_l1(mu: np.ndarray, lam: float, side: float) -> float:
    """L1 distance to the closed-form parabolic resident profile of the
    quadratic city, centered in the square [0, side]^2."""
    n = mu.shape[0]
    h = side / n
    c = (np.arange(n) + 0.5) * h - 0.5 * side
    rho2 = c[:, None] ** 2 + c[None, :] ** 2
    r2 = np.sqrt(2.0 * (2.0 * lam + 1.0) / (np.pi * lam))
    profile = lam / (2.0 * lam + 1.0) * np.maximum(r2 - rho2, 0.0)
    return float(h * h * np.abs(mu - profile).sum())


def check_city(inst) -> tuple[list[str], dict]:
    problems = []
    with open(inst.arg("--config"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    mu = grids.load_scalar_csv(inst.out / "mu.csv")
    mass = float(mu.values.sum() * mu.grid.cell_area)
    if abs(mass - 1.0) > ROUNDING or mu.values.min() < 0:
        problems.append(f"resident density has mass {mass!r}")
    atoms = _csv(inst.out / "nu_atoms.csv")
    if abs(atoms[:, -1].sum() - 1.0) > ROUNDING or atoms[:, -1].min() < 0:
        problems.append("service atoms are not a probability")
    values = {}
    if cfg["concentration"]["kind"] == "interaction":
        side = cfg["grid"]["nx"] * cfg["grid"]["h"]
        l1 = quadratic_city_l1(mu.values, cfg["lambda"], side)
        values["profile_l1"] = l1
        if l1 > 0.05:
            problems.append(f"L1 error to the closed form {l1:.4f} > 0.05")
    if _report(inst)["results"]["converged"] is not True:
        problems.append("report says not converged")
    return problems, values


CHECKS = {"wardrop": check_wardrop, "ot": check_ot, "hotelling": check_hotelling,
          "beckmann": check_beckmann, "city": check_city}


def check(inst) -> tuple[list[str], dict]:
    return CHECKS[inst.command](inst)

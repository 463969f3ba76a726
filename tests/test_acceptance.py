"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers. Tolerances and runtime budgets are asserted directly.
"""

import itertools
import json
import time

import numpy as np
import pytest

from congested_transport import urbanplan
from congested_transport.beckmann import (
    cloud_to_field,
    field_w1,
    rasterize_transport_density,
    reconstruct_trajectories,
    solve_beckmann,
    solve_dual_quadratic,
    weighted_beckmann_duality_check,
)
from congested_transport.cli import main as cli_main
from congested_transport.congestion import CongestionSpec
from congested_transport.errors import DegenerateDualError
from congested_transport.grids import Grid, ScalarField, save_scalar_csv
from congested_transport.kantorovich import (
    DiscreteMeasure,
    gateaux_check,
    hotelling_demands,
    hotelling_recover_prices,
    lp_cost_matrix,
    solve_discrete_ot,
)
from congested_transport.network import Network, enumerate_paths, shortest_distances
from congested_transport.urbanplan import (
    _weighted_moments,
    barycenter_of,
    quadratic_city_profile,
    second_moment_of,
    solve_quadratic_city,
)
from congested_transport.wardrop import (
    DemandSpec,
    brute_force_equilibrium,
    solve_fixed_demand,
    solve_variable_demand,
    verify_wardrop,
)

QUAD = CongestionSpec.quadratic()
LIN = CongestionSpec.monomial(1.0)
AFF1 = CongestionSpec.affine_power(1.0, 2.0)
AFF05 = CongestionSpec.affine_power(0.5, 3.0)
CUBE = CongestionSpec.monomial(3.0)


def _report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# The network suite shared by criteria 1 and 2: ten instances, 2 to 8 nodes,
# at most 50 simple paths, mixed cost families (including mixed per edge).

def network_suite():
    suite = []
    pigou = Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])
    suite.append(("pigou", pigou, [QUAD, LIN], [[1.0]]))
    twin = Network(n_nodes=2, edges=[(0, 1), (0, 1)], sources=[0], dests=[1])
    suite.append(("twin-quadratic", twin, QUAD, [[2.0]]))
    tri = Network(n_nodes=2, edges=[(0, 1), (0, 1), (0, 1)], sources=[0], dests=[1])
    suite.append(("three-parallel", tri, [QUAD, AFF1, CUBE], [[1.5]]))
    diamond = Network(n_nodes=4, edges=[(0, 1), (1, 3), (0, 2), (2, 3)],
                      sources=[0], dests=[3])
    suite.append(("diamond-quadratic", diamond, QUAD, [[2.0]]))
    suite.append(("diamond-mixed", diamond, [QUAD, AFF1, LIN, CUBE], [[1.0]]))
    braess = Network(n_nodes=4, edges=[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)],
                     sources=[0], dests=[3])
    suite.append(("braess", braess, [QUAD, AFF1, AFF1, QUAD, LIN], [[1.0]]))
    k4 = Network(n_nodes=4, edges=[(u, v) for u in range(4) for v in range(4) if u != v],
                 sources=[0], dests=[3])
    suite.append(("k4", k4, [QUAD, AFF1, LIN, CUBE, QUAD, AFF05,
                             QUAD, LIN, AFF1, CUBE, QUAD, AFF1], [[1.2]]))
    twood = Network(n_nodes=5, edges=[(0, 2), (1, 2), (2, 3), (2, 4), (0, 3), (1, 4)],
                    sources=[0, 1], dests=[3, 4])
    suite.append(("two-od", twood, [QUAD, QUAD, AFF1, AFF1, CUBE, CUBE],
                  [[0.7, 0.3], [0.4, 0.6]]))
    layered = Network(
        n_nodes=6,
        edges=[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5), (3, 4)],
        sources=[0], dests=[5],
    )
    suite.append(("layered-6", layered, [QUAD, AFF1, LIN, QUAD, CUBE, AFF05, QUAD, AFF1, LIN],
                  [[1.8]]))
    wide = Network(
        n_nodes=8,
        edges=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5),
               (4, 6), (5, 6), (4, 7), (5, 7), (6, 7), (1, 2), (3, 2)],
        sources=[0], dests=[7],
    )
    specs = [QUAD, AFF1, CUBE, LIN, QUAD, AFF05, AFF1, QUAD, LIN, CUBE, AFF1, QUAD, LIN, AFF1]
    suite.append(("wide-8", wide, specs, [[2.5]]))
    return suite


@pytest.fixture(scope="module")
def solved_suite():
    suite = network_suite()
    t0 = time.time()
    solved = []
    for name, net, spec, gamma in suite:
        assert len(enumerate_paths(net, cap=50)) <= 50
        res = solve_fixed_demand(net, spec, gamma, tol=1e-6, max_iter=5000)
        rep = verify_wardrop(net, res)
        solved.append((name, net, spec, gamma, res, rep))
    elapsed = time.time() - t0
    return solved, elapsed


def test_criterion_01_equilibrium_certificates(solved_suite):
    solved, elapsed = solved_suite
    assert len(solved) == 10
    worst_gap = 0.0
    worst_excess = 0.0
    for name, net, spec, gamma, res, rep in solved:
        assert res.converged, name
        assert res.relative_gap <= 1e-6, name
        assert rep.max_excess <= 1e-4, name
        worst_gap = max(worst_gap, res.relative_gap)
        worst_excess = max(worst_excess, rep.max_excess)
    assert elapsed <= 5.0
    _report("C1 wardrop optimality = equilibrium",
            f"10 networks, worst gap {worst_gap:.2e}, worst excess {worst_excess:.2e}, "
            f"{elapsed:.2f}s <= 5s")


def test_criterion_02_brute_force_equivalence(solved_suite):
    solved, _ = solved_suite
    worst = worst_gap = 0.0
    for name, net, spec, gamma, res, rep in solved:
        orc = brute_force_equilibrium(net, spec, DemandSpec.fixed(gamma))
        diff = abs(res.objective - orc.objective) / (1.0 + abs(res.objective))
        assert diff <= 1e-5, (name, diff)
        assert orc.relative_gap <= 1e-7, (name, orc.relative_gap)
        worst = max(worst, diff)
        worst_gap = max(worst_gap, orc.relative_gap)
    _report("C2 brute-force equivalence", f"worst |dJ|/(1+J) = {worst:.2e} <= 1e-5, "
            f"worst oracle gap {worst_gap:.2e} <= 1e-7")


def test_criterion_03_variable_demand_kantorovich():
    net = Network(n_nodes=4, edges=[(0, 2), (1, 3), (0, 3), (1, 2)],
                  sources=[0, 1], dests=[2, 3])
    spec_sets = [
        [QUAD, QUAD, CongestionSpec.affine_power(5.0, 2.0), CongestionSpec.affine_power(5.0, 2.0)],
        [QUAD, AFF1, AFF1, QUAD],
        [AFF1, AFF1, QUAD, CUBE],
        [QUAD, CUBE, AFF05, AFF1],
        [AFF1, QUAD, LIN, QUAD],
    ]
    rng = np.random.default_rng(30)
    worst = 0.0
    for i, specs in enumerate(spec_sets):
        mu = rng.uniform(0.3, 1.0, 2)
        nu = rng.uniform(0.3, 1.0, 2)
        nu *= mu.sum() / nu.sum()
        res = solve_variable_demand(net, specs, mu, nu, tol=1e-8)
        assert res.converged, i
        table = shortest_distances(net, res.xi)
        dmat = np.array([[table.dist[(s, d)] for d in net.dests] for s in net.sources])
        lp = solve_discrete_ot(DiscreteMeasure(weights=mu), DiscreteMeasure(weights=nu), dmat)
        realized = float(np.sum(dmat * res.coupling))
        rel = abs(realized - lp.value) / max(lp.value, 1e-12)
        assert rel <= 1e-6, (i, rel)
        worst = max(worst, rel)
    _report("C3 variable demand solves the transport subproblem",
            f"5 instances, worst relative deviation {worst:.2e} <= 1e-6")


def test_criterion_04_ot_strong_duality_and_oracle():
    rng = np.random.default_rng(44)
    worst_gap = 0.0
    for _ in range(100):
        m, n = rng.integers(2, 51, size=2)
        a = rng.random(m)
        b = rng.random(n)
        b *= a.sum() / b.sum()
        cost = rng.random((m, n)) * rng.uniform(0.1, 10.0)
        res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
        gap = abs(res.value - res.dual_value) / (1.0 + abs(res.value))
        assert gap <= 1e-8
        worst_gap = max(worst_gap, gap)
    worst_perm = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        mu = DiscreteMeasure(weights=np.ones(n) / n, points=rng.random((n, 2)))
        nu = DiscreteMeasure(weights=np.ones(n) / n, points=rng.random((n, 2)))
        cost = lp_cost_matrix(mu, nu, 2.0)
        res = solve_discrete_ot(mu, nu, cost)
        best = min(sum(cost[i, p[i]] for i in range(n)) / n
                   for p in itertools.permutations(range(n)))
        worst_perm = max(worst_perm, abs(res.value - best))
        assert abs(res.value - best) <= 1e-10
    _report("C4 transport strong duality",
            f"100 instances worst gap {worst_gap:.2e} <= 1e-8; "
            f"permutation oracle worst {worst_perm:.2e} <= 1e-10")


def test_criterion_05_transport_density_mass_identity():
    rng = np.random.default_rng(55)
    g = Grid(nx=24, ny=24, h=1.0 / 24)
    worst = 0.0
    for _ in range(20):
        m, n = rng.integers(2, 7, size=2)
        src = rng.uniform(0.05, 0.95, (m, 2))
        dst = rng.uniform(0.05, 0.95, (n, 2))
        plan = rng.random((m, n))
        sigma = rasterize_transport_density(plan, src, dst, g)
        expected = sum(plan[i, j] * float(np.linalg.norm(src[i] - dst[j]))
                       for i in range(m) for j in range(n))
        rel = abs(sigma.total_mass - expected) / max(expected, 1e-12)
        assert rel <= 1e-8
        worst = max(worst, rel)
    # for an optimal plan under |x - y| the mass equals the W1 value
    mu = DiscreteMeasure(weights=np.array([0.4, 0.6]), points=np.array([[0.2, 0.3], [0.3, 0.7]]))
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.8, 0.4], [0.7, 0.8]]))
    ot = solve_discrete_ot(mu, nu, lp_cost_matrix(mu, nu, 1.0))
    sigma = rasterize_transport_density(ot.coupling.plan, mu.points, nu.points, g)
    rel_w1 = abs(sigma.total_mass - ot.value) / ot.value
    assert rel_w1 <= 1e-8
    _report("C5 transport density mass identity",
            f"20 couplings worst rel {worst:.2e}; optimal-plan vs W1 rel {rel_w1:.2e}")


def test_criterion_06_quadratic_flow_consistency():
    t0 = time.time()
    worst = 0.0
    for n in (16, 32, 64):
        g = Grid(nx=n, ny=n, h=1.0 / n)
        for trial in range(5):
            rng = np.random.default_rng(600 + 10 * n + trial)
            a = rng.random((n, n)); a /= a.sum() * g.cell_area
            b = rng.random((n, n)); b /= b.sum() * g.cell_area
            mu, nu = ScalarField(a, g), ScalarField(b, g)
            res = solve_beckmann(mu, nu, QUAD, g, tol=1e-8)
            _, v_ref = solve_dual_quadratic(mu, nu, g)
            ref_cost = float(g.cell_area * np.sum(QUAD.H(v_ref.cell_magnitude_rms())))
            rel = abs(res.cost - ref_cost) / abs(ref_cost)
            assert res.converged
            assert rel <= 1e-6, (n, trial, rel)
            worst = max(worst, rel)
    # one-dimensional cumulative-sum oracle
    g1 = Grid(nx=32, ny=1, h=1.0 / 32)
    rng = np.random.default_rng(61)
    a = rng.random((32, 1)); a /= a.sum() * g1.cell_area
    b = rng.random((32, 1)); b /= b.sum() * g1.cell_area
    res1 = solve_beckmann(ScalarField(a, g1), ScalarField(b, g1), QUAD, g1, tol=1e-10)
    oracle = np.concatenate([[0.0], np.cumsum(g1.h * (a - b).ravel())])
    err1 = float(np.abs(res1.v.vx.ravel() - oracle).max())
    assert err1 <= 1e-8
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    _report("C6 quadratic flow consistency",
            f"15 instances worst rel {worst:.2e} <= 1e-6; 1-D oracle err {err1:.2e}; "
            f"{elapsed:.1f}s <= 30s")


def test_criterion_07_weighted_duality():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    tol = 0.083 + 2 * g.h
    xc, yc = g.cell_centers()
    instances = [
        ("k=1 row pair", ScalarField.constant(g, 1.0), [[0.25, 0.5]], [[0.75, 0.5]]),
        ("k=2 row pair", ScalarField.constant(g, 2.0), [[0.25, 0.5]], [[0.75, 0.5]]),
        ("k=1 column pair", ScalarField.constant(g, 1.0), [[0.5, 0.2]], [[0.5, 0.8]]),
        ("k=1 diagonal pair", ScalarField.constant(g, 1.0), [[0.25, 0.25]], [[0.75, 0.75]]),
        ("smooth k", ScalarField(1.0 + 0.5 * xc, g), [[0.2, 0.4]], [[0.8, 0.6]]),
    ]
    worst = 0.0
    for name, k, src, dst in instances:
        mu = DiscreteMeasure(weights=np.array([1.0]), points=np.array(src))
        nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array(dst))
        rep = weighted_beckmann_duality_check(k, mu, nu, g, tol=1e-7)
        assert rep.rel_err <= tol, (name, rep.rel_err)
        worst = max(worst, rep.rel_err)
    _report("C7 weighted flow vs geodesic transport",
            f"5 instances worst rel err {worst:.3f} <= {tol:.3f} (octagonal bound + 2h)")


def test_criterion_08_trajectory_reconstruction():
    t0 = time.time()
    n = 64
    g = Grid(nx=n, ny=n, h=1.0 / n)
    xc, yc = g.cell_centers()
    a = np.exp(-((xc - 0.35) ** 2 + (yc - 0.5) ** 2) / (2 * 0.12 ** 2)) + 0.05
    b = np.exp(-((xc - 0.65) ** 2 + (yc - 0.5) ** 2) / (2 * 0.12 ** 2)) + 0.05
    a /= a.sum() * g.cell_area
    b /= b.sum() * g.cell_area
    mu, nu = ScalarField(a, g), ScalarField(b, g)
    res = solve_beckmann(mu, nu, QUAD, g, tol=1e-8)
    traj = reconstruct_trajectories(res.v, mu, nu, g, n_particles=10000, n_steps=200, seed=42)

    end_field = cloud_to_field(traj.endpoints, traj.weights, g)
    w1_end = field_w1(end_field, nu)
    assert w1_end <= 2 * g.h

    vmag = res.v.cell_magnitude()
    l1_v = float(g.cell_area * np.abs(vmag).sum())
    l1_diff = float(g.cell_area * np.abs(traj.intensity.values - vmag).sum())
    assert l1_diff <= 0.1 * l1_v

    mid_field = cloud_to_field(traj.midpoints, traj.weights, g)
    half = ScalarField(0.5 * (a + b), g)
    w1_mid = field_w1(mid_field, half)
    assert w1_mid <= 3 * g.h

    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report("C8 trajectory reconstruction",
            f"W1(end,nu)={w1_end:.4f}<=2h; intensity dev {l1_diff:.4f}<=0.1*||v||1={0.1 * l1_v:.4f}; "
            f"W1(mid)={w1_mid:.4f}<=3h; {elapsed:.1f}s <= 60s")


def test_criterion_09_gateaux_derivative():
    rng_seed = 0
    passed = 0
    worst = 0.0
    while passed < 10 and rng_seed < 200:
        rng_seed += 1
        rng = np.random.default_rng(900 + rng_seed)
        npts = int(rng.integers(3, 6))
        pts = rng.random((npts, 2))
        w = rng.random(npts); w /= w.sum()
        w1 = rng.random(npts); w1 /= w1.sum()
        mu = DiscreteMeasure(weights=w, points=pts)
        mu1 = DiscreteMeasure(weights=w1, points=pts)
        wn = rng.random(int(rng.integers(3, 6)))
        nu = DiscreteMeasure(weights=wn / wn.sum(), points=rng.random((len(wn), 2)))
        try:
            rep = gateaux_check(mu, nu, mu1, 2.0, [1e-4])
        except DegenerateDualError:
            continue
        err = rep.err[1e-4] / (1.0 + abs(rep.inner))
        assert err <= 1e-3
        worst = max(worst, err)
        passed += 1
    assert passed == 10
    _report("C9 potentials are transport-cost derivatives",
            f"10 non-degenerate instances, worst scaled error {worst:.2e} <= 1e-3")


def test_criterion_10_quadratic_city_closed_form(monkeypatch):
    t0 = time.time()
    inner = []  # iteration counts of the 96^2 solve's solve_p_nu calls
    solve_p_nu = urbanplan.solve_p_nu

    def counted(*args, **kwargs):
        sol = solve_p_nu(*args, **kwargs)
        inner.append(sol.iterations)
        return sol

    g = Grid(nx=96, ny=96, h=3.0 / 96)
    monkeypatch.setattr(urbanplan, "solve_p_nu", counted)
    res = solve_quadratic_city(1.0, g, tol=1e-6, n_atom_side=12)
    monkeypatch.undo()
    capped = sum(n == urbanplan.P_NU_MAX_ITER for n in inner)
    prof = quadratic_city_profile(g, 1.0)
    l1 = float(g.cell_area * np.abs(res.solution.mu.values - prof.values).sum())
    assert l1 <= 0.05

    b_mu = barycenter_of(res.solution.mu)
    b_nu = (res.nu.weights / res.nu.weights.sum()) @ res.nu.points
    bary_gap = float(np.abs(b_mu - b_nu).max())
    assert bary_gap <= g.h

    ratio = _weighted_moments(res.nu.points, res.nu.weights)[1] / second_moment_of(res.solution.mu)
    target = 1.0 / 9.0  # homothety ratio squared at lambda = 1
    assert abs(ratio - target) <= 0.1 * target

    # resolution sweep: the profile error shrinks with h
    g48 = Grid(nx=48, ny=48, h=3.0 / 48)
    res48 = solve_quadratic_city(1.0, g48, tol=1e-6, n_atom_side=12)
    prof48 = quadratic_city_profile(g48, 1.0)
    l1_48 = float(g48.cell_area * np.abs(res48.solution.mu.values - prof48.values).sum())
    assert l1 <= l1_48 + 5e-3

    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report("C10 quadratic city closed form",
            f"L1 {l1:.4f} <= 0.05 (48^2: {l1_48:.4f}); barycenter gap {bary_gap:.1e} <= h; "
            f"moment ratio {ratio:.4f} vs {target:.4f} (10%); converged {res.converged}, "
            f"{capped} of {len(inner)} inner solves at {urbanplan.P_NU_MAX_ITER} passes; "
            f"{elapsed:.1f}s <= 120s")


def test_criterion_11_hotelling_round_trip():
    worst = 0.0
    # the analytic boundary instance
    consumers = DiscreteMeasure(weights=np.full(401, 1 / 401),
                                points=np.linspace(0, 1, 401)[:, None])
    firms = np.array([[0.0], [1.0]])
    prices = np.array([0.0, 0.5])
    _, demands = hotelling_demands(firms, prices, consumers, metric_p=1.0)
    rec = hotelling_recover_prices(firms, demands, consumers, metric_p=1.0)
    err = float(np.abs(rec - prices).max())
    assert err <= 1e-6
    worst = max(worst, err)
    # four more instances on dyadic grids (ties exactly on consumer points)
    pts = (np.arange(769) / 256.0)[:, None]
    consumers_d = DiscreteMeasure(weights=np.full(769, 1 / 769), points=pts)
    cases = [
        (np.array([[0.0], [1.0]]), np.array([0.0, 0.25])),
        (np.array([[0.0], [2.0]]), np.array([0.0, -0.5])),
        (np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 0.125, -0.125])),
        (np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0.125, -0.25, 0.3125])),
    ]
    for firm_pts, price in cases:
        _, demands = hotelling_demands(firm_pts, price, consumers_d, metric_p=1.0)
        assert np.all(demands > 0)
        rec = hotelling_recover_prices(firm_pts, demands, consumers_d, metric_p=1.0)
        err = float(np.abs(rec - (price - price[0])).max())
        assert err <= 1e-6
        worst = max(worst, err)
    _report("C11 hotelling price recovery", f"5 instances, worst error {worst:.2e} <= 1e-6")


def test_criterion_12_cli_determinism(tmp_path):
    (tmp_path / "net.net").write_text(
        "nodes 2\nedge s d quadratic\nedge s d monomial 1\nsource s\ndest d\n")
    (tmp_path / "d.dem").write_text("demand s d 1.0\n")
    (tmp_path / "a.pts").write_text("point 0.0 1.0\n")
    (tmp_path / "b.pts").write_text("point 1.0 1.0\n")
    # p = 1 flow between two-blob densities: the Anderson-accelerated iteration
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    xc, yc = g.cell_centers()
    for name, blobs in (("mu", [(0.39, 0.50, 0.13), (0.38, 0.47, 0.11)]),
                        ("nu", [(0.62, 0.48, 0.125), (0.61, 0.46, 0.106)])):
        d = sum(np.exp(-((xc - x) ** 2 + (yc - y) ** 2) / (2 * s * s)) for x, y, s in blobs)
        save_scalar_csv(ScalarField(d / (d.sum() * g.cell_area), g), tmp_path / f"{name}.csv")

    def run_all(out):
        rc1 = cli_main(["wardrop", "--net", str(tmp_path / "net.net"),
                        "--demand", str(tmp_path / "d.dem"),
                        "--out", str(out / "w")])
        rc2 = cli_main(["ot", "--mu", str(tmp_path / "a.pts"), "--nu", str(tmp_path / "b.pts"),
                        "--metric", "lp", "1", "--out", str(out / "o")])
        rc3 = cli_main(["beckmann", "--mu", str(tmp_path / "mu.csv"),
                        "--nu", str(tmp_path / "nu.csv"), "--H", "monomial 1",
                        "--out", str(out / "b")])
        assert rc1 == 0 and rc2 == 0 and rc3 == 0
        blobs = {}
        for sub in ("w", "o", "b"):
            for f in sorted((out / sub).iterdir()):
                data = f.read_bytes()
                if f.name == "report.json":
                    rep = json.loads(data)
                    rep.pop("timing", None)
                    data = json.dumps(rep, sort_keys=True).encode()
                blobs[f"{sub}/{f.name}"] = data
        return blobs

    first = run_all(tmp_path / "runs")
    second = run_all(tmp_path / "runs")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], key
    _report("C12 CLI determinism", f"{len(first)} artifacts byte-identical modulo timing")

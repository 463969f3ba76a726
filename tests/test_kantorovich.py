import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from congested_transport.errors import (
    DegenerateDualError,
    InputFormatError,
    MassMismatchError,
    NonFiniteCostError,
    TransportSolverError,
)
from congested_transport.kantorovich import (
    CAND,
    MASS_RTOL,
    DiscreteMeasure,
    PotentialPair,
    _ssp,
    check_coupling,
    check_potentials,
    gateaux_check,
    hotelling_demands,
    hotelling_recover_prices,
    lp_cost_matrix,
    pairwise_distances,
    parse_measure,
    solve_discrete_ot,
    wasserstein_distance,
    wasserstein_p,
)


def test_identity_coupling_zero_cost():
    w = np.array([0.3, 0.7])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = solve_discrete_ot(DiscreteMeasure(weights=w), DiscreteMeasure(weights=w), cost)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.coupling.plan, np.diag(w))


def test_forced_plan_two_atoms():
    mu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.0]]))
    nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[1.0]]))
    res = solve_discrete_ot(mu, nu, lp_cost_matrix(mu, nu, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_half_half_matching():
    # both permutation matchings cost 0.75 vs 1.25; the cheap one must win
    mu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.5], [2.0]]))
    cost = lp_cost_matrix(mu, nu, 1.0)
    res = solve_discrete_ot(mu, nu, cost)
    assert res.value == pytest.approx(0.75, abs=1e-12)
    assert res.coupling.plan[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert res.coupling.plan[1, 1] == pytest.approx(0.5, abs=1e-12)


def test_strong_duality_and_feasibility_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n = rng.integers(2, 40, size=2)
        a = rng.random(m)
        b = rng.random(n)
        b *= a.sum() / b.sum()
        cost = rng.random((m, n)) * rng.uniform(0.2, 5.0)
        mu, nu = DiscreteMeasure(weights=a), DiscreteMeasure(weights=b)
        res = solve_discrete_ot(mu, nu, cost)
        assert abs(res.value - res.dual_value) <= 1e-8 * (1 + abs(res.value))
        assert check_coupling(res.coupling, mu, nu) <= 1e-8
        feas, slack = check_potentials(res.potentials, res.coupling, cost)
        assert feas <= 1e-8
        assert slack <= 1e-6
        assert res.potentials.phi[0] == 0.0  # normalization


def test_permutation_oracle_small_uniform():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        mu = DiscreteMeasure(weights=np.ones(n) / n, points=rng.random((n, 2)))
        nu = DiscreteMeasure(weights=np.ones(n) / n, points=rng.random((n, 2)))
        cost = lp_cost_matrix(mu, nu, 2.0)
        res = solve_discrete_ot(mu, nu, cost)
        best = min(sum(cost[i, p[i]] for i in range(n)) / n
                   for p in itertools.permutations(range(n)))
        assert abs(res.value - best) <= 1e-10


def test_mass_mismatch_and_nonfinite_cost():
    mu = DiscreteMeasure(weights=np.array([1.0]))
    nu = DiscreteMeasure(weights=np.array([2.0]))
    with pytest.raises(MassMismatchError):
        solve_discrete_ot(mu, nu, np.array([[1.0]]))
    nu_ok = DiscreteMeasure(weights=np.array([1.0]))
    with pytest.raises(NonFiniteCostError):
        solve_discrete_ot(mu, nu_ok, np.array([[np.inf]]))


def test_wasserstein_examples():
    mu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.0], [1.0]]))
    assert wasserstein_p(mu, mu, 2.0) == pytest.approx(0.0, abs=1e-14)
    a = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.0]]))
    b = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[-1.7]]))
    assert wasserstein_p(a, b, 3.0) == pytest.approx(1.7 ** 3, rel=1e-12)
    # uniform on {0,1} to uniform on {2,3}: monotone matching gives 4, crossed gives 5
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[2.0], [3.0]]))
    assert wasserstein_p(mu, nu, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert wasserstein_distance(mu, nu, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_wasserstein_metric_axioms():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        ms = []
        for _ in range(3):
            w = rng.random(n)
            ms.append(DiscreteMeasure(weights=w / w.sum(), points=rng.random((n, 2))))
        a, b, c = ms
        p = float(rng.choice([1.0, 2.0, 3.0]))
        dab = wasserstein_distance(a, b, p)
        dba = wasserstein_distance(b, a, p)
        assert abs(dab - dba) <= 1e-10
        assert wasserstein_p(a, a, p) <= 1e-12
        assert dab <= wasserstein_distance(a, c, p) + wasserstein_distance(c, b, p) + 1e-8


def test_gateaux_no_perturbation():
    rng = np.random.default_rng(3)
    pts = rng.random((4, 2))
    w = rng.random(4)
    w /= w.sum()
    mu = DiscreteMeasure(weights=w, points=pts)
    nu = DiscreteMeasure(weights=np.ones(3) / 3, points=rng.random((3, 2)))
    rep = gateaux_check(mu, nu, mu, 2.0, [1e-2, 1e-3])
    assert rep.inner == pytest.approx(0.0, abs=1e-12)
    assert rep.max_err <= 1e-12


def _nondegenerate_instance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((3, 2))
    w = rng.random(3)
    w /= w.sum()
    mu = DiscreteMeasure(weights=w, points=pts)
    w1 = rng.random(3)
    w1 /= w1.sum()
    mu1 = DiscreteMeasure(weights=w1, points=pts)
    wn = rng.random(4)
    nu = DiscreteMeasure(weights=wn / wn.sum(), points=rng.random((4, 2)))
    return mu, nu, mu1


def test_gateaux_matches_potential_pairing():
    found = 0
    seed = 0
    while found < 5:
        seed += 1
        mu, nu, mu1 = _nondegenerate_instance(seed)
        try:
            rep = gateaux_check(mu, nu, mu1, 2.0, [1e-2, 1e-3, 1e-4])
        except DegenerateDualError:
            continue
        found += 1
        assert rep.err[1e-4] <= 1e-3 * (1 + abs(rep.inner))
        # convexity of eps -> W_p^p makes the secant error nonincreasing in eps
        assert rep.err[1e-4] <= rep.err[1e-2] + 1e-12


def test_gateaux_refuses_disconnected_support():
    # two far-apart pairs transport independently: the potential is only
    # determined up to one constant per component
    mu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.0, 0.0], [50.0, 0.0]]))
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[1.0, 0.0], [51.0, 0.0]]))
    mu1 = DiscreteMeasure(weights=np.array([0.7, 0.3]), points=mu.points)
    with pytest.raises(DegenerateDualError):
        gateaux_check(mu, nu, mu1, 2.0, [1e-3])


def test_hotelling_single_firm():
    consumers = DiscreteMeasure(weights=np.full(11, 1 / 11), points=np.linspace(0, 1, 11)[:, None])
    assign, demands = hotelling_demands(np.array([[0.3]]), np.array([2.0]), consumers)
    assert np.all(assign == 0)
    assert demands[0] == pytest.approx(1.0)
    rec = hotelling_recover_prices(np.array([[0.3]]), demands, consumers)
    assert rec[0] == 0.0


def test_hotelling_demands_needs_one_price_per_firm():
    consumers = DiscreteMeasure(weights=np.full(3, 1 / 3), points=np.linspace(0, 1, 3)[:, None])
    with pytest.raises(InputFormatError, match="one price per firm required"):
        hotelling_demands(np.array([[0.0], [1.0]]), np.array([0.5]), consumers)


def test_hotelling_symmetric_two_firms():
    consumers = DiscreteMeasure(weights=np.full(401, 1 / 401), points=np.linspace(0, 1, 401)[:, None])
    firms = np.array([[0.0], [1.0]])
    assign, demands = hotelling_demands(firms, np.array([0.0, 0.0]), consumers, metric_p=1.0)
    assert demands[0] == pytest.approx(demands[1], abs=1 / 401 + 1e-12)  # within one grid cell
    rec = hotelling_recover_prices(firms, demands, consumers, metric_p=1.0)
    assert abs(rec[1] - rec[0]) <= 1e-9


def test_hotelling_boundary_instance_and_round_trip():
    consumers = DiscreteMeasure(weights=np.full(401, 1 / 401), points=np.linspace(0, 1, 401)[:, None])
    firms = np.array([[0.0], [1.0]])
    prices = np.array([0.0, 0.5])
    assign, demands = hotelling_demands(firms, prices, consumers, metric_p=1.0)
    # the indifference point |x| = |1-x| + 0.5 sits at x = 0.75 (tie -> firm 0)
    assert demands[0] == pytest.approx(301 / 401, abs=1e-12)
    assert demands[1] == pytest.approx(100 / 401, abs=1e-12)
    rec = hotelling_recover_prices(firms, demands, consumers, metric_p=1.0)
    assert np.abs(rec - prices).max() <= 1e-6


def test_hotelling_round_trip_many_firms():
    # dyadic consumer grid and dyadic prices make the region-boundary ties
    # exact in floating point, which keeps the assignment graph connected
    pts = (np.arange(769) / 256.0)[:, None]
    consumers = DiscreteMeasure(weights=np.full(769, 1 / 769), points=pts)
    firms = np.array([[0.0], [1.0], [2.0], [3.0]])
    prices = np.array([0.0, 0.125, -0.25, 0.3125])
    assign, demands = hotelling_demands(firms, prices, consumers, metric_p=1.0)
    assert np.all(demands > 0)
    rec = hotelling_recover_prices(firms, demands, consumers, metric_p=1.0)
    shifted = prices - prices[0]
    assert np.abs(rec - shifted).max() <= 1e-6


def test_hotelling_transport_starts_on_tight_arcs():
    # each consumer's nearest firm is a tight arc of the start, so most of the
    # 769 consumers are served before the first augmentation
    pts = (np.arange(769) / 256.0)[:, None]
    consumers = DiscreteMeasure(weights=np.full(769, 1 / 769), points=pts)
    firm_pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    prices = np.array([0.0, 0.234375, -0.1953125, 0.0390625])
    _, demands = hotelling_demands(firm_pts, prices, consumers, metric_p=1.0)
    firms = DiscreteMeasure(weights=demands, points=firm_pts)
    cost = lp_cost_matrix(firms, consumers, 1.0)
    res = solve_discrete_ot(firms, consumers, cost)
    assert res.iterations <= 200
    assert check_coupling(res.coupling, firms, consumers) <= 1e-12
    feas, slack = check_potentials(res.potentials, res.coupling, cost)
    assert feas <= 1e-12 and slack <= 1e-12
    assert abs(res.value - res.dual_value) <= 1e-12


def test_parse_measure():
    m = parse_measure("# pts\npoint 0.0 0.5 1.0\npoint 1.0 0.5 2.0\n")
    assert m.n == 2
    assert m.total_mass == pytest.approx(3.0)
    assert m.points.shape == (2, 2)


@pytest.mark.parametrize("text, message", [
    ("point 0 0 1\npoint nan 0 1\n", "<string>:2: non-finite field in 'nan 0 1'"),
    ("point 0 1e308\npoint 1 1e308\n", "the total mass overflows"),
], ids=["nan-coordinate", "mass-overflow"])
def test_parse_measure_rejects_non_finite_values(text, message):
    with pytest.raises(InputFormatError, match=message):
        parse_measure(text)


def test_overflowing_costs_are_a_cost_error_without_warnings():
    m = parse_measure("point 1e308 1\npoint -1e308 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI prints only its error line
        cost = lp_cost_matrix(m, m, 1.0)
        with pytest.raises(NonFiniteCostError):
            solve_discrete_ot(m, m, cost)
        with pytest.raises(NonFiniteCostError):
            hotelling_demands(m.points[:1], np.zeros(1), m, metric_p=1.0)


@pytest.mark.parametrize("m", [2, 0])
def test_zero_mass_transport(m):
    # nothing moves; the target potential is the column minimum of the cost
    cost = np.arange(3.0 * m).reshape(m, 3)
    res = solve_discrete_ot(DiscreteMeasure(weights=np.zeros(m)),
                            DiscreteMeasure(weights=np.zeros(3)), cost)
    assert np.array_equal(res.coupling.plan, np.zeros((m, 3)))
    assert np.array_equal(res.potentials.phi, np.zeros(m))
    assert np.array_equal(res.potentials.psi, cost.min(axis=0) if m else np.zeros(3))
    assert (res.value, res.dual_value, res.iterations) == (0.0, 0.0, 0)


@pytest.mark.parametrize("total", [1e-14, 1.0, 1e12])
def test_mass_balance_check_is_relative(total):
    # no absolute floor: twice the mass is refused at every scale
    a = total * np.array([0.75, 0.25])
    with pytest.raises(MassMismatchError):
        solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=2.0 * a),
                          np.ones((2, 2)))


@pytest.mark.parametrize("m, n", [(2, 3), (5, 5), (8, 3), (1, 4), (4, 1)])
@pytest.mark.parametrize("excess", [0.9, -0.9])
def test_accepted_imbalance_is_solved(m, n, excess):
    # a pair the check accepts gets a plan; the marginals miss by the imbalance
    rng = np.random.default_rng(10 * m + n)
    a, b = rng.random(m), rng.random(n)
    a /= a.sum()
    b *= (1.0 + excess * MASS_RTOL) / b.sum()
    mu, nu = DiscreteMeasure(weights=a), DiscreteMeasure(weights=b)
    res = solve_discrete_ot(mu, nu, rng.random((m, n)))
    assert check_coupling(res.coupling, mu, nu) <= MASS_RTOL
    assert abs(res.value - res.dual_value) <= 1e-9


@pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (6, 1), (1, 40), (40, 1)])
def test_one_point_measure_is_routed_by_the_start(m, n):
    # the tight-arc start routes a one-row or one-column problem whole, so no
    # augmentation runs and iterations, which counts them, is 0
    rng = np.random.default_rng(m + 100 * n)
    a, b = rng.random(m), rng.random(n)
    b *= a.sum() / b.sum()
    mu, nu = DiscreteMeasure(weights=a), DiscreteMeasure(weights=b)
    cost = rng.random((m, n)) * 10.0
    res = solve_discrete_ot(mu, nu, cost)
    assert res.iterations == 0
    assert check_coupling(res.coupling, mu, nu) <= 1e-15 * a.sum()
    feas, slack = check_potentials(res.potentials, res.coupling, cost)
    assert feas <= 1e-14 and slack <= 1e-14
    assert abs(res.value - res.dual_value) <= 1e-14 * res.value


def test_ssp_excess_supply_has_no_augmenting_path():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = cost.min(axis=1)
    v = (cost - u[:, None]).min(axis=0)
    with pytest.raises(TransportSolverError, match="no augmenting path"):
        _ssp(cost, np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.zeros((2, 2)), u, v, 1e-13)


@pytest.mark.parametrize("scale", [1e-14, 1e-300, 1e10])
def test_solution_scales_with_the_masses(scale):
    # the SSP tolerance is relative to the total mass, with no absolute floor
    cost = np.array([[0.0, 1.0], [2.0, 0.5]])
    a, b = np.array([0.75, 0.25]), np.array([0.5, 0.5])
    ref = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    res = solve_discrete_ot(DiscreteMeasure(weights=scale * a),
                            DiscreteMeasure(weights=scale * b), cost)
    assert ref.value == pytest.approx(0.375, abs=1e-15)
    assert res.value == pytest.approx(scale * ref.value, rel=1e-12)
    assert res.dual_value == pytest.approx(scale * ref.dual_value, rel=1e-12)
    assert np.abs(res.coupling.plan - scale * ref.coupling.plan).max() <= 1e-12 * scale
    assert res.iterations == ref.iterations


def _linprog_value(a, b, cost):
    """Transport value by the HiGHS linear program, independent of the SSP solver."""
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


@st.composite
def _transport_problems(draw):
    """Square-ish problems up to 8 x 8, or tall and wide ones up to 60 x 3
    and 3 x 60, with zero weights allowed and costs often tied."""
    m, n = draw(st.sampled_from([(st.integers(1, 8), st.integers(1, 8)),
                                 (st.integers(20, 60), st.integers(1, 3)),
                                 (st.integers(1, 3), st.integers(20, 60))]))
    m, n = draw(m), draw(n)
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    a = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
    b = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    if a.sum() == 0:
        a[0] = 1.0
    if b.sum() == 0:
        b[-1] = 1.0
    b *= a.sum() / b.sum()
    # integer costs in 0..3 tie often, so the optimal plans are degenerate
    entry = draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(-5.0, 5.0)]))
    cost = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    return a, b, cost


def _assert_optimal(a, b, cost):
    """solve_discrete_ot's plan meets the marginals, its duals are feasible
    and complementary on the full cost, and its value is the linear
    program's."""
    res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    plan, phi, psi = res.coupling.plan, res.potentials.phi, res.potentials.psi
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(plan.sum(axis=0) - b).max() <= 1e-12
    slack = cost - phi[:, None] - psi[None, :]
    scale = 1e-12 * (1.0 + np.abs(cost).max())
    assert slack.min() >= -scale
    assert np.abs(slack[plan > 0]).max(initial=0.0) <= scale
    assert abs(res.value - res.dual_value) <= 1e-12 * (1.0 + abs(res.value))
    assert res.value == pytest.approx(_linprog_value(a, b, cost), rel=1e-12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(problem=_transport_problems())
def test_solve_discrete_ot_certifies_optimality(problem):
    _assert_optimal(*problem)


def _assert_certified(a, b, cost, res):
    """The value is the linear program's, and the duals certify it on the
    full cost, not only on the candidate arcs."""
    assert res.value == pytest.approx(_linprog_value(a, b, cost), rel=1e-12)
    feas, slack = check_potentials(res.potentials, res.coupling, cost)
    assert feas <= 1e-12 and slack <= 1e-12
    assert abs(res.value - res.dual_value) <= 1e-12 * (1.0 + abs(res.value))


def _shifted_clouds(seed, p):
    """40 sources in [0, 0.5]^2 and 40 sinks in [0.5, 1]^2, weights in
    [0.5, 1.5) normalized, and their cost |x - y|^p."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(40) + 0.5, rng.random(40) + 0.5
    a /= a.sum()
    b /= b.sum()
    mu = DiscreteMeasure(weights=a, points=0.5 * rng.random((40, 2)))
    nu = DiscreteMeasure(weights=b, points=0.5 + 0.5 * rng.random((40, 2)))
    return a, b, lp_cost_matrix(mu, nu, p)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_shifted_clouds_need_arcs_outside_the_start_set(p):
    # every source's nearest sinks lie near the corner (0.5, 0.5), so the
    # start's candidate arcs miss shorter paths, and arcs must join the set
    a, b, cost = _shifted_clouds(2, p)
    res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    _assert_certified(a, b, cost, res)
    assert res.repairs >= 1


def test_linprog_oracle_is_exact_to_rounding():
    # at HiGHS's default feasibility tolerances of 1e-7 the oracle returned
    # 1.3e-9 relative above this optimum, whose plan, duals and gap are exact
    # to rounding; at 1e-10 it agrees to 1.6e-16
    a, b, cost = _shifted_clouds(7, 1.0)
    res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    _assert_certified(a, b, cost, res)


def test_one_search_skips_a_path_that_an_earlier_augmentation_emptied(monkeypatch):
    # the start ships M's 0.25 to T0 and leaves R (2.0) as the only root with
    # T1 and T2 open. The first search reaches both through R -> T0 <- M at
    # distance 0: augmenting T1 moves M's 0.25 from T0 to T1 and empties the
    # backward arc M -> T0, so T2's path is skipped. The second search
    # reaches T1 directly and T2 through T1 <- M, the third T2 directly:
    # five paths, four augmentations
    from scipy.sparse import csgraph

    dijkstra = csgraph.dijkstra
    reached = []

    def recording(*args, **kwargs):
        dist, pred, sources = dijkstra(*args, **kwargs)
        reached.append(np.flatnonzero(np.isfinite(dist[2:])).tolist())
        return dist, pred, sources

    monkeypatch.setattr(csgraph, "dijkstra", recording)
    cost = np.array([[0.0, 1.0, 1.5],    # M
                     [0.0, 3.0, 4.0]])   # R
    a, b = np.array([0.25, 2.0]), np.array([0.25, 1.0, 1.0])
    res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    assert reached == [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
    assert (res.searches, res.iterations, res.repairs) == (3, 4, 0)
    np.testing.assert_array_equal(res.coupling.plan, [[0.0, 0.0, 0.25], [0.25, 1.0, 0.75]])
    assert res.value == res.dual_value == 6.375
    _assert_certified(a, b, cost, res)


def test_one_search_feeds_many_augmentations():
    # the benchmark's 200 x 200 clouds at p = 2: each Dijkstra search
    # augments every open sink its forest reaches within the cap
    rng = np.random.default_rng([20101, 3])
    a, b = rng.uniform(0.5, 1.5, 200), rng.uniform(0.5, 1.5, 200)
    mu = DiscreteMeasure(weights=a / a.sum(), points=rng.random((200, 2)))
    nu = DiscreteMeasure(weights=b / b.sum(), points=rng.random((200, 2)))
    res = solve_discrete_ot(mu, nu, lp_cost_matrix(mu, nu, 2.0))
    assert res.searches <= 0.5 * res.iterations
    assert res.value == pytest.approx(0.005513165751876324, rel=1e-15, abs=0.0)


def test_no_candidate_path_gives_the_roots_arcs_to_the_open_sinks():
    # two blocks: rows A and columns C cost below 1, rows B and columns D too,
    # and every arc between the blocks costs above 10. With more than CAND
    # columns in C, each row of A has its CAND least reduced costs in C, and
    # each column of D its CAND least in B, so no candidate arc leaves the A-C
    # block. A holds more mass than C: once C is full, the roots of A reach
    # no open sink, and only arcs from A into D can carry the excess 0.2
    rng = np.random.default_rng(0)
    k = CAND + 4
    cost = 10.0 + rng.random((2 * k, 2 * k))
    cost[:k, :k] = rng.random((k, k))
    cost[k:, k:] = rng.random((k, k))
    a = np.repeat([0.6 / k, 0.4 / k], k)
    b = np.repeat([0.4 / k, 0.6 / k], k)
    res = solve_discrete_ot(DiscreteMeasure(weights=a), DiscreteMeasure(weights=b), cost)
    _assert_certified(a, b, cost, res)
    assert res.coupling.plan[:k, k:].sum() == pytest.approx(0.2, abs=1e-12)
    assert res.repairs >= 1


@st.composite
def _candidate_graph_problems(draw):
    """Non-geometric costs with both sides above CAND points: uniform, tied
    integer, or low-rank plus noise, and weights that may be zero."""
    m, n = draw(st.integers(CAND + 1, 40)), draw(st.integers(CAND + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "low-rank"]))
    if kind == "uniform":
        cost = rng.uniform(-5.0, 5.0, (m, n))
    elif kind == "integer":
        cost = rng.integers(0, 4, (m, n)).astype(float)
    else:
        cost = rng.random((m, 2)) @ rng.random((2, n)) + 0.01 * rng.random((m, n))
    a = rng.random(m) * (rng.random(m) > draw(st.sampled_from([0.0, 0.3])))
    b = rng.random(n) * (rng.random(n) > draw(st.sampled_from([0.0, 0.3])))
    a[0] += 1.0
    b[-1] += 1.0
    return a / a.sum(), b / b.sum(), cost


@settings(derandomize=True, max_examples=60, deadline=None)
@given(problem=_candidate_graph_problems())
def test_candidate_graph_solves_random_costs(problem):
    _assert_optimal(*problem)


@pytest.mark.parametrize("total", [1e-12, 1.0, 1e12])
def test_gateaux_and_hotelling_mass_checks_are_relative(total):
    # no absolute floor: twice the mass is refused at every scale, by the
    # site's own check
    pts = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(weights=total * np.array([0.5, 0.5]), points=pts)
    nu = DiscreteMeasure(weights=total * np.array([0.25, 0.75]), points=pts)
    mu1 = DiscreteMeasure(weights=total * np.array([1.0, 1.0]), points=pts)
    with pytest.raises(MassMismatchError, match="mu and mu1 must carry equal mass"):
        gateaux_check(mu, nu, mu1, 2.0, [1e-3])
    consumers = DiscreteMeasure(weights=np.full(4, 0.25 * total),
                                points=np.linspace(0.0, 1.0, 4)[:, None])
    with pytest.raises(MassMismatchError, match="demands must sum to the consumer mass"):
        hotelling_recover_prices(pts, total * np.array([1.0, 1.0]), consumers)


@pytest.mark.parametrize("total", [1e-12, 1e-6, 1.0, 1e12])
def test_support_thresholds_are_relative(total):
    # each threshold is a share of the total mass, with no absolute floor:
    # below a floor of 1e-8 these plans had no support at small totals, and
    # the checks saw nothing, refused a connected plan or lost the prices
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = total * np.array([0.999, 0.001])
    res = solve_discrete_ot(DiscreteMeasure(weights=w), DiscreteMeasure(weights=w), cost)
    assert check_potentials(res.potentials, res.coupling, cost) == (0.0, 0.0)
    broken = PotentialPair(res.potentials.phi - [0.0, 0.3], res.potentials.psi)
    assert check_potentials(broken, res.coupling, cost) == (0.0, pytest.approx(0.3, abs=1e-15))

    # at total 1e-6 a plan entry of this connected instance is below 1e-8
    mu, nu, mu1 = (DiscreteMeasure(weights=total * m.weights, points=m.points)
                   for m in _nondegenerate_instance(6))
    ref = gateaux_check(*_nondegenerate_instance(6), 2.0, [1e-3])
    rep = gateaux_check(mu, nu, mu1, 2.0, [1e-3])
    assert rep.inner == pytest.approx(total * ref.inner, rel=1e-12, abs=0.0)
    assert rep.err[1e-3] <= 1e-3 * total * (1 + abs(ref.inner))

    # the benchmark's Hotelling prices
    prices = np.array([0.0, 30.0, -25.0, 5.0]) / 128.0
    firms = np.arange(4.0)[:, None]
    consumers = DiscreteMeasure(weights=np.full(769, total / 769),
                                points=(np.arange(769) / 256.0)[:, None])
    _, demands = hotelling_demands(firms, prices, consumers)
    rec = hotelling_recover_prices(firms, demands, consumers)
    assert np.abs(rec - prices).max() <= 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pair=st.integers(1, 3).flatmap(lambda d: st.tuples(*(
    hnp.arrays(float, st.tuples(st.integers(0, 6), st.just(d)),
               elements=st.floats(-1e6, 1e6)) for _ in range(2)))))
def test_pairwise_distances_equals_the_broadcast_sum(pair):
    # summed one coordinate at a time, the squares give the floats of the
    # (m, n, d) broadcast summed over its last axis, for up to three axes
    a, b = pair
    diff = a[:, None, :] - b[None, :, :]
    np.testing.assert_array_equal(pairwise_distances(a, b),
                                  np.sqrt(np.sum(diff * diff, axis=2)))

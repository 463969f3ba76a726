import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_transport.errors import (
    BisectionFailureError,
    DomainTooSmallError,
    InputFormatError,
)
from congested_transport.grids import Grid, ScalarField
from congested_transport import urbanplan
from congested_transport.kantorovich import DiscreteMeasure, solve_discrete_ot
from congested_transport.urbanplan import (
    ConcentrationSpec,
    GridAtomTransport,
    SpreadSpec,
    _mass_for_level,
    _pole_best_position,
    _solve_level,
    _weighted_variance,
    barycenter_of,
    eval_total,
    minimize_with_atomic_G,
    quadratic_city_profile,
    quadratic_city_radius,
    second_moment_of,
    solve_p_nu,
    solve_quadratic_city,
)


# --------------------------------------------------------------------- specs


def test_spread_spec_families():
    q = SpreadSpec.quadratic()
    assert float(q.f(np.array(2.0))) == 4.0
    assert float(q.inverse_derivative(np.array(3.0))) == 1.5
    p = SpreadSpec.power(3.0)
    assert float(p.inverse_derivative(np.array(4.0))) == pytest.approx(2.0)
    # each family returns the floats of its plain form
    t = np.random.default_rng(5).uniform(0.0, 5.0, 1000)
    assert np.array_equal(q.f(t), np.square(t))
    assert np.array_equal(q.inverse_derivative(t), 0.5 * t)
    for m in (1.5, 3.0, 5.0):
        assert np.array_equal(SpreadSpec.power(m).f(t), np.power(t, m) / m)
        assert np.array_equal(SpreadSpec.power(m).inverse_derivative(t),
                              np.power(t, 1.0 / (m - 1.0)))
    doubled = SpreadSpec(2.0, 0.5)
    assert np.array_equal(doubled.f(t), 2.0 * np.square(t))
    assert np.array_equal(doubled.inverse_derivative(t), 0.25 * t)


def test_spread_spec_rejects_nonconvex():
    # m <= 1 is not strictly convex; d must be a finite positive divisor
    for m, d in [(1.0, 1.0), (0.5, 0.5), (np.inf, 1.0), (np.nan, 1.0),
                 (2.0, 0.0), (2.0, -1.0), (2.0, np.inf)]:
        with pytest.raises(InputFormatError):
            SpreadSpec(m, d)
    with pytest.raises(InputFormatError):
        SpreadSpec.power(1.0)


def test_concentration_spec_validation():
    ok = ConcentrationSpec.atomic_power(0.5)
    assert float(ok.g(np.array(0.0))) == 0.0
    assert float(ok.g_prime(np.array(0.25))) == 1.0
    assert float(ConcentrationSpec.atomic_power(1.0).g_prime(np.array(0.3))) == 1.0
    # pole costs outside (0, 1] are not subadditive (or do not vanish at zero)
    for alpha in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(InputFormatError):
            ConcentrationSpec.atomic_power(alpha)
    for lam in (-1.0, np.inf, np.nan):
        with pytest.raises(InputFormatError):
            ConcentrationSpec.quadratic_interaction(lam)
    with pytest.raises(InputFormatError):
        ConcentrationSpec("pairwise")
    q = ConcentrationSpec.quadratic_interaction(1.0)
    assert float(q.h(np.array(2.0))) == 4.0


# ----------------------------------------------------------------- eval_total


def test_eval_total_uniform_self():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    uni = ScalarField.constant(g, 1.0)
    val = eval_total(uni, uni, 2.0, SpreadSpec.quadratic(), None, g)
    assert val.transport == pytest.approx(0.0, abs=1e-12)
    assert val.spread == pytest.approx(1.0, rel=1e-12)
    assert val.total == pytest.approx(1.0, rel=1e-12)


def test_eval_total_atomic_infeasible_for_density():
    g = Grid(nx=8, ny=8, h=0.125)
    uni = ScalarField.constant(g, 1.0)
    val = eval_total(uni, uni, 2.0, SpreadSpec.quadratic(),
                     ConcentrationSpec.atomic_power(0.5), g)
    assert val.infeasible
    assert val.total == np.inf


def test_eval_total_interaction_two_atoms():
    g = Grid(nx=8, ny=8, h=0.125)
    uni = ScalarField.constant(g, 1.0)
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]),
                         points=np.array([[0.25, 0.5], [0.25 + 1.0 / np.sqrt(2), 0.5 + 1.0 / np.sqrt(2)]]))
    # place atoms at distance exactly one inside the domain
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]),
                         points=np.array([[0.2, 0.3], [0.2 + 0.6, 0.3 + 0.8]]))
    conc = ConcentrationSpec.quadratic_interaction(1.0)
    val = eval_total(uni, nu, 2.0, SpreadSpec.quadratic(), conc, g)
    assert val.concentration == pytest.approx(0.5, rel=1e-12)


# ------------------------------------------------------------------ (P_nu)


def test_p_nu_uniform_target_is_fixed_point():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    nu = DiscreteMeasure(weights=np.full(256, 1.0 / 256), points=g.cell_points())
    sol = solve_p_nu(nu, 2.0, SpreadSpec.quadratic(), g, tol=1e-8)
    assert sol.converged
    assert np.abs(sol.mu.values - 1.0).max() <= 1e-10
    assert abs(sol.mu.total_mass - 1.0) <= 1e-8


def test_p_nu_single_atom_closed_form():
    g = Grid(nx=64, ny=64, h=1.0 / 64)
    nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.5, 0.5]]))
    sol = solve_p_nu(nu, 2.0, SpreadSpec.quadratic(), g, tol=1e-7)
    assert sol.converged
    assert sol.residual <= 10 * 1e-7
    xc, yc = g.cell_centers()
    psi = ((xc - 0.5) ** 2 + (yc - 0.5) ** 2).ravel()
    level = _solve_level(psi, SpreadSpec.quadratic(), g.cell_area, 1.0)
    u_closed = np.maximum(level - psi, 0.0) / 2.0
    l1 = g.cell_area * np.abs(sol.mu.values.ravel() - u_closed).sum()
    assert l1 <= 1e-3
    # radially nonincreasing about the atom (checked along sorted radii)
    order = np.argsort(psi)
    vals = sol.mu.values.ravel()[order]
    assert np.all(np.diff(vals) <= 1e-9)


def test_p_nu_spread_rescaling_shifts_balance():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.5, 0.5]]))
    base = solve_p_nu(nu, 2.0, SpreadSpec.quadratic(), g, tol=1e-8)
    doubled = solve_p_nu(nu, 2.0, SpreadSpec(2.0, 0.5), g, tol=1e-8)  # f = 2 t^2
    # stronger spreading pushes mass outward: transport grows, original-f
    # spread integral shrinks
    assert doubled.transport_value >= base.transport_value - 1e-9
    f_base = g.cell_area * float(np.sum(np.square(base.mu.values)))
    f_doubled = g.cell_area * float(np.sum(np.square(doubled.mu.values)))
    assert f_doubled <= f_base + 1e-9


def test_p_nu_probability_normalization():
    g = Grid(nx=24, ny=24, h=1.0 / 24)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.2, 0.8, (5, 2))
    w = rng.random(5)
    nu = DiscreteMeasure(weights=w / w.sum(), points=pts)
    sol = solve_p_nu(nu, 2.0, SpreadSpec.quadratic(), g, tol=1e-7)
    assert abs(sol.mu.total_mass - 1.0) <= 1e-8
    assert np.all(sol.mu.values >= 0.0)


# ---------------------------------------------------------- quadratic city


def test_quadratic_city_radius_formula():
    # normalization of the parabolic profile in two dimensions
    for lam in (0.5, 1.0, 4.0):
        r = quadratic_city_radius(lam)
        mass = lam / (2 * lam + 1) * np.pi * r ** 4 / 2.0
        assert mass == pytest.approx(1.0, rel=1e-12)
    assert quadratic_city_radius(1.0) == pytest.approx((6.0 / np.pi) ** 0.25, rel=1e-12)


def test_quadratic_city_domain_guard():
    g = Grid(nx=16, ny=16, h=1.0 / 16)  # unit square cannot hold the lam=1 ball
    with pytest.raises(DomainTooSmallError):
        solve_quadratic_city(1.0, g)


def test_quadratic_city_small_grid():
    g = Grid(nx=48, ny=48, h=3.0 / 48)
    res = solve_quadratic_city(1.0, g, tol=1e-6, n_atom_side=12)
    prof = quadratic_city_profile(g, 1.0)
    l1 = g.cell_area * np.abs(res.mu.values - prof.values).sum()
    assert l1 <= 0.05
    # accepted-iteration values never increase
    hist = np.array(res.history)
    assert np.all(np.diff(hist) <= 1e-10)
    # barycenters of residents and services coincide
    b_mu = barycenter_of(res.mu)
    b_nu = (res.nu.weights / res.nu.weights.sum()) @ res.nu.points
    assert np.abs(b_mu - b_nu).max() <= g.h
    # services contract toward the center with the predicted ratio
    ratio = _weighted_variance(res.nu.points, res.nu.weights) / second_moment_of(res.mu)
    assert abs(ratio - 1.0 / 9.0) <= 0.1 / 9.0
    assert abs(res.mu.total_mass - 1.0) <= 1e-8


def test_city_solvers_report_an_inner_solve_that_did_not_converge(monkeypatch):
    # one damped pass cannot meet INNER_TOL from the uniform start
    monkeypatch.setattr(urbanplan, "P_NU_MAX_ITER", 1)
    res = solve_quadratic_city(4.0, Grid(6, 7, 0.4), tol=1e-3, n_atom_side=3)
    assert not res.converged
    res = minimize_with_atomic_G(2.0, SpreadSpec.quadratic(), ConcentrationSpec.atomic_power(0.5),
                                 2, Grid(nx=8, ny=8, h=1.0 / 8), tol=1e-3)
    assert res.per_k_converged == {1: False, 2: False}
    assert not res.converged


def test_quadratic_city_contraction_across_lambda():
    g = Grid(nx=32, ny=32, h=3.0 / 32)
    moments = []
    for lam in (1.0, 4.0, 16.0):
        res = solve_quadratic_city(lam, g, tol=1e-5, n_atom_side=10)
        moments.append(_weighted_variance(res.nu.points, res.nu.weights))
    assert moments[0] > moments[1] > moments[2]


# ------------------------------------------------------------- atomic poles


def test_atomic_single_pole_at_barycenter():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    res = minimize_with_atomic_G(2.0, SpreadSpec.quadratic(),
                                 ConcentrationSpec.atomic_power(0.5), 1, g, tol=1e-7)
    assert res.k == 1
    b_mu = barycenter_of(res.mu)
    assert np.abs(res.nu.points[0] - b_mu).max() <= g.h
    assert res.catchments_connected
    # local optimality of the pole position against a 2-D probe oracle
    masses = (res.mu.values * g.cell_area).ravel()
    pts = g.cell_points()

    def pole_cost(y):
        return float(masses @ np.sum((pts - y[None, :]) ** 2, axis=1))

    best = pole_cost(res.nu.points[0])
    for dx in (-2 * g.h, 2 * g.h):
        for dy in (-2 * g.h, 2 * g.h):
            assert pole_cost(res.nu.points[0] + np.array([dx, dy])) >= best - 1e-12


def test_atomic_two_poles_mirror_symmetry():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    poles0 = np.array([[0.25, 0.5], [0.75, 0.5]])
    res = minimize_with_atomic_G(2.0, SpreadSpec.quadratic(),
                                 ConcentrationSpec.atomic_power(0.5), 2, g, tol=1e-7,
                                 poles0=poles0)
    two = res.per_k[2]
    # run the mirrored initialization; the converged geometry must match
    mirrored0 = np.array([[0.75, 0.5], [0.25, 0.5]])
    res_m = minimize_with_atomic_G(2.0, SpreadSpec.quadratic(),
                                   ConcentrationSpec.atomic_power(0.5), 2, g, tol=1e-7,
                                   poles0=mirrored0)
    assert res_m.per_k[2] == pytest.approx(two, abs=1e-8)


def test_atomic_convergence_is_that_of_the_chosen_pole_count(monkeypatch):
    g = Grid(nx=8, ny=8, h=1.0 / 8)
    spread, conc = SpreadSpec.quadratic(), ConcentrationSpec.atomic_power(0.5)
    res = minimize_with_atomic_G(2.0, spread, conc, 2, g, tol=1e-6)
    assert res.per_k_converged == {1: True, 2: True}
    assert res.converged
    # one outer step per pole count cannot meet any tolerance
    monkeypatch.setattr(urbanplan, "ATOMIC_MAX_OUTER", 1)
    res = minimize_with_atomic_G(2.0, spread, conc, 2, g, tol=1e-12)
    assert res.per_k_converged == {1: False, 2: False}
    assert not res.converged


def test_atomic_k_sweep_reports_all_values():
    g = Grid(nx=24, ny=24, h=1.0 / 24)
    res = minimize_with_atomic_G(2.0, SpreadSpec.quadratic(),
                                 ConcentrationSpec.atomic_power(0.5), 2, g, tol=1e-6)
    assert set(res.per_k) == {1, 2}
    assert res.value == min(res.per_k.values())


def test_eval_total_between_fields_and_interaction_density():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    xc, yc = g.cell_centers()
    # exact grid-aligned translates (shift of four cells): the optimal plan is
    # the translation, so the transport term equals the squared shift
    shift = 4 * g.h
    a = np.exp(-(((xc - 0.375) ** 2 + (yc - 0.5) ** 2)) / (2 * 0.06 ** 2))
    b = np.roll(a, 4, axis=0)
    a /= a.sum() * g.cell_area
    b /= b.sum() * g.cell_area
    mu, nu = ScalarField(a, g), ScalarField(b, g)
    conc = ConcentrationSpec.quadratic_interaction(1.0)
    val = eval_total(mu, nu, 2.0, SpreadSpec.quadratic(), conc, g)
    assert np.isfinite(val.total) and not val.infeasible
    assert val.transport == pytest.approx(shift ** 2, rel=1e-9)
    # the pairwise-density interaction equals twice the variance
    masses = (b * g.cell_area).ravel()
    pts = g.cell_points()
    center = masses @ pts
    var = float(masses @ np.sum((pts - center) ** 2, axis=1))
    assert val.concentration == pytest.approx(2 * var, rel=1e-6)


def test_level_bracket_guard():
    from types import SimpleNamespace

    flat = SimpleNamespace(inverse_derivative=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    with pytest.raises(BisectionFailureError):
        _solve_level(np.zeros(4), flat, 1.0, 1.0)


def test_gateaux_consistency_on_grid_measures():
    from congested_transport.kantorovich import gateaux_check

    g = Grid(nx=8, ny=8, h=1.0 / 8)
    rng = np.random.default_rng(77)
    pts = g.cell_points()
    w = rng.random(64); w /= w.sum()
    w1 = rng.random(64); w1 /= w1.sum()
    mu = DiscreteMeasure(weights=w, points=pts)
    mu1 = DiscreteMeasure(weights=w1, points=pts)
    nw = rng.random(5)
    nu = DiscreteMeasure(weights=nw / nw.sum(), points=rng.uniform(0.1, 0.9, (5, 2)))
    rep = gateaux_check(mu, nu, mu1, 2.0, [1e-4])
    assert rep.err[1e-4] <= 1e-3 * (1 + abs(rep.inner))


# --------------------------------------------------- grid-to-atom transport


def test_grid_atom_one_atom_is_the_cost_column():
    rng = np.random.default_rng(7)
    g = Grid(nx=9, ny=5, h=0.2)
    masses = rng.random(g.n_cells) * (rng.random(g.n_cells) > 0.2)
    masses /= masses.sum()
    transport = GridAtomTransport(g.cell_points(), np.array([[0.3, 0.7]]), 1.5)
    for _ in range(2):  # cold, then warm
        psi, beta, assign, value = transport.solve(masses, np.array([1.0]))
        assert psi.tobytes() == transport.cost[:, 0].tobytes()
        assert value == float(np.dot(masses, transport.cost[:, 0]))
        assert np.array_equal(beta, [0.0]) and not assign.any()


@st.composite
def _grid_atom_instances(draw, min_side=1, max_side=8, max_atoms=6, empty=0.3):
    """Grid masses (a share of them zero), atoms anywhere in the domain, atom
    weights, and the cost exponent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = Grid(nx=draw(st.integers(max(min_side, 2), max_side)),
             ny=draw(st.integers(min_side, max_side)), h=0.25)
    n = draw(st.integers(2, max_atoms))
    atoms = rng.random((n, 2)) * np.array(g.extent)
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    masses = rng.random(g.n_cells) * (rng.random(g.n_cells) >= empty)
    masses[rng.integers(g.n_cells)] += 0.5  # at least one occupied cell
    masses *= weights.sum() / masses.sum()
    return g, atoms, weights, masses, draw(st.sampled_from([1.0, 1.5, 2.0]))


def _exact_value(g, atoms, weights, masses, cost):
    pos = masses > 0
    return solve_discrete_ot(DiscreteMeasure(masses[pos], g.cell_points()[pos]),
                             DiscreteMeasure(weights, atoms), cost[pos]).value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(problem=_grid_atom_instances())
def test_grid_atom_value_is_a_dual_lower_bound(problem):
    """The ascent's value is the dual objective at the returned potentials,
    with psi the c-transform of beta, so it never exceeds the exact transport
    cost. (solve sends instances this small to the exact solver.)"""
    g, atoms, weights, masses, p = problem
    transport = GridAtomTransport(g.cell_points(), atoms, p)
    psi, beta, assign, value = transport._dual_ascent(masses, weights, max_iter=400)
    reduced = transport.cost - beta[None, :]
    assert psi.tobytes() == reduced.min(axis=1).tobytes()
    assert np.array_equal(assign, reduced.argmin(axis=1))
    assert value == float(np.dot(masses, psi) + np.dot(weights, beta))
    assert value <= _exact_value(g, atoms, weights, masses, transport.cost) + 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(problem=_grid_atom_instances(min_side=6, max_side=12, max_atoms=4, empty=0.0))
def test_grid_atom_value_near_exact(problem):
    """With every cell occupied and at least nine cells per atom, a cold
    ascent ends within 1% of the exact cost. With fewer occupied cells per
    atom it can stop at a kink of the dual far below it, and warm calls can
    stall on a collapsed step (both FOUND in CHANGES.md); solve sends such
    small instances to the exact solver."""
    g, atoms, weights, masses, p = problem
    transport = GridAtomTransport(g.cell_points(), atoms, p)
    value = transport._dual_ascent(masses, weights, max_iter=400)[3]
    exact = _exact_value(g, atoms, weights, masses, transport.cost)
    assert exact - 1e-2 * exact <= value <= exact + 1e-12


# ------------------------------------------- same bits as the reference forms
# Each reference below is the plain form of a kernel that urbanplan evaluates
# more cheaply; the kernel must return exactly the same floats.


def _bisection_level(psi, spread, cell_area, target, hi_cap=1e6):
    """100-step bisection; returns (level, whether it ended on adjacent floats)."""
    lo = float(psi.min())
    width = 1.0
    hi = lo + width
    while _mass_for_level(hi, psi, spread, cell_area) < target:
        width *= 2.0
        hi = lo + width
        if width > hi_cap:
            raise BisectionFailureError("level bracket exceeded its growth cap")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _mass_for_level(mid, psi, spread, cell_area) < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, mid in (lo, hi)


_SPREADS = {
    "quadratic": SpreadSpec.quadratic(),
    "power 1.5": SpreadSpec.power(1.5),
    "power 3": SpreadSpec.power(3.0),
    "power 5": SpreadSpec.power(5.0),
    "doubled": SpreadSpec(2.0, 0.5),
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(psi=st.lists(st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3).map(float)),
                    min_size=1, max_size=40),
       spread=st.sampled_from(sorted(_SPREADS)),
       cell_area=st.sampled_from([1.0, 1.0 / 9, 1.0 / 1024, 0.0625]),
       target=st.one_of(st.just(1.0), st.floats(1e-3, 50.0)))
def test_level_matches_bisection(psi, spread, cell_area, target):
    psi = np.array(psi)
    spec = _SPREADS[spread]
    try:
        expected, adjacent = _bisection_level(psi, spec, cell_area, target)
    except BisectionFailureError:
        with pytest.raises(BisectionFailureError):
            _solve_level(psi, spec, cell_area, target)
        return
    level = _solve_level(psi, spec, cell_area, target)
    # 100 halvings reach adjacent floats unless the level is within about
    # 2^-48 of zero; the bracket's floats are what both searches agree on
    assert adjacent or abs(expected) < 1e-12
    if adjacent:
        assert level == expected
    assert _mass_for_level(np.nextafter(level, np.inf), psi, spec, cell_area) >= target
    assert _mass_for_level(np.nextafter(level, -np.inf), psi, spec, cell_area) < target


def _dense_argmin(cost, b):
    red = cost - b[None, :]
    assign = np.argmin(red, axis=1)
    return red[np.arange(red.shape[0]), assign], assign


@st.composite
def _ascent_steps(draw):
    """A transport with float costs, or integer costs that tie exactly, and a
    sequence of (potentials, accepted) steps. Some steps put one row's two
    smallest reduced costs on an exact float tie."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        # 1-d integer points: costs |x - y| or |x - y|^2 are integers
        cells = np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)),
                         dtype=float)[:, None]
        atoms = np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)),
                         dtype=float)[:, None]
        p = draw(st.sampled_from([1.0, 2.0]))
        value = st.integers(-8, 8).map(float)
    else:
        coord = st.floats(0.0, 1.0)
        cells = np.array(draw(st.lists(coord, min_size=2 * m, max_size=2 * m))).reshape(m, 2)
        atoms = np.array(draw(st.lists(coord, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        p = draw(st.sampled_from([1.0, 1.5, 2.0]))
        value = st.floats(-2.0, 2.0)
    transport = GridAtomTransport(cells, atoms, p)
    steps = []
    b = np.zeros(n)
    for _ in range(draw(st.integers(1, 12))):
        cand = b + np.array(draw(st.lists(value, min_size=n, max_size=n))) * draw(
            st.sampled_from([1.0, 1e-3, 1e-9]))
        if n > 1 and draw(st.booleans()):
            i = draw(st.integers(0, m - 1))
            j, k = draw(st.permutations(range(n)))[:2]
            cand[j] = transport.cost[i, j] - (transport.cost[i, k] - cand[k])
        accepted = draw(st.booleans())
        steps.append((cand, accepted))
        if accepted:
            b = cand
    return transport, steps


@settings(derandomize=True, max_examples=400, deadline=None)
@given(problem=_ascent_steps())
def test_pruned_argmin_matches_dense(problem):
    transport, steps = problem
    for b, accepted in steps:
        psi, assign, bound = transport._reduced_argmin(b)
        psi_d, assign_d = _dense_argmin(transport.cost, b)
        assert np.array_equal(assign, assign_d)
        assert psi.tobytes() == psi_d.tobytes()
        if accepted:
            transport._bound = bound


def _dense_dual_ascent(t, cell_masses, atom_weights, max_iter=400):
    """The ascent with a dense argmin at every evaluation, on a transport's
    cost, beta and warm step."""
    beta = t.beta.copy()
    total = float(cell_masses.sum())
    scale = float(t.cost.max() - t.cost.min()) + 1e-12

    def evaluate(b):
        psi, assign = _dense_argmin(t.cost, b)
        load = np.bincount(assign, weights=cell_masses, minlength=b.shape[0])
        dual = float(np.dot(cell_masses, psi) + np.dot(atom_weights, b))
        return psi, assign, load, dual

    psi, assign, load, dual = evaluate(beta)
    step = t._step if t._step is not None else 0.5 * scale
    for _ in range(max_iter):
        grad = atom_weights - load
        if float(np.abs(grad).sum()) <= 1e-9 * max(total, 1e-12):
            break
        improved = False
        for _ in range(14):
            cand = beta + step * grad / max(total, 1e-12)
            psi_c, assign_c, load_c, dual_c = evaluate(cand)
            if dual_c > dual + 1e-15 * (1.0 + abs(dual)):
                beta, psi, assign, load, dual = cand, psi_c, assign_c, load_c, dual_c
                step *= 1.4
                improved = True
                break
            step *= 0.5
            if step < 1e-14 * scale:
                break
        if not improved:
            break
    t._step = step
    t.beta = beta
    return psi, beta.copy(), assign, dual


@settings(derandomize=True, max_examples=100, deadline=None)
@given(side=st.integers(3, 10), n=st.integers(2, 6), p=st.sampled_from([1.0, 1.5, 2.0]),
       seed=st.integers(0, 2**32 - 1), calls=st.integers(1, 3))
def test_dual_ascent_matches_dense(side, n, p, seed, calls):
    rng = np.random.default_rng(seed)
    g = Grid(nx=side, ny=side, h=1.0 / side)
    atoms = rng.random((n, 2))
    fast = GridAtomTransport(g.cell_points(), atoms, p)
    dense = GridAtomTransport(g.cell_points(), atoms, p)
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    for _ in range(calls):  # warm calls on changing masses, as in solve_p_nu
        masses = rng.random(g.n_cells) * (rng.random(g.n_cells) > 0.3)
        masses *= weights.sum() / masses.sum()
        got = fast._dual_ascent(masses, weights, max_iter=60)
        want = _dense_dual_ascent(dense, masses, weights, max_iter=60)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert fast._step == dense._step


def _per_point_pole_position(points, masses, start, p):
    y = np.array(start, dtype=float)
    span = points.max(axis=0) - points.min(axis=0) + 1e-9

    def cost_at(yy):
        d = np.sqrt(np.sum((points - yy[None, :]) ** 2, axis=1))
        return float(np.dot(masses, np.power(d, p)))

    gr = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(3):
        for axis in (0, 1):
            lo = y[axis] - span[axis]
            hi = y[axis] + span[axis]
            c = hi - gr * (hi - lo)
            d = lo + gr * (hi - lo)
            for _ in range(40):
                yc = y.copy()
                yc[axis] = c
                yd = y.copy()
                yd[axis] = d
                if cost_at(yc) < cost_at(yd):
                    hi = d
                else:
                    lo = c
                c = hi - gr * (hi - lo)
                d = lo + gr * (hi - lo)
            y[axis] = 0.5 * (lo + hi)
    return y


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 25), p=st.sampled_from([1.0, 1.5]),
       seed=st.integers(0, 2**32 - 1), grid_points=st.booleans())
def test_pole_position_matches_per_point_search(n, p, seed, grid_points):
    rng = np.random.default_rng(seed)
    points = (rng.integers(0, 8, size=(n, 2)) / 8.0 if grid_points
              else rng.random((n, 2)))
    masses = rng.random(n) + 0.01
    start = rng.random(2)
    got = _pole_best_position(points, masses, start, p)
    want = _per_point_pole_position(points, masses, start, p)
    assert got.tobytes() == want.tobytes()

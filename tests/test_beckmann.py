import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_transport.beckmann import (
    _Anderson,
    _StaggeredOps,
    cloud_to_field,
    coarsen_field,
    field_w1,
    grid_geodesic_distances,
    rasterize_transport_density,
    rasterize_v_gamma,
    reconstruct_trajectories,
    solve_beckmann,
    solve_dual_quadratic,
    weighted_beckmann_duality_check,
)
from congested_transport.congestion import CongestionSpec
from congested_transport.errors import (
    MassMismatchError,
    PointOutsideDomainError,
    ShapeMismatchError,
)
from congested_transport.grids import Grid, ScalarField, VectorField
from congested_transport.kantorovich import DiscreteMeasure, lp_cost_matrix, solve_discrete_ot

QUAD = CongestionSpec.quadratic()


def random_densities(grid, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((grid.nx, grid.ny))
    b = rng.random((grid.nx, grid.ny))
    a /= a.sum() * grid.cell_area
    b /= b.sum() * grid.cell_area
    return ScalarField(a, grid), ScalarField(b, grid)


def cumulative_oracle(grid, mu, nu):
    f = (mu.values - nu.values).ravel()
    vx = np.concatenate([[0.0], np.cumsum(grid.h * f)])
    return vx


# ------------------------------------------------------------------- kernels


KERNEL_SHAPES = [(1, 1), (1, 7), (7, 1), (5, 3), (16, 16)]


def dense_stencils(nx, ny, h):
    """Reference B (divergence) and R (per-cell face gather) built cell by cell
    in the face order of _StaggeredOps: interior x-faces, then y-faces."""
    nfx = (nx - 1) * ny
    n_faces = nfx + nx * (ny - 1)
    B = np.zeros((nx * ny, n_faces))
    R = np.zeros((4 * nx * ny, n_faces))
    for i in range(nx):
        for j in range(ny):
            c = i * ny + j
            for slot, face, sign, present in (
                    (0, (i - 1) * ny + j, -1.0, i >= 1),
                    (1, i * ny + j, 1.0, i + 1 <= nx - 1),
                    (2, nfx + i * (ny - 1) + j - 1, -1.0, j >= 1),
                    (3, nfx + i * (ny - 1) + j, 1.0, j + 1 <= ny - 1)):
                if present:
                    B[c, face] = sign / h
                    R[4 * c + slot, face] = 1.0
    return B, R


def face_pair(ops, w):
    """The padded (fx, fy) face arrays of a face vector in the dense order."""
    nx, ny = ops.nx, ops.ny
    fx, fy = ops.faces()
    fx[1:-1] = w[: (nx - 1) * ny].reshape(nx - 1, ny)
    fy[:, 1:-1] = w[(nx - 1) * ny:].reshape(nx, ny - 1)
    return fx, fy


def face_vector(fx, fy):
    """The dense-order face vector of padded face arrays."""
    return np.concatenate([fx[1:-1].ravel(), fy[:, 1:-1].ravel()])


@pytest.mark.parametrize("nx, ny", KERNEL_SHAPES)
def test_stencils_match_dense_reference_and_are_adjoint(nx, ny):
    h = 1.0 / max(nx, ny)
    ops = _StaggeredOps(nx, ny, h)
    B, R = dense_stencils(nx, ny, h)
    rng = np.random.default_rng(10 * nx + ny)
    w = rng.normal(size=B.shape[1])
    x = rng.normal(size=(nx, ny))
    z = rng.normal(size=(4, nx, ny))
    fx, fy = face_pair(ops, w)
    # the dense reference gathers cell-major: (n_cells, 4) rows of faces
    assert np.allclose(ops.div(fx, fy).ravel(), B @ w, rtol=0, atol=1e-12 / h)
    assert np.allclose(face_vector(*ops.div_adjoint(x)), B.T @ x.ravel(), rtol=0, atol=1e-12 / h)
    assert np.array_equal(ops.gather(fx, fy).reshape(4, -1).T, (R @ w).reshape(-1, 4))
    assert np.array_equal(face_vector(*ops.gather_adjoint(z)), R.T @ z.reshape(4, -1).T.ravel())
    for out_x, out_y in (ops.div_adjoint(x), ops.gather_adjoint(z)):  # no boundary flux
        assert not out_x[[0, -1]].any() and not out_y[:, [0, -1]].any()
    scale = np.linalg.norm(w) * np.linalg.norm(x) / h
    assert abs(np.sum(ops.div(fx, fy) * x) - w @ face_vector(*ops.div_adjoint(x))) <= 1e-13 * scale
    assert abs(np.sum(ops.gather(fx, fy) * z) - w @ face_vector(*ops.gather_adjoint(z))) <= 1e-13 * (
        np.linalg.norm(w) * np.linalg.norm(z))


@pytest.mark.parametrize("nx, ny", KERNEL_SHAPES)
def test_dct_poisson_matches_dense_least_squares(nx, ny):
    h = 1.0 / max(nx, ny)
    ops = _StaggeredOps(nx, ny, h)
    B, _ = dense_stencils(nx, ny, h)
    rng = np.random.default_rng(nx + 100 * ny)
    rhs = rng.normal(size=nx * ny)
    rhs -= rhs.mean()
    x = ops.solve_poisson(rhs.reshape(nx, ny)).ravel()
    ref = np.linalg.lstsq(B @ B.T, rhs, rcond=None)[0]
    ref -= ref[0]
    assert x[0] == 0.0
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------- dual


def test_dual_quadratic_equal_measures():
    g = Grid(nx=8, ny=8, h=0.125)
    mu, _ = random_densities(g, 0)
    u, v = solve_dual_quadratic(mu, mu, g)
    assert np.abs(u.values).max() <= 1e-12
    assert np.abs(v.vx).max() <= 1e-12 and np.abs(v.vy).max() <= 1e-12


def test_dual_quadratic_one_dimensional_oracle():
    g = Grid(nx=24, ny=1, h=1.0 / 24)
    mu, nu = random_densities(g, 3)
    _, v = solve_dual_quadratic(mu, nu, g)
    vx = cumulative_oracle(g, mu, nu)
    assert np.abs(v.vx.ravel() - vx).max() <= 1e-8
    # the oracle flow is the unique feasible one, so costs agree too
    assert abs(v.vx.ravel()[-1]) <= 1e-10


def test_dual_quadratic_manufactured_solution():
    # u = -cos(pi x / L) solves Lap u = (pi/L)^2 cos(pi x / L) with zero flux
    errs = {}
    for n in (16, 32, 64):
        g = Grid(nx=n, ny=4, h=1.0 / n)
        L = 1.0
        xc, yc = g.cell_centers()
        f = (np.pi / L) ** 2 * np.cos(np.pi * xc / L)
        f = f - f.mean()
        base = ScalarField(np.full((n, 4), 1.0), g)
        mu = ScalarField(base.values + np.maximum(f, 0), g)
        nu = ScalarField(base.values + np.maximum(-f, 0), g)
        u, _ = solve_dual_quadratic(mu, nu, g)
        exact = -np.cos(np.pi * xc / L)
        exact = exact - exact.mean()
        errs[n] = np.abs(u.values - exact).max()
    assert errs[64] <= 1.5 * (1 / 64) ** 2 / (1 / 64) ** 0  # absolute sanity bound
    # second-order convergence: refining by 2 divides the error by ~4
    assert errs[32] / errs[64] > 3.0
    assert errs[16] / errs[32] > 3.0


def test_dual_quadratic_mass_mismatch():
    g = Grid(nx=8, ny=8, h=0.125)
    mu, nu = random_densities(g, 1)
    bad = ScalarField(nu.values * 2.0, g)
    with pytest.raises(MassMismatchError):
        solve_dual_quadratic(mu, bad, g)


@pytest.mark.parametrize("total", [1e-12, 1.0, 1e12])
def test_mass_check_is_relative(total):
    # no absolute floor: twice the mass is refused at every scale, where a
    # floor of one would re-balance the tiny pair in silence
    g = Grid(nx=8, ny=8, h=0.125)
    mu = ScalarField(np.full((8, 8), total), g)
    nu = ScalarField(np.full((8, 8), 2.0 * total), g)
    with pytest.raises(MassMismatchError, match="field masses differ"):
        solve_beckmann(mu, nu, CongestionSpec.quadratic(), g)


# ----------------------------------------------------------------- splitting


def test_beckmann_equal_measures_zero_flow():
    g = Grid(nx=8, ny=8, h=0.125)
    mu, _ = random_densities(g, 5)
    res = solve_beckmann(mu, mu, QUAD, g)
    assert res.cost == 0.0
    assert np.abs(res.v.vx).max() == 0.0


def test_beckmann_one_dimensional_oracle():
    g = Grid(nx=16, ny=1, h=1.0 / 16)
    mu, nu = random_densities(g, 7)
    res = solve_beckmann(mu, nu, QUAD, g, tol=1e-10)
    vx = cumulative_oracle(g, mu, nu)
    assert np.abs(res.v.vx.ravel() - vx).max() <= 1e-8
    oracle_cost = g.cell_area * np.sum(QUAD.H(res.v.cell_magnitude_rms()))
    assert res.cost == pytest.approx(oracle_cost, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_beckmann_one_dimensional_certificate_is_tight(p):
    # on an n-by-1 grid the divergence fixes the flow, so the dual read off
    # the multiplier meets the cost up to rounding
    g = Grid(nx=16, ny=1, h=1.0 / 16)
    mu, nu = random_densities(g, 3)
    res = solve_beckmann(mu, nu, CongestionSpec.monomial(p), g)
    assert res.converged
    assert np.abs(res.v.vx.ravel() - cumulative_oracle(g, mu, nu)).max() <= 1e-12
    assert abs(res.certificate_gap) <= 1e-12
    assert res.multiplier.values[0, 0] == 0.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(2, 12), square=st.booleans(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       a=st.sampled_from([0.0, 0.5]), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_beckmann_certificate_is_a_tight_lower_bound(n, square, p, a, weighted, seed):
    # at tol 1e-6 the worst gap of these examples is 2.8e-5 at p = 1 (12^2,
    # a = 0.5, weighted) and 3.4e-8 above it (10^2, p = 3, weighted)
    g = Grid(nx=n, ny=n if square else 1, h=1.0 / n)
    mu, nu = random_densities(g, seed)
    w = np.random.default_rng(seed).uniform(0.5, 2.0, g.n_cells) if weighted else None
    res = solve_beckmann(mu, nu, CongestionSpec.affine_power(a, p), g, cell_weights=w)
    assert res.converged
    assert res.dual_value <= res.cost * (1.0 + 1e-12)
    assert res.certificate_gap <= (1e-3 if p == 1.0 else 1e-4)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_beckmann_rejects_cell_weights_that_are_not_finite_and_positive(bad):
    g = Grid(nx=4, ny=4, h=0.25)
    mu, nu = random_densities(g, 1)
    w = np.ones(g.n_cells)
    w[5] = bad
    for target in (nu, mu):  # equal measures too, which need no iteration
        with pytest.raises(ShapeMismatchError, match="finite and strictly positive"):
            solve_beckmann(mu, target, CongestionSpec.monomial(1.0), g, cell_weights=w)


def test_beckmann_quadratic_matches_poisson():
    for n in (16, 32):
        g = Grid(nx=n, ny=n, h=1.0 / n)
        mu, nu = random_densities(g, n)
        res = solve_beckmann(mu, nu, QUAD, g, tol=1e-8)
        _, v_ref = solve_dual_quadratic(mu, nu, g)
        ref_cost = g.cell_area * np.sum(QUAD.H(v_ref.cell_magnitude_rms()))
        assert res.converged
        assert abs(res.cost - ref_cost) <= 1e-6 * abs(ref_cost)
        assert res.div_residual <= 1e-8
        assert abs(res.certificate_gap) <= 1e-8


def two_blobs(grid, blobs):
    """Unit-mass mixture of Gaussian blobs (x, y, width) on the grid cells."""
    xc, yc = grid.cell_centers()
    d = sum(np.exp(-((xc - x) ** 2 + (yc - y) ** 2) / (2 * s * s)) for x, y, s in blobs)
    return ScalarField(d / (d.sum() * grid.cell_area), grid)


def test_beckmann_p1_two_blobs_within_default_budget():
    # the benchmark's p = 1 case: two blobs moved right across the square.
    # Plain ADMM needed 6430 iterations here, more than the CLI default 5000.
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    mu = two_blobs(g, [(0.39, 0.50, 0.13), (0.38, 0.47, 0.11)])
    nu = two_blobs(g, [(0.62, 0.48, 0.125), (0.61, 0.46, 0.106)])
    res = solve_beckmann(mu, nu, CongestionSpec.monomial(1.0), g, max_iter=5000)
    assert res.converged
    assert res.cost == pytest.approx(0.2314187103341352, rel=1e-6)  # plain ADMM's value
    assert res.div_residual <= 1e-10
    assert res.dual_value <= res.cost
    assert res.certificate_gap <= 1e-3


def test_beckmann_p1_stops_only_at_a_small_fixed_point_residual():
    # at tol 1e-5 the accelerated iteration stalls near iteration 170: v
    # barely moves while G(x) - x stays large. A stop test on the split
    # residual and the change of v alone ended there, 1.4e-4 above the cost
    # at tol 1e-8, where plain and accelerated ADMM agree to 1e-11
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    mu = two_blobs(g, [(0.39, 0.50, 0.13), (0.38, 0.47, 0.11)])
    nu = two_blobs(g, [(0.62, 0.48, 0.125), (0.61, 0.46, 0.106)])
    res = solve_beckmann(mu, nu, CongestionSpec.monomial(1.0), g, tol=1e-5)
    assert res.converged
    assert res.cost == pytest.approx(0.2314186852283449, rel=2e-5)


def test_anderson_solves_a_small_linear_fixed_point():
    # on an affine map in dimension 4 < memory, type-II Anderson is GMRES
    # and ends at the fixed point after five images; plain iteration crawls
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    M = Q @ np.diag([0.5, 0.8, 0.95, 0.99]) @ Q.T
    b = rng.normal(size=4)
    fixed = np.linalg.solve(np.eye(4) - M, b)
    x, plain = np.zeros(4), np.zeros(4)
    acc = _Anderson(4)
    for _ in range(8):
        acc.next_state(x, M @ x + b)
        plain = M @ plain + b
    assert np.abs(x - fixed).max() <= 1e-9 * np.abs(fixed).max()
    assert np.abs(plain - fixed).max() >= 0.5 * np.abs(fixed).max()


def test_anderson_restarts_when_the_residual_grows():
    acc = _Anderson(3)
    x = np.zeros(3)
    acc.next_state(x, np.full(3, 1.0))
    acc.next_state(x, np.full(3, 1.5))
    assert acc.count == 1
    image = x + 10.0
    acc.next_state(x, image)  # the residual grows: the history goes, the image is taken
    assert acc.count == 0
    assert np.array_equal(x, image)


def test_beckmann_affine_threshold_kills_small_flows():
    # with H = a t + t^2/2 and far-apart small masses, the flow is zero-free
    # only where it must carry mass; the certificate stays a valid lower bound
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    mu, nu = random_densities(g, 9)
    res = solve_beckmann(mu, nu, CongestionSpec.affine_power(0.5, 2.0), g, tol=1e-8)
    assert res.converged
    assert res.dual_value <= res.cost + 1e-9 * (1 + abs(res.cost))


# -------------------------------------------------------------- rasterizers


def test_sigma_zero_length_segment():
    g = Grid(nx=10, ny=10, h=0.1)
    pts = np.array([[0.35, 0.35]])
    sigma = rasterize_transport_density(np.array([[1.0]]), pts, pts, g)
    assert sigma.total_mass == 0.0


def test_sigma_mass_identity_single_segment():
    g = Grid(nx=20, ny=20, h=0.05)
    sigma = rasterize_transport_density(np.array([[1.0]]),
                                        np.array([[0.25, 0.5]]), np.array([[0.75, 0.5]]), g)
    assert sigma.total_mass == pytest.approx(0.5, abs=1e-12)


def test_sigma_mass_identity_random_couplings():
    rng = np.random.default_rng(4)
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    for _ in range(5):
        m, n = rng.integers(2, 6, size=2)
        src = rng.uniform(0.05, 0.95, (m, 2))
        dst = rng.uniform(0.05, 0.95, (n, 2))
        plan = rng.random((m, n))
        sigma = rasterize_transport_density(plan, src, dst, g)
        expected = sum(plan[i, j] * np.linalg.norm(src[i] - dst[j])
                       for i in range(m) for j in range(n))
        assert sigma.total_mass == pytest.approx(expected, rel=1e-8)


def test_sigma_equals_w1_for_optimal_plan():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    mu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.2, 0.3], [0.2, 0.7]]))
    nu = DiscreteMeasure(weights=np.array([0.5, 0.5]), points=np.array([[0.8, 0.3], [0.8, 0.7]]))
    cost = lp_cost_matrix(mu, nu, 1.0)
    res = solve_discrete_ot(mu, nu, cost)
    sigma = rasterize_transport_density(res.coupling.plan, mu.points, nu.points, g)
    assert sigma.total_mass == pytest.approx(res.value, rel=1e-8)


def test_rasterize_rejects_outside_points():
    g = Grid(nx=8, ny=8, h=0.125)
    with pytest.raises(PointOutsideDomainError):
        rasterize_transport_density(np.array([[1.0]]), np.array([[1.5, 0.5]]),
                                    np.array([[0.5, 0.5]]), g)


def test_v_gamma_direction_and_cancellation():
    g = Grid(nx=20, ny=20, h=0.05)
    src = np.array([[0.25, 0.525]])
    dst = np.array([[0.75, 0.525]])
    v = rasterize_v_gamma(np.array([[1.0]]), src, dst, g)
    assert np.abs(v.vy).max() == 0.0
    assert v.vx.min() >= 0.0
    # two equal opposite segments cancel the flux but not the density
    v2 = rasterize_v_gamma(np.array([[1.0, 0.0], [0.0, 1.0]]),
                           np.vstack([src, dst]), np.vstack([dst, src]), g)
    sigma2 = rasterize_transport_density(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                         np.vstack([src, dst]), np.vstack([dst, src]), g)
    assert np.abs(v2.vx).max() <= 1e-12
    assert sigma2.total_mass == pytest.approx(1.0, rel=1e-12)


def test_v_gamma_weak_divergence():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    rng = np.random.default_rng(12)
    src = np.array([[0.2, 0.3]])
    dst = np.array([[0.8, 0.6]])
    v = rasterize_v_gamma(np.array([[1.0]]), src, dst, g)
    xc, yc = g.cell_centers()
    # linear test functions are reproduced exactly (no curvature term)
    for a, b in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4)):
        psi = a * xc + b * yc
        gx = (psi[1:, :] - psi[:-1, :]) / g.h
        gy = (psi[:, 1:] - psi[:, :-1]) / g.h
        lhs = (np.sum(v.vx[1:-1, :] * gx) + np.sum(v.vy[:, 1:-1] * gy)) * g.cell_area
        rhs = (a * (dst[0, 0] - src[0, 0]) + b * (dst[0, 1] - src[0, 1]))
        assert lhs == pytest.approx(rhs, abs=1e-10)
    # smooth test functions: error O(h * max curvature)
    for _ in range(20):
        cx_, cy_ = rng.uniform(0.2, 0.8, 2)
        freq = rng.uniform(1.0, 2.0)
        psi = np.sin(2 * np.pi * freq * (xc - cx_)) * np.cos(2 * np.pi * freq * (yc - cy_))
        curv = (2 * np.pi * freq) ** 2
        gx = (psi[1:, :] - psi[:-1, :]) / g.h
        gy = (psi[:, 1:] - psi[:, :-1]) / g.h
        lhs = (np.sum(v.vx[1:-1, :] * gx) + np.sum(v.vy[:, 1:-1] * gy)) * g.cell_area
        i0 = g.cell_of(*src[0])
        i1 = g.cell_of(*dst[0])
        rhs_exact = psi[i1] - psi[i0]
        assert abs(lhs - rhs_exact) <= 1.0 * g.h * curv


def test_v_gamma_bounded_by_sigma_on_faces():
    rng = np.random.default_rng(21)
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    for _ in range(5):
        m, n = rng.integers(1, 5, size=2)
        src = rng.uniform(0.05, 0.95, (m, 2))
        dst = rng.uniform(0.05, 0.95, (n, 2))
        plan = rng.random((m, n))
        v = rasterize_v_gamma(plan, src, dst, g)
        sigma = rasterize_transport_density(plan, src, dst, g).values
        face_sigma_x = 0.5 * (sigma[:-1, :] + sigma[1:, :])
        face_sigma_y = 0.5 * (sigma[:, :-1] + sigma[:, 1:])
        assert np.all(np.abs(v.vx[1:-1, :]) <= face_sigma_x + 1e-8)
        assert np.all(np.abs(v.vy[:, 1:-1]) <= face_sigma_y + 1e-8)


# ---------------------------------------------------------- weighted duality


def test_weighted_duality_uniform_weight():
    g = Grid(nx=32, ny=32, h=1.0 / 32)
    k1 = ScalarField.constant(g, 1.0)
    mu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.25, 0.5]]))
    nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.75, 0.5]]))
    rep = weighted_beckmann_duality_check(k1, mu, nu, g)
    assert rep.rel_err <= 0.083 + 2 * g.h


def test_weighted_duality_equal_measures():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    k1 = ScalarField.constant(g, 1.0)
    mu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.4, 0.5]]))
    rep = weighted_beckmann_duality_check(k1, mu, mu, g)
    assert rep.flow_value == pytest.approx(0.0, abs=1e-9)
    assert rep.geodesic_ot_value == pytest.approx(0.0, abs=1e-12)


def test_weighted_duality_homogeneity():
    g = Grid(nx=24, ny=24, h=1.0 / 24)
    mu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.25, 0.45]]))
    nu = DiscreteMeasure(weights=np.array([1.0]), points=np.array([[0.8, 0.45]]))
    r1 = weighted_beckmann_duality_check(ScalarField.constant(g, 1.0), mu, nu, g)
    r2 = weighted_beckmann_duality_check(ScalarField.constant(g, 2.0), mu, nu, g)
    assert r2.geodesic_ot_value == pytest.approx(2 * r1.geodesic_ot_value, rel=1e-8)
    assert r2.flow_value == pytest.approx(2 * r1.flow_value, rel=1e-6)


def test_grid_geodesic_octagonal_metric():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    k1 = ScalarField.constant(g, 1.0)
    d = grid_geodesic_distances(k1, g, [(0, 0)], [(15, 15), (15, 0)])
    # diagonal distance uses sqrt(2) steps, axis distance plain steps
    assert d[0, 0] == pytest.approx(15 * np.sqrt(2) * g.h, rel=1e-12)
    assert d[0, 1] == pytest.approx(15 * g.h, rel=1e-12)


def _geodesic_reference(kv, h, source):
    """Label-setting search over the 8-neighbor cells, one heap entry per
    improvement, with each edge length formed as grid_geodesic_distances does."""
    import heapq

    nx, ny = kv.shape
    dist = np.full((nx, ny), np.inf)
    dist[source] = 0.0
    heap = [(0.0, *source)]
    while heap:
        dv, cx, cy = heapq.heappop(heap)
        if dv > dist[cx, cy]:
            continue
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ax, ay = cx + dx, cy + dy
                if (dx, dy) == (0, 0) or not (0 <= ax < nx and 0 <= ay < ny):
                    continue
                step = np.sqrt(2.0) if dx and dy else 1.0
                nd = dv + 0.5 * (kv[cx, cy] + kv[ax, ay]) * step * h
                if nd < dist[ax, ay]:
                    dist[ax, ay] = nd
                    heapq.heappush(heap, (nd, ax, ay))
    return dist


def test_grid_geodesic_matches_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    for trial in range(12):
        g = Grid(nx=int(rng.integers(2, 9)), ny=int(rng.integers(1, 9)),
                 h=float(rng.uniform(0.05, 1.0)))
        kv = rng.uniform(0.1, 3.0, (g.nx, g.ny))
        if trial % 2:
            kv = np.round(kv)  # ties, and edges of length 0
        cells = [(int(rng.integers(g.nx)), int(rng.integers(g.ny))) for _ in range(3)]
        d = grid_geodesic_distances(ScalarField(kv, g), g, cells[:2], cells)
        for si, source in enumerate(cells[:2]):
            ref = _geodesic_reference(kv, g.h, source)
            assert [d[si, ti] for ti in range(3)] == [ref[c] for c in cells]


# ------------------------------------------------------------- trajectories


def test_trajectories_stationary_when_equal():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    mu, _ = random_densities(g, 2)
    traj = reconstruct_trajectories(VectorField.zeros(g), mu, mu, g,
                                    n_particles=500, n_steps=20, seed=1)
    assert np.abs(traj.intensity.values).max() == 0.0
    start = cloud_to_field(traj.endpoints, traj.weights, g)
    assert abs(start.total_mass - 1.0) <= 1e-9


def test_trajectories_one_dimensional_monotone():
    g = Grid(nx=32, ny=1, h=1.0 / 32)
    xc, _ = g.cell_centers()
    a = np.exp(-((xc - 0.25) / 0.08) ** 2) + 0.05
    b = np.exp(-((xc - 0.75) / 0.08) ** 2) + 0.05
    a /= a.sum() * g.cell_area
    b /= b.sum() * g.cell_area
    mu, nu = ScalarField(a, g), ScalarField(b, g)
    res = solve_beckmann(mu, nu, QUAD, g, tol=1e-10)
    assert res.v.vx.min() >= -1e-10  # mass only moves rightward
    rng_seed = 3
    traj = reconstruct_trajectories(res.v, mu, nu, g, n_particles=400, n_steps=100,
                                    seed=rng_seed)
    # re-run sampling to recover the initial positions deterministically
    from congested_transport.beckmann import stratified_sample

    pts0, _ = stratified_sample(mu, 400, np.random.default_rng(rng_seed))
    assert np.all(traj.endpoints[:, 0] >= pts0[:, 0] - 1e-9)


def test_trajectory_determinism():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    mu, nu = random_densities(g, 6)
    res = solve_beckmann(mu, nu, QUAD, g, tol=1e-8)
    t1 = reconstruct_trajectories(res.v, mu, nu, g, n_particles=200, n_steps=30, seed=9)
    t2 = reconstruct_trajectories(res.v, mu, nu, g, n_particles=200, n_steps=30, seed=9)
    assert np.array_equal(t1.endpoints, t2.endpoints)
    assert np.array_equal(t1.intensity.values, t2.intensity.values)


def test_field_w1_and_coarsen():
    g = Grid(nx=16, ny=16, h=1.0 / 16)
    xc, yc = g.cell_centers()
    a = np.zeros((16, 16)); a[4, 8] = 1.0 / g.cell_area
    b = np.zeros((16, 16)); b[12, 8] = 1.0 / g.cell_area
    d = field_w1(ScalarField(a, g), ScalarField(b, g))
    assert d == pytest.approx(8 * g.h, rel=1e-9)
    coarse = coarsen_field(ScalarField(a, g), 4)
    assert coarse.grid.nx == 4
    assert coarse.total_mass == pytest.approx(1.0, rel=1e-12)

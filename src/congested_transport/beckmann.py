"""Grid-discretized minimal flow problems: min sum_cells H(|v|) under a
discrete divergence constraint with no boundary flux, the quadratic case by a
single Neumann Poisson solve, the weighted-metric duality check against grid
geodesics, rasterized transport densities, and trajectory reconstruction.

Discretization: fluxes live on faces; the objective co-locates the four face
values of each cell through the root-mean-square norm
|V|_c = sqrt((vxL^2 + vxR^2 + vyB^2 + vyT^2)/2), which reproduces the
face-separable quadratic energy exactly (so the splitting solver and the
Poisson solver agree to solver precision for H(t) = t^2/2) while staying
isotropic for mass-flow costs.

Every Neumann Poisson solve, in the quadratic case and in each splitting
iteration, is one orthonormal DCT-II: it diagonalizes the staggered
five-point Laplacian, so each solve is exact and O(n log n) at any grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import heapq

import numpy as np

from .congestion import CongestionSpec
from .errors import (
    MassMismatchError,
    PointOutsideDomainError,
    ShapeMismatchError,
    SingularSystemError,
)
from .grids import Grid, ScalarField, VectorField
from .kantorovich import Coupling, DiscreteMeasure, pairwise_distances, solve_discrete_ot


class _StaggeredOps:
    """Slice stencils on the interior faces of an nx-by-ny grid: the divergence
    B, the per-cell face gather R and their adjoints, plus the Neumann Poisson
    solve of BB^T x = rhs by an orthonormal DCT-II, which diagonalizes BB^T.

    A face vector w stacks the interior x-faces (nx-1, ny) and then the
    interior y-faces (nx, ny-1), both x-major; cells are x-major too.
    """

    def __init__(self, nx: int, ny: int, h: float):
        from scipy import fft  # only the grid flow solvers need it

        self.nx, self.ny, self.h = nx, ny, h
        self.nfx = (nx - 1) * ny
        self.n_faces = self.nfx + nx * (ny - 1)
        kx = 2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)
        ky = 2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)
        self._eig = (kx[:, None] + ky[None, :]) / (h * h)
        self._eig[0, 0] = np.inf  # the constants span the null space: drop that mode
        self._dctn, self._idctn = fft.dctn, fft.idctn

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve BB^T x = rhs (rhs must sum to ~0); x pinned at cell 0."""
        shape = (self.nx, self.ny)
        xhat = self._dctn(rhs.reshape(shape), norm="ortho") / self._eig
        x = self._idctn(xhat, norm="ortho").ravel()
        return x - x[0]

    def _split(self, w: np.ndarray):
        nx, ny = self.nx, self.ny
        return w[: self.nfx].reshape(nx - 1, ny), w[self.nfx:].reshape(nx, ny - 1)

    def div(self, w: np.ndarray) -> np.ndarray:
        """B w: the cell divergence, boundary faces carrying no flux."""
        fx, fy = self._split(w)
        d = np.zeros((self.nx, self.ny))
        d[:-1, :] += fx
        d[1:, :] -= fx
        d[:, :-1] += fy
        d[:, 1:] -= fy
        return d.ravel() / self.h

    def div_adjoint(self, x: np.ndarray) -> np.ndarray:
        """B^T x: minus the face gradient of a cell field."""
        x = x.reshape(self.nx, self.ny)
        return np.concatenate([(x[:-1, :] - x[1:, :]).ravel(),
                               (x[:, :-1] - x[:, 1:]).ravel()]) / self.h

    def gather(self, w: np.ndarray) -> np.ndarray:
        """R w: the (n_cells, 4) left, right, bottom, top faces of each cell."""
        fx, fy = self._split(w)
        out = np.zeros((self.nx, self.ny, 4))
        out[1:, :, 0] = fx
        out[:-1, :, 1] = fx
        out[:, 1:, 2] = fy
        out[:, :-1, 3] = fy
        return out.reshape(-1, 4)

    def gather_adjoint(self, z: np.ndarray) -> np.ndarray:
        """R^T z: each interior face sums its entries in its two cells."""
        z = z.reshape(self.nx, self.ny, 4)
        return np.concatenate([(z[1:, :, 0] + z[:-1, :, 1]).ravel(),
                               (z[:, 1:, 2] + z[:, :-1, 3]).ravel()])

    def faces_of(self, v: VectorField) -> np.ndarray:
        return np.concatenate([v.vx[1:-1, :].ravel(), v.vy[:, 1:-1].ravel()])

    def field_of(self, w: np.ndarray, grid: Grid) -> VectorField:
        fx, fy = self._split(w)
        vx = np.zeros((self.nx + 1, self.ny))
        vy = np.zeros((self.nx, self.ny + 1))
        vx[1:-1, :] = fx
        vy[:, 1:-1] = fy
        return VectorField(vx, vy, grid)


@lru_cache(maxsize=16)
def _ops(grid: Grid) -> _StaggeredOps:
    return _StaggeredOps(grid.nx, grid.ny, grid.h)


def _difference_density(mu: ScalarField, nu: ScalarField, grid: Grid) -> np.ndarray:
    if mu.grid != grid or nu.grid != grid:
        raise ShapeMismatchError("fields live on a different grid")
    imbalance = abs(mu.total_mass - nu.total_mass)
    if imbalance > 1e-10 * max(1.0, mu.total_mass, nu.total_mass):
        raise MassMismatchError(f"field masses differ by {imbalance}")
    f = (mu.values - nu.values).ravel()
    return f - f.mean()  # exact discrete compatibility


def solve_dual_quadratic(mu: ScalarField, nu: ScalarField, grid: Grid):
    """Quadratic-cost minimal flow via the Neumann Poisson problem.

    Returns (u, v): u is the zero-mean potential with discrete Laplacian
    mu - nu, and v is its face gradient, which satisfies div v = mu - nu to
    rounding error.
    """
    ops = _ops(grid)
    f = _difference_density(mu, nu, grid)
    x = ops.solve_poisson(-f)
    resid = float(np.abs(ops.div(ops.div_adjoint(x)) + f).max(initial=0.0))
    if resid > 1e-6 * (1.0 + np.abs(f).max(initial=0.0)):
        raise SingularSystemError(f"Poisson residual {resid} too large")
    x = x - x.mean()
    v = ops.field_of(-ops.div_adjoint(x), grid)
    u = ScalarField(x.reshape(grid.nx, grid.ny), grid)
    return u, v


def _rms_norms(p4: np.ndarray) -> np.ndarray:
    """|.|_w per cell for the stacked (n_cells, 4) gathered faces."""
    return np.sqrt(0.5 * np.sum(np.square(p4), axis=1))


@dataclass
class BeckmannResult:
    v: VectorField
    cost: float
    iterations: int
    converged: bool
    div_residual: float
    split_residual: float
    dual_value: float
    certificate_gap: float
    multiplier: ScalarField


def solve_beckmann(mu: ScalarField, nu: ScalarField, spec: CongestionSpec, grid: Grid,
                   tol: float = 1e-6, max_iter: int = 20000,
                   cell_weights: np.ndarray | None = None) -> BeckmannResult:
    """Minimal congested flow: min h^2 sum_c w_c H(|V|_c) s.t. div v = mu - nu.

    Splitting scheme: every iteration projects onto the divergence constraint
    (one Neumann Poisson solve by a discrete cosine transform) and applies
    the proximal map of H to the co-located face magnitudes. Stops when the
    split residual and the iterate change both fall below tol. The returned
    certificate is the Fenchel dual value at a multiplier field recovered
    from the converged subgradient.
    """
    ops = _ops(grid)
    f = _difference_density(mu, nu, grid)
    n_cells = grid.n_cells
    w = np.ones(n_cells) if cell_weights is None else np.asarray(cell_weights, dtype=float).ravel()
    if w.shape != (n_cells,):
        raise ShapeMismatchError("cell_weights must have one entry per cell")
    h2 = grid.cell_area

    if np.abs(f).max(initial=0.0) == 0.0:
        vf = VectorField.zeros(grid)
        return BeckmannResult(vf, 0.0, 0, True, 0.0, 0.0, 0.0, 0.0, ScalarField.zeros(grid))

    rho = h2 * float(np.mean(w))

    # feasible warm start from the quadratic solution
    _, v0 = solve_dual_quadratic(mu, nu, grid)
    v = ops.faces_of(v0)
    q = ops.gather(v)
    lam = np.zeros_like(q)

    def project(zstack):
        """v-step: least squares onto {div v = f} given the gather target."""
        rtz = ops.gather_adjoint(zstack)
        pi = ops.solve_poisson(ops.div(rtz) - 2.0 * f)
        return 0.5 * (rtz - ops.div_adjoint(pi))

    converged = False
    split_res = np.inf
    change = np.inf
    it = 0
    check_every = 10
    for it in range(1, max_iter + 1):
        v_prev = v
        v = project(q - lam)
        rv = ops.gather(v)
        z2 = rv + lam
        m = _rms_norms(z2)
        tau = h2 * w / (2.0 * rho)
        s_star = spec.prox(m, tau)
        scale = np.where(m > 0, s_star / np.maximum(m, 1e-300), 0.0)
        q_prev = q
        q = z2 * scale[:, None]
        lam = lam + rv - q

        if it % check_every == 0 or it == max_iter:
            split_res = float(np.abs(rv - q).max(initial=0.0))
            change = float(np.abs(v - v_prev).max(initial=0.0))
            vscale = max(1.0, float(np.abs(v).max(initial=0.0)))
            if split_res <= tol * vscale and change <= tol * vscale:
                converged = True
                break
            # residual balancing keeps the two ADMM residuals comparable
            r_pri = float(np.linalg.norm(rv - q))
            r_dua = float(rho * np.linalg.norm(q - q_prev))
            if r_pri > 10.0 * r_dua and r_dua > 0:
                rho *= 2.0
                lam /= 2.0
            elif r_dua > 10.0 * r_pri and r_pri > 0:
                rho /= 2.0
                lam *= 2.0

    v_final = project(q - lam)  # exact feasibility of the returned flow
    cost = float(h2 * np.dot(w, spec.H(_rms_norms(ops.gather(v_final)))))

    # multiplier field from the converged subgradient s_c = h^2 w g(m) q_c/(2m)
    m_q = _rms_norms(q)
    gm = spec.g(m_q)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(m_q > 0, h2 * w * gm / (2.0 * np.maximum(m_q, 1e-300)), 0.0)
    s = q * coef[:, None]
    y = ops.solve_poisson(ops.div(ops.gather_adjoint(s)))
    dual = _dual_value(ops, spec, y, f, w, h2)
    cert_gap = (cost - dual) / max(abs(cost), 1e-300)

    vf = ops.field_of(v_final, grid)
    div_res = float(np.abs(ops.div(v_final) - f).max(initial=0.0))
    mult = ScalarField(y.reshape(grid.nx, grid.ny), grid)
    return BeckmannResult(vf, cost, it, converged, div_res, split_res, dual, cert_gap, mult)


def _dual_value(ops, spec: CongestionSpec, y: np.ndarray, f: np.ndarray,
                w: np.ndarray, h2: float) -> float:
    """Fenchel lower bound <y, f> - h^2 sum_c w_c H*(|gathered grad y|_w / (h^2 w_c))."""
    arg = _rms_norms(ops.gather(ops.div_adjoint(y))) / (h2 * w)
    if spec.p == 1.0:
        # bounded conjugate domain arg <= 1 + a: shrink y onto it so the bound stays finite
        amax = float(arg.max(initial=0.0))
        if amax > 1.0 + spec.a:
            y = y / (amax / (1.0 + spec.a))
        return float(np.dot(y, f))
    conj = spec.conjugate(arg)
    return float(np.dot(y, f) - h2 * np.dot(w, conj))


# ---------------------------------------------------------------------------
# Rasterization of couplings into transport densities and flux fields.

def _segment_pieces(p0, p1, grid: Grid):
    """Split segment [p0, p1] at grid lines; yields (ix, iy, length) pieces."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    seg_len = float(np.hypot(d[0], d[1]))
    if seg_len == 0.0:
        return []
    ts = [0.0, 1.0]
    for axis, n_lines in ((0, grid.nx), (1, grid.ny)):
        if d[axis] == 0.0:
            continue
        for k in range(1, n_lines):
            t = (k * grid.h - p0[axis]) / d[axis]
            if 0.0 < t < 1.0:
                ts.append(t)
    ts = sorted(set(ts))
    pieces = []
    for ta, tb in zip(ts[:-1], ts[1:]):
        if tb - ta <= 1e-15:
            continue
        mid = p0 + 0.5 * (ta + tb) * d
        ix, iy = grid.cell_of(mid[0], mid[1])
        pieces.append((ix, iy, seg_len * (tb - ta)))
    return pieces


def _as_plan(coupling) -> np.ndarray:
    if isinstance(coupling, Coupling):
        return coupling.plan
    return np.asarray(coupling, dtype=float)


def _check_points_inside(pts, grid: Grid, name: str):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not grid.contains(pts).all():
        raise PointOutsideDomainError(f"{name} points outside the grid domain")
    return pts


def rasterize_transport_density(coupling, src_pts, dst_pts, grid: Grid) -> ScalarField:
    """Deposit each coupling entry's mass along its straight segment, split by
    exact segment-cell clipping, as a density (mass / h^2 per unit length).

    The resulting total mass h^2 * sum equals sum_{x,y} plan(x,y) |x-y|.
    """
    plan = _as_plan(coupling)
    src_pts = _check_points_inside(src_pts, grid, "source")
    dst_pts = _check_points_inside(dst_pts, grid, "destination")
    vals = np.zeros((grid.nx, grid.ny))
    ii, jj = np.nonzero(plan > 0)
    for i, j in zip(ii, jj):
        mass = plan[i, j]
        for ix, iy, ln in _segment_pieces(src_pts[i], dst_pts[j], grid):
            vals[ix, iy] += mass * ln / grid.cell_area
    return ScalarField(vals, grid)


def rasterize_v_gamma(coupling, src_pts, dst_pts, grid: Grid) -> VectorField:
    """Signed flux rasterization of a coupling: each segment piece deposits
    mass * direction * length, halved onto the two faces of its cell per axis.
    Halves aimed at a boundary face are dropped, which keeps the no-flux
    invariant exactly and preserves the face bound |v| <= averaged density."""
    plan = _as_plan(coupling)
    src_pts = _check_points_inside(src_pts, grid, "source")
    dst_pts = _check_points_inside(dst_pts, grid, "destination")
    nx, ny = grid.nx, grid.ny
    vx = np.zeros((nx + 1, ny))
    vy = np.zeros((nx, ny + 1))
    ii, jj = np.nonzero(plan > 0)
    for i, j in zip(ii, jj):
        mass = plan[i, j]
        d = dst_pts[j] - src_pts[i]
        seg_len = float(np.hypot(d[0], d[1]))
        if seg_len == 0.0:
            continue
        u = d / seg_len
        for ix, iy, ln in _segment_pieces(src_pts[i], dst_pts[j], grid):
            amt_x = 0.5 * mass * u[0] * ln / grid.cell_area
            amt_y = 0.5 * mass * u[1] * ln / grid.cell_area
            if ix > 0:
                vx[ix, iy] += amt_x
            if ix + 1 < nx:
                vx[ix + 1, iy] += amt_x
            if iy > 0:
                vy[ix, iy] += amt_y
            if iy + 1 < ny:
                vy[ix, iy + 1] += amt_y
    return VectorField(vx, vy, grid)


# ---------------------------------------------------------------------------
# Weighted-metric duality: flow value vs geodesic transport value.

def grid_geodesic_distances(k: ScalarField, grid: Grid, source_cells, target_cells) -> np.ndarray:
    """Shortest-path distances on the 8-neighbor cell graph with edge length
    (k average of the endpoints) times the Euclidean step."""
    nx, ny = grid.nx, grid.ny
    kv = k.values
    nbrs = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
            (-1, -1, np.sqrt(2.0)), (-1, 1, np.sqrt(2.0)),
            (1, -1, np.sqrt(2.0)), (1, 1, np.sqrt(2.0))]
    out = np.empty((len(source_cells), len(target_cells)))
    for si, (sx, sy) in enumerate(source_cells):
        dist = np.full((nx, ny), np.inf)
        dist[sx, sy] = 0.0
        heap = [(0.0, sx, sy)]
        while heap:
            dv, cx, cy = heapq.heappop(heap)
            if dv > dist[cx, cy]:
                continue
            for dx, dy, st in nbrs:
                ax, ay = cx + dx, cy + dy
                if not (0 <= ax < nx and 0 <= ay < ny):
                    continue
                nd = dv + 0.5 * (kv[cx, cy] + kv[ax, ay]) * st * grid.h
                if nd < dist[ax, ay]:
                    dist[ax, ay] = nd
                    heapq.heappush(heap, (nd, ax, ay))
        for ti, (tx, ty) in enumerate(target_cells):
            out[si, ti] = dist[tx, ty]
    return out


@dataclass
class WeightedDualityReport:
    flow_value: float
    geodesic_ot_value: float
    rel_err: float


def measure_to_field(measure: DiscreteMeasure, grid: Grid) -> tuple[ScalarField, list]:
    """Deposit point masses into their cells as densities; also returns the
    distinct cell list in point order."""
    pts = _check_points_inside(measure.points, grid, "measure")
    vals = np.zeros((grid.nx, grid.ny))
    cells = []
    for (x, y), wgt in zip(pts, measure.weights):
        ix, iy = grid.cell_of(x, y)
        vals[ix, iy] += wgt / grid.cell_area
        cells.append((ix, iy))
    return ScalarField(vals, grid), cells


def weighted_beckmann_duality_check(k: ScalarField, mu: DiscreteMeasure, nu: DiscreteMeasure,
                                    grid: Grid, tol: float = 1e-6) -> WeightedDualityReport:
    """Compare the weighted minimal-flow value min sum k|v| with the transport
    value for the geodesic ground metric d_k, computed on the 8-neighbor grid
    graph. Agreement is limited by O(h) smearing plus the octagonal-metric
    distortion of the 8-neighbor graph (<= ~8.3 percent)."""
    if float(k.values.min()) <= 0:
        raise ShapeMismatchError("weight field k must be strictly positive")
    mu_f, mu_cells = measure_to_field(mu, grid)
    nu_f, nu_cells = measure_to_field(nu, grid)
    # the objective is 1-homogeneous in k: normalizing the weight scale keeps
    # the solver trajectory identical across rescaled inputs
    k_scale = float(k.values.mean())
    flow = solve_beckmann(mu_f, nu_f, CongestionSpec.monomial(1.0), grid, tol=tol,
                          cell_weights=k.values.ravel() / k_scale)
    dmat = grid_geodesic_distances(k, grid, mu_cells, nu_cells)
    ot = solve_discrete_ot(mu, nu, dmat)
    flow_value = k_scale * flow.cost
    denom = max(abs(ot.value), 1e-300)
    return WeightedDualityReport(
        flow_value=flow_value,
        geodesic_ot_value=ot.value,
        rel_err=abs(flow_value - ot.value) / denom,
    )


# ---------------------------------------------------------------------------
# Trajectory reconstruction from an optimal flow.

@dataclass
class TrajectoryResult:
    endpoints: np.ndarray
    weights: np.ndarray
    intensity: ScalarField
    midpoints: np.ndarray
    floor_hits: int
    escapes: int


def _bilinear(values: np.ndarray, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a cell-centered array at arbitrary points,
    clamped to the center lattice at the boundary."""
    nx, ny = values.shape
    gx = np.clip(pts[:, 0] / grid.h - 0.5, 0.0, nx - 1.0)
    gy = np.clip(pts[:, 1] / grid.h - 0.5, 0.0, ny - 1.0)
    ix = np.minimum(gx.astype(np.int64), nx - 2) if nx > 1 else np.zeros(len(pts), dtype=np.int64)
    iy = np.minimum(gy.astype(np.int64), ny - 2) if ny > 1 else np.zeros(len(pts), dtype=np.int64)
    fx = gx - ix
    fy = gy - iy
    if nx == 1:
        fx = np.zeros_like(fx)
    if ny == 1:
        fy = np.zeros_like(fy)
    ix1 = np.minimum(ix + 1, nx - 1)
    iy1 = np.minimum(iy + 1, ny - 1)
    v00 = values[ix, iy]
    v10 = values[ix1, iy]
    v01 = values[ix, iy1]
    v11 = values[ix1, iy1]
    return (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy + v11 * fx * fy)


def stratified_sample(mu: ScalarField, n_particles: int, rng: np.random.Generator):
    """Deterministic per-cell particle counts (largest remainder) with seeded
    uniform jitter inside each cell; weights carry the cell mass."""
    grid = mu.grid
    masses = (mu.values * grid.cell_area).ravel()
    total = masses.sum()
    if total <= 0:
        raise MassMismatchError("cannot sample from a zero measure")
    quota = n_particles * masses / total
    counts = np.floor(quota).astype(np.int64)
    short = n_particles - int(counts.sum())
    if short > 0:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    pts = []
    wts = []
    for c in np.nonzero(counts)[0]:
        k = int(counts[c])
        ix, iy = divmod(int(c), grid.ny)
        jitter = rng.random((k, 2))
        cell_pts = (np.array([ix, iy]) + jitter) * grid.h
        pts.append(cell_pts)
        wts.append(np.full(k, masses[c] / k))
    points = np.vstack(pts)
    weights = np.concatenate(wts)
    # cells too light to earn a particle lose their mass to rescaling so the
    # cloud carries the full measure
    weights *= total / weights.sum()
    return points, weights


def reconstruct_trajectories(v: VectorField, mu: ScalarField, nu: ScalarField, grid: Grid,
                             n_particles: int = 10000, n_steps: int = 200,
                             seed: int = 0) -> TrajectoryResult:
    """Advect particles sampled from mu along w(t, x) = v(x) / rho_t(x) with
    rho_t = (1-t) mu + t nu, fourth-order time stepping, and bilinear velocity
    interpolation. Returns terminal positions, the mid-time cloud, and the
    accumulated path intensity (deposited |dx| per cell per unit area).

    The interpolated density is clamped at 1e-6 of its peak (clamps counted in
    floor_hits); particles leaving the domain reflect and are counted.
    """
    if v.grid != grid or mu.grid != grid or nu.grid != grid:
        raise ShapeMismatchError("inputs live on different grids")
    cx, cy = v.cell_averages()
    floor = 1e-6 * max(float(mu.values.max(initial=0.0)), float(nu.values.max(initial=0.0)))
    rng = np.random.default_rng(seed)
    pts, wts = stratified_sample(mu, n_particles, rng)
    lx, ly = grid.extent

    floor_hits = 0
    escapes = 0
    intensity = np.zeros((grid.nx, grid.ny))

    def velocity(t, p):
        nonlocal floor_hits
        rho = (1.0 - t) * _bilinear(mu.values, grid, p) + t * _bilinear(nu.values, grid, p)
        clamped = rho < floor
        floor_hits += int(np.count_nonzero(clamped))
        rho = np.maximum(rho, floor)
        return np.column_stack([_bilinear(cx, grid, p), _bilinear(cy, grid, p)]) / rho[:, None]

    dt = 1.0 / n_steps
    midpoints = None
    for step in range(n_steps):
        t = step * dt
        k1 = velocity(t, pts)
        k2 = velocity(t + 0.5 * dt, pts + 0.5 * dt * k1)
        k3 = velocity(t + 0.5 * dt, pts + 0.5 * dt * k2)
        k4 = velocity(t + dt, pts + dt * k3)
        new = pts + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        # reflect at the walls; count particles that needed it
        out = (new[:, 0] < 0) | (new[:, 0] > lx) | (new[:, 1] < 0) | (new[:, 1] > ly)
        escapes += int(np.count_nonzero(out))
        for _ in range(4):
            new[:, 0] = np.where(new[:, 0] < 0, -new[:, 0], new[:, 0])
            new[:, 0] = np.where(new[:, 0] > lx, 2 * lx - new[:, 0], new[:, 0])
            new[:, 1] = np.where(new[:, 1] < 0, -new[:, 1], new[:, 1])
            new[:, 1] = np.where(new[:, 1] > ly, 2 * ly - new[:, 1], new[:, 1])
        new[:, 0] = np.clip(new[:, 0], 0.0, lx)
        new[:, 1] = np.clip(new[:, 1], 0.0, ly)

        seg = np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1])
        mid = 0.5 * (pts + new)
        ixm = np.clip((mid[:, 0] / grid.h).astype(np.int64), 0, grid.nx - 1)
        iym = np.clip((mid[:, 1] / grid.h).astype(np.int64), 0, grid.ny - 1)
        np.add.at(intensity, (ixm, iym), wts * seg / grid.cell_area)

        pts = new
        if step + 1 == n_steps // 2:
            midpoints = pts.copy()

    if midpoints is None:
        midpoints = pts.copy()
    return TrajectoryResult(
        endpoints=pts,
        weights=wts,
        intensity=ScalarField(intensity, grid),
        midpoints=midpoints,
        floor_hits=floor_hits,
        escapes=escapes,
    )


def cloud_to_field(points: np.ndarray, weights: np.ndarray, grid: Grid) -> ScalarField:
    """Histogram a weighted point cloud into a cell-centered density."""
    pts = np.atleast_2d(points)
    ix = np.clip((pts[:, 0] / grid.h).astype(np.int64), 0, grid.nx - 1)
    iy = np.clip((pts[:, 1] / grid.h).astype(np.int64), 0, grid.ny - 1)
    vals = np.zeros((grid.nx, grid.ny))
    np.add.at(vals, (ix, iy), np.asarray(weights, dtype=float) / grid.cell_area)
    return ScalarField(vals, grid)


def coarsen_field(field: ScalarField, factor: int) -> ScalarField:
    """Block-average a field onto a grid coarsened by an integer factor."""
    g = field.grid
    if g.nx % factor or g.ny % factor:
        raise ShapeMismatchError("coarsening factor must divide the grid size")
    coarse = Grid(nx=g.nx // factor, ny=g.ny // factor, h=g.h * factor)
    vals = field.values.reshape(coarse.nx, factor, coarse.ny, factor).mean(axis=(1, 3))
    return ScalarField(vals, coarse)


def field_w1(a: ScalarField, b: ScalarField, max_cells: int = 400) -> float:
    """W_1 between two grid densities of equal mass, computed exactly on cell
    centers (coarsen first so the transport stays at desk scale)."""
    grid = a.grid
    if b.grid != grid:
        raise ShapeMismatchError("fields live on different grids")
    factor = 1
    while (grid.nx // factor) * (grid.ny // factor) > max_cells:
        factor *= 2
        if grid.nx % factor or grid.ny % factor:
            raise ShapeMismatchError("grid not coarsenable to the requested size")
    if factor > 1:
        a = coarsen_field(a, factor)
        b = coarsen_field(b, factor)
        grid = a.grid
    wa = (a.values * grid.cell_area).ravel()
    wb = (b.values * grid.cell_area).ravel()
    wb *= wa.sum() / wb.sum()
    pts = grid.cell_points()
    keep_a = wa > 0
    keep_b = wb > 0
    mu = DiscreteMeasure(weights=wa[keep_a], points=pts[keep_a])
    nu = DiscreteMeasure(weights=wb[keep_b], points=pts[keep_b])
    return solve_discrete_ot(mu, nu, pairwise_distances(mu.points, nu.points)).value

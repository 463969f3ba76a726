"""Grid-discretized minimal flow problems: min sum_cells H(|v|) under a
discrete divergence constraint with no boundary flux, the quadratic case by a
single Neumann Poisson solve, the weighted-metric duality check against grid
geodesics, rasterized transport densities, and trajectory reconstruction.
The exact transport value of a grid density (``field_transport_value``, which
``field_w1`` and ``urbanplan.eval_total`` call) runs on block sums placed at
block centers (``block_points``), at most EXACT_OT_MAX_POINTS per density.

Discretization: fluxes live on faces; the objective co-locates the four face
values of each cell by the root-mean-square norm of grids, which reproduces
the face-separable quadratic energy exactly (so the splitting solver and the
Poisson solver agree to solver precision for H(t) = t^2/2) while staying
isotropic for mass-flow costs.

Every Neumann Poisson solve, in the quadratic case and in each splitting
iteration, is one orthonormal DCT-II: it diagonalizes the staggered
five-point Laplacian, so each solve is exact and O(n log n) at any grid size.

The splitting is ADMM with residual balancing. For p > 1 it takes plain
steps (20-300 iterations on the 48^2 and 128^2 benchmark cases). At p = 1
the prox is a shrink and plain ADMM crawls (6,160 iterations on the 32^2
two-blob benchmark case), so each step is mixed by type-II Anderson
acceleration of memory 5 on the state (q, lam), restarted whenever the
fixed-point residual grows, whenever rho changes and every 100 steps; the
same case then takes 550-950 iterations, each still one Poisson solve. The
stop test bounds the fixed-point residual, not only the change of the flow,
so a stalled accelerated iteration does not pass for a converged one.

Optimality is certified by the Fenchel dual: the sup of -<phi, mu - nu> -
sum_c h^2 w_c H*(|z_c|_* / (h^2 w_c)) over cell potentials phi and gathered
face fields z whose face sums R^T z are the face gradient of phi. The pair is
read off the last ADMM multiplier by one more Poisson solve (see
``solve_beckmann``). Its gap falls with the solver's error and vanishes when
the flow is fixed by its divergence, as on an n-by-1 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .congestion import CongestionSpec
from .errors import (
    CongestedTransportError,
    InputFormatError,
    MassMismatchError,
    PointOutsideDomainError,
    ShapeMismatchError,
    SingularSystemError,
)
from .grids import Grid, ScalarField, VectorField, _cell_rms, _divergence
from .kantorovich import Coupling, DiscreteMeasure, lp_cost_matrix, solve_discrete_ot


class _StaggeredOps:
    """Slice stencils on an nx-by-ny grid: the divergence B, the per-cell face
    gather R and their adjoints, plus the Neumann Poisson solve of BB^T x = rhs
    by an orthonormal DCT-II, which diagonalizes BB^T.

    A face field is the pair of arrays of a VectorField: fx (nx+1, ny) and
    fy (nx, ny+1), whose boundary rows stay zero. A cell field is an (nx, ny)
    array. Gathered values are a (4, nx, ny) stack of the left, right, bottom
    and top face of every cell. Every ``out`` argument is a face pair that is
    written in place.
    """

    def __init__(self, nx: int, ny: int, h: float):
        from scipy import fft  # only the grid flow solvers need it

        self.nx, self.ny, self.h = nx, ny, h
        kx = 2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)
        ky = 2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)
        self._eig = (kx[:, None] + ky[None, :]) / (h * h)
        self._eig[0, 0] = np.inf  # the constants span the null space: drop that mode
        self._dctn, self._idctn = fft.dctn, fft.idctn

    def solve_poisson(self, rhs: np.ndarray) -> np.ndarray:
        """Solve BB^T x = rhs (rhs must sum to ~0); x pinned at cell 0."""
        xhat = self._dctn(rhs, norm="ortho")
        xhat /= self._eig
        x = self._idctn(xhat, norm="ortho")
        x -= x[0, 0]
        return x

    def faces(self) -> tuple[np.ndarray, np.ndarray]:
        """A zero face field."""
        return np.zeros((self.nx + 1, self.ny)), np.zeros((self.nx, self.ny + 1))

    def div(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """B v: the cell divergence, boundary faces carrying no flux."""
        return _divergence(fx, fy, self.h)

    def div_adjoint(self, x: np.ndarray, out=None):
        """B^T x: minus the face gradient of a cell field."""
        fx, fy = self.faces() if out is None else out
        np.subtract(x[:-1], x[1:], out=fx[1:-1])
        np.subtract(x[:, :-1], x[:, 1:], out=fy[:, 1:-1])
        fx[1:-1] /= self.h
        fy[:, 1:-1] /= self.h
        return fx, fy

    @staticmethod
    def planes(fx: np.ndarray, fy: np.ndarray):
        """R v as views: the left, right, bottom and top face of every cell."""
        return fx[:-1], fx[1:], fy[:, :-1], fy[:, 1:]

    def gather(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """R v: the (4, nx, ny) stack of the faces of each cell."""
        return np.stack(self.planes(fx, fy))

    def gather_adjoint(self, z: np.ndarray, out=None):
        """R^T z: each interior face sums its entries in its two cells."""
        fx, fy = self.faces() if out is None else out
        np.add(z[0, 1:], z[1, :-1], out=fx[1:-1])
        np.add(z[2, :, 1:], z[3, :, :-1], out=fy[:, 1:-1])
        return fx, fy


@lru_cache(maxsize=16)
def _ops(grid: Grid) -> _StaggeredOps:
    return _StaggeredOps(grid.nx, grid.ny, grid.h)


def _difference_density(mu: ScalarField, nu: ScalarField, grid: Grid) -> np.ndarray:
    if mu.grid != grid or nu.grid != grid:
        raise ShapeMismatchError("fields live on a different grid")
    imbalance = abs(mu.total_mass - nu.total_mass)
    if imbalance > 1e-10 * max(mu.total_mass, nu.total_mass):
        raise MassMismatchError(f"field masses differ by {imbalance}")
    f = (mu.values - nu.values).ravel()  # x-major, whatever the layout of the values
    return (f - f.mean()).reshape(grid.nx, grid.ny)  # exact discrete compatibility


def solve_dual_quadratic(mu: ScalarField, nu: ScalarField, grid: Grid):
    """Quadratic-cost minimal flow via the Neumann Poisson problem.

    Returns (u, v): u is the zero-mean potential with discrete Laplacian
    mu - nu, and v is its face gradient, which satisfies div v = mu - nu to
    rounding error.
    """
    ops = _ops(grid)
    f = _difference_density(mu, nu, grid)
    x = ops.solve_poisson(-f)
    resid = float(np.abs(ops.div(*ops.div_adjoint(x)) + f).max(initial=0.0))
    if resid > 1e-6 * (1.0 + np.abs(f).max(initial=0.0)):
        raise SingularSystemError(f"Poisson residual {resid} too large")
    x = x - x.mean()
    vx, vy = ops.div_adjoint(x)
    for face in (vx[1:-1], vy[:, 1:-1]):
        np.negative(face, out=face)
    return ScalarField(x, grid), VectorField(vx, vy, grid)


@dataclass
class BeckmannResult:
    v: VectorField
    cost: float
    iterations: int
    converged: bool
    div_residual: float
    split_residual: float
    dual_value: float  # a lower bound on the optimal cost
    certificate_gap: float  # (cost - dual_value) / |cost|
    multiplier: ScalarField  # phi, the dual potential of div v = mu - nu


# Anderson acceleration of the p = 1 iteration (Walker & Ni, SIAM J. Numer.
# Anal. 2011; Zhang, Peng, Ouyang & Deng, ACM TOG 2019)
ANDERSON_MEMORY = 5  # residual differences kept
ANDERSON_PERIOD = 100  # steps between restarts of the history
ANDERSON_RIDGE = 1e-10  # Tikhonov term of the small least squares, relative to its scale


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of all entries, by numpy einsum: a BLAS dot (np.dot,
    np.linalg.norm) splits long sums among its threads, so its last bits
    depend on the thread count."""
    x = x.ravel()
    return float(np.sqrt(np.einsum("i,i", x, x)))


class _Anderson:
    """Type-II Anderson mixing of a fixed-point map G on flat states.

    Given x and G(x), the next state is G(x) - dG gamma, where gamma fits the
    residual f = G(x) - x by the last differences dF of residuals in least
    squares and dG are the matching differences of images. The history
    restarts when the residual norm grows (the safeguard), on ``restart()``,
    and every ANDERSON_PERIOD steps, since a full history can stall: x then
    barely moves while f stays large. Every reduction is a numpy einsum, not
    a BLAS call, so its bits do not depend on the number of BLAS threads.
    """

    def __init__(self, size: int):
        self.dF = np.empty((ANDERSON_MEMORY, size))
        self.dG = np.empty((ANDERSON_MEMORY, size))
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.restart()

    def restart(self) -> None:
        self.count = 0  # differences held
        self.slot = 0  # where the next difference goes
        self.age = 0  # steps since the restart
        self.f_last = self.g_last = None
        self.res_last = np.inf

    def next_state(self, x: np.ndarray, gx: np.ndarray) -> None:
        """Overwrite x with the state after it, given gx = G(x)."""
        f = gx - x
        res = float(np.einsum("i,i", f, f))
        if res > self.res_last or self.age == ANDERSON_PERIOD:
            self.restart()
        self.age += 1
        if self.f_last is not None:
            k = self.slot
            np.subtract(f, self.f_last, out=self.dF[k])
            np.subtract(gx, self.g_last, out=self.dG[k])
            self.count = min(self.count + 1, ANDERSON_MEMORY)
            self.slot = (k + 1) % ANDERSON_MEMORY
            n = self.count
            self.gram[k, :n] = self.gram[:n, k] = np.einsum("ij,j->i", self.dF[:n], self.dF[k])
        self.f_last, self.g_last, self.res_last = f, gx.copy(), res
        n = self.count
        gram = self.gram[:n, :n]
        ridge = ANDERSON_RIDGE * float(np.trace(gram)) / max(n, 1)
        if not np.finfo(float).tiny < ridge < np.inf:  # no history, or one at the float limits
            np.copyto(x, gx)
            return
        gamma = np.linalg.solve(gram + ridge * np.eye(n), np.einsum("ij,j->i", self.dF[:n], f))
        np.subtract(gx, np.einsum("i,ij->j", gamma, self.dG[:n]), out=x)


def solve_beckmann(mu: ScalarField, nu: ScalarField, spec: CongestionSpec, grid: Grid,
                   tol: float = 1e-6, max_iter: int = 20000,
                   cell_weights: np.ndarray | None = None) -> BeckmannResult:
    """Minimal congested flow: min h^2 sum_c w_c H(|V|_c) s.t. div v = mu - nu.

    Splitting scheme (ADMM on the gathered faces q = R v with scaled
    multiplier lam): every iteration projects onto the divergence constraint
    (one Neumann Poisson solve by a discrete cosine transform) and applies
    the proximal map of H to the co-located face magnitudes. Residual
    balancing doubles or halves rho. At p = 1, where the prox is a shrink and
    plain ADMM converges sublinearly, the state (q, lam) takes type-II
    Anderson steps of memory ANDERSON_MEMORY; the history restarts when the
    fixed-point residual grows, whenever rho changes and every
    ANDERSON_PERIOD steps, and each iteration still costs one Poisson solve.
    Stops when the fixed-point residual (the split residual R v - q and the
    step of q) and the change of v all fall below tol, in the max norm
    relative to the largest face flux.

    The certificate is the Fenchel dual value -<phi, f> - h^2 sum_c w_c
    H*(|z_c|_* / (h^2 w_c)) of one dual-feasible pair, R^T z = -B^T phi, read
    off the final multiplier eta = rho lam: phi = -(BB^T)^-1 B R^T eta by one
    Poisson solve, and z = eta - R(R^T eta + B^T phi)/2. |.|_* is the dual of
    the cell norm, sqrt(2 sum z^2). At p = 1, H* is the indicator of
    |z_c|_* / (h^2 w_c) <= 1 + a, and the pair is scaled onto that set. phi is
    returned as the multiplier, pinned to 0 at cell 0. ``converged`` does not
    depend on the certificate.
    """
    ops = _ops(grid)
    f = _difference_density(mu, nu, grid)
    n_cells = grid.n_cells
    w = np.ones(n_cells) if cell_weights is None else np.asarray(cell_weights, dtype=float).ravel()
    if w.shape != (n_cells,):
        raise ShapeMismatchError("cell_weights must have one entry per cell")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ShapeMismatchError("cell_weights must be finite and strictly positive")
    h2 = grid.cell_area

    if np.abs(f).max(initial=0.0) == 0.0:
        vf = VectorField.zeros(grid)
        return BeckmannResult(vf, 0.0, 0, True, 0.0, 0.0, 0.0, 0.0, ScalarField.zeros(grid))

    rho = h2 * float(np.mean(w))
    f2 = 2.0 * f

    # feasible warm start from the quadratic solution; fx, fy hold v from here on
    _, v0 = solve_dual_quadratic(mu, nu, grid)
    fx, fy = v0.vx, v0.vy
    rfx, rfy = ops.faces()
    state = np.zeros((2, 4, grid.nx, grid.ny))  # (q, lam)
    state[0] = ops.planes(fx, fy)
    image = state.copy()  # the state after one iteration

    def project(z):
        """v-step: least squares onto {div v = f} given the gather target z,
        written into fx, fy."""
        ops.gather_adjoint(z, out=(rfx, rfy))
        d = ops.div(rfx, rfy)
        d -= f2
        ops.div_adjoint(ops.solve_poisson(d), out=(fx, fy))
        for face, rface in ((fx, rfx), (fy, rfy)):
            np.subtract(rface, face, out=face)
            face *= 0.5

    def iterate(x, out, tau):
        """One ADMM iteration from x = (q, lam), written into out."""
        q, lam = x
        q_new, z2 = out
        project(np.subtract(q, lam, out=q_new))
        for z2k, face, lamk in zip(z2, ops.planes(fx, fy), lam):
            np.add(face, lamk, out=z2k)
        m = _cell_rms(*z2)
        s_star = spec.prox(m.ravel(), tau).reshape(m.shape)
        scale = np.where(m > 0, s_star / np.maximum(m, 1e-300), 0.0)
        np.multiply(z2, scale, out=q_new)
        z2 -= q_new  # the new lam = lam + R v - q_new

    anderson = _Anderson(state.size) if spec.p == 1.0 else None
    converged = False
    split_res = np.inf
    change = np.inf
    tau = h2 * w / (2.0 * rho)
    it = 0
    check_every = 10
    # a flux that overflows turns to inf and nan; the check reports that once
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            check = it % check_every == 0 or it == max_iter
            if check:
                v_prev = fx.copy(), fy.copy()
            iterate(state, image, tau)
            if check:
                rv = ops.gather(fx, fy)
                q, dq = image[0], image[0] - state[0]
                split_res = float(np.abs(rv - q).max(initial=0.0))
                change = max(float(np.abs(fx - v_prev[0]).max(initial=0.0)),
                             float(np.abs(fy - v_prev[1]).max(initial=0.0)))
                vscale = max(1.0, float(np.abs(fx).max(initial=0.0)),
                             float(np.abs(fy).max(initial=0.0)))
                # the fixed-point residual G(x) - x is R v - q in lam and dq in q. A
                # v that barely moves is not enough: a mixed state can stall, with x
                # barely moving while G(x) - x stays large
                q_step = float(np.abs(dq).max(initial=0.0))
                if not np.isfinite(split_res + q_step + change):
                    raise CongestedTransportError(f"the flux overflowed the floats by iteration "
                                                  f"{it}: mu and nu are too large to solve for")
                if max(split_res, q_step, change) <= tol * vscale:
                    converged = True
                    break
                # residual balancing keeps the two ADMM residuals comparable
                r_pri = _norm(rv - q)
                r_dua = rho * _norm(dq)
                if r_pri > 10.0 * r_dua and r_dua > 0:
                    factor = 2.0
                elif r_dua > 10.0 * r_pri and r_pri > 0:
                    factor = 0.5
                else:
                    factor = 1.0
                if factor != 1.0:
                    rho *= factor
                    # lam is scaled by 1/rho in the state and in its image alike, so
                    # that the Anderson residual G(x) - x compares like with like
                    state[1] /= factor
                    image[1] /= factor
                    tau = h2 * w / (2.0 * rho)
                    if anderson is not None:
                        anderson.restart()
            if it == max_iter:
                break
            if anderson is None:
                state, image = image, state
            else:
                anderson.next_state(state.reshape(-1), image.reshape(-1))

    # a flux that stays finite can still overflow the cost and dual sums;
    # that is reported once, like an overflow in the loop
    with np.errstate(over="ignore", invalid="ignore"):
        q, lam = image
        project(q - lam)  # exact feasibility of the returned flow
        cost = h2 * float(np.einsum("i,i", w, spec.H(_cell_rms(*ops.planes(fx, fy)).ravel())))

        # the multiplier eta of R v = q is a subgradient of the objective at q, so
        # (phi, z) fitted to it is near the dual optimum; R^T R = 2I on interior
        # faces makes R^T z = -B^T phi hold exactly
        eta = rho * lam
        rx, ry = ops.gather_adjoint(eta)
        phi = ops.solve_poisson(-ops.div(rx, ry))
        bx, by = ops.div_adjoint(phi)
        z = eta - 0.5 * ops.gather(rx + bx, ry + by)
        s = 2.0 * _cell_rms(*z).ravel() / (h2 * w)  # |z_c|_* / (h^2 w_c), the dual norm
        dual = -float(np.einsum("i,i", phi.ravel(), f.ravel()))
        if spec.p == 1.0:
            # H* is the indicator of s <= 1 + a: scale (phi, z) onto its domain
            dual /= max(1.0, float(s.max(initial=0.0)) / (1.0 + spec.a))
        else:
            dual -= h2 * float(np.einsum("i,i", w, spec.conjugate(s)))
        cert_gap = (cost - dual) / max(abs(cost), 1e-300)
    if not (np.isfinite(cost) and np.isfinite(dual) and np.isfinite(cert_gap)):
        raise CongestedTransportError("the flow cost overflowed the floats: "
                                      "mu and nu are too large to solve for")

    vf = VectorField(fx, fy, grid)
    div_res = float(np.abs(ops.div(fx, fy) - f).max(initial=0.0))
    return BeckmannResult(vf, cost, it, converged, div_res, split_res, dual, cert_gap,
                          ScalarField(phi, grid))


# ---------------------------------------------------------------------------
# Rasterization of couplings into transport densities and flux fields.

def _check_points_inside(pts, grid: Grid, name: str):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not grid.contains(pts).all():
        raise PointOutsideDomainError(f"{name} points outside the grid domain")
    return pts


def _segment_pieces(coupling, src_pts, dst_pts, grid: Grid):
    """Walk the support of a coupling: split the segment of each entry with
    positive mass at the grid lines, and yield (mass, unit direction, ix, iy,
    length) for each piece, where (ix, iy) is the cell holding its midpoint.
    Zero-length segments have no pieces."""
    plan = coupling.plan if isinstance(coupling, Coupling) else np.asarray(coupling, dtype=float)
    src_pts = _check_points_inside(src_pts, grid, "source")
    dst_pts = _check_points_inside(dst_pts, grid, "destination")
    for i, j in zip(*np.nonzero(plan > 0)):
        p0 = src_pts[i]
        d = dst_pts[j] - p0
        seg_len = float(np.hypot(d[0], d[1]))
        if seg_len == 0.0:
            continue
        ts = [0.0, 1.0]
        for axis, n_lines in ((0, grid.nx), (1, grid.ny)):
            if d[axis] == 0.0:
                continue
            for k in range(1, n_lines):
                t = (k * grid.h - p0[axis]) / d[axis]
                if 0.0 < t < 1.0:
                    ts.append(t)
        ts = sorted(set(ts))
        u = d / seg_len
        for ta, tb in zip(ts[:-1], ts[1:]):
            if tb - ta <= 1e-15:
                continue
            mid = p0 + 0.5 * (ta + tb) * d
            ix, iy = grid.cell_of(mid[0], mid[1])
            yield plan[i, j], u, ix, iy, seg_len * (tb - ta)


def rasterize_transport_density(coupling, src_pts, dst_pts, grid: Grid) -> ScalarField:
    """Deposit each coupling entry's mass along its straight segment, split by
    exact segment-cell clipping, as a density (mass / h^2 per unit length).

    The resulting total mass h^2 * sum equals sum_{x,y} plan(x,y) |x-y|.
    """
    vals = np.zeros((grid.nx, grid.ny))
    for mass, _, ix, iy, ln in _segment_pieces(coupling, src_pts, dst_pts, grid):
        vals[ix, iy] += mass * ln / grid.cell_area
    return ScalarField(vals, grid)


def rasterize_v_gamma(coupling, src_pts, dst_pts, grid: Grid) -> VectorField:
    """Signed flux rasterization of a coupling: each segment piece deposits
    mass * direction * length, halved onto the two faces of its cell per axis.
    Halves aimed at a boundary face are dropped, which keeps the no-flux
    invariant exactly and preserves the face bound |v| <= averaged density."""
    nx, ny = grid.nx, grid.ny
    vx = np.zeros((nx + 1, ny))
    vy = np.zeros((nx, ny + 1))
    for mass, u, ix, iy, ln in _segment_pieces(coupling, src_pts, dst_pts, grid):
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
    (k average of the endpoints) times the Euclidean step, by one compiled
    multi-source Dijkstra (scipy.sparse.csgraph)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    nx, ny = grid.nx, grid.ny
    kv = k.values
    cell = np.arange(nx * ny).reshape(nx, ny)
    nbrs = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
            (-1, -1, np.sqrt(2.0)), (-1, 1, np.sqrt(2.0)),
            (1, -1, np.sqrt(2.0)), (1, 1, np.sqrt(2.0))]
    tails, heads, lengths = [], [], []
    for dx, dy, st in nbrs:
        at = (slice(max(0, -dx), nx - max(0, dx)), slice(max(0, -dy), ny - max(0, dy)))
        to = (slice(max(0, dx), nx + min(0, dx)), slice(max(0, dy), ny + min(0, dy)))
        tails.append(cell[at].ravel())
        heads.append(cell[to].ravel())
        lengths.append((0.5 * (kv[at] + kv[to]) * st * grid.h).ravel())
    # an edge of length 0 stays an explicit entry, which csgraph reads as an edge
    graph = csr_array((np.concatenate(lengths), (np.concatenate(tails), np.concatenate(heads))),
                      shape=(nx * ny, nx * ny))
    dist = dijkstra(graph, indices=[cell[sx, sy] for sx, sy in source_cells])
    return dist[:, [cell[tx, ty] for tx, ty in target_cells]]


@dataclass
class WeightedDualityReport:
    flow_value: float
    geodesic_ot_value: float
    rel_err: float


def measure_to_field(measure: DiscreteMeasure, grid: Grid) -> tuple[ScalarField, list]:
    """Deposit point masses into their cells as densities; also returns the
    cell (ix, iy) of each point, in point order."""
    pts = _check_points_inside(measure.points, grid, "measure")
    ix, iy = grid.cell_of(*pts.T)
    return cloud_to_field(pts, measure.weights, grid), list(zip(ix.tolist(), iy.tolist()))


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
    ix = np.minimum(gx.astype(np.int64), nx - 2)  # a Grid has nx >= 2
    iy = np.minimum(gy.astype(np.int64), max(ny - 2, 0))  # gy = 0 when ny = 1
    fx = gx - ix
    fy = gy - iy
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
        np.add.at(intensity, grid.cell_of(*mid.T), wts * seg / grid.cell_area)

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
    vals = np.zeros((grid.nx, grid.ny))
    np.add.at(vals, grid.cell_of(*pts.T), np.asarray(weights, dtype=float) / grid.cell_area)
    return ScalarField(vals, grid)


# block_points sums a grid density over square blocks until it has at most
# this many blocks, so that an exact transport between densities stays small.
EXACT_OT_MAX_POINTS = 600


def block_points(field: ScalarField) -> DiscreteMeasure:
    """The mass of a grid density summed over square blocks of 2^k cells a
    side, k the least that leaves at most EXACT_OT_MAX_POINTS blocks, each sum
    placed at its block's center; blocks with no mass are left out."""
    g = field.grid
    factor = 1
    while (g.nx // factor) * (g.ny // factor) > EXACT_OT_MAX_POINTS:
        factor *= 2
        if g.nx % factor or g.ny % factor:
            raise InputFormatError("grid not block-aggregatable; choose power-of-two sizes")
    blocks = Grid(nx=g.nx // factor, ny=g.ny // factor, h=g.h * factor)
    masses = (field.values * g.cell_area).reshape(
        blocks.nx, factor, blocks.ny, factor).sum(axis=(1, 3)).ravel()
    keep = masses > 0
    return DiscreteMeasure(weights=masses[keep], points=blocks.cell_points()[keep])


def field_transport_value(mu: ScalarField, nu, p: float) -> float:
    """W_p^p from a grid density to a second density on the same grid or to
    a DiscreteMeasure of the same mass, exact between the block_points of
    each density (nu's masses rescaled to mu's total). NonFiniteCostError if
    a cost |x - y|^p overflows."""
    a = block_points(mu)
    if isinstance(nu, ScalarField):
        if nu.grid != mu.grid:
            raise ShapeMismatchError("fields live on different grids")
        nu = block_points(nu)
    b = DiscreteMeasure(weights=nu.weights * (a.total_mass / nu.total_mass), points=nu.points)
    return solve_discrete_ot(a, b, lp_cost_matrix(a, b, p)).value


def field_w1(a: ScalarField, b: ScalarField) -> float:
    """W_1 between two grid densities of equal mass (field_transport_value
    at p = 1)."""
    return field_transport_value(a, b, 1.0)

"""Minimization of the urban-planning functional T(mu, nu) + F(mu) + G(nu):
the fixed-target subproblem through the potential characterization
u = (f')^{-1}((C - psi)_+), the full quadratic case against its closed-form
ball solution, and the atomic-concentration variant.

The functionals are number families: the spread f(t) = t^m / d, the pole
cost g(a) = a^alpha with its analytic derivative, and the interaction
h(r) = lam r^2, each checked by the range of its parameters.

mu lives on the grid as a density; nu is a cloud of weighted atoms. The
transport potentials between the grid and the atoms are Kantorovich duals:
computed by the exact transport solver at small sizes and by warm-started
ascent on the atom potentials (with the grid side eliminated by c-transform)
at grid scale, whose value is the dual objective at the returned potentials,
a lower bound on the transport cost. solve_p_nu builds this transport for
each solve; beta0= warm-starts its atom potentials and CitySolution.beta
returns them. Each ascent evaluation recomputes the reduced-cost argmin
only on the cells whose stored best-to-second-best gap (with a rounding
margin) the step may have closed, in the manner of Elkan's bound-pruned
k-means (ICML 2003), so it returns the dense argmin's floats.
The level C is the float-exact root of a monotone mass, found by regula
falsi and finished to adjacent floats, so it does not depend on the search
path; the pole search evaluates each golden-section probe once. The city
solvers return the chosen CitySolution, from which the report reads the
transport and spread terms. eval_total takes its transport term from
beckmann.field_transport_value, on block sums at block centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beckmann import block_points, field_transport_value
from .errors import (
    BisectionFailureError,
    DomainTooSmallError,
    InputFormatError,
    MassMismatchError,
    NonFiniteCostError,
)
from .grids import Grid, ScalarField
from .kantorovich import (DiscreteMeasure, _lp_cost, _project_simplex, pairwise_distances,
                          solve_discrete_ot)

# GridAtomTransport solves exactly when the occupied cells plus the atoms are
# at most this many points: the exact path costs roughly one short Dijkstra
# sweep per point. Larger instances go through the dual ascent.
GRID_ATOM_EXACT_MAX_POINTS = 300
LEVEL_WIDTH_CAP = 1e6  # the level bracket may grow to this width above min psi
P_NU_MAX_ITER = 400  # damped fixed-point passes of solve_p_nu
P_NU_DAMPING = 0.3  # weight of the new iterate in each of those passes
INNER_TOL = 1e-6  # solve_p_nu tolerance inside the outer city solvers
QUADRATIC_CITY_MAX_ITER = 80  # alternations of solve_quadratic_city
ATOMIC_MAX_OUTER = 40  # outer steps per pole count in minimize_with_atomic_G
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Functional specifications.

@dataclass(frozen=True)
class SpreadSpec:
    """Convex integrand f(t) = t^m / d (m > 1, d > 0) penalizing concentration
    of mu, with (f')^{-1}(s) = (s d / m)^(1 / (m - 1)) on s >= 0.

    quadratic() is (m, d) = (2, 1) and power(m) is (m, m). The ratio d / m is
    formed before the power, so each of these returns the floats of the
    plain forms t^2, t^m / m, s / 2 and s^(1 / (m - 1)).
    """

    m: float
    d: float

    def __post_init__(self):
        if not 1.0 < self.m < math.inf:
            raise InputFormatError(f"spread exponent must be finite and above 1, got {self.m}")
        if not 0.0 < self.d < math.inf:
            raise InputFormatError(f"spread divisor must be finite and positive, got {self.d}")

    @staticmethod
    def quadratic() -> "SpreadSpec":
        return SpreadSpec(2.0, 1.0)

    @staticmethod
    def power(m: float) -> "SpreadSpec":
        return SpreadSpec(float(m), float(m))

    def f(self, t):
        return np.power(t, self.m) / self.d

    def inverse_derivative(self, s):
        return np.power(s * (self.d / self.m), 1.0 / (self.m - 1.0))


@dataclass(frozen=True)
class ConcentrationSpec:
    """Either the subadditive per-pole cost g(a) = a^alpha with 0 < alpha <= 1
    (kind "atomic") or the pairwise interaction cost h(r) = lam r^2 of the
    distance with lam >= 0 (kind "interaction")."""

    kind: str
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind == "atomic":
            if not 0.0 < self.alpha <= 1.0:
                raise InputFormatError("atomic power exponent must lie in (0, 1]")
        elif self.kind == "interaction":
            if not 0.0 <= self.lam < math.inf:
                raise InputFormatError("interaction strength must be finite and nonnegative")
        else:
            raise InputFormatError(f"unknown concentration kind {self.kind!r}")

    @staticmethod
    def atomic_power(alpha: float = 0.5) -> "ConcentrationSpec":
        return ConcentrationSpec("atomic", alpha=float(alpha))

    @staticmethod
    def quadratic_interaction(lam: float) -> "ConcentrationSpec":
        return ConcentrationSpec("interaction", lam=float(lam))

    def g(self, a):
        return np.power(np.maximum(a, 0.0), self.alpha)

    def g_prime(self, a):
        return self.alpha * np.power(a, self.alpha - 1.0)

    def h(self, r):
        return self.lam * np.square(r)


# ---------------------------------------------------------------------------
# Transport potentials between a grid density and an atom cloud.

class GridAtomTransport:
    """Kantorovich duals for cost |x - y|^p between grid cells and atoms.

    Atom positions are fixed per instance; the grid masses may change between
    calls, so the atom-side potential is kept warm. Small problems with two
    or more atoms go through the exact solver; the others maximize the dual
    in the atom potentials directly (the grid side is always the
    c-transform).

    The ascent keeps, for its last accepted potentials, each cell's argmin
    atom and a lower bound on the gap to its second-best reduced cost. A step
    delta lowers that gap by at most max(delta) - delta[argmin], so a cell
    whose bound stays above a few ulps of the costs and potentials keeps its
    argmin, and only the other cells are recomputed. The results are those of
    the dense argmin bit for bit, ties (to the lowest index) included; the
    state carries over between warm calls.
    """

    def __init__(self, cell_points: np.ndarray, atom_points: np.ndarray, p: float):
        self.cell_points = cell_points
        self.atom_points = np.atleast_2d(atom_points)
        self.p = p
        self.cost = _lp_cost(cell_points, self.atom_points, p)
        self._cost_max = float(np.abs(self.cost).max())
        if not math.isfinite(self._cost_max):
            raise NonFiniteCostError(f"grid-to-atom cost |x - y|^{p} overflows the floats")
        self._scale = float(self.cost.max() - self.cost.min()) + 1e-12
        self.beta = np.zeros(self.atom_points.shape[0])
        self._step = None  # last accepted ascent step, kept warm across calls
        # At the last accepted ascent potentials b: (b, each row's argmin, a
        # lower bound on its gap between the best and second-best reduced
        # cost, its cost at the argmin). Gaps start at -inf, so the first
        # evaluation computes every row.
        m = self.cost.shape[0]
        self._bound = (self.beta, np.zeros(m, dtype=np.int64), np.full(m, -np.inf),
                       np.zeros(m))

    def solve(self, cell_masses: np.ndarray, atom_weights: np.ndarray,
              max_ascent: int = 400):
        """Returns (psi on all cells, beta on atoms, assignment, transport value).

        psi is the c-transform min_j cost - beta_j evaluated at every cell, so
        it is defined off the support of the cell masses as well. Two or more
        atoms with at most GRID_ATOM_EXACT_MAX_POINTS occupied cells plus
        atoms go through the exact solver; every other instance through the
        warm-started dual ascent, whose work max_ascent caps (callers in
        fixed-point loops only need a few refinement steps per call). A single
        atom takes every cell, and the ascent returns that at once.
        """
        n = self.cost.shape[1]
        total, weight = float(cell_masses.sum()), float(atom_weights.sum())
        if abs(total - weight) > 1e-8 * max(total, weight):
            raise MassMismatchError("grid and atom masses differ")
        pos = cell_masses > 0
        if n > 1 and int(pos.sum()) + n <= GRID_ATOM_EXACT_MAX_POINTS:
            mu = DiscreteMeasure(weights=cell_masses[pos], points=self.cell_points[pos])
            nu = DiscreteMeasure(weights=atom_weights, points=self.atom_points)
            res = solve_discrete_ot(mu, nu, self.cost[pos])
            self.beta = res.potentials.psi.copy()
            reduced = self.cost - self.beta[None, :]
            return reduced.min(axis=1), self.beta.copy(), reduced.argmin(axis=1), res.value
        return self._dual_ascent(cell_masses, atom_weights, max_iter=max_ascent)

    def _reduced_argmin(self, b):
        """The row-wise argmin of cost - b and its value, as the dense argmin
        finds them, plus the bound state at b. Rows whose stored gap outlasts
        the step from the bound's potentials keep their argmin; only the
        others are recomputed."""
        b_ref, assign, gap, cost_a = self._bound
        # Rounding margin. With M = max|cost| + max|b_ref| + max|b|, every
        # value rounded for a kept row (a reduced cost, a potential step, the
        # drop max(delta) - delta[a] of a row's reduced cost against the
        # others, a gap) has magnitude at most 2M, so one rounding errs by at
        # most 2^-53 * 2M = eps * M. Carrying a gap across a step or recomputing
        # it takes at most 6 such errors, 1 of them for two reduced costs to
        # stay strictly ordered once rounded. A margin of 16 eps M keeps each
        # stored gap below the exact gap, so a row is kept only when its
        # float argmin cannot differ from the stored one, exact ties (which
        # go to the lowest index) included.
        margin = 16.0 * _EPS * (self._cost_max + np.abs(b_ref).max() + np.abs(b).max())
        delta = b - b_ref
        gap = gap - ((delta.max() + margin) - delta)[assign]
        stale = np.flatnonzero(~(gap > 0.0))
        if stale.size:
            red = self.cost[stale]  # a copy: subtract in place
            red -= b
            a = np.argmin(red, axis=1)
            rows = np.arange(stale.size)
            best = red[rows, a]
            red[rows, a] = np.inf
            assign, cost_a = assign.copy(), cost_a.copy()
            assign[stale] = a
            gap[stale] = (red.min(axis=1) - best) - margin
            cost_a[stale] = self.cost[stale, a]
        return cost_a - b[assign], assign, (b, assign, gap, cost_a)

    def _dual_ascent(self, cell_masses, atom_weights, max_iter: int):
        """Backtracking gradient ascent on the dual in beta, warm-started from
        the previous call's beta and step. The value masses . psi + weights .
        beta is the dual objective at the returned potentials, a lower bound
        on the transport cost."""
        beta = self.beta.copy()
        total = float(cell_masses.sum())
        scale = self._scale

        def evaluate(b):
            psi, assign, bound = self._reduced_argmin(b)
            load = np.bincount(assign, weights=cell_masses, minlength=b.shape[0])
            dual = float(np.dot(cell_masses, psi) + np.dot(atom_weights, b))
            return psi, assign, load, dual, bound

        psi, assign, load, dual, self._bound = evaluate(beta)
        step = self._step if self._step is not None else 0.5 * scale
        for _ in range(max_iter):
            grad = atom_weights - load
            res = float(np.abs(grad).sum())
            if res <= 1e-9 * max(total, 1e-12):
                break
            improved = False
            for _ in range(14):
                cand = beta + step * grad / max(total, 1e-12)
                psi_c, assign_c, load_c, dual_c, bound_c = evaluate(cand)
                if dual_c > dual + 1e-15 * (1.0 + abs(dual)):
                    beta, psi, assign, load, dual = cand, psi_c, assign_c, load_c, dual_c
                    self._bound = bound_c
                    step *= 1.4
                    improved = True
                    break
                step *= 0.5
                if step < 1e-14 * scale:
                    break
            if not improved:
                break
        self._step = step
        self.beta = beta
        return psi, beta.copy(), assign, dual


# ---------------------------------------------------------------------------
# Objective evaluation.

@dataclass
class CityValue:
    total: float
    transport: float
    spread: float
    concentration: float
    infeasible: bool = False


def eval_total(mu: ScalarField, nu, p: float, spread: SpreadSpec,
               conc: ConcentrationSpec | None, grid: Grid) -> CityValue:
    """Value of the full functional W_p^p + integral f(u) + G(nu).

    nu may be an atom cloud or a second grid density. The transport term is
    beckmann.field_transport_value, exact between the block sums of each
    density (beckmann.block_points) and the atoms; an interaction G of a
    density pairs the same block sums. An atomic G with a non-atomic nu is
    infeasible.
    """
    if abs(mu.total_mass - nu.total_mass) > 1e-8 * max(mu.total_mass, nu.total_mass):
        raise MassMismatchError("mu and nu must carry equal mass")
    spread_val = float(grid.cell_area * np.sum(spread.f(mu.values)))

    atomic = isinstance(nu, DiscreteMeasure)
    if conc is None:
        conc_val = 0.0
    elif conc.kind == "atomic":
        if not atomic:
            return CityValue(np.inf, np.nan, spread_val, np.inf, infeasible=True)
        conc_val = float(np.sum(conc.g(nu.weights)))
    else:
        atoms = nu if atomic else block_points(nu)
        d = pairwise_distances(atoms.points, atoms.points)
        conc_val = float(atoms.weights @ conc.h(d) @ atoms.weights)

    transport = field_transport_value(mu, nu, p)
    return CityValue(transport + spread_val + conc_val, transport, spread_val, conc_val)


# ---------------------------------------------------------------------------
# Fixed-target subproblem (P_nu).

@dataclass
class CitySolution:
    mu: ScalarField
    nu: DiscreteMeasure
    value: float
    potential: ScalarField
    multiplier: float
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0
    assignment: np.ndarray | None = None
    transport_value: float = 0.0
    beta: np.ndarray | None = None  # the atom potentials of the final transport solve


def _mass_for_level(level, psi, spread, cell_area):
    u = spread.inverse_derivative(np.maximum(level - psi, 0.0))
    return cell_area * float(u.sum())


def _solve_level(psi, spread, cell_area, target):
    """The constant C with h^2 sum (f')^{-1}((C - psi)_+) = target.

    The float mass is nondecreasing in C, so the answer depends on the floats
    alone: with C* the smallest float above min(psi) whose mass reaches the
    target, it is the midpoint of C* and the float below it, which is where
    bisection stops. Illinois regula falsi narrows the bracket, a step that
    rounds onto an end moves off it by a doubling number of ulps, and two
    steps in a row that fail to halve the bracket are followed by a
    bisection step.
    """
    base = lo = float(psi.min())
    width = 1.0
    hi = base + width
    f_lo = None
    f_hi = _mass_for_level(hi, psi, spread, cell_area) - target
    while f_hi < 0.0:
        lo, f_lo = hi, f_hi  # C* lies above every level that falls short
        width *= 2.0
        hi = base + width
        if width > LEVEL_WIDTH_CAP:
            raise BisectionFailureError("level bracket exceeded its growth cap")
        f_hi = _mass_for_level(hi, psi, spread, cell_area) - target
    if f_lo is None:
        f_lo = _mass_for_level(lo, psi, spread, cell_area) - target
    side = slow = 0
    nudge = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        x = mid
        if slow < 2 and f_lo < 0.0 <= f_hi:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < x < hi:
                nudge = 0.0
            else:
                # the step rounds onto an end, so C* is within ulps of it:
                # step off that end by one ulp, then by twice the last nudge
                nudge = 2.0 * nudge if nudge else math.ulp(lo if x <= lo else hi)
                x = lo + nudge if x <= lo else hi - nudge
                if not lo < x < hi:
                    x = mid
        before = hi - lo
        f_x = _mass_for_level(x, psi, spread, cell_area) - target
        if f_x < 0.0:
            lo, f_lo = x, f_x
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, f_x
            if side > 0:
                f_lo *= 0.5
            side = 1
        slow = slow + 1 if hi - lo > 0.5 * before else 0


def solve_p_nu(nu: DiscreteMeasure, p: float, spread: SpreadSpec, grid: Grid,
               tol: float = 1e-6, mu0: ScalarField | None = None,
               beta0: np.ndarray | None = None) -> CitySolution:
    """Minimize W_p^p(mu, nu) + integral f(u) over densities mu = u of unit
    mass, by the damped fixed point of the optimality characterization
    u = (f')^{-1}((C - psi)_+) with psi the mu-side transport potential
    (extended everywhere by c-transform) and C the mass multiplier.

    mu0 warm-starts the density and beta0 (one value per atom) the atom
    potentials of the grid-to-atom transport; the solution's beta holds
    the atom potentials at the returned density.
    """
    total = nu.total_mass
    if abs(total - 1.0) > 1e-8:
        raise MassMismatchError("target measure must be a probability")
    transport = GridAtomTransport(grid.cell_points(), nu.points, p)
    if beta0 is not None:
        transport.beta = np.array(beta0, dtype=float)
    u = (mu0.values.ravel() if mu0 is not None else
         np.full(grid.n_cells, 1.0 / (grid.n_cells * grid.cell_area)))

    converged = False
    psi = None
    level = 0.0
    assign = None
    t_value = 0.0
    it = 0
    for it in range(1, P_NU_MAX_ITER + 1):
        masses = u * grid.cell_area
        # after the first pass the atom potentials only need a warm refresh
        budget = 400 if it == 1 else 40
        psi, beta, assign, t_value = transport.solve(masses, nu.weights, max_ascent=budget)
        level = _solve_level(psi, spread, grid.cell_area, 1.0)
        u_new = spread.inverse_derivative(np.maximum(level - psi, 0.0))
        change = float(grid.cell_area * np.abs(u_new - u).sum())
        u = (1.0 - P_NU_DAMPING) * u + P_NU_DAMPING * u_new
        if change * P_NU_DAMPING <= tol:
            converged = True
            break
    masses = u * grid.cell_area
    psi, beta, assign, t_value = transport.solve(masses, nu.weights)

    mu_field = ScalarField((u / (u.sum() * grid.cell_area)).reshape(grid.nx, grid.ny), grid)
    spread_val = float(grid.cell_area * np.sum(spread.f(mu_field.values)))
    resid = float(grid.cell_area * np.abs(
        u - spread.inverse_derivative(np.maximum(level - psi, 0.0))
    ).sum())
    return CitySolution(
        mu=mu_field,
        nu=nu,
        value=t_value + spread_val,
        potential=ScalarField(psi.reshape(grid.nx, grid.ny), grid),
        multiplier=level,
        converged=converged,
        iterations=it,
        residual=resid,
        assignment=assign,
        transport_value=t_value,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# Quadratic city: closed-form geometry helpers and the alternating solver.

def quadratic_city_radius(lam: float) -> float:
    """Radius of the resident ball for the quadratic functional in 2-D: the
    parabolic profile lam/(2 lam + 1) (r^2 - rho^2) integrates to one when
    r = (2 (2 lam + 1) / (pi lam))^(1/4)."""
    if lam <= 0:
        raise InputFormatError(f"interaction strength must be positive, got {lam}")
    return float((2.0 * (2.0 * lam + 1.0) / (np.pi * lam)) ** 0.25)


def quadratic_city_profile(grid: Grid, lam: float) -> ScalarField:
    """Closed-form resident density, centered in the domain, sampled at cell
    centers."""
    r = quadratic_city_radius(lam)
    lx, ly = grid.extent
    xc, yc = grid.cell_centers()
    rho2 = (xc - 0.5 * lx) ** 2 + (yc - 0.5 * ly) ** 2
    u = lam / (2.0 * lam + 1.0) * np.maximum(r * r - rho2, 0.0)
    return ScalarField(u, grid)


@dataclass
class QuadraticCityResult:
    """The best state's solve_p_nu solution, atoms and value; its
    concentration term is value - solution.value."""

    solution: CitySolution
    nu: DiscreteMeasure
    value: float
    history: list[float]
    converged: bool
    iterations: int


def _uniform_atoms(grid: Grid, n_side: int):
    lx, ly = grid.extent
    xs = (np.arange(n_side) + 0.5) * lx / n_side
    ys = (np.arange(n_side) + 0.5) * ly / n_side
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return pts, w


def solve_quadratic_city(lam: float, grid: Grid, tol: float = 1e-5,
                         n_atom_side: int = 12) -> QuadraticCityResult:
    """Minimize W_2^2(mu, nu) + ||u||_2^2 + lam * interaction(nu) by
    alternating the fixed-target subproblem for mu with a damped best-response
    move of the service atoms.

    Given the transport plan, the optimal position of an atom receiving
    conditional barycenter b_j is (b_j + 2 lam b) / (1 + 2 lam) with b the
    overall barycenter, which is the homothety the closed-form solution
    predicts; moves are accepted only if the total value does not increase.

    The loop stops when a move fails to improve the value by tol (relative),
    and has converged if every solve_p_nu call converged. Both half-steps
    descend: solve_p_nu minimizes over mu for fixed atoms, and the atom move
    minimizes over positions for the current plan, whose atom marginal
    becomes the weights. With exact inner solves the value cannot increase,
    so a move that makes it worse shows that the outer gain has fallen below
    the inner solves' error, and counts as converged too.
    """
    r = quadratic_city_radius(lam)
    lx, ly = grid.extent
    if 2.0 * r > min(lx, ly):
        raise DomainTooSmallError(
            f"resident ball of diameter {2 * r:.3f} exceeds the domain {lx:.3f}x{ly:.3f}"
        )
    spread = SpreadSpec.quadratic()
    cell_pts = grid.cell_points()

    atom_pts, atom_w = _uniform_atoms(grid, n_atom_side)
    mu = None
    history: list[float] = []
    best_value = np.inf
    converged = False
    inner_converged = True
    last_sol = None

    beta = None
    it = 0
    for it in range(1, QUADRATIC_CITY_MAX_ITER + 1):
        nu = DiscreteMeasure(weights=atom_w, points=atom_pts)
        sol = solve_p_nu(nu, 2.0, spread, grid, tol=INNER_TOL, mu0=mu, beta0=beta)
        inner_converged = inner_converged and sol.converged
        mu = sol.mu
        masses = (mu.values * grid.cell_area).ravel()
        g_val = 2.0 * lam * _weighted_moments(atom_pts, atom_w)[1]
        value = sol.value + g_val
        prev_best = best_value
        if value <= best_value:
            best_value = value
            last_sol = (sol, atom_pts.copy(), atom_w.copy())
            history.append(value)  # accepted iterations only
        if value > prev_best - tol * (1.0 + abs(value)) and it > 1:
            converged = inner_converged
            break

        # atom best response given the current assignment
        assign = sol.assignment
        load = np.bincount(assign, weights=masses, minlength=atom_w.shape[0])
        sums_x = np.bincount(assign, weights=masses * cell_pts[:, 0], minlength=atom_w.shape[0])
        sums_y = np.bincount(assign, weights=masses * cell_pts[:, 1], minlength=atom_w.shape[0])
        bary = np.array([float(masses @ cell_pts[:, 0]), float(masses @ cell_pts[:, 1])])
        keep = load > 0
        bxy = np.column_stack([sums_x, sums_y])[keep] / np.maximum(load[keep], 1e-300)[:, None]
        target = (bxy + 2.0 * lam * bary) / (1.0 + 2.0 * lam)
        # x + (t - x), not t: the rounding that the city artifacts record
        atom_pts = atom_pts[keep] + (target - atom_pts[keep])
        atom_w = load[keep] / load[keep].sum()
        beta = sol.beta[keep]  # the surviving atoms' potentials warm-start the next solve

    sol, pts, w = last_sol
    return QuadraticCityResult(solution=sol, nu=DiscreteMeasure(weights=w, points=pts),
                               value=best_value, history=history, converged=converged,
                               iterations=it)


def _weighted_moments(pts: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Barycenter and trace of the covariance of a weighted cloud (weights
    normalized)."""
    ww = w / w.sum()
    center = ww @ pts
    d = pts - center[None, :]
    return center, float(ww @ np.sum(d * d, axis=1))


def barycenter_of(field: ScalarField) -> np.ndarray:
    return _weighted_moments(field.grid.cell_points(), field.values.ravel())[0]


def second_moment_of(field: ScalarField) -> float:
    """Second moment of a density about its barycenter."""
    return _weighted_moments(field.grid.cell_points(), field.values.ravel())[1]


# ---------------------------------------------------------------------------
# Atomic concentration: few poles with subadditive size costs.

@dataclass
class AtomicCityResult:
    """The best pole count k and its solve_p_nu solution, poles and value;
    its concentration term is value - solution.value."""

    k: int
    solution: CitySolution
    nu: DiscreteMeasure
    value: float
    per_k: dict[int, float]
    per_k_converged: dict[int, bool]
    catchments_connected: bool
    converged: bool


def _initial_poles(grid: Grid, k: int) -> np.ndarray:
    lx, ly = grid.extent
    cx, cy = 0.5 * lx, 0.5 * ly
    if k == 1:
        return np.array([[cx, cy]])
    radius = 0.25 * min(lx, ly)
    ang = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])


def _catchments_connected(assign: np.ndarray, grid: Grid, masses: np.ndarray) -> bool:
    """Flood fill each pole's set of occupied cells (4-neighborhood)."""
    amap = assign.reshape(grid.nx, grid.ny)
    occupied = masses.reshape(grid.nx, grid.ny) > 1e-14
    for label in np.unique(amap[occupied]):
        # label is that of an occupied cell, so cells is not empty
        cells = (amap == label) & occupied
        start = tuple(np.argwhere(cells)[0])
        seen = np.zeros_like(cells)
        stack = [start]
        seen[start] = True
        while stack:
            i, j = stack.pop()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < grid.nx and 0 <= b < grid.ny and cells[a, b] and not seen[a, b]:
                    seen[a, b] = True
                    stack.append((a, b))
        if not np.array_equal(seen, cells):
            return False
    return True


def minimize_with_atomic_G(p: float, spread: SpreadSpec, conc: ConcentrationSpec,
                           k_max: int, grid: Grid, tol: float = 1e-5) -> AtomicCityResult:
    """Minimize W_p^p(mu, nu) + integral f(u) + sum_k g(a_k) over densities mu
    and atom clouds nu with at most k_max poles: exhaustive sweep over the
    pole count, alternating the mu subproblem, pole position best responses,
    and projected-gradient pole sizes.

    Each outer step of one pole count is a backtracking search along the move
    from the best state found so far (Bertsekas, IEEE TAC 1976): the poles go
    min(t, 1) of the way to their per-catchment best positions, and the sizes
    take the projected step 0.1 t (g'(w) + beta), with beta the atom
    potentials at those positions. t starts at 1. A step that beats the best
    value by more than the band tol (1 + |value|) becomes the best state and
    doubles t; one worse by more than the band halves t and is retried from
    the best state, whose move is computed once, so a retry costs one
    solve_p_nu, or none when it repeats the last state evaluated. The loop
    stops at the first step within the band, and has converged if that came
    before ATOMIC_MAX_OUTER steps ran out and every solve_p_nu of the loop
    converged. The recorded value is the least one evaluated. The result's
    converged is that of the chosen pole count, and per_k_converged holds it
    for every count."""
    if conc.kind != "atomic":
        raise InputFormatError("minimize_with_atomic_G needs an atomic concentration spec")
    if k_max < 1:
        raise InputFormatError("k_max must be at least one")
    cell_pts = grid.cell_points()
    best = None
    per_k: dict[int, float] = {}
    per_k_converged: dict[int, bool] = {}

    for k in range(1, k_max + 1):
        pts = _initial_poles(grid, k)
        w = np.full(k, 1.0 / k)
        best_state = None  # (value, sol, pts, w)
        last = None  # (pts, w, mu0, sol) of the last solve_p_nu
        converged = False
        inner_converged = True
        t = 1.0
        for _ in range(ATOMIC_MAX_OUTER):
            mu = best_state[1].mu if best_state is not None else None
            if (last is not None and last[2] is mu and np.array_equal(last[0], pts)
                    and np.array_equal(last[1], w)):
                # a retry that repeats the last state, from the same warm start:
                # solve_p_nu would return the same bits
                sol = last[3]
            else:
                sol = solve_p_nu(DiscreteMeasure(weights=w, points=pts), p, spread, grid,
                                 tol=INNER_TOL, mu0=mu)
                last = (pts, w, mu, sol)
            inner_converged = inner_converged and sol.converged
            value = sol.value + float(np.sum(conc.g(w)))
            if best_state is not None:
                if abs(value - best_state[0]) <= tol * (1.0 + abs(value)):
                    if value < best_state[0]:
                        best_state = (value, sol, pts, w)
                    converged = inner_converged
                    break
                t = 2.0 * t if value < best_state[0] else 0.5 * t
            if best_state is None or value < best_state[0]:
                best_state = (value, sol, pts, w)
                masses = (sol.mu.values * grid.cell_area).ravel()
                # pole positions: best response within each catchment
                targets = pts.copy()
                for j in range(k):
                    sel = sol.assignment == j
                    if masses[sel].sum() > 0:
                        targets[j] = _pole_best_position(cell_pts[sel], masses[sel], pts[j], p)
                # pole sizes: the atom potentials are the transport-share gradient
                _, beta, _, _ = GridAtomTransport(cell_pts, targets, p).solve(masses, w)

            # the move from the best state; at s = 1 the poles land on the
            # targets bit for bit
            _, _, pts_b, w_b = best_state
            s = min(t, 1.0)
            pts = (1.0 - s) * pts_b + s * targets
            w = np.maximum(_project_simplex(w_b - 0.1 * t * (conc.g_prime(w_b) + beta), 1.0), 1e-9)
            w = w / w.sum()

        value_k, sol, pts_k, w_k = best_state
        per_k[k] = value_k
        per_k_converged[k] = converged
        if best is None or value_k < best[0]:
            masses = (sol.mu.values * grid.cell_area).ravel()
            best = (value_k, k, sol, pts_k, w_k,
                    _catchments_connected(sol.assignment, grid, masses))

    value, k, sol, pts, w, connected = best
    return AtomicCityResult(k=k, solution=sol, nu=DiscreteMeasure(weights=w, points=pts),
                            value=value, per_k=per_k, per_k_converged=per_k_converged,
                            catchments_connected=connected, converged=per_k_converged[k])


@np.errstate(over="ignore")
def _pole_best_position(points: np.ndarray, masses: np.ndarray, start: np.ndarray,
                        p: float) -> np.ndarray:
    """Minimize sum_i m_i |x_i - y|^p over y by exact barycenter (p = 2) or
    per-coordinate golden-section descent. A probe whose cost overflows is
    inf, worse than any finite one."""
    if p == 2.0:
        return (masses @ points) / masses.sum()

    y = np.array(start, dtype=float)
    span = points.max(axis=0) - points.min(axis=0) + 1e-9
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(3):
        for axis in (0, 1):
            # the probes of one sweep move y[axis] only, and golden-section
            # points often repeat bit for bit: square the fixed axis once and
            # evaluate each probe once
            fixed = (points[:, 1 - axis] - y[1 - axis]) ** 2
            moving = points[:, axis]
            costs = {}

            def cost_at(t):
                if t not in costs:
                    d = np.sqrt(fixed + (moving - t) ** 2)
                    costs[t] = float(np.dot(masses, np.power(d, p)))
                return costs[t]

            lo = y[axis] - span[axis]
            hi = y[axis] + span[axis]
            c = hi - gr * (hi - lo)
            d = lo + gr * (hi - lo)
            for _ in range(40):
                if cost_at(c) < cost_at(d):
                    hi = d
                else:
                    lo = c
                c = hi - gr * (hi - lo)
                d = lo + gr * (hi - lo)
            y[axis] = 0.5 * (lo + hi)
    return y

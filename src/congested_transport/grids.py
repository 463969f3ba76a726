"""Regular staggered grids: cell-centered scalar fields, face-normal vector
fields with a built-in no-flux boundary, discrete divergence, and CSV I/O.
This module owns the two grid rules the solvers share: the cell of a point
(``Grid.cell_of``) and the RMS co-location of face values (``_cell_rms``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputFormatError, ShapeMismatchError


@dataclass(frozen=True)
class Grid:
    """nx-by-ny cells of spacing h covering [0, nx*h] x [0, ny*h].

    ny = 1 is allowed so that one-dimensional flow problems (with their
    closed-form cumulative-sum solution) live on the same machinery.
    """

    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 1:
            raise InputFormatError(f"grid must have nx >= 2, ny >= 1, got {self.nx}x{self.ny}")
        if not 0 < self.h < np.inf:
            raise InputFormatError(f"grid spacing must be positive and finite, got {self.h}")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def extent(self) -> tuple[float, float]:
        return (self.nx * self.h, self.ny * self.h)

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """xc, yc arrays of shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.h
        y = (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y, indexing="ij")

    def cell_points(self) -> np.ndarray:
        """(n_cells, 2) cell-center coordinates, x-major order."""
        xc, yc = self.cell_centers()
        return np.column_stack([xc.ravel(), yc.ravel()])

    def cell_of(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Indices (ix, iy) of the cells containing the points (x, y), for
        scalars or arrays alike; points on or past the boundary clip inward."""
        ix = np.clip((np.asarray(x) / self.h).astype(np.int64), 0, self.nx - 1)
        iy = np.clip((np.asarray(y) / self.h).astype(np.int64), 0, self.ny - 1)
        return ix, iy

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lx, ly = self.extent
        return (pts[:, 0] >= 0) & (pts[:, 0] <= lx) & (pts[:, 1] >= 0) & (pts[:, 1] <= ly)


@dataclass
class ScalarField:
    """Cell-centered values of shape (nx, ny); for measures, values are
    densities so that h^2 * sum(values) is the total mass."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ShapeMismatchError(
                f"scalar field shape {self.values.shape} != ({self.grid.nx}, {self.grid.ny})"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputFormatError("scalar field has non-finite values")

    @property
    def total_mass(self) -> float:
        return float(self.grid.cell_area * self.values.sum())

    @staticmethod
    def zeros(grid: Grid) -> "ScalarField":
        return ScalarField(np.zeros((grid.nx, grid.ny)), grid)

    @staticmethod
    def constant(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(np.full((grid.nx, grid.ny), float(value)), grid)


@dataclass
class VectorField:
    """Staggered fluxes: vx on vertical faces (nx+1, ny), vy on horizontal
    faces (nx, ny+1). Boundary faces are identically zero (no flux)."""

    vx: np.ndarray
    vy: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=float)
        self.vy = np.asarray(self.vy, dtype=float)
        g = self.grid
        if self.vx.shape != (g.nx + 1, g.ny) or self.vy.shape != (g.nx, g.ny + 1):
            raise ShapeMismatchError(
                f"vector field shapes {self.vx.shape}, {self.vy.shape} do not match "
                f"a {g.nx}x{g.ny} staggered grid"
            )
        bmax = 0.0
        if self.vx.size:
            bmax = max(bmax, float(np.abs(self.vx[0, :]).max(initial=0.0)),
                       float(np.abs(self.vx[-1, :]).max(initial=0.0)))
        if self.vy.size:
            bmax = max(bmax, float(np.abs(self.vy[:, 0]).max(initial=0.0)),
                       float(np.abs(self.vy[:, -1]).max(initial=0.0)))
        if bmax > 0.0:
            raise ShapeMismatchError("boundary faces must carry zero flux")

    @staticmethod
    def zeros(grid: Grid) -> "VectorField":
        return VectorField(np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)), grid)

    def cell_averages(self) -> tuple[np.ndarray, np.ndarray]:
        """Arithmetic face-to-center averages (used for advection and plots)."""
        cx = 0.5 * (self.vx[:-1, :] + self.vx[1:, :])
        cy = 0.5 * (self.vy[:, :-1] + self.vy[:, 1:])
        return cx, cy

    def cell_magnitude_rms(self) -> np.ndarray:
        """Root-mean-square co-location |V|_c of each cell (see _cell_rms)."""
        return _cell_rms(self.vx[:-1, :], self.vx[1:, :], self.vy[:, :-1], self.vy[:, 1:])

    def cell_magnitude(self) -> np.ndarray:
        """Euclidean magnitude of the arithmetic cell-average vector."""
        cx, cy = self.cell_averages()
        return np.hypot(cx, cy)


def _cell_rms(left, right, bottom, top) -> np.ndarray:
    """|V|_c = sqrt((vxL^2 + vxR^2 + vyB^2 + vyT^2)/2) per cell, which reproduces the
    face-quadratic energy exactly; private, as the ADMM calls it every iteration."""
    sq = np.square(left) + np.square(right) + np.square(bottom) + np.square(top)
    return np.sqrt(0.5 * sq)


def divergence(v: VectorField, grid: Grid) -> ScalarField:
    """div(i,j) = [vx(i+1,j) - vx(i,j) + vy(i,j+1) - vy(i,j)] / h.

    With the no-flux boundary the cell sum telescopes to zero exactly.
    """
    if v.grid != grid:
        raise ShapeMismatchError("vector field was built on a different grid")
    div = (v.vx[1:, :] - v.vx[:-1, :] + v.vy[:, 1:] - v.vy[:, :-1]) / grid.h
    return ScalarField(div, grid)


# ---------------------------------------------------------------------------
# CSV I/O: ny rows x nx columns, plus a '<file>.grid' sidecar 'grid nx ny h'.

def save_scalar_csv(field: ScalarField, path) -> None:
    path = Path(path)
    np.savetxt(path, field.values.T, delimiter=",")
    _write_sidecar(path, field.grid)


def load_scalar_csv(path) -> ScalarField:
    path = Path(path)
    grid = _read_sidecar(path)
    vals = _load_table(path)
    if vals.shape != (grid.ny, grid.nx):
        raise InputFormatError(
            f"{path}: csv shape {vals.shape} != (ny={grid.ny}, nx={grid.nx})"
        )
    return ScalarField(vals.T, grid)


def save_vector_csv(v: VectorField, path_x, path_y) -> None:
    path_x, path_y = Path(path_x), Path(path_y)
    np.savetxt(path_x, v.vx.T, delimiter=",")
    np.savetxt(path_y, v.vy.T, delimiter=",")
    _write_sidecar(path_x, v.grid)
    _write_sidecar(path_y, v.grid)


def load_vector_csv(path_x, path_y) -> VectorField:
    path_x, path_y = Path(path_x), Path(path_y)
    grid = _read_sidecar(path_x)
    vx = _load_table(path_x).T
    vy = _load_table(path_y).T
    return VectorField(vx, vy, grid)


def _load_table(path: Path) -> np.ndarray:
    """The numbers of a CSV file as a 2-D array; InputFormatError unless it
    holds rows of numbers of one length."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file with no data
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise InputFormatError(f"{path}: not a numeric CSV matrix ({exc})") from None


def _write_sidecar(path: Path, grid: Grid) -> None:
    with open(str(path) + ".grid", "w", encoding="utf-8") as fh:
        fh.write(f"grid {grid.nx} {grid.ny} {grid.h!r}\n")


def _read_sidecar(path: Path) -> Grid:
    side = Path(str(path) + ".grid")
    if not side.exists():
        raise InputFormatError(f"missing grid sidecar {side}")
    try:
        kind, nx, ny, h = side.read_text(encoding="utf-8").split()
        if kind != "grid":
            raise ValueError(kind)
        nx, ny, h = int(nx), int(ny), float(h)
    except ValueError:  # a wrong token count, a token that is not a number, or not UTF-8
        raise InputFormatError(f"{side}: expected 'grid <nx> <ny> <h>'") from None
    return Grid(nx=nx, ny=ny, h=h)

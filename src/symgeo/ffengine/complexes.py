"""Geometrically realized simplicial complexes with per-cell isometric charts.

Cells are sorted vertex tuples, face-closed from the top cells.  Every cell
carries an affine chart into R^dim built from an orthonormal basis of its
affine hull, so for complexes whose simplices are flat in the ambient space
the charts are exact isometries and chart distortion is measurable via
singular values.  Per dimension the complex keeps its cells' vertex ids,
charts, barycentric solvers, facet maps and top cofaces stacked
(``cell_arrays``), which the collapse and the torus certificates gather by
cell position (``cell_index``).  ``check_uniform``
checks diameters, distortions and volumes against a uniformity scale and
returns a plain check report (``symgeo.report``).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..report import check_report

Cell = tuple[int, ...]


def simplex_gram_det(points: np.ndarray):
    """Gram determinant of the edges of the simplex spanned by k+1 points
    (1 for a single point); the squared k-volume times (k!)^2.

    ``points`` is (k+1, N) for one simplex, which gives a float, or a stack
    (..., k+1, N) of simplices, which gives an array of shape (...).  For
    k <= 2 the determinant is taken in closed form from elementwise products
    of the edges e0, e1: |e0|^2 for one edge, and for two the sum of the
    squared 2x2 minors (e0_i e1_j - e0_j e1_i)^2 over coordinate pairs i < j
    (Lagrange's identity for g00 g11 - g01^2, without its cancellation for
    slivers; in the plane, the squared cross product).  Larger simplices go
    through LAPACK.
    """
    k = points.shape[-2] - 1
    if k == 0:
        det = np.ones(points.shape[:-2])
    elif k == 1:
        e0 = points[..., 1, :] - points[..., 0, :]
        det = (e0 * e0).sum(axis=-1)
    elif k == 2:
        e0 = points[..., 1, :] - points[..., 0, :]
        e1 = points[..., 2, :] - points[..., 0, :]
        det = np.zeros(points.shape[:-2])
        for i, j in itertools.combinations(range(points.shape[-1]), 2):
            # minor * minor, not minor ** 2: a scalar's ** 2 goes through pow
            minor = e0[..., i] * e1[..., j] - e0[..., j] * e1[..., i]
            det = det + minor * minor
    else:
        edges = points[..., 1:, :] - points[..., :1, :]
        det = np.linalg.det(edges @ np.swapaxes(edges, -1, -2))
    return float(det) if points.ndim == 2 else det


def simplex_volume(points: np.ndarray):
    """k-volume of the simplex spanned by k+1 points, or of each simplex of a
    stack (..., k+1, N), as for simplex_gram_det."""
    det = simplex_gram_det(points)
    scale = math.factorial(points.shape[-2] - 1)
    if points.ndim == 2:
        return math.sqrt(max(det, 0.0)) / scale
    return np.sqrt(np.maximum(det, 0.0)) / scale


def barycentric(solver: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of chart points (..., n, d) from a chart's
    bary_solver (d+1, d+1), or from a stack of solvers (..., d+1, d+1)."""
    lifted = np.concatenate([np.ones(coords.shape[:-1] + (1,)), coords], axis=-1)
    # b solves b @ [[1, model_i]] = [1, x]
    return lifted @ solver


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of non-negative ints (..., w): big-endian
    bytes, so keys order like their rows, lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(f"V{8 * rows.shape[-1]}")[..., 0]


@dataclass(frozen=True)
class CellArrays:
    """The d-cells of a complex as stacked arrays, in cells_of_dim(d) order.
    A point with chart coordinates y on facet j (the facet without vertex j)
    of cell c has facet chart coordinates y @ linear[c, j] + offset[c, j],
    convert_coords composed into one affine step."""

    verts: np.ndarray    # (n, d+1) vertex ids
    keys: np.ndarray     # (n,) increasing row_keys of verts
    origins: np.ndarray  # (n, N) chart origin of each cell
    bases: np.ndarray    # (n, N, d) chart basis of each cell
    models: np.ndarray   # (n, d+1, d) chart coordinates of the vertices
    solvers: np.ndarray  # (n, d+1, d+1) bary_solver of each chart
    linear: np.ndarray   # (n, d+1, d, d-1) for d >= 1
    offset: np.ndarray   # (n, d+1, d-1) for d >= 1
    tops: np.ndarray     # (n, w) positions of top_cofaces(cell), -1 padded


@dataclass(frozen=True)
class Chart:
    origin: np.ndarray          # (N,)
    basis: np.ndarray           # (N, d), orthonormal columns
    model: np.ndarray           # (d+1, d) chart coordinates of the cell vertices
    bary_solver: np.ndarray     # (d+1, d+1) inverse of [[1,...],[model^T]]

    def to_chart(self, pts: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(pts) - self.origin) @ self.basis

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        return self.origin + np.atleast_2d(coords) @ self.basis.T

    def barycentric(self, coords: np.ndarray) -> np.ndarray:
        return barycentric(self.bary_solver, np.atleast_2d(coords))


class GeoComplex:
    """Face-closed simplicial complex realized by points in R^N."""

    def __init__(self, vertices: np.ndarray, top_cells: Iterable[Sequence[int]],
                 metadata: dict | None = None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a (V, N) array")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        cells: dict[int, set[Cell]] = {}
        for cell in top_cells:
            cell = tuple(sorted(int(v) for v in cell))
            if len(set(cell)) != len(cell):
                raise ValueError(f"cell {cell} repeats a vertex")
            if cell and not 0 <= cell[0] <= cell[-1] < len(self.vertices):
                raise ValueError(f"cell {cell} names a vertex outside 0..{len(self.vertices) - 1}")
            for size in range(1, len(cell) + 1):
                cells.setdefault(size - 1, set()).update(
                    itertools.combinations(cell, size)
                )
        self.cells: dict[int, list[Cell]] = {
            d: sorted(cs) for d, cs in sorted(cells.items())
        }
        self.dim = max(self.cells) if self.cells else -1
        self._cell_index = {
            d: {c: i for i, c in enumerate(cs)} for d, cs in self.cells.items()
        }
        self._charts: dict[Cell, Chart] = {}
        self._arrays: dict[int, CellArrays] = {}
        self._top_cofaces: dict[Cell, tuple[Cell, ...]] = {}
        self._min_volume: dict[int, float] = {}
        self._cofacets: dict[Cell, list[Cell]] = {}
        for d in range(self.dim, 0, -1):
            for cell in self.cells[d]:
                for facet in itertools.combinations(cell, d):
                    self._cofacets.setdefault(facet, []).append(cell)
        self.metadata = metadata or {}

    # -- structure ---------------------------------------------------------

    def cells_of_dim(self, d: int) -> list[Cell]:
        return self.cells.get(d, [])

    def has_cell(self, cell: Cell) -> bool:
        return cell in self._cell_index.get(len(cell) - 1, {})

    def cofacets(self, cell: Cell) -> list[Cell]:
        return self._cofacets.get(cell, [])

    def top_cofaces(self, cell: Cell) -> tuple[Cell, ...]:
        """Sorted top-dimensional cells containing the cell, found once per
        cell from those of its cofacets."""
        tops = self._top_cofaces.get(cell)
        if tops is None:
            if len(cell) - 1 == self.dim:
                tops = (cell,)
            else:
                tops = tuple(sorted({top for cof in self.cofacets(cell)
                                     for top in self.top_cofaces(cof)}))
            self._top_cofaces[cell] = tops
        return tops

    # -- geometry ----------------------------------------------------------

    def chart(self, cell: Cell) -> Chart:
        cached = self._charts.get(cell)
        if cached is not None:
            return cached
        pts = self.vertices[list(cell)]
        origin = pts[0]
        d = len(cell) - 1
        if d == 0:
            basis = np.zeros((self.vertices.shape[1], 0))
            model = np.zeros((1, 0))
            solver = np.ones((1, 1))
        else:
            if d > len(origin):
                raise ValueError(f"degenerate cell {cell}")
            edges = (pts[1:] - origin).T
            q, r = np.linalg.qr(edges)
            if np.abs(np.diag(r)).min() < 1e-12:
                raise ValueError(f"degenerate cell {cell}")
            sign = np.sign(np.diag(r))
            basis = q * sign
            model = np.vstack([np.zeros(d), (r.T * sign)])
            stacked = np.hstack([np.ones((d + 1, 1)), model])
            solver = np.linalg.inv(stacked)
        chart = Chart(origin, basis, model, solver)
        self._charts[cell] = chart
        return chart

    def cell_arrays(self, d: int) -> CellArrays:
        """The d-cells' CellArrays, built once per dimension from the charts
        of the cells and their facets and from their top cofaces."""
        arrays = self._arrays.get(d)
        if arrays is None:
            cells = self.cells_of_dim(d)
            charts = [self.chart(cell) for cell in cells]
            facets = [[self.chart(c[:j] + c[j + 1:]) for j in range(d + 1)] for c in cells]
            maps = [[(c.basis.T @ f.basis, (c.origin - f.origin) @ f.basis) for f in fs]
                    for c, fs in zip(charts, facets)] if d else []
            verts = np.array(cells, dtype=np.int64).reshape(len(cells), d + 1)
            top_index = self._cell_index.get(self.dim, {})
            tops = [[top_index[t] for t in self.top_cofaces(c)] for c in cells]
            width = max(map(len, tops), default=0)
            N = self.vertices.shape[1]
            arrays = CellArrays(
                verts, row_keys(verts),
                np.array([c.origin for c in charts]).reshape(len(cells), N),
                np.array([c.basis for c in charts]).reshape(len(cells), N, d),
                np.array([c.model for c in charts]).reshape(len(cells), d + 1, d),
                np.array([c.bary_solver for c in charts]).reshape(len(cells), d + 1, d + 1),
                np.array([[a for a, _ in row] for row in maps]),
                np.array([[b for _, b in row] for row in maps]),
                np.array([t + [-1] * (width - len(t)) for t in tops],
                         dtype=np.int64).reshape(len(cells), width))
            self._arrays[d] = arrays
        return arrays

    def cell_index(self, hosts: np.ndarray, strict: bool = True) -> np.ndarray:
        """Positions in cells_of_dim(d) of the cells whose vertex ids are the
        rows of hosts (..., d+1).  A row that is no cell raises ValueError,
        or gives -1 when not strict."""
        hosts = np.asarray(hosts, dtype=np.int64)
        arrays = self.cell_arrays(hosts.shape[-1] - 1)
        idx = np.searchsorted(arrays.keys, row_keys(hosts))
        # a row past the last key is compared with the last cell, or with none
        last = np.minimum(idx, len(arrays.keys) - 1)
        found = (arrays.verts[last] == hosts).all(axis=-1) if len(arrays.keys) else idx < 0
        if found.all():
            return idx
        if strict:
            bad = tuple(hosts[~found][0].tolist())
            raise ValueError(f"host {bad} is not a cell of the complex")
        return np.where(found, idx, -1)

    def to_chart(self, cell: Cell, pts: np.ndarray) -> np.ndarray:
        return self.chart(cell).to_chart(pts)

    def to_ambient(self, cell: Cell, coords: np.ndarray) -> np.ndarray:
        return self.chart(cell).to_ambient(coords)

    def barycentric(self, cell: Cell, coords: np.ndarray) -> np.ndarray:
        return self.chart(cell).barycentric(coords)

    def convert_coords(self, src: Cell, dst: Cell, coords: np.ndarray) -> np.ndarray:
        return self.to_chart(dst, self.to_ambient(src, coords))

    def cell_diameter(self, cell: Cell) -> float:
        pts = self.vertices[list(cell)]
        if len(cell) == 1:
            return 0.0
        diffs = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(-1)).max())

    def cell_volume(self, cell: Cell) -> float:
        return simplex_volume(self.chart(cell).model)

    def min_cell_volume(self, d: int) -> float:
        """Smallest volume of a d-cell, computed once per complex."""
        if d not in self._min_volume:
            if not self.cells_of_dim(d):
                raise ValueError(f"complex has no {d}-cells")
            self._min_volume[d] = min(self.cell_volume(cell) for cell in self.cells_of_dim(d))
        return self._min_volume[d]

    def chart_distortion(self, cell: Cell) -> float:
        """max(s_max, 1/s_min) of the ambient-to-chart map on the cell's hull."""
        if len(cell) == 1:
            return 1.0
        model = self.chart(cell).model  # rejects a degenerate cell
        pts = self.vertices[list(cell)]
        edges = (pts[1:] - pts[0]).T
        _, r = np.linalg.qr(edges)  # hull coordinates of the ambient edges
        chart_edges = (model[1:] - model[0]).T
        restricted = chart_edges @ np.linalg.inv(r)
        sv = np.linalg.svd(restricted, compute_uv=False)
        return float(max(sv.max(), 1.0 / sv.min()))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertices.tolist(),
            "simplices": [list(c) for c in self.cells_of_dim(self.dim)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GeoComplex":
        if not isinstance(doc, dict) or not {"vertices", "simplices"} <= doc.keys():
            raise ValueError('a mesh is a JSON object with "vertices" and "simplices"')
        return cls(np.array(doc["vertices"], dtype=float), doc["simplices"])

    @classmethod
    def from_json(cls, text: str) -> "GeoComplex":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# uniformity check
# ---------------------------------------------------------------------------


def check_uniform(cx: GeoComplex, r: float, delta: float) -> dict:
    """Checks the three uniformity conditions cell by cell.

    Diameter at most r, chart distortion at most 1 + delta, and cell volume
    at least delta * r^dim.  Returns the check report "uniformity": its
    ``max_abs_err`` is the worst violation of the three conditions (0.0 when
    all hold) and its detail the worst offender of each.  Congruent cells
    have values equal up to rounding, so the worst offender of a condition
    is the first cell, in cell order, within 1e-12 (relative) of the worst
    value.  A complex with no cells raises ValueError, as does a degenerate
    cell.
    """
    if not cx.cells:
        raise ValueError("complex has no cells")
    # (value, cell, ...) in cell order; the largest value is the worst
    diameters, distortions, shortfalls = [], [], []
    for d, cells in cx.cells.items():
        for cell in cells:
            diameters.append((cx.cell_diameter(cell), cell))
            distortions.append((cx.chart_distortion(cell), cell))
            vol, bound = cx.cell_volume(cell), delta * r ** d
            shortfalls.append((bound - vol, cell, vol, bound))

    def first_worst(rows):
        top = max(row[0] for row in rows)
        return next(row for row in rows if top - row[0] <= 1e-12 * abs(top))

    diam, diam_cell = first_worst(diameters)
    dist, dist_cell = first_worst(distortions)
    shortfall, vol_cell, vol, bound = first_worst(shortfalls)
    worst = {
        "diameter": {"value": diam, "bound": r, "cell": list(diam_cell), "ok": diam <= r},
        "distortion": {"value": dist, "bound": 1.0 + delta, "cell": list(dist_cell),
                       "ok": dist <= 1.0 + delta},
        "volume": {"margin": -shortfall, "cell": list(vol_cell), "value": vol,
                   "bound": bound, "ok": shortfall <= 0},
    }
    violation = max(0.0, diam - r, dist - (1.0 + delta), shortfall)
    return check_report("uniformity", {"r": r, "delta": delta}, violation,
                        all(info["ok"] for info in worst.values()), {"worst": worst})

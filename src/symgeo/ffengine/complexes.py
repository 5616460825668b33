"""Geometrically realized simplicial complexes with isometric charts,
stacked per dimension.

Cells are sorted vertex tuples, face-closed from the top cells.  Every cell
carries an affine chart into R^d built from an orthonormal basis of its
affine hull (a QR of its edges), so for complexes whose simplices are flat
in the ambient space the charts are exact isometries.  The charts of one
dimension are built at once, by one batched QR and one batched inverse,
each bit-identical to the chart of its cell alone, and ``chart(cell)`` is a
view of the cell's row.  Per dimension the complex keeps its cells' vertex
ids, charts, barycentric solvers, facet maps and top cofaces stacked
(``cell_arrays``), which the collapse and the torus certificates gather by
cell position (``cell_index``).  ``check_uniform`` checks diameters,
distortions and volumes against a uniformity scale, one dimension at a
time on the stacks, and returns a plain check report (``symgeo.report``).
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
    convert_coords composed into one affine step.  A 0-cell has no facet,
    so for d = 0 linear and offset are None."""

    verts: np.ndarray    # (n, d+1) vertex ids
    keys: np.ndarray     # (n,) increasing row_keys of verts
    origins: np.ndarray  # (n, N) chart origin of each cell
    bases: np.ndarray    # (n, N, d) chart basis of each cell
    models: np.ndarray   # (n, d+1, d) chart coordinates of the vertices
    solvers: np.ndarray  # (n, d+1, d+1) bary_solver of each chart
    linear: np.ndarray | None   # (n, d+1, d, d-1) for d >= 1
    offset: np.ndarray | None   # (n, d+1, d-1) for d >= 1
    tops: np.ndarray     # (n, w) positions of the top cells containing each, -1 padded


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
        self._verts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._charts: dict[int, tuple[np.ndarray, ...]] = {}
        self._arrays: dict[int, CellArrays] = {}
        self._min_volume: dict[int, float] = {}
        self.metadata = metadata or {}

    # -- structure ---------------------------------------------------------

    def cells_of_dim(self, d: int) -> list[Cell]:
        return self.cells.get(d, [])

    def has_cell(self, cell: Cell) -> bool:
        return cell in self._cell_index.get(len(cell) - 1, {})

    def vertex_ids(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The d-cells' vertex ids (n, d+1) and their increasing row_keys."""
        ids = self._verts.get(d)
        if ids is None:
            cells = self.cells_of_dim(d)
            verts = np.array(cells, dtype=np.int64).reshape(len(cells), d + 1)
            verts.flags.writeable = False
            ids = self._verts[d] = (verts, row_keys(verts))
        return ids

    def facet_index(self, d: int) -> np.ndarray:
        """(n, d+1) positions in cells_of_dim(d - 1) of the d-cells' facets,
        facet j the one without vertex j (d >= 1)."""
        drop = [[i for i in range(d + 1) if i != j] for j in range(d + 1)]
        return self.cell_index(self.vertex_ids(d)[0][:, drop])

    # -- geometry ----------------------------------------------------------

    def _chart_stack(self, d: int) -> tuple[np.ndarray, ...]:
        """Origins (n, N), bases (n, N, d), models (n, d+1, d) and solvers
        (n, d+1, d+1) of the d-cells' charts, built once per dimension by
        one batched QR and one batched inverse.  numpy runs the LAPACK
        routine of a single matrix on each matrix of a stack, so every
        chart is the one its cell alone would get.  A degenerate cell, the
        first in cell order, raises ValueError."""
        stack = self._charts.get(d)
        if stack is None:
            verts = self.vertex_ids(d)[0]
            pts = self.vertices[verts]                                  # (n, d+1, N)
            n, N = len(verts), self.vertices.shape[1]
            origins = pts[:, 0]
            if d == 0 or n == 0:
                bases, models = np.zeros((n, N, d)), np.zeros((n, d + 1, d))
                solvers = np.ones((n, d + 1, d + 1))
            else:
                if d > N:
                    raise ValueError(f"degenerate cell {self.cells_of_dim(d)[0]}")
                # the edges from the first vertex, one (N, d) matrix per cell
                q, r = np.linalg.qr(np.swapaxes(pts[:, 1:] - origins[:, None], 1, 2))
                diag = np.diagonal(r, axis1=1, axis2=2)
                bad = np.abs(diag).min(axis=1) < 1e-12
                if bad.any():
                    raise ValueError(f"degenerate cell {self.cells_of_dim(d)[np.argmax(bad)]}")
                sign = np.sign(diag)[:, None, :]
                bases = q * sign
                models = np.concatenate([np.zeros((n, 1, d)), np.swapaxes(r, 1, 2) * sign], axis=1)
                solvers = np.linalg.inv(np.concatenate([np.ones((n, d + 1, 1)), models], axis=2))
            stack = (origins, bases, models, solvers)
            for a in stack:
                # charts are views of these rows
                a.flags.writeable = False
            self._charts[d] = stack
        return stack

    def chart(self, cell: Cell) -> Chart:
        """The cell's chart, a view of its row of the dimension's stacks."""
        d = len(cell) - 1
        i = self._cell_index.get(d, {}).get(tuple(cell))
        if i is None:
            raise ValueError(f"{tuple(cell)} is not a cell of the complex")
        return Chart(*(a[i] for a in self._chart_stack(d)))

    def _top_positions(self, d: int) -> np.ndarray:
        """(n, w) positions of each d-cell's top cofaces, increasing and -1
        padded: every (d+1)-vertex face of every top cell, found by key and
        sorted by face and then by top cell."""
        verts, keys = self.vertex_ids(d)
        top_verts = self.vertex_ids(self.dim)[0]
        subsets = list(itertools.combinations(range(self.dim + 1), d + 1))
        face = np.searchsorted(keys, row_keys(top_verts[:, subsets])).ravel()
        top = np.repeat(np.arange(len(top_verts)), len(subsets))
        order = np.lexsort((top, face))
        face, top = face[order], top[order]
        counts = np.bincount(face, minlength=len(verts))
        slot = np.arange(len(face)) - (np.cumsum(counts) - counts)[face]
        tops = np.full((len(verts), counts.max(initial=0)), -1, dtype=np.int64)
        tops[face, slot] = top
        return tops

    def cell_arrays(self, d: int) -> CellArrays:
        """The d-cells' CellArrays, built once per dimension from the chart
        stacks of the d-cells and of their facets, gathered by position,
        and from their top cofaces."""
        arrays = self._arrays.get(d)
        if arrays is None:
            verts, keys = self.vertex_ids(d)
            origins, bases, models, solvers = self._chart_stack(d)
            linear = offset = None
            if d:
                facet_origins, facet_bases = self._chart_stack(d - 1)[:2]
                facets = self.facet_index(d)
                f_bases = facet_bases[facets]                           # (n, d+1, N, d-1)
                linear = np.swapaxes(bases, 1, 2)[:, None] @ f_bases
                shift = (origins[:, None] - facet_origins[facets])[:, :, None]
                offset = (shift @ f_bases)[:, :, 0]
            arrays = CellArrays(verts, keys, origins, bases, models, solvers, linear, offset,
                                self._top_positions(d))
            self._arrays[d] = arrays
        return arrays

    def cell_index(self, hosts: np.ndarray, strict: bool = True) -> np.ndarray:
        """Positions in cells_of_dim(d) of the cells whose vertex ids are the
        rows of hosts (..., d+1).  A row that is no cell raises ValueError,
        or gives -1 when not strict."""
        hosts = np.asarray(hosts, dtype=np.int64)
        verts, keys = self.vertex_ids(hosts.shape[-1] - 1)
        idx = np.searchsorted(keys, row_keys(hosts))
        # a row past the last key is compared with the last cell, or with none
        last = np.minimum(idx, len(keys) - 1)
        found = (verts[last] == hosts).all(axis=-1) if len(keys) else idx < 0
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

    def cell_volume(self, cell: Cell) -> float:
        return simplex_volume(self.chart(cell).model)

    def min_cell_volume(self, d: int) -> float:
        """Smallest volume of a d-cell, computed once per complex from the
        stacked models."""
        if d not in self._min_volume:
            if not self.cells_of_dim(d):
                raise ValueError(f"complex has no {d}-cells")
            self._min_volume[d] = float(simplex_volume(self._chart_stack(d)[2]).min())
        return self._min_volume[d]

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


def _uniformity_values(cx: GeoComplex, d: int):
    """Diameters, chart distortions and volumes of the d-cells, in cell
    order, each the arithmetic of one cell done on the dimension's stacks.

    The distortion is max(s_max, 1/s_min) of the ambient-to-chart map on
    the cell's hull, with hull coordinates from a QR of the ambient edges.
    The chart comes from the same QR, so the map is diag(sign) R R^-1 and
    its singular values are 1 up to rounding: for a complex that charts at
    all the condition cannot fail.
    """
    arrays = cx.cell_arrays(d)  # rejects a degenerate cell
    verts, models, n = arrays.verts, arrays.models, len(arrays.verts)
    if d == 0:
        return np.zeros(n), np.ones(n), simplex_volume(models)
    pts = cx.vertices[verts]
    diffs = pts[:, :, None, :] - pts[:, None, :, :]
    diameters = np.sqrt((diffs ** 2).sum(-1)).max(axis=(1, 2))
    # hull coordinates of the ambient edges
    r = np.linalg.qr(np.swapaxes(pts[:, 1:] - pts[:, :1], 1, 2), mode="r")
    chart_edges = np.swapaxes(models[:, 1:] - models[:, :1], 1, 2)
    sv = np.linalg.svd(chart_edges @ np.linalg.inv(r), compute_uv=False)
    distortions = np.maximum(sv.max(axis=1), 1.0 / sv.min(axis=1))
    return diameters, distortions, simplex_volume(models)


def check_uniform(cx: GeoComplex, r: float, delta: float) -> dict:
    """Checks the three uniformity conditions, one dimension at a time.

    Diameter at most r, chart distortion at most 1 + delta, and cell volume
    at least delta * r^dim.  Returns the check report "uniformity": its
    ``max_abs_err`` is the worst violation of the three conditions (0.0 when
    all hold) and its detail the worst offender of each.  Congruent cells
    have values equal up to rounding, so the worst offender of a condition
    is the first cell, in cell order, within 1e-12 (relative) of the worst
    value.  A complex with no cells raises ValueError, as does a degenerate
    cell.  The distortion condition is vacuous (see _uniformity_values).
    """
    if not cx.cells:
        raise ValueError("complex has no cells")
    # one value per cell, dimensions in order and cells in cell order; the
    # largest value is the worst
    cells = [cell for d in cx.cells for cell in cx.cells_of_dim(d)]
    diameters, distortions, volumes = (
        np.concatenate(column) for column in zip(*(_uniformity_values(cx, d) for d in cx.cells)))
    bounds = np.concatenate([np.full(len(cx.cells_of_dim(d)), delta * r ** d) for d in cx.cells])

    def first_worst(rows):
        top = rows.max()
        return int(np.argmax(top - rows <= 1e-12 * abs(top)))

    i, j, k = (first_worst(rows) for rows in (diameters, distortions, bounds - volumes))
    diam, dist = float(diameters[i]), float(distortions[j])
    vol, bound = float(volumes[k]), float(bounds[k])
    shortfall = bound - vol
    worst = {
        "diameter": {"value": diam, "bound": r, "cell": list(cells[i]), "ok": diam <= r},
        "distortion": {"value": dist, "bound": 1.0 + delta, "cell": list(cells[j]),
                       "ok": dist <= 1.0 + delta},
        "volume": {"margin": -shortfall, "cell": list(cells[k]), "value": vol,
                   "bound": bound, "ok": shortfall <= 0},
    }
    violation = max(0.0, diam - r, dist - (1.0 + delta), shortfall)
    return check_report("uniformity", {"r": r, "delta": delta}, violation,
                        all(info["ok"] for info in worst.values()), {"worst": worst})

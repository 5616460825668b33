"""Brute-force mod-2 simplicial homology, used as the oracle for deformation
tests: boundary matrices over GF(2), cycle tests, and homologous-chain tests
by membership in the image of the boundary, all on one incremental GF(2) row
basis.

The image of a boundary map depends only on the complex, so
boundary_image builds it once per complex and keeps it until the complex
is freed.  Cycle tests and cell vectors cost work proportional to the
vector's support, not to the complex.
"""

from __future__ import annotations

import weakref

import numpy as np

from .complexes import GeoComplex


def boundary_matrix(cx: GeoComplex, d: int) -> np.ndarray:
    """GF(2) matrix of the boundary map C_d -> C_{d-1}."""
    row_index = cx._cell_index.get(d - 1, {})
    cols = cx.cells_of_dim(d)
    mat = np.zeros((len(row_index), len(cols)), dtype=np.uint8)
    for j, cell in enumerate(cols):
        for i in range(len(cell)):
            facet = cell[:i] + cell[i + 1:]
            mat[row_index[facet], j] ^= 1
    return mat


def gf2_rank(mat: np.ndarray) -> int:
    # row rank equals column rank; inserting the fewer vectors is cheaper
    return Gf2RowSpace(mat if mat.shape[0] <= mat.shape[1] else mat.T).rank


def betti(cx: GeoComplex, d: int) -> int:
    n_d = len(cx.cells_of_dim(d))
    rank_d = gf2_rank(boundary_matrix(cx, d)) if d >= 1 else 0
    rank_up = (
        gf2_rank(boundary_matrix(cx, d + 1)) if cx.cells_of_dim(d + 1) else 0
    )
    return (n_d - rank_d) - rank_up


def is_cycle(cx: GeoComplex, d: int, vec: np.ndarray) -> bool:
    """Has the GF(2) d-chain vec zero boundary?  Only the facets of the
    vector's support cells are visited."""
    if d == 0:
        return True
    cells = cx.cells_of_dim(d)
    if len(vec) != len(cells):
        raise ValueError(f"vector has {len(vec)} entries for {len(cells)} {d}-cells")
    boundary: set = set()
    for j in np.flatnonzero(np.asarray(vec) % 2):
        cell = cells[j]
        boundary ^= {cell[:i] + cell[i + 1:] for i in range(d + 1)}
    return not boundary


def homologous(cx: GeoComplex, d: int, vec1: np.ndarray, vec2: np.ndarray) -> bool:
    """Two d-cycles are homologous iff their sum bounds."""
    diff = (vec1 ^ vec2).astype(np.uint8)
    return not diff.any() or boundary_image(cx, d + 1).bounds(diff)


def cell_vector(cx: GeoComplex, d: int, cells) -> np.ndarray:
    index = cx._cell_index.get(d, {})
    vec = np.zeros(len(index), dtype=np.uint8)
    for cell in cells:
        vec[index[tuple(sorted(cell))]] ^= 1
    return vec


class Gf2RowSpace:
    """Incremental GF(2) row basis with fast membership tests."""

    def __init__(self, rows: np.ndarray):
        self._basis: dict[int, np.ndarray] = {}
        for row in np.asarray(rows, dtype=np.uint8) % 2:
            self._insert(row.copy())

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        for pivot, row in self._basis.items():
            if v[pivot]:
                v ^= row
        return v

    def _insert(self, row: np.ndarray):
        row = self._reduce(row)
        nz = np.flatnonzero(row)
        if nz.size:
            self._basis[int(nz[0])] = row

    @property
    def rank(self) -> int:
        return len(self._basis)

    def contains(self, v: np.ndarray) -> bool:
        return not self._reduce(np.array(v, dtype=np.uint8) % 2).any()


class BoundaryImage:
    """Cached membership test for the image of the boundary C_d -> C_{d-1}."""

    def __init__(self, cx: GeoComplex, d: int):
        self.space = Gf2RowSpace(boundary_matrix(cx, d).T)

    def bounds(self, vec: np.ndarray) -> bool:
        return self.space.contains(vec)


#: complex -> {d: BoundaryImage}; an entry goes when its complex is freed
_IMAGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def boundary_image(cx: GeoComplex, d: int) -> BoundaryImage:
    """The BoundaryImage of C_d -> C_{d-1}, built once per complex and d; it
    is dropped when the complex is."""
    images = _IMAGES.setdefault(cx, {})
    if d not in images:
        images[d] = BoundaryImage(cx, d)
    return images[d]

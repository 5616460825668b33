"""Mod-2 simplicial homology, used as the oracle for deformation tests:
Betti numbers, cycle tests, and homologous-chain tests by membership in the
image of the boundary, all on one bit-packed GF(2) engine.

A GF(2) vector is a Python int whose bit i is its i-th coordinate.  The
boundary of each d-cell is one such row over the (d-1)-cells, built from
vertex-id keys (GeoComplex.facet_index) without charts.  Gf2Basis keeps
rows keyed by their lowest set bit and reduces a vector by XOR, lowest bit
first.

The image of a boundary map depends only on the complex, so
boundary_image builds it once per complex and keeps it until the complex
is freed; Betti numbers take their ranks from it.  Cycle tests and cell
vectors cost work proportional to the vector's support, not to the
complex.
"""

from __future__ import annotations

import weakref

import numpy as np

from .complexes import GeoComplex


def boundary_rows(cx: GeoComplex, d: int) -> list[int]:
    """Row j is the boundary of the j-th d-cell, a bit set over the
    (d-1)-cells; all rows are 0 for d = 0."""
    if d == 0:
        return [0] * len(cx.cells_of_dim(0))
    bit = (1).__lshift__
    return [sum(map(bit, row)) for row in cx.facet_index(d).tolist()]


def pack(vec: np.ndarray) -> int:
    """A 0/1 vector (entries read mod 2) as an int, entry i as bit i."""
    bits = np.packbits(np.asarray(vec, dtype=np.uint8) % 2, bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


class Gf2Basis:
    """Incremental GF(2) row basis: rows packed into ints, each keyed by its
    lowest set bit, which no other row of the basis has."""

    def __init__(self, rows):
        self._rows: dict[int, int] = {}
        for row in rows:
            self.add(row)

    def reduce(self, v: int) -> int:
        """0 when v lies in the span; otherwise a nonzero remainder whose
        lowest set bit keys no row."""
        rows = self._rows
        while v:
            row = rows.get(v & -v)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int):
        v = self.reduce(v)
        if v:
            self._rows[v & -v] = v

    @property
    def rank(self) -> int:
        return len(self._rows)

    def contains(self, v: int) -> bool:
        return not self.reduce(v)


def betti(cx: GeoComplex, d: int) -> int:
    rank_d, rank_up = (boundary_image(cx, e).space.rank for e in (d, d + 1))
    return (len(cx.cells_of_dim(d)) - rank_d) - rank_up


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


class BoundaryImage:
    """Cached membership test for the image of the boundary C_d -> C_{d-1}."""

    def __init__(self, cx: GeoComplex, d: int):
        self.space = Gf2Basis(boundary_rows(cx, d))

    def bounds(self, vec: np.ndarray) -> bool:
        return self.space.contains(pack(vec))


#: complex -> {d: BoundaryImage}; an entry goes when its complex is freed
_IMAGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def boundary_image(cx: GeoComplex, d: int) -> BoundaryImage:
    """The BoundaryImage of C_d -> C_{d-1}, built once per complex and d; it
    is dropped when the complex is."""
    images = _IMAGES.setdefault(cx, {})
    if d not in images:
        images[d] = BoundaryImage(cx, d)
    return images[d]

"""Polyhedral chains with mod-2 coefficients inside a geometric complex.

A k-chain is an ordered list of pieces, affine k-simplices given by k+1
points in the chart of a host cell, held as one Block of arrays per host
dimension; ``PolyChain.pieces`` is a view built on first read.  Building a
chain prunes degenerate pieces by one stacked Gram determinant per block
(which also gives the volumes) and cancels identical pieces in pairs (Z/2)
by one np.unique per block on keys of the host and the rounded, row-sorted
points: a key with an odd count keeps its last occurrence, in the order of
those occurrences.  A chain looks its blocks' hosts up in a complex once
(``PolyChain.host_ids``), and normalize_chain and validate_chain take one
stacked barycentric product per block, with the solvers of the complex's
arrays.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .complexes import Cell, GeoComplex, barycentric, simplex_gram_det

#: pieces with squared-volume Gram determinant below this are dropped
DEGENERATE_GRAM = 1e-18

#: decimals used when hashing piece coordinates for Z/2 cancellation
_KEY_DECIMALS = 9


@dataclass(frozen=True)
class Piece:
    host: Cell
    points: np.ndarray  # (k+1, dim host) chart coordinates


class Block(NamedTuple):
    """The pieces of a list hosted on cells of one dimension d, in list
    order."""

    hosts: np.ndarray   # (P, d+1) vertex ids of the host cells
    points: np.ndarray  # (P, k+1, d) chart coordinates
    index: np.ndarray   # (P,) increasing positions in the list


def _views(blocks: dict[int, Block], size: int) -> list[Piece]:
    out: list = [None] * size
    for block in blocks.values():
        for i, host, pts in zip(block.index.tolist(), block.hosts.tolist(), block.points):
            out[i] = Piece(tuple(host), pts)
    return out


class PieceList:
    """An ordered list of k-pieces held as blocks by host dimension;
    iterating gives Piece views in list order."""

    def __init__(self, blocks: dict[int, Block], size: int):
        self.blocks, self.size = blocks, size

    @classmethod
    def of(cls, k: int, pieces: Iterable[Piece]) -> "PieceList":
        groups: dict[int, list] = {}
        for i, piece in enumerate(pieces):
            pts = np.asarray(piece.points, dtype=float)
            if pts.shape[0] != k + 1:
                raise ValueError(f"piece has {pts.shape[0]} points, expected {k + 1}")
            groups.setdefault(len(piece.host) - 1, []).append((i, piece.host, pts))
        blocks = {}
        for d, group in sorted(groups.items()):
            index, hosts, pts = zip(*group)
            blocks[d] = Block(np.array(hosts, dtype=np.int64).reshape(-1, d + 1),
                              np.stack(pts), np.array(index))
        return cls(blocks, sum(map(len, groups.values())))

    def __iter__(self):
        return iter(_views(self.blocks, self.size))


def _cancel_keys(block: Block) -> np.ndarray:
    """One key per piece: its host and its rounded points in a canonical
    row order."""
    P, k1, d = block.points.shape
    rows = np.round(block.points, _KEY_DECIMALS) + 0.0
    if d:
        # any fixed order of the rows is canonical; their bytes order them
        rows = np.sort(np.ascontiguousarray(rows).view(f"V{8 * d}")[..., 0], axis=-1)
    hosts = np.ascontiguousarray(block.hosts, dtype=np.int64).view(np.uint8)
    rows = np.ascontiguousarray(rows).view(np.uint8)
    key = np.concatenate([hosts.reshape(P, 8 * (d + 1)), rows.reshape(P, 8 * k1 * d)], axis=1)
    return key.view(f"V{key.shape[1]}")[:, 0]


class PolyChain:
    """Mod-2 polyhedral k-chain; construction prunes and cancels pieces.

    ``pieces`` are Piece objects or a PieceList.  ``pruned`` and
    ``cancelled`` count the pieces construction dropped as degenerate and
    cancelled in pairs.
    """

    def __init__(self, k: int, pieces: Iterable[Piece] | PieceList):
        self.k = int(k)
        given = pieces if isinstance(pieces, PieceList) else PieceList.of(self.k, pieces)
        kept: dict[int, tuple] = {}
        self.pruned = self.cancelled = 0
        for d, block in given.blocks.items():
            det = simplex_gram_det(block.points)
            live = np.flatnonzero(~(det < DEGENERATE_GRAM))[::-1]
            # np.unique gives a key's first index in live, which is reversed:
            # its last occurrence
            _, first, counts = np.unique(_cancel_keys(block)[live], return_index=True,
                                         return_counts=True)
            rows = np.sort(live[first[counts % 2 == 1]])
            self.pruned += len(block.index) - len(live)
            self.cancelled += len(live) - len(rows)
            if len(rows):
                kept[d] = (block.hosts[rows], block.points[rows], block.index[rows], det[rows])
        # renumber the kept pieces 0..n-1 in list order
        position = np.sort(np.concatenate([index for _, _, index, _ in kept.values()] or [[]]))
        self.blocks: dict[int, Block] = {}
        #: simplex_volume of each piece, in piece order, from its determinant
        self.volumes = np.zeros(len(position))
        scale = math.factorial(self.k)
        for d, (hosts, pts, index, det) in kept.items():
            index = np.searchsorted(position, index)
            self.blocks[d] = Block(hosts, pts, index)
            self.volumes[index] = np.sqrt(np.maximum(det, 0.0)) / scale
        # weak reference to the complex normalize_chain returned this chain
        # for, so the mark keeps no complex (or its caches) alive
        self._normalized_in: weakref.ref | None = None
        # (weak reference to a complex, {d: host_ids of block d in it})
        self._ids: tuple = (None, {})

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return tuple(_views(self.blocks, len(self)))

    def __len__(self):
        return len(self.volumes)

    def volume(self) -> float:
        return float(sum(self.volumes.tolist()))

    def max_host_dim(self) -> int:
        return max(self.blocks, default=-1)

    def host_ids(self, cx: GeoComplex, d: int, known: np.ndarray | None = None) -> np.ndarray:
        """Positions in cx.cells_of_dim(d) of the hosts of block d, looked up
        (GeoComplex.cell_index) once per chain and complex, or taken from
        ``known`` when a builder has looked them up already."""
        ref, ids = self._ids
        if ref is None or ref() is not cx:
            ids = {}
            self._ids = (weakref.ref(cx), ids)
        if known is not None:
            ids[d] = known
        elif d not in ids:
            ids[d] = cx.cell_index(self.blocks[d].hosts)
        return ids[d]

    def mark_normalized(self, cx: GeoComplex):
        """Record that every piece is hosted in the lowest face of cx
        containing it, so that normalized_for(cx) is true and
        normalize_chain(cx, self) returns the chain at once."""
        self._normalized_in = weakref.ref(cx)

    def normalized_for(self, cx: GeoComplex) -> bool:
        """Whether normalize_chain(cx, ...) returned this chain or it was
        marked for cx, so every piece is already hosted in the lowest face
        of cx containing it (the pieces are fixed at construction)."""
        return self._normalized_in is not None and self._normalized_in() is cx


# ---------------------------------------------------------------------------
# host normalization and validation
# ---------------------------------------------------------------------------

_CONTAIN_TOL = 1e-9


def normalize_host(cx: GeoComplex, piece: Piece) -> Piece:
    """Re-host a piece to the lowest face containing it."""
    while True:
        d = len(piece.host) - 1
        if d == 0:
            return piece
        bary = cx.barycentric(piece.host, piece.points)
        dead = [j for j in range(d + 1) if np.abs(bary[:, j]).max() <= _CONTAIN_TOL]
        if not dead:
            return piece
        keep = [j for j in range(d + 1) if j not in dead]
        face = tuple(piece.host[j] for j in keep)
        coords = cx.convert_coords(piece.host, face, piece.points)
        piece = Piece(face, coords)


def _bary(cx: GeoComplex, idx: np.ndarray, points: np.ndarray) -> np.ndarray:
    # barycentric coordinates (P, k+1, d+1) of points (P, k+1, d) in the
    # d-cells at positions idx
    return barycentric(cx.cell_arrays(points.shape[-1]).solvers[idx], points)


def normalize_chain(cx: GeoComplex, chain: PolyChain) -> PolyChain:
    """Re-host every piece to the lowest face containing it.

    The chain itself is returned when no piece has a dead barycentric
    coordinate; otherwise only the flagged pieces are re-hosted and the
    chain is rebuilt, so pieces that now share a face cancel mod 2.  The
    returned chain, which may be the argument, is marked so that its
    ``normalized_for(cx)`` is true; a chain so marked is returned at once.
    """
    if chain.normalized_for(cx):
        return chain
    flagged = []
    for d, block in chain.blocks.items():
        bary = _bary(cx, chain.host_ids(cx, d), block.points)
        flagged.extend(block.index[(np.abs(bary) <= _CONTAIN_TOL).all(axis=1).any(axis=1)])
    if flagged:
        pieces = list(chain.pieces)
        for i in flagged:
            pieces[i] = normalize_host(cx, pieces[i])
        chain = PolyChain(chain.k, pieces)
    chain.mark_normalized(cx)
    return chain


def validate_chain(cx: GeoComplex, chain: PolyChain, tol: float = _CONTAIN_TOL):
    """Every piece must sit inside its host cell, a cell of cx (barycentric
    check, one stacked product per host dimension); the first piece in
    order that fails raises ValueError."""
    n = len(chain)
    missing, lo, hi = np.zeros(n, dtype=bool), np.zeros(n), np.ones(n)
    for d, block in chain.blocks.items():
        # a chain normalized for cx is hosted on cells of cx
        idx = (chain.host_ids(cx, d) if chain.normalized_for(cx)
               else cx.cell_index(block.hosts, strict=False))
        missing[block.index] = idx < 0
        at, found = block.index[idx >= 0], idx >= 0
        bary = _bary(cx, idx[found], block.points[found])
        lo[at], hi[at] = bary.min(axis=(1, 2)), bary.max(axis=(1, 2))
    bad = np.flatnonzero(missing | (lo < -tol) | (hi > 1.0 + tol))
    if bad.size:
        i = bad[0]
        host = chain.pieces[i].host
        if missing[i]:
            raise ValueError(f"host {host} is not a cell of the complex")
        raise ValueError(f"piece escapes host {host}: barycentric range "
                         f"[{lo[i]:.3e}, {hi[i]:.3e}]")

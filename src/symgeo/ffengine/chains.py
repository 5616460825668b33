"""Polyhedral chains with mod-2 coefficients inside a geometric complex.

A chain of dimension k is a list of pieces; each piece is an affine
k-simplex given by k+1 points in the chart of its host cell.  Identical
pieces cancel in pairs (Z/2 coefficients) and pieces below the degeneracy
threshold are pruned at construction.

Pieces whose points have one shape (one host dimension) are handled as one
stacked array: construction prunes with one stacked Gram determinant and
rounds the cancellation keys in one call per shape, the volumes come from
the same determinants, and normalize_chain and validate_chain test every
piece's barycentric coordinates with one stacked product per host
dimension.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .complexes import Cell, GeoComplex, barycentric, simplex_gram_det, simplex_volume

#: pieces with squared-volume Gram determinant below this are dropped
DEGENERATE_GRAM = 1e-18

#: decimals used when hashing piece coordinates for Z/2 cancellation
_KEY_DECIMALS = 9


@dataclass(frozen=True)
class Piece:
    host: Cell
    points: np.ndarray  # (k+1, dim host) chart coordinates


def piece_volume(piece: Piece) -> float:
    return simplex_volume(piece.points)


def _per_shape(fn: Callable, pieces: Sequence[Piece]) -> list:
    """fn(points, group) on each group of pieces of one point shape, with
    their points stacked; returns fn's values per piece, in piece order."""
    groups: dict = {}
    for i, piece in enumerate(pieces):
        groups.setdefault(piece.points.shape, []).append(i)
    out: list = [None] * len(pieces)
    for idx in groups.values():
        group = [pieces[i] for i in idx]
        for i, value in zip(idx, fn(np.stack([p.points for p in group]), group)):
            out[i] = value
    return out


def _keys_and_dets(pts: np.ndarray, _) -> list:
    # the sorted rounded points, a piece's Z/2 key with its host, and the
    # Gram determinant of each piece
    rows = (np.round(pts, _KEY_DECIMALS) + 0.0).tolist()
    return list(zip((tuple(sorted(map(tuple, r))) for r in rows),
                    simplex_gram_det(pts).tolist()))


class PolyChain:
    """Mod-2 polyhedral k-chain; construction prunes and cancels pieces."""

    def __init__(self, k: int, pieces: Iterable[Piece]):
        self.k = int(k)
        given = []
        for piece in pieces:
            pts = np.asarray(piece.points, dtype=float)
            if pts.shape[0] != self.k + 1:
                raise ValueError(
                    f"piece has {pts.shape[0]} points, expected {self.k + 1}"
                )
            given.append(piece if pts is piece.points else Piece(piece.host, pts))
        kept: dict = {}
        for piece, (rows, det) in zip(given, _per_shape(_keys_and_dets, given)):
            if det < DEGENERATE_GRAM:
                continue
            key = (piece.host, rows)
            if key in kept:
                del kept[key]  # Z/2: second copy cancels the first
            else:
                kept[key] = (piece, det)
        self.pieces: tuple[Piece, ...] = tuple(piece for piece, _ in kept.values())
        scale = math.factorial(self.k)
        #: simplex_volume of each piece, from the determinant already taken
        self.volumes: list[float] = [math.sqrt(max(det, 0.0)) / scale
                                     for _, det in kept.values()]
        # weak reference to the complex normalize_chain returned this chain
        # for, so the mark keeps no complex (or its caches) alive
        self._normalized_in: weakref.ref | None = None

    def __len__(self):
        return len(self.pieces)

    def volume(self) -> float:
        return float(sum(self.volumes))

    def max_host_dim(self) -> int:
        return max((len(p.host) - 1 for p in self.pieces), default=-1)

    def normalized_for(self, cx: GeoComplex) -> bool:
        """Whether normalize_chain(cx, ...) returned this chain, so every
        piece is already hosted in the lowest face of cx containing it (the
        pieces are fixed at construction)."""
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


def normalize_chain(cx: GeoComplex, chain: PolyChain) -> PolyChain:
    """Re-host every piece to the lowest face containing it.

    The chain itself is returned when no piece has a dead barycentric
    coordinate; otherwise only the flagged pieces are re-hosted and the
    chain is rebuilt, so pieces that now share a face cancel mod 2.  The
    returned chain, which may be the argument, is marked so that its
    ``normalized_for(cx)`` is true.
    """

    def dead(pts, group):
        bary = barycentric(np.stack([cx.chart(p.host).bary_solver for p in group]), pts)
        return (np.abs(bary) <= _CONTAIN_TOL).all(axis=1).any(axis=1).tolist()

    flagged = [i for i, f in enumerate(_per_shape(dead, chain.pieces)) if f]
    if flagged:
        pieces = list(chain.pieces)
        for i in flagged:
            pieces[i] = normalize_host(cx, pieces[i])
        chain = PolyChain(chain.k, pieces)
    chain._normalized_in = weakref.ref(cx)
    return chain


def validate_chain(cx: GeoComplex, chain: PolyChain, tol: float = _CONTAIN_TOL):
    """Every piece must sit inside its host cell (barycentric check).

    The pieces are checked in order, up to the first whose host is not a
    cell, with one stacked barycentric product per host dimension.
    """
    pieces = chain.pieces
    bad = next((i for i, p in enumerate(pieces) if not cx.has_cell(p.host)), len(pieces))

    def bary_range(pts, group):
        bary = barycentric(np.stack([cx.chart(p.host).bary_solver for p in group]), pts)
        return zip(bary.min(axis=(1, 2)).tolist(), bary.max(axis=(1, 2)).tolist())

    for piece, (lo, hi) in zip(pieces, _per_shape(bary_range, pieces[:bad])):
        if lo < -tol or hi > 1.0 + tol:
            raise ValueError(
                f"piece escapes host {piece.host}: barycentric range "
                f"[{lo:.3e}, {hi:.3e}]"
            )
    if bad < len(pieces):
        raise ValueError(f"host {pieces[bad].host} is not a cell of the complex")


# ---------------------------------------------------------------------------
# boundary parity (mod 2)
# ---------------------------------------------------------------------------


def boundary_keys(cx: GeoComplex, chain: PolyChain, decimals: int = 7) -> set:
    """Ambient-coordinate keys of the mod-2 boundary; empty iff closed."""
    parity: dict = {}
    for piece in chain.pieces:
        ambient = cx.to_ambient(piece.host, piece.points)
        for drop in range(piece.points.shape[0]):
            facet = np.delete(ambient, drop, axis=0)
            key = tuple(sorted(tuple(np.round(row, decimals) + 0.0) for row in facet))
            parity[key] = parity.get(key, 0) ^ 1
    return {key for key, p in parity.items() if p}


def is_closed(cx: GeoComplex, chain: PolyChain) -> bool:
    return not boundary_keys(cx, chain)


# ---------------------------------------------------------------------------
# serialization: pieces as ambient point lists plus host vertex tuples
# ---------------------------------------------------------------------------


def chain_to_json_dict(cx: GeoComplex, chain: PolyChain) -> dict:
    return {
        "k": chain.k,
        "pieces": [
            {
                "host": list(p.host),
                "points": cx.to_ambient(p.host, p.points).tolist(),
            }
            for p in chain.pieces
        ],
    }


def chain_from_json_dict(cx: GeoComplex, doc: dict) -> PolyChain:
    k = int(doc["k"])
    pieces = []
    for item in doc["pieces"]:
        host = tuple(sorted(int(v) for v in item["host"]))
        if not cx.has_cell(host):
            raise ValueError(f"host {host} is not a cell of the complex")
        pts = cx.to_chart(host, np.array(item["points"], dtype=float))
        pieces.append(Piece(host, pts))
    chain = PolyChain(k, pieces)
    validate_chain(cx, chain, tol=1e-6)
    return normalize_chain(cx, chain)

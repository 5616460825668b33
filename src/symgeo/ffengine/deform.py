"""Skeleton-by-skeleton collapse of polyhedral chains by radial projection.

One level of the deformation takes every piece hosted in an m-cell, picks an
interior center for that cell, and pushes the piece radially onto the cell
boundary.  The piece is first split by exit facet: the ray from the center x
through y leaves the cell through facet j iff c_i b_j(y) - c_j b_i(y) <= 0
for all i (b barycentric, c = b(x)), a linear condition, so the split is a
convex clipping in the piece's own parameter simplex.  On each part the
projection is projective, so images of vertices span the image piece.

Homotopy tracks are exact cone-volume differences: the region swept by
y -> (1-t) y + t p(y) is the cone over the projected part minus the cone over
the part itself, both measured from the center.

At the chain's own dimension the only choice is whether a cell is fully
covered (the piece stays, as a whole cell) or not (the radial collapse kills
its k-volume); mod-2 interval parity decides coverage for curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import Piece, PolyChain, normalize_chain, piece_volume
from .complexes import Cell, GeoComplex, simplex_volume

#: centers must keep this distance from pieces and their affine hulls
CENTER_CLEARANCE = 1e-9

#: parameter-space tolerance when clipping pieces
_CLIP_TOL = 1e-12

#: merge tolerance for mod-2 interval endpoints on edges
_MERGE_TOL = 1e-7


class CenterSelectionError(RuntimeError):
    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


# ---------------------------------------------------------------------------
# exit-facet decomposition and projection
# ---------------------------------------------------------------------------


def _clip_interval(constraints, rhs):
    lo, hi = 0.0, 1.0
    for a, d in zip(constraints, rhs):
        if abs(a) < _CLIP_TOL:
            if d < -_CLIP_TOL:
                return None
            continue
        bound = d / a
        if a > 0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    if hi - lo <= _CLIP_TOL:
        return None
    return lo, hi


def _clip_polygon(poly, constraints, rhs):
    # Sutherland-Hodgman against each half-plane a . t <= d
    for a, d in zip(constraints, rhs):
        if not poly:
            return []
        out = []
        prev = poly[-1]
        prev_val = a @ prev - d
        for cur in poly:
            cur_val = a @ cur - d
            if cur_val <= _CLIP_TOL:
                if prev_val > _CLIP_TOL:
                    t = prev_val / (prev_val - cur_val)
                    out.append(prev + t * (cur - prev))
                out.append(cur)
            elif prev_val <= _CLIP_TOL:
                t = prev_val / (prev_val - cur_val)
                out.append(prev + t * (cur - prev))
            prev, prev_val = cur, cur_val
        poly = out
    return poly


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    for i in range(1, len(poly) - 1):
        e1, e2 = poly[i] - poly[0], poly[i + 1] - poly[0]
        area += abs(e1[0] * e2[1] - e1[1] * e2[0]) / 2.0
    return area


def _exit_regions(cx: GeoComplex, cell: Cell, x0: np.ndarray, piece: Piece):
    """Split a piece by exit facet; yields (facet_index, param_vertices).

    Parameter vertices are barycentric-style coordinates in the piece's own
    simplex (length-k vectors t with t >= 0, sum t <= 1).
    """
    chart = cx.chart(cell)
    m = len(cell) - 1
    k = piece.points.shape[0] - 1
    if k > 2:
        raise NotImplementedError("exit-facet clipping supports pieces of dim <= 2")
    c = chart.barycentric(x0[None, :])[0]
    b = chart.barycentric(piece.points)  # (k+1, m+1)
    b0, B = b[0], (b[1:] - b[0]).T  # B: (m+1, k)

    for j in range(m + 1):
        rows, rhs = [], []
        for i in range(m + 1):
            if i == j:
                continue
            rows.append(c[i] * B[j] - c[j] * B[i])
            rhs.append(-(c[i] * b0[j] - c[j] * b0[i]))
        if k == 0:
            # constraints reduce to 0 <= rhs; argmin ties go to the lowest j
            if all(r >= -_CLIP_TOL for r in rhs):
                yield j, np.zeros((1, 0))
                return
            continue
        if k == 1:
            seg = _clip_interval([row[0] for row in rows], rhs)
            if seg is not None:
                yield j, np.array([[seg[0]], [seg[1]]])
            continue
        poly = _clip_polygon(
            [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            rows,
            rhs,
        )
        if _polygon_area(poly) > _CLIP_TOL:
            yield j, np.vstack(poly)


def _param_to_chart(piece: Piece, params: np.ndarray) -> np.ndarray:
    T = piece.points[1:] - piece.points[0]
    if params.shape[1] == 0:
        return np.repeat(piece.points[:1], params.shape[0], axis=0)
    return piece.points[0] + params @ T


def _project_from(chart, x0: np.ndarray, pts: np.ndarray, j: int) -> np.ndarray:
    bary = chart.barycentric(pts)
    cj = chart.barycentric(x0[None, :])[0][j]
    denom = cj - bary[:, j]
    if np.any(denom <= 0):
        raise FloatingPointError("projection ray does not exit through facet")
    s = (cj / denom)[:, None]
    return x0 + s * (pts - x0)


def _fan_simplices(verts: np.ndarray, k: int):
    """Triangulate a convex polytope vertex list into k-simplices."""
    n = verts.shape[0]
    if n == k + 1:
        yield verts
        return
    if k == 2:
        for i in range(1, n - 1):
            yield verts[[0, i, i + 1]]
    elif k == 1:
        yield verts[[0, n - 1]]
    else:
        yield verts[: k + 1]


def _cone_volume(apex: np.ndarray, verts: np.ndarray, k: int) -> float:
    """(k+1)-volume of the cone from apex over a convex polytope."""
    total = 0.0
    for simplex in _fan_simplices(verts, k):
        total += simplex_volume(np.vstack([simplex, apex[None, :]]))
    return total


def project_piece(cx: GeoComplex, cell: Cell, x0: np.ndarray, piece: Piece):
    """Radially project one piece onto the cell boundary.

    Returns (pieces on facet cells, projected k-volume, track (k+1)-volume).
    """
    chart = cx.chart(cell)
    k = piece.points.shape[0] - 1
    new_pieces: list[Piece] = []
    proj_volume = 0.0
    track = 0.0
    for j, params in _exit_regions(cx, cell, x0, piece):
        part = _param_to_chart(piece, params)
        image = _project_from(chart, x0, part, j)
        if k >= 1:
            track += _cone_volume(x0, image, k) - _cone_volume(x0, part, k)
        facet = cell[:j] + cell[j + 1:]
        image_facet = cx.convert_coords(cell, facet, image)
        for simplex in _fan_simplices(image_facet, k):
            proj_volume += simplex_volume(simplex)
            new_pieces.append(Piece(facet, simplex))
    return new_pieces, proj_volume, max(track, 0.0)


def radial_project(cx: GeoComplex, cell: Cell, x0, piece: Piece) -> list[Piece]:
    """Image pieces of the central projection from x0 onto the cell boundary.

    Pieces already on the boundary are returned unchanged; the center must
    keep clear of the piece and of its affine hull.
    """
    x0 = np.asarray(x0, dtype=float)
    bary = cx.barycentric(cell, piece.points)
    for j in range(len(cell)):
        if np.abs(bary[:, j]).max() <= CENTER_CLEARANCE:
            return [piece]
    if _center_too_close(x0, piece, len(cell) - 1):
        raise ValueError("center is within clearance of the piece; reselect")
    return project_piece(cx, cell, x0, piece)[0]


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------


def _dist_to_affine_hull(x: np.ndarray, pts: np.ndarray) -> float:
    base = pts[0]
    span = pts[1:] - base
    v = x - base
    if span.shape[0] == 0:
        return float(np.linalg.norm(v))
    coef = np.linalg.lstsq(span.T, v, rcond=None)[0]
    return float(np.linalg.norm(v - coef @ span))


def _dist_to_piece(x: np.ndarray, piece: Piece) -> float:
    pts = piece.points
    k = pts.shape[0] - 1
    if k == 0:
        return float(np.linalg.norm(x - pts[0]))
    if k == 1:
        d = pts[1] - pts[0]
        t = float(np.clip((x - pts[0]) @ d / (d @ d), 0.0, 1.0))
        return float(np.linalg.norm(x - (pts[0] + t * d)))
    # k = 2: exact enough for clearance tests: hull distance when the foot
    # lies inside, otherwise the nearest edge
    base, span = pts[0], pts[1:] - pts[0]
    coef, *_ = np.linalg.lstsq(span.T, x - base, rcond=None)
    if coef.min() >= 0 and coef.sum() <= 1:
        return _dist_to_affine_hull(x, pts)
    return min(
        _dist_to_piece(x, Piece(piece.host, pts[[i, j]]))
        for i in range(3)
        for j in range(i + 1, 3)
    )


def _center_too_close(x0: np.ndarray, piece: Piece, m: int) -> bool:
    k = piece.points.shape[0] - 1
    if _dist_to_piece(x0, piece) < CENTER_CLEARANCE:
        return True
    # a center inside the affine hull of a lower-dimensional piece breaks the
    # radial-graph property of the projection
    if k < m and _dist_to_affine_hull(x0, piece.points) < CENTER_CLEARANCE:
        return True
    return False


@dataclass
class CenterInfo:
    point: np.ndarray
    ratio: float
    tries: int
    c_target: float


def select_center(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece],
                  c_target: float | None = None, max_tries: int = 64,
                  rng=None) -> CenterInfo:
    """Seeded rejection sampling of a projection center inside the cell.

    Accepts the first candidate whose projected volume and homotopy track are
    both at most c_target times the piece volume.  Without an explicit
    c_target, 4x the median ratio of a small candidate batch is used.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    chart = cx.chart(cell)
    m = len(cell) - 1
    if not pieces:
        bary = np.full(m + 1, 1.0 / (m + 1))
        return CenterInfo(bary @ chart.model, 0.0, 0, 0.0)
    total = sum(piece_volume(p) for p in pieces)
    full_dim = all(p.points.shape[0] - 1 == m for p in pieces)

    candidates = []
    for attempt in range(1, max_tries + 1):
        x0 = rng.dirichlet(np.ones(m + 1)) @ chart.model
        if any(_center_too_close(x0, p, m) for p in pieces):
            continue
        if full_dim:
            # projecting a full-dimensional piece to the boundary kills its
            # volume and sweeps no (k+1)-volume inside the cell
            return CenterInfo(x0, 0.0, attempt, c_target or 0.0)
        proj = track = 0.0
        try:
            for p in pieces:
                _, dp, dt = project_piece(cx, cell, x0, p)
                proj += dp
                track += dt
        except FloatingPointError:
            continue
        ratio = max(proj, track) / total
        candidates.append((ratio, x0, attempt))
        if c_target is None and len(candidates) >= min(8, max_tries):
            c_target = 4.0 * float(np.median([r for r, _, _ in candidates]))
            for r, x, a in candidates:
                if r <= c_target:
                    return CenterInfo(x, r, a, c_target)
        elif c_target is not None and ratio <= c_target:
            return CenterInfo(x0, ratio, attempt, c_target)
    if candidates and c_target is None:
        # tiny max_tries: fall back to the best candidate seen
        best = min(candidates, key=lambda c: c[0])
        return CenterInfo(best[1], best[0], best[2], 4.0 * best[0])
    best = min(candidates, key=lambda c: c[0]) if candidates else None
    raise CenterSelectionError(
        f"no acceptable center in {max_tries} tries for cell {cell}",
        best=CenterInfo(best[1], best[0], best[2], c_target or 0.0) if best else None,
    )


# ---------------------------------------------------------------------------
# mod-2 interval parity on edges (final collapse for curves)
# ---------------------------------------------------------------------------


def _edge_intervals(pieces: Sequence[Piece]) -> list[tuple[float, float]]:
    """Mod-2 reduction of 1-pieces on a single edge chart to intervals."""
    events: list[float] = []
    for p in pieces:
        a, b = float(p.points[0, 0]), float(p.points[1, 0])
        events.extend((min(a, b), max(a, b)))
    events.sort()
    flips = []
    i = 0
    while i < len(events):
        j = i
        while j + 1 < len(events) and events[j + 1] - events[i] <= _MERGE_TOL:
            j += 1
        if (j - i + 1) % 2:
            flips.append(sum(events[i:j + 1]) / (j - i + 1))
        i = j + 1
    out = []
    for lo, hi in zip(flips[::2], flips[1::2]):
        if hi - lo > _MERGE_TOL:
            out.append((lo, hi))
    return out


def _covers_edge(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece]) -> bool:
    length = float(cx.chart(cell).model[1, 0])
    intervals = _edge_intervals(pieces)
    return (
        len(intervals) == 1
        and abs(intervals[0][0]) <= 1e-6 * max(length, 1.0)
        and abs(intervals[0][1] - length) <= 1e-6 * max(length, 1.0)
    )


def _whole_cell_piece(cx: GeoComplex, cell: Cell) -> Piece:
    return Piece(cell, cx.chart(cell).model.copy())


def _covers_cell(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece]) -> bool:
    k = len(cell) - 1
    if k == 1:
        return _covers_edge(cx, cell, pieces)
    total = sum(piece_volume(p) for p in pieces)
    return total >= cx.cell_volume(cell) * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# deformation steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepTrace:
    level: int
    cells: int
    volume_before: float
    volume_after: float
    track: float

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "cells": self.cells,
            "volume_before": self.volume_before,
            "volume_after": self.volume_after,
            "track": self.track,
        }


@dataclass(frozen=True)
class FFResult:
    final: PolyChain
    total_track: float
    steps: tuple[StepTrace, ...]
    whole_cells: tuple[Cell, ...]
    max_cell_ratio: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "total_track": self.total_track,
            "steps": [s.to_json_dict() for s in self.steps],
            "whole_cells": [list(c) for c in self.whole_cells],
            "max_cell_ratio": self.max_cell_ratio,
        }


def _cell_rng(seed: int, level: int, cell: Cell) -> np.random.Generator:
    # per-cell substream, independent of processing order
    return np.random.default_rng([seed & 0x7FFFFFFF, level, *cell])


def ff_step(cx: GeoComplex, chain: PolyChain, m: int, seed: int,
            c_target: float | None = None, max_tries: int = 64):
    """One collapse level: push pieces out of the open m-cells.

    For m > k every m-hosted piece is radially projected to the cell
    boundary; for m = k cells are kept exactly when covered.  Pieces hosted
    in the (m-1)-skeleton pass through unchanged.  Returns the new chain and
    the homotopy-track volume of this level.
    """
    chain = normalize_chain(cx, chain)
    if chain.max_host_dim() > m:
        raise ValueError(f"chain is not supported in the {m}-skeleton")
    if m < chain.k:
        raise ValueError("level below the chain dimension")
    passthrough = [p for p in chain.pieces if len(p.host) - 1 < m]
    groups: dict[Cell, list[Piece]] = {}
    for p in chain.pieces:
        if len(p.host) - 1 == m:
            groups.setdefault(p.host, []).append(p)

    new_pieces = list(passthrough)
    whole_cells = []
    track = 0.0
    max_ratio = 0.0
    for cell in sorted(groups):
        pieces = groups[cell]
        if m == chain.k:
            if _covers_cell(cx, cell, pieces):
                new_pieces.append(_whole_cell_piece(cx, cell))
                whole_cells.append(cell)
            # otherwise the radial collapse pushes the partial mass into the
            # (k-1)-skeleton where it carries no k-volume
            continue
        rng = _cell_rng(seed, m, cell)
        info = select_center(cx, cell, pieces, c_target=c_target,
                             max_tries=max_tries, rng=rng)
        max_ratio = max(max_ratio, info.ratio)
        for p in pieces:
            projected, _, dt = project_piece(cx, cell, info.point, p)
            new_pieces.extend(projected)
            track += dt
    out = normalize_chain(cx, PolyChain(chain.k, new_pieces))
    return out, track, tuple(whole_cells), max_ratio


def ff_deform(cx: GeoComplex, chain: PolyChain, seed: int,
              c_target: float | None = None, max_tries: int = 64) -> FFResult:
    """Full deformation of a k-chain into the k-skeleton.

    Descends one skeleton level at a time; the final chain is a union of
    whole k-cells (cells the chain covered) while everything else has been
    collapsed into the (k-1)-skeleton.
    """
    if not chain.k < cx.dim:
        raise ValueError("chain dimension must be below the complex dimension")
    chain = normalize_chain(cx, chain)
    steps = []
    total_track = 0.0
    max_ratio = 0.0
    whole: tuple[Cell, ...] = ()
    for m in range(cx.dim, chain.k - 1, -1):
        before = chain.volume()
        cells = len({p.host for p in chain.pieces if len(p.host) - 1 == m})
        chain, track, whole_m, ratio = ff_step(cx, chain, m, seed,
                                               c_target=c_target,
                                               max_tries=max_tries)
        total_track += track
        max_ratio = max(max_ratio, ratio)
        if m == chain.k:
            whole = whole_m
        steps.append(StepTrace(m, cells, before, chain.volume(), track))
    return FFResult(chain, total_track, tuple(steps), whole, max_ratio)


def remainder_decomposition(cx: GeoComplex, result: FFResult):
    """Split the final chain into whole k-cells and skeleton remainder.

    The decomposition is exhaustive: every piece either is one of the whole
    cells or must sit inside the (k-1)-skeleton.
    """
    whole = set(result.whole_cells)
    n_pieces, q_pieces = [], []
    for piece in result.final.pieces:
        if piece.host in whole:
            n_pieces.append(piece)
        else:
            q_pieces.append(piece)
    for piece in q_pieces:
        if len(piece.host) - 1 > result.final.k - 1:
            raise AssertionError(
                f"remainder piece hosted on {piece.host} is outside the "
                f"{result.final.k - 1}-skeleton"
            )
    return n_pieces, q_pieces


def vanishing_threshold(cx: GeoComplex, k: int, c_measured: float) -> float:
    """Local-mass threshold below which a point must collapse to the
    (k-1)-skeleton: min cell volume over the step constant and the count of
    top cells around a k-cell."""
    vols = [cx.cell_volume(cell) for cell in cx.cells_of_dim(k)]
    if not vols:
        raise ValueError(f"complex has no {k}-cells")
    c = max(float(c_measured), 1.0)
    return min(vols) / (c * math.comb(cx.dim + 1, k + 1))

"""Skeleton-by-skeleton collapse of polyhedral chains by radial projection.

One level of the deformation takes every piece hosted in an m-cell, picks an
interior center for that cell, and pushes the piece radially onto the cell
boundary.  The piece is first split by exit facet: the ray from the center x
through y leaves the cell through facet j iff c_i b_j(y) - c_j b_i(y) <= 0
for all i (b barycentric, c = b(x)), a linear condition, so the split is a
convex clipping in the piece's own parameter simplex.  On each part the
projection is projective, so images of vertices span the image piece.  Where
a piece lies on a tie c_i b_j = c_j b_i between two facets, the tied stretch
exits through the lower facet index only.

One batched kernel, project_pieces, does this for the candidate centers of
every m-cell of a level at once: the cells' barycentric solvers and charts
are stacked, each cell's pieces are padded to a common count under a mask,
barycentrics are an (L, C, m+1) array, the exit-facet constraints an
(L, C, P, m+1, m+1) tensor, interval clipping for curves and the clearance
test are array expressions, the images reach the facet charts by one
affine map per (cell, facet), and the volumes come from one stacked
simplex-volume call (only the clipping of triangles loops).  select_centers
draws a block of candidates per cell, each from the cell's own seeded
stream, scores all blocks with one kernel call, and applies the acceptance
rule cell by cell; cells that accept nothing draw their next blocks
together, one kernel call per round.  ff_step calls select_centers once per
level above the chain's dimension and keeps the image pieces and tracks
each chosen center was scored with.  select_center and project_piece are
the one-cell and one-piece forms of the two calls.

Homotopy tracks are exact cone-volume differences: the region swept by
y -> (1-t) y + t p(y) is the cone over the projected part minus the cone over
the part itself, both measured from the center.

At the chain's own dimension the only choice is whether a cell is fully
covered (the piece stays, as a whole cell) or not (the radial collapse kills
its k-volume); mod-2 interval parity decides coverage for curves.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .chains import Piece, PolyChain, normalize_chain, piece_volume
from .complexes import Cell, GeoComplex, barycentric, simplex_volume

#: centers must keep this distance from pieces and their affine hulls
CENTER_CLEARANCE = 1e-9

#: parameter-space tolerance when clipping pieces
_CLIP_TOL = 1e-12

#: merge tolerance for mod-2 interval endpoints on edges
_MERGE_TOL = 1e-7


class CenterSelectionError(RuntimeError):
    """No acceptable center in a cell; ``accepted`` holds the centers of the
    cells of the level chosen before it."""

    def __init__(self, msg, accepted=()):
        super().__init__(msg)
        self.accepted = accepted


# ---------------------------------------------------------------------------
# exit-facet kernel: every candidate center against every piece, every cell
# ---------------------------------------------------------------------------


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


_UNIT_TRIANGLE = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def _exit_params(rows: np.ndarray, rhs: np.ndarray, k: int):
    """Clip each piece's parameter simplex to each exit region.

    rows (..., J, J, k) and rhs (..., J, J) hold the constraints
    rows[..., j, i, :] . t <= rhs[..., j, i] of exit facet j.  Returns the
    region vertices (..., J, V, k) in parameter space and their counts
    (..., J), 0 where the region is empty.  A constraint that is identically
    zero on the piece (the piece lies where facets i and j tie) hands the
    tied stretch to the lower facet index, so no stretch has two exits.
    """
    J = rhs.shape[-1]
    if k == 0:
        # constraints reduce to 0 <= rhs; argmin ties go to the lowest j
        feasible = (rhs >= -_CLIP_TOL).all(axis=-1)
        first = feasible & (np.cumsum(feasible, axis=-1) == 1)
        return np.zeros(rhs.shape[:-1] + (1, 0)), np.where(first, 1, 0)
    flat = (np.abs(rows) < _CLIP_TOL).all(axis=-1)
    tied = (flat & (np.abs(rhs) <= _CLIP_TOL) & np.tri(J, k=-1, dtype=bool)).any(axis=-1)
    if k == 1:
        a = rows[..., 0]
        bound = rhs / a
        hi = np.minimum(np.where(~flat & (a > 0), bound, np.inf).min(axis=-1), 1.0)
        lo = np.maximum(np.where(~flat & (a < 0), bound, -np.inf).max(axis=-1), 0.0)
        empty = (flat & (rhs < -_CLIP_TOL)).any(axis=-1) | (hi - lo <= _CLIP_TOL) | tied
        return np.stack([lo, hi], axis=-1)[..., None], np.where(empty, 0, 2)
    polys = {}
    for idx in np.ndindex(tied.shape):
        if tied[idx]:
            continue
        poly = _clip_polygon(list(_UNIT_TRIANGLE), rows[idx], rhs[idx])
        if _polygon_area(poly) > _CLIP_TOL:
            polys[idx] = np.vstack(poly)
    params = np.zeros(tied.shape + (max(map(len, polys.values()), default=3), 2))
    counts = np.zeros(tied.shape, dtype=int)
    for idx, poly in polys.items():
        params[idx][:len(poly)] = poly
        counts[idx] = len(poly)
    return params, counts


def _fan(k: int, n_verts: int) -> np.ndarray:
    """Vertex indices (S, k+1) of the fan triangulation of a convex polytope
    with up to n_verts vertices; fan simplex s exists when the polytope has
    more than fan[s, -1] vertices."""
    if k < 2:
        return np.arange(k + 1)[None, :]
    return np.array([[0, t, t + 1] for t in range(1, n_verts - 1)])


def _segment_distance(v: np.ndarray, d: np.ndarray, clip: bool) -> np.ndarray:
    """Distance from points v to the segment [0, d] (clip) or the line R d."""
    t = (v * d).sum(axis=-1) / (d * d).sum(axis=-1)
    if clip:
        t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm(v - t[..., None] * d, axis=-1)


def _too_close(x: np.ndarray, pts: np.ndarray, m: int) -> np.ndarray:
    """Which of the centers x (..., C, m) lie within CENTER_CLEARANCE of a
    piece (pts is (..., P, k+1, m), the same leading axes) or, for pieces of
    lower dimension than the cell, of its affine hull; a center there breaks
    the radial-graph property of the projection."""
    k = pts.shape[-2] - 1
    pts = pts[..., None, :, :, :]
    v = x[..., :, None, :] - pts[..., 0, :]                     # (..., C, P, m)
    if k == 0:
        hull = dist = np.linalg.norm(v, axis=-1)
    elif k == 1:
        d = pts[..., 1, :] - pts[..., 0, :]
        hull = _segment_distance(v, d, clip=False)
        dist = _segment_distance(v, d, clip=True)
    elif k == 2:
        e1, e2 = pts[..., 1, :] - pts[..., 0, :], pts[..., 2, :] - pts[..., 0, :]
        g11, g12, g22 = (e1 * e1).sum(-1), (e1 * e2).sum(-1), (e2 * e2).sum(-1)
        r1, r2 = (v * e1).sum(-1), (v * e2).sum(-1)
        det = g11 * g22 - g12 * g12
        s, t = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
        hull = np.linalg.norm(v - s[..., None] * e1 - t[..., None] * e2, axis=-1)
        # hull distance when the foot lies inside, otherwise the nearest edge
        edges = np.minimum(
            np.minimum(_segment_distance(v, e1, True), _segment_distance(v, e2, True)),
            _segment_distance(v - e1, e2 - e1, True),
        )
        dist = np.where((s >= 0) & (t >= 0) & (s + t <= 1), hull, edges)
    else:
        raise NotImplementedError("center clearance supports pieces of dim <= 2")
    close = dist < CENTER_CLEARANCE
    if k < m:
        close |= hull < CENTER_CLEARANCE
    return close.any(axis=-1)


@dataclass(frozen=True)
class Projections:
    """Radial projections of the pieces of L cells from C candidate centers
    per cell; each cell's pieces fill the first of its P piece slots.

    Per cell and candidate: projected k-volume ``proj``, homotopy-track
    (k+1)-volume ``track`` (the sum of ``piece_tracks`` over the pieces),
    whether the center keeps clearance from every piece (``clear``), and
    whether every exit ray leaves through its facet (``exits``).  Values of a
    candidate that fails either verdict are meaningless.
    """

    cells: tuple[Cell, ...]
    k: int
    centers: np.ndarray       # (L, C, m)
    proj: np.ndarray          # (L, C)
    track: np.ndarray         # (L, C)
    piece_tracks: np.ndarray  # (L, C, P), 0 in empty slots
    clear: np.ndarray         # (L, C) bool
    exits: np.ndarray         # (L, C) bool
    params: np.ndarray        # (L, C, P, J, V, k) exit regions, piece parameters
    counts: np.ndarray        # (L, C, P, J) vertices per exit region, 0 if empty
    images: np.ndarray        # (L, C, P, J, V, m-1) image vertices, facet charts

    def image_pieces(self, cell: int, i: int) -> list[Piece]:
        """Image pieces of candidate i of a cell, piece by piece and facet by
        facet."""
        out: list[Piece] = []
        counts, host = self.counts[cell, i], self.cells[cell]
        for p, j in zip(*np.nonzero(counts)):
            verts = self.images[cell, i, p, j, :counts[p, j]]
            facet = host[:j] + host[j + 1:]
            out.extend(Piece(facet, verts[s]) for s in _fan(self.k, len(verts)))
        return out


def _running_sum(values: np.ndarray) -> np.ndarray:
    # left-to-right sum over the last axis, the order a scalar loop adds in
    return np.add.accumulate(values, axis=-1)[..., -1]


def _stack_pieces(pieces: Sequence[Sequence[Piece]]):
    """Points (L, P, k+1, m) of each cell's pieces, a cell with fewer than P
    pieces filling its slots with copies of its first, and the (L, P) mask
    of the slots that hold a piece of their own."""
    P = max(map(len, pieces))
    pts = np.stack([p.points for ps in pieces for p in [*ps, *[ps[0]] * (P - len(ps))]])
    filled = np.arange(P) < np.array([len(ps) for ps in pieces])[:, None]
    return pts.reshape((len(pieces), P) + pts.shape[1:]), filled


def project_pieces(cx: GeoComplex, cells: Sequence[Cell], centers: np.ndarray,
                   pieces: Sequence[Sequence[Piece]]) -> Projections:
    """Radially project the pieces of every cell from each of its C centers
    onto the cell boundary, all cells, candidates and pieces at once.

    ``cells`` are L cells of one dimension m, ``centers`` is (L, C, m) in
    their charts and ``pieces[l]`` the non-empty pieces of cell l, all of one
    dimension k <= 2.  The ray from a center x through y leaves the cell
    through facet j iff c_i b_j(y) - c_j b_i(y) <= 0 for all i (b
    barycentric, c = b(x)), so each piece's parameter simplex is clipped to
    one convex region per facet; on a region the projection is projective
    and the images of its vertices span the image.  The copies that fill the
    slots of a cell with fewer pieces (_stack_pieces) add nothing to the
    clearance test and are masked out of regions and volumes.
    """
    cells = tuple(cells)
    L, m = len(cells), len(cells[0]) - 1
    J = m + 1
    x = np.asarray(centers, dtype=float).reshape(L, -1, m)
    pts, filled = _stack_pieces(pieces)                             # (L, P, k+1, m), (L, P)
    P, k = pts.shape[1], pts.shape[2] - 1
    if k > 2:
        raise NotImplementedError("exit-facet clipping supports pieces of dim <= 2")
    solver = np.stack([cx.chart(cell).bary_solver for cell in cells])  # (L, J, J)

    def bary(coords):
        # every cell's chart.barycentric at once
        return barycentric(solver, coords.reshape(L, -1, m)).reshape(coords.shape[:-1] + (J,))

    C = x.shape[1]
    # values of a candidate that fails a verdict may be inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        clear = ~_too_close(x, pts, m)                              # (L, C)
        c = bary(x)                                                 # (L, C, J)
        b = bary(pts)                                               # (L, P, k+1, J)
        b0, B = b[:, :, 0], np.swapaxes(b[:, :, 1:] - b[:, :, :1], -1, -2)
        ci, cj = c[:, :, None, None, :], c[:, :, None, :, None]     # c_i, c_j on axes (j, i)
        B = B[:, None]                                              # (L, 1, P, J, k)
        rows = ci[..., None] * B[..., :, None, :] - cj[..., None] * B[..., None, :, :]
        b0 = b0[:, None]                                            # (L, 1, P, J)
        rhs = -(ci * b0[..., :, None] - cj * b0[..., None, :])
        params, counts = _exit_params(rows, rhs, k)
        counts = np.where(filled[:, None, :, None], counts, 0)
        V = params.shape[-2]
        # region vertices in the cell chart and their projections
        T = pts[:, :, 1:] - pts[:, :, :1]
        part = pts[:, None, :, None, :1] + params @ T[:, None, :, None]  # (L, C, P, J, V, m)
        b_part = bary(part)
        c_exit = c[:, :, None, :, None]
        denom = c_exit - np.moveaxis(np.diagonal(b_part, axis1=3, axis2=5), -1, 3)
        live = np.arange(V) < counts[..., None]
        exits = ~(live & (denom <= 0)).any(axis=(2, 3, 4))
        apex = x[:, :, None, None, None, :]
        image = apex + (c_exit / denom)[..., None] * (part - apex)
        # cell chart -> facet chart, in one affine step per (cell, facet)
        maps = [cx.facet_maps(cell) for cell in cells]
        linear = np.stack([a for a, _ in maps])[:, None, None]      # (L, 1, 1, J, m, m-1)
        offset = np.stack([b for _, b in maps])[:, None, None, :, None]
        images = image @ linear + offset                            # (L, C, P, J, V, m-1)
        images = np.where(live[..., None], images, 0.0)             # 0 past each count

        fan = _fan(k, V)
        in_fan = counts[..., None] > fan[:, -1]                     # (L, C, P, J, S)
        face_volumes = np.where(in_fan, simplex_volume(images[..., fan, :]), 0.0)
        piece_proj = _running_sum(face_volumes.reshape(L, C, P, -1))
        if k == 0:
            piece_tracks = np.zeros((L, C, P))
        else:
            # the track of a region is the cone over its image minus the cone
            # over the region itself, both from the center
            apex = np.broadcast_to(apex[..., None, :], in_fan.shape + (1, m))

            def cones(verts):
                cone = np.concatenate([verts[..., fan, :], apex], axis=-2)
                return _running_sum(np.where(in_fan, simplex_volume(cone), 0.0))

            swept = np.where(counts > 0, cones(image) - cones(part), 0.0)
            piece_tracks = np.maximum(_running_sum(swept), 0.0)
    return Projections(
        cells, k, x, _running_sum(piece_proj), _running_sum(piece_tracks), piece_tracks,
        clear, exits, params, counts, images,
    )


def project_piece(cx: GeoComplex, cell: Cell, x0: np.ndarray, piece: Piece):
    """Radially project one piece onto the cell boundary.

    Returns (pieces on facet cells, projected k-volume, track (k+1)-volume).
    """
    x0 = np.asarray(x0, dtype=float)
    scored = project_pieces(cx, [cell], x0[None, None, :], [[piece]])
    if not scored.exits[0, 0]:
        raise FloatingPointError("projection ray does not exit through facet")
    return scored.image_pieces(0, 0), float(scored.proj[0, 0]), float(scored.track[0, 0])


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------

#: the default acceptance rule looks at the first _BATCH valid candidates;
#: candidates are drawn and scored in blocks of the same size
_BATCH = 8

#: candidates a cell may try before center selection gives up; a multiple of
#: _BATCH, so every block is full
_MAX_TRIES = 64


@dataclass
class CenterInfo:
    point: np.ndarray
    ratio: float
    tries: int
    #: image pieces of the projection from point, and the homotopy-track
    #: volume of each input piece's projection
    pieces: tuple[Piece, ...]
    tracks: tuple[float, ...]
    #: candidates rejected before the choice: within clearance of a piece, or
    #: with an exit ray that misses its facet
    rejected_clearance: int
    rejected_exit: int


class _CenterSearch:
    """One cell's rejection sampling, fed one scored block of candidates at a
    time; ``info`` is set once a candidate is accepted."""

    def __init__(self, cx, cell, pieces, rng, c_target, total):
        self.cell, self.pieces, self.rng = cell, pieces, rng
        self.model = cx.chart(cell).model
        self.target, self.total = c_target, total
        self.attempt = self.rejected_clearance = self.rejected_exit = 0
        self.candidates: list = []  # (ratio, attempt, scored, cell row, candidate)
        self.info: CenterInfo | None = None

    def accept(self, candidate):
        ratio, attempt, scored, row, i = candidate
        self.info = CenterInfo(
            scored.centers[row, i], ratio, attempt,
            tuple(scored.image_pieces(row, i)),
            tuple(scored.piece_tracks[row, i, :len(self.pieces)].tolist()),
            self.rejected_clearance, self.rejected_exit,
        )

    def feed(self, scored: Projections, row: int, ratios: list[float]):
        clear, exits = scored.clear[row].tolist(), scored.exits[row].tolist()
        for i, ratio in enumerate(ratios):
            self.attempt += 1
            if not clear[i]:
                self.rejected_clearance += 1
                continue
            if not exits[i]:
                self.rejected_exit += 1
                continue
            self.candidates.append((ratio, self.attempt, scored, row, i))
            if self.target is None and len(self.candidates) >= _BATCH:
                self.target = 4.0 * statistics.median(c[0] for c in self.candidates)
                for candidate in self.candidates:
                    if candidate[0] <= self.target:
                        return self.accept(candidate)
            elif self.target is not None and ratio <= self.target:
                return self.accept(self.candidates[-1])

    def finish(self, accepted: list[CenterInfo]):
        """The choice once _MAX_TRIES candidates found none acceptable."""
        if self.candidates and self.target is None:
            # fewer than _BATCH valid candidates set no target: the best
            # candidate seen is the choice
            return self.accept(min(self.candidates, key=lambda c: c[0]))
        raise CenterSelectionError(
            f"no acceptable center in {_MAX_TRIES} tries for cell {self.cell}",
            accepted=tuple(accepted),
        )


def select_centers(cx: GeoComplex, cells: Sequence[Cell],
                   pieces: Sequence[Sequence[Piece]], totals: Sequence[float],
                   rngs: Sequence, c_target: float | None = None):
    """Seeded rejection sampling of a projection center in each of the cells
    of one dimension m, cell l drawing from rngs[l].

    Every cell must hold pieces, all of one dimension k < m, of total
    k-volume totals[l].  Each cell accepts the first candidate whose
    projected volume and homotopy track are both at most c_target times
    that total.  Without an explicit c_target, 4x the median ratio of its
    first 8 valid candidates is used.
    Every cell draws a block of candidates, and one project_pieces call
    scores the blocks of all cells still searching; the choices are those of
    drawing each cell's candidates one at a time.  Returns the cells'
    CenterInfos and the number of kernel calls.  The first cell (in the
    given order) left without a center after _MAX_TRIES candidates raises
    CenterSelectionError, which carries the CenterInfos of the cells before
    it.
    """
    m = len(cells[0]) - 1 if cells else 0
    if not all(pieces) or any(len(ps[0].points) > m for ps in pieces):
        raise ValueError("every cell needs pieces of a dimension below the cell's")
    searches = [_CenterSearch(cx, cell, ps, rng, c_target, total)
                for cell, ps, total, rng in zip(cells, pieces, totals, rngs)]
    active = searches
    kernel_calls = 0
    while active:
        centers = np.stack([s.rng.dirichlet(np.ones(m + 1), size=_BATCH) @ s.model
                            for s in active])
        kernel_calls += 1
        scored = project_pieces(cx, [s.cell for s in active], centers,
                                [s.pieces for s in active])
        totals = np.array([s.total for s in active])[:, None]
        ratios = (np.maximum(scored.proj, scored.track) / totals).tolist()
        for row, s in enumerate(active):
            s.feed(scored, row, ratios[row])
        active = [s for s in active if s.info is None and s.attempt < _MAX_TRIES]
    infos: list[CenterInfo] = []
    for s in searches:
        if s.info is None:
            s.finish(infos)
        infos.append(s.info)
    return infos, kernel_calls


def select_center(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece],
                  c_target: float | None = None, rng=None) -> CenterInfo:
    """select_centers for one cell; rng is a Generator or a seed."""
    total = sum(simplex_volume(p.points) for p in pieces)
    return select_centers(cx, [cell], [list(pieces)], [total],
                          [np.random.default_rng(rng)], c_target)[0][0]


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


def covers_edge(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece]) -> bool:
    """Do the 1-pieces on an edge cover it exactly once mod 2?  Each end of
    the covered interval may miss by 1e-6 times the edge length, or by 1e-6
    on edges shorter than 1."""
    length = float(cx.chart(cell).model[1, 0])
    tol = 1e-6 * max(length, 1.0)
    intervals = _edge_intervals(pieces)
    return (
        len(intervals) == 1
        and abs(intervals[0][0]) <= tol
        and abs(intervals[0][1] - length) <= tol
    )


def _whole_cell_piece(cx: GeoComplex, cell: Cell) -> Piece:
    return Piece(cell, cx.chart(cell).model.copy())


def _covers_cell(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece]) -> bool:
    k = len(cell) - 1
    if k == 1:
        return covers_edge(cx, cell, pieces)
    total = sum(piece_volume(p) for p in pieces)
    return total >= cx.cell_volume(cell) * (1.0 - 1e-6)


# ---------------------------------------------------------------------------
# deformation steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepTrace:
    """What one collapse level did.

    ``cells`` counts the m-cells holding pieces; ``pieces_in`` and
    ``pieces_out`` count the pieces of the chain entering and leaving the
    level.  ``center_tries`` sums the tries of the accepted centers, and
    ``rejected_clearance`` and ``rejected_exit`` count the candidates that
    center selection rejected, by reason.  ``kernel_calls`` counts the
    scoring rounds, each one kernel call over every cell still searching: 1
    when every cell accepts a candidate of its first block.  Every field is
    deterministic for a given seed.
    """

    level: int
    cells: int
    volume_before: float
    volume_after: float
    track: float
    pieces_in: int
    pieces_out: int
    center_tries: int
    rejected_clearance: int
    rejected_exit: int
    kernel_calls: int

    def to_json_dict(self) -> dict:
        return asdict(self)


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
            c_target: float | None = None):
    """One collapse level: push pieces out of the open m-cells.

    For m > k every m-hosted piece is radially projected to the cell
    boundary from the center select_centers chose for its cell, reusing the
    images it scored that center with; for m = k cells are kept exactly when
    covered.  Pieces hosted in the (m-1)-skeleton pass through unchanged.
    The chain is normalized first unless normalize_chain already returned it
    for cx, and the new chain is normalized.  Returns the new chain, the
    level's StepTrace (with its homotopy-track volume), the cells kept whole
    and the largest accepted center ratio.
    """
    if not chain.normalized_for(cx):
        chain = normalize_chain(cx, chain)
    before = chain.volume()
    if chain.max_host_dim() > m:
        raise ValueError(f"chain is not supported in the {m}-skeleton")
    if m < chain.k:
        raise ValueError("level below the chain dimension")
    passthrough = [p for p in chain.pieces if len(p.host) - 1 < m]
    groups: dict[Cell, list[Piece]] = {}
    totals: dict[Cell, float] = {}
    for p, volume in zip(chain.pieces, chain.volumes):
        if len(p.host) - 1 == m:
            groups.setdefault(p.host, []).append(p)
            totals[p.host] = totals.get(p.host, 0.0) + volume
    cells = sorted(groups)

    new_pieces = list(passthrough)
    whole_cells = []
    track = 0.0
    max_ratio = 0.0
    infos: list[CenterInfo] = []
    kernel_calls = 0
    if m == chain.k:
        for cell in cells:
            if _covers_cell(cx, cell, groups[cell]):
                new_pieces.append(_whole_cell_piece(cx, cell))
                whole_cells.append(cell)
            # otherwise the radial collapse pushes the partial mass into the
            # (k-1)-skeleton where it carries no k-volume
    else:
        infos, kernel_calls = select_centers(
            cx, cells, [groups[cell] for cell in cells], [totals[cell] for cell in cells],
            [_cell_rng(seed, m, cell) for cell in cells], c_target)
    for info in infos:
        max_ratio = max(max_ratio, info.ratio)
        new_pieces.extend(info.pieces)
        for dt in info.tracks:
            track += dt
    out = normalize_chain(cx, PolyChain(chain.k, new_pieces))
    trace = StepTrace(
        m, len(groups), before, out.volume(), track, len(chain), len(out),
        sum(i.tries for i in infos), sum(i.rejected_clearance for i in infos),
        sum(i.rejected_exit for i in infos), kernel_calls,
    )
    return out, trace, tuple(whole_cells), max_ratio


def ff_deform(cx: GeoComplex, chain: PolyChain, seed: int,
              c_target: float | None = None) -> FFResult:
    """Full deformation of a k-chain into the k-skeleton.

    Descends one skeleton level at a time; the final chain is a union of
    whole k-cells (cells the chain covered) while everything else has been
    collapsed into the (k-1)-skeleton.  The first level normalizes the
    input unless normalize_chain already returned it for cx; each level's
    output is normalized for the next.
    """
    if not chain.k < cx.dim:
        raise ValueError("chain dimension must be below the complex dimension")
    steps = []
    total_track = 0.0
    max_ratio = 0.0
    for m in range(cx.dim, chain.k - 1, -1):
        # only the last level, m = k, keeps whole cells
        chain, step, whole, ratio = ff_step(cx, chain, m, seed, c_target=c_target)
        total_track += step.track
        max_ratio = max(max_ratio, ratio)
        steps.append(step)
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
    c = max(float(c_measured), 1.0)
    return cx.min_cell_volume(k) / (c * math.comb(cx.dim + 1, k + 1))

"""Skeleton-by-skeleton collapse of polyhedral chains by radial projection.

One level takes every piece hosted in an m-cell, picks an interior center
for the cell, and pushes the piece radially onto the cell boundary.  The ray
from the center x through y leaves through facet j iff c_i b_j(y) -
c_j b_i(y) <= 0 for all i (b barycentric, c = b(x)), so splitting a piece by
exit facet is a convex clipping of its parameter simplex; on each part the
projection is projective, so the images of vertices span the image.  A
stretch on a tie c_i b_j = c_j b_i exits through the lower facet only.  A
track is the cone over the image minus the cone over the part, both from
the center.  At the chain's own dimension a cell is kept whole exactly when
covered (mod-2 interval parity for curves, decided for every edge of a
level at once by covers_edges).

A level above the chain's dimension runs on arrays from one chain's blocks
(chains.Block) to the next's, with no per-cell Python: the m-hosted pieces
are grouped by cell (CellPieces), select_centers draws 8 candidates for
every cell at once from one generator seeded by the chain seed and the
level, as Generator.dirichlet would, one project_pieces call scores them
against all pieces with solvers and facet maps gathered from the complex's
arrays, _accept applies the acceptance rule to (cells, attempts) arrays,
cells still searching draw again together (one draw and one kernel call per
round), and the chosen images (Centers) follow the pieces below m.  A
cell's candidates depend on the seed, the level and the set of occupied
cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .chains import Block, Piece, PieceList, PolyChain, normalize_chain
from .complexes import Cell, GeoComplex, barycentric, simplex_volume

#: centers must keep this distance from the affine hulls of pieces
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


@functools.cache
def _other_facets(J: int) -> np.ndarray:
    """(J, J-1): row j lists the facets other than j, in increasing order."""
    return np.nonzero(~np.eye(J, dtype=bool))[1].reshape(J, J - 1)


def _exit_params(rows: np.ndarray, rhs: np.ndarray, k: int):
    """Clip each piece's parameter simplex to each exit region.

    rows (..., J, J-1, k) and rhs (..., J, J-1) hold the constraints
    rows[..., j, q, :] . t <= rhs[..., j, q] of exit facet j against its
    q-th other facet, i = _other_facets(J)[j, q].  Returns the region
    vertices (..., J, V, k) in parameter space and their counts (..., J), 0
    where the region is empty.  A constraint that is identically zero on
    the piece (the piece lies where facets i and j tie) hands the tied
    stretch to the lower facet index, so no stretch has two exits.
    """
    J = rhs.shape[-2]
    if k == 0:
        # constraints reduce to 0 <= rhs; argmin ties go to the lowest j
        feasible = (rhs >= -_CLIP_TOL).all(axis=-1)
        first = feasible & (np.cumsum(feasible, axis=-1) == 1)
        return np.zeros(rhs.shape[:-1] + (1, 0)), np.where(first, 1, 0)
    flat = (np.abs(rows) < _CLIP_TOL).all(axis=-1)
    lower = _other_facets(J) < np.arange(J)[:, None]
    tied = (flat & (np.abs(rhs) <= _CLIP_TOL) & lower).any(axis=-1)
    if k == 1:
        a = rows[..., 0]
        bound = rhs / a
        # a >= _CLIP_TOL is the same as ~flat & (a > 0)
        hi = np.minimum(np.where(a >= _CLIP_TOL, bound, np.inf).min(axis=-1), 1.0)
        lo = np.maximum(np.where(a <= -_CLIP_TOL, bound, -np.inf).max(axis=-1), 0.0)
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


def _too_close(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Which of the centers x (..., C, m) lie within CENTER_CLEARANCE of the
    affine hull of a piece (pts is (..., P, k+1, m), k < m); a center there
    breaks the radial-graph property of the projection."""
    k = pts.shape[-2] - 1
    pts = pts[..., None, :, :, :]
    v = x[..., :, None, :] - pts[..., 0, :]                     # (..., C, P, m)
    if k == 1:
        d = pts[..., 1, :] - pts[..., 0, :]
        v = v - ((v * d).sum(axis=-1) / (d * d).sum(axis=-1))[..., None] * d
    elif k == 2:
        e1, e2 = pts[..., 1, :] - pts[..., 0, :], pts[..., 2, :] - pts[..., 0, :]
        g11, g12, g22 = (e1 * e1).sum(-1), (e1 * e2).sum(-1), (e2 * e2).sum(-1)
        r1, r2 = (v * e1).sum(-1), (v * e2).sum(-1)
        det = g11 * g22 - g12 * g12
        s, t = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
        v = v - s[..., None] * e1 - t[..., None] * e2
    elif k > 2:
        raise NotImplementedError("center clearance supports pieces of dim <= 2")
    return (np.linalg.norm(v, axis=-1) < CENTER_CLEARANCE).any(axis=-1)


@dataclass(frozen=True)
class CellPieces:
    """The pieces of L cells of one dimension m: ``points`` (L, P, k+1, m)
    fills each cell's first slots and pads the rest with copies of its first
    piece, ``filled`` (L, P) marks the slots of its own pieces, and ``ids``
    are the cells' positions in cx.cells_of_dim(m).  Iterating gives each
    cell's list of Pieces."""

    cells: tuple[Cell, ...]
    ids: np.ndarray
    points: np.ndarray
    filled: np.ndarray

    @classmethod
    def stack(cls, cx: GeoComplex, cells: Sequence[Cell], pieces) -> "CellPieces":
        """From each cell's list of Pieces."""
        m = len(cells[0]) - 1 if cells else 0
        if not cells or not all(pieces) or any(len(ps[0].points) > m for ps in pieces):
            raise ValueError("every cell needs pieces of a dimension below the cell's")
        P = max(map(len, pieces))
        pts = np.stack([[p.points for p in [*ps, *[ps[0]] * (P - len(ps))]] for ps in pieces])
        filled = np.arange(P) < np.array([len(ps) for ps in pieces])[:, None]
        return cls(tuple(cells), cx.cell_index(cells), pts, filled)

    def __iter__(self):
        for cell, pts, filled in zip(self.cells, self.points, self.filled):
            yield [Piece(cell, p) for p in pts[filled]]

    def take(self, rows: np.ndarray) -> "CellPieces":
        return CellPieces(tuple(self.cells[r] for r in rows.tolist()), self.ids[rows],
                          self.points[rows], self.filled[rows])


def _fan_images(k: int, verts: np.ndarray, counts: np.ndarray, images: np.ndarray):
    """The fan simplices of the exit regions (counts (L, P, J), vertices
    images (L, P, J, V, m-1)) of one candidate per cell, cells' vertex ids
    verts (L, m+1): each one's cell, facet vertex ids and points."""
    fan = _fan(k, images.shape[-2])
    l, p, j, s = np.nonzero(counts[..., None] > fan[:, -1])
    points = images[l[:, None], p[:, None], j[:, None], fan[s]]
    # the facet without vertex j has the cell's other vertices
    return l, verts[l[:, None], _other_facets(verts.shape[1])[j]], points


def _pieces(hosts: np.ndarray, points: np.ndarray) -> list[Piece]:
    return [Piece(tuple(host), pts) for host, pts in zip(hosts.tolist(), points)]


@dataclass(frozen=True)
class Projections:
    """Radial projections of the pieces of L cells from C candidate centers
    per cell, each cell's pieces in its first P slots: projected k-volume
    ``proj``, homotopy-track (k+1)-volume ``track`` (the sum of
    ``piece_tracks``), whether the center keeps clearance from every piece
    (``clear``) and whether every exit ray leaves through its facet
    (``exits``).  Values of a candidate failing a verdict are meaningless."""

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
        return _pieces(*_fan_images(self.k, np.array([self.cells[cell]]),
                                    self.counts[cell, i][None], self.images[cell, i][None])[1:])


def _running_sum(values: np.ndarray) -> np.ndarray:
    # left-to-right sum over the last axis, the order a scalar loop adds in
    return np.add.accumulate(values, axis=-1)[..., -1]


def project_pieces(cx: GeoComplex, cells: Sequence[Cell], centers: np.ndarray,
                   pieces) -> Projections:
    """Radially project the pieces of every cell from each of its C centers
    onto the cell boundary, all cells, candidates and pieces at once.

    ``cells`` are L cells of one dimension m, ``centers`` is (L, C, m) in
    their charts and ``pieces`` holds each cell's pieces, as lists of Pieces
    or as their CellPieces, all of one dimension k <= 2.  Each piece's
    parameter simplex is clipped to one convex region per exit facet j (the
    padding copies are left out); of a region vertex only the exit facet's
    barycentric b0_j + t . B_j is needed.
    """
    if not isinstance(pieces, CellPieces):
        pieces = CellPieces.stack(cx, cells, pieces)
    L, P, k1, m = pieces.points.shape
    k, J = k1 - 1, m + 1
    if k > 2:
        raise NotImplementedError("exit-facet clipping supports pieces of dim <= 2")
    x = np.asarray(centers, dtype=float).reshape(L, -1, m)
    C = x.shape[1]
    cell, slot = np.nonzero(pieces.filled)                          # the pieces, cell by cell
    pts = pieces.points[cell, slot]                                 # (N, k+1, m)
    N = len(pts)
    arrays = cx.cell_arrays(m)
    solver = arrays.solvers[pieces.ids]                             # (L, J, J)
    linear, offset = arrays.linear[pieces.ids[cell]], arrays.offset[pieces.ids[cell]]

    def slots(values):
        # per-piece values (N, C, ...) in the (L, C, P, ...) slots, 0 in empty ones
        out = np.zeros((L, C, P) + values.shape[2:], dtype=values.dtype)
        out[cell, :, slot] = values
        return out

    # values of a candidate that fails a verdict may be inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = barycentric(solver[cell], pts)                          # (N, k+1, J)
        c = barycentric(solver, x)[cell]                            # (N, C, J)
        apex = x[cell][:, :, None, None, :]                         # (N, C, 1, 1, m)
        clear = ~slots(_too_close(x[cell], pts[:, None])).any(axis=2)
        b0, B = b[:, None, 0], np.swapaxes(b[:, None, 1:] - b[:, None, :1], -1, -2)
        # exit facet j against each other facet i, as (N, C, J, J-1) arrays
        j, i = np.arange(J).repeat(J - 1), _other_facets(J).ravel()
        ci, cj = c[:, :, i], c[:, :, j]
        rows = (ci[..., None] * B[:, :, j] - cj[..., None] * B[:, :, i]).reshape(N, C, J, J - 1, k)
        rhs = (-(ci * b0[:, :, j] - cj * b0[:, :, i])).reshape(N, C, J, J - 1)
        params, counts = _exit_params(rows, rhs, k)
        V = params.shape[-2]
        # region vertices in the cell chart and their projections
        part = pts[:, None, None, :1] + params @ (pts[:, 1:] - pts[:, :1])[:, None, None]
        c = c[..., None]                                            # c_j of exit facet j
        denom = c - (b0[..., None] + (params * B[..., None, :]).sum(axis=-1))
        live = np.arange(V) < counts[..., None]
        exits = ~slots((live & (denom <= 0)).any(axis=(2, 3))).any(axis=2)
        image = apex + (c / denom)[..., None] * (part - apex)      # (N, C, J, V, m)
        # cell chart -> facet chart, in one affine step per (cell, facet)
        images = image @ linear[:, None] + offset[:, None, :, None]
        images = np.where(live[..., None], images, 0.0)             # 0 past each count
        fan = _fan(k, V)
        in_fan = counts[..., None] > fan[:, -1]                     # (N, C, J, S)
        face_volumes = np.where(in_fan, simplex_volume(images[..., fan, :]), 0.0)
        piece_proj = _running_sum(face_volumes.reshape(N, C, -1))
        piece_tracks = np.zeros((N, C))
        if k > 0:
            # a region's track: the cone over its image minus the cone over it
            apex = np.broadcast_to(apex[..., None, :], in_fan.shape + (1, m))

            def cones(verts):
                # for k = 1 the fan is the region itself: a view, not a copy
                faces = verts[..., None, :, :] if k == 1 else verts[..., fan, :]
                volumes = simplex_volume(np.concatenate([faces, apex], axis=-2))
                return _running_sum(np.where(in_fan, volumes, 0.0))

            swept = np.where(counts > 0, cones(image) - cones(part), 0.0)
            piece_tracks = np.maximum(_running_sum(swept), 0.0)
    piece_tracks = slots(piece_tracks)
    return Projections(pieces.cells, k, x, _running_sum(slots(piece_proj)),
                       _running_sum(piece_tracks), piece_tracks, clear, exits,
                       slots(params), slots(counts), slots(images))


def project_piece(cx: GeoComplex, cell: Cell, x0: np.ndarray, piece: Piece):
    """Radially project one piece onto the cell boundary: (pieces on facet
    cells, projected k-volume, track (k+1)-volume)."""
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


def _accept(ratio: np.ndarray, clear: np.ndarray, exits: np.ndarray,
            c_target: float | None):
    """The acceptance rule on (L, A) arrays of the ratios and verdicts of L
    cells' first A attempts, A a multiple of _BATCH; valid ratios are not NaN.

    A valid candidate passes both verdicts.  The choice is the first valid
    one at or below the target: c_target, or else 4x the median ratio of the
    first _BATCH valid ones, once there are that many.  At A = _MAX_TRIES
    with fewer, it is the first of least ratio.  Returns per cell the chosen
    attempt and the attempts seen when it was accepted, -1 if undecided.
    """
    valid = clear & exits
    if c_target is None:
        n_valid = np.cumsum(valid, axis=1)
        enough = n_valid[:, -1] >= _BATCH
        low = np.sort(np.where(valid & (n_valid <= _BATCH), ratio, np.inf), axis=1)
        # statistics.median of an even count
        target = np.where(enough, 4.0 * ((low[:, _BATCH // 2 - 1] + low[:, _BATCH // 2]) / 2),
                          np.nan)
        decided = np.argmax(n_valid >= _BATCH, axis=1)
    else:
        target, decided = np.full(len(ratio), float(c_target)), 0
    ok = valid & (ratio <= target[:, None])
    chosen = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    seen = np.where(chosen >= 0, np.maximum(chosen, decided) + 1, -1)
    if c_target is None and ratio.shape[1] >= _MAX_TRIES:
        few = (chosen < 0) & ~enough & valid.any(axis=1)
        chosen = np.where(few, np.argmin(np.where(valid, ratio, np.inf), axis=1), chosen)
        seen = np.where(few, ratio.shape[1], seen)
    return chosen, seen


@dataclass
class CenterInfo:
    point: np.ndarray
    ratio: float
    tries: int
    pieces: tuple[Piece, ...]   # image pieces of the projection from point
    tracks: tuple[float, ...]   # homotopy-track volume of each input piece
    rejected_clearance: int     # candidates rejected before the choice, by reason
    rejected_exit: int


@dataclass(frozen=True)
class Centers:
    """The centers of L cells as arrays, ``centers[l]`` cell l's CenterInfo.
    The image pieces are stacked cell by cell, piece by piece and facet by
    facet: their cells ``owner``, facet vertex ids ``hosts`` (Q, m) and
    points ``images`` (Q, k+1, m-1).  ``tracks`` (L, P) is per piece slot."""

    points: np.ndarray
    ratio: np.ndarray
    tries: np.ndarray
    rejected_clearance: np.ndarray
    rejected_exit: np.ndarray
    tracks: np.ndarray
    filled: np.ndarray
    owner: np.ndarray
    hosts: np.ndarray
    images: np.ndarray

    def __getitem__(self, l: int) -> CenterInfo:
        if not 0 <= l < len(self.tries):
            raise IndexError(l)
        mine = self.owner == l
        return CenterInfo(self.points[l], float(self.ratio[l]), int(self.tries[l]),
                          tuple(_pieces(self.hosts[mine], self.images[mine])),
                          tuple(self.tracks[l][self.filled[l]].tolist()),
                          int(self.rejected_clearance[l]), int(self.rejected_exit[l]))


def _draw(rng: np.random.Generator, cells: Sequence[Cell], shape) -> np.ndarray:
    """One round's exponentials, shape (A, _BATCH, m+1): row a is the block
    of cells[a], the a-th cell still searching."""
    return rng.standard_exponential(shape)


def select_centers(cx: GeoComplex, cells: Sequence[Cell], pieces, totals: Sequence[float],
                   rng: np.random.Generator, c_target: float | None = None):
    """Seeded rejection sampling of a projection center in each of the cells
    of one dimension m, all drawing from one generator rng.

    ``pieces`` holds each cell's pieces, as lists of Pieces or as their
    CellPieces, all of one dimension k < m and of total k-volume totals[l].
    A candidate's ratio is its larger of projected volume and track over
    that total, and _accept chooses.  Each round draws one (A, 8, m+1) block
    of exponentials for the A cells still searching, in cell order, and
    normalizes each row as Generator.dirichlet would (the same sum, in the
    same order), so a cell's candidates depend on rng's state and on which
    cells draw before it; one project_pieces call scores them all, and the
    choices are those of scoring one candidate at a time.  Returns
    the Centers and the number of kernel calls.  The first cell left without
    a center after _MAX_TRIES candidates raises CenterSelectionError, which
    carries the CenterInfos of the cells before it.
    """
    if not isinstance(pieces, CellPieces):
        pieces = CellPieces.stack(cx, cells, pieces)
    L, P, k1, m = pieces.points.shape
    models = cx.cell_arrays(m).models[pieces.ids]
    totals = np.asarray(totals, dtype=float)[:, None]
    ratio = np.zeros((L, _MAX_TRIES))
    clear, exits = np.zeros((2, L, _MAX_TRIES), dtype=bool)
    choice, seen = np.full((2, L), -1)
    rounds, active = [], np.arange(L)
    while active.size:
        searching = pieces if active.size == L else pieces.take(active)
        draws = _draw(rng, searching.cells, (active.size, _BATCH, m + 1))
        total = draws[..., 0]
        for i in range(1, m + 1):
            total = total + draws[..., i]
        centers = (draws * (1.0 / total)[..., None]) @ models[active]
        scored = project_pieces(cx, searching.cells, centers, searching)
        block = slice(_BATCH * len(rounds), _BATCH * (len(rounds) + 1))
        ratio[active, block] = np.maximum(scored.proj, scored.track) / totals[active]
        clear[active, block], exits[active, block] = scored.clear, scored.exits
        rounds.append((active, scored))
        choice[active], seen[active] = _accept(
            *(a[active, :block.stop] for a in (ratio, clear, exits)), c_target)
        active = active[(choice[active] < 0) & (block.stop < _MAX_TRIES)]
    # each chosen candidate's center, tracks and images, from its round
    points, tracks, found = np.zeros((L, m)), np.zeros((L, P)), []
    for r, (rows, scored) in enumerate(rounds):
        sel = np.flatnonzero(choice[rows] // _BATCH == r)
        mine, i = rows[sel], choice[rows[sel]] % _BATCH
        points[mine], tracks[mine] = scored.centers[sel, i], scored.piece_tracks[sel, i]
        owner, hosts, images = _fan_images(k1 - 1, cx.cell_arrays(m).verts[pieces.ids[mine]],
                                           scored.counts[sel, i], scored.images[sel, i])
        found.append((mine[owner], hosts, images))
    owner, hosts, images = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(owner, kind="stable")
    upto = np.arange(_MAX_TRIES) < seen[:, None]
    chosen = Centers(points, ratio[np.arange(L), choice], choice + 1,
                     (upto & ~clear).sum(axis=1), (upto & clear & ~exits).sum(axis=1),
                     tracks, pieces.filled, owner[order], hosts[order], images[order])
    failed = np.flatnonzero(choice < 0)
    if failed.size:
        raise CenterSelectionError(
            f"no acceptable center in {_MAX_TRIES} tries for cell {pieces.cells[failed[0]]}",
            accepted=tuple(chosen[l] for l in range(failed[0])))
    return chosen, len(rounds)


def select_center(cx: GeoComplex, cell: Cell, pieces: Sequence[Piece],
                  c_target: float | None = None, rng=None) -> CenterInfo:
    """select_centers for one cell; rng is a Generator or a seed.  Its
    (1, 8, m+1) blocks are the values of (8, m+1) draws from rng."""
    total = sum(simplex_volume(p.points) for p in pieces)
    return select_centers(cx, [cell], [list(pieces)], [total],
                          np.random.default_rng(rng), c_target)[0][0]


# ---------------------------------------------------------------------------
# mod-2 interval parity on edges (final collapse for curves)
# ---------------------------------------------------------------------------


#: fills the endpoint rows of edges with fewer pieces: it sorts last and
#: lies farther than _MERGE_TOL from every endpoint
_PAD = np.finfo(float).max


def covers_edges(cx: GeoComplex, ids: np.ndarray, points: np.ndarray,
                 filled: np.ndarray) -> np.ndarray:
    """Which of L edge cells their 1-pieces cover exactly once mod 2, all
    cells at once on (L, 2P) rows of sorted endpoints: ``ids`` (L,) are
    the edges' positions in cx.cells_of_dim(1), ``points`` (L, P, 2, 1) the
    pieces in the edges' charts and ``filled`` (L, P) marks each edge's own
    pieces.

    An edge's sorted endpoints merge into left-anchored clusters (every
    endpoint within _MERGE_TOL of its cluster's first), and each cluster of
    odd size flips the parity at its mean, summed left to right.
    Consecutive flips pair into intervals, those longer than _MERGE_TOL are
    kept, and the edge is covered when exactly one is, with each end within
    1e-6 times the edge length of the edge's end, or 1e-6 on edges shorter
    than 1.
    """
    length = cx.cell_arrays(1).models[ids, 1, 0][:, None]
    tol = 1e-6 * np.maximum(length, 1.0)
    L, W = filled.shape[0], 2 * filled.shape[1]
    events = np.where(filled[..., None], points[..., 0], _PAD).reshape(L, W)
    events.sort(axis=1)
    col, row = np.arange(W), np.arange(L)[:, None]
    # a cluster starts after a gap above _MERGE_TOL; a run of smaller gaps
    # wider than _MERGE_TOL splits at its first endpoint too far from the
    # anchor, once per pass, until every cluster is as a sweep forms it
    start = np.ones((L, W), dtype=bool)
    start[:, 1:] = events[:, 1:] - events[:, :-1] > _MERGE_TOL
    while True:
        anchor = np.maximum.accumulate(np.where(start, col, 0), axis=1)
        first = events[row, anchor]
        far = events - first > _MERGE_TOL
        if not far.any():
            break
        start[:, 1:] |= far[:, 1:] & ~far[:, :-1]
    # a cluster of odd size flips at its last endpoint (the next one starts
    # a cluster), to its mean, summed left to right from its first
    size = col - anchor + 1
    flip = (size % 2 == 1) & (events < _PAD)
    flip[:, :-1] &= start[:, 1:]
    total = first
    for p in range(1, size[flip].max(initial=1)):
        total = total + np.where(flip & (size > p), events[row, np.minimum(anchor + p, W - 1)], 0.0)
    # the flips in order, then _PAD; flips 2i and 2i + 1 bound interval i
    flips = np.sort(np.where(flip, total / size, _PAD), axis=1)
    lo, hi = flips[:, 0::2], flips[:, 1::2]
    kept = (hi < _PAD) & (hi - lo > _MERGE_TOL)
    ends = kept & (np.abs(lo) <= tol) & (np.abs(hi - length) <= tol)
    return (kept.sum(axis=1) == 1) & ends.any(axis=1)


# ---------------------------------------------------------------------------
# deformation steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepTrace:
    """What one collapse level did, deterministically for a given seed.

    ``cells`` counts the m-cells holding pieces, ``pieces_in`` and
    ``pieces_out`` the chain's pieces before and after, and ``pruned`` and
    ``cancelled`` the pieces building (and normalizing) the new chain
    dropped as degenerate or cancelled in pairs.  ``center_tries`` sums the
    tries of the accepted centers, ``rejected_*`` count the rejected
    candidates by reason, and ``kernel_calls`` the scoring rounds, 1 when
    every cell accepts a candidate of its first block.
    """

    level: int
    cells: int
    volume_before: float
    volume_after: float
    track: float
    pieces_in: int
    pieces_out: int
    pruned: int
    cancelled: int
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
        return {"total_track": self.total_track, "steps": [s.to_json_dict() for s in self.steps],
                "whole_cells": [list(c) for c in self.whole_cells],
                "max_cell_ratio": self.max_cell_ratio}


def _group_by_cell(block: Block, ids: np.ndarray, volumes: np.ndarray):
    """A block's pieces, hosted on the cells at positions ids, as
    CellPieces, cells in order and each cell's pieces in list order, and
    each cell's total volume, summed in list order."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
    ids, n = ids[first], np.diff(np.append(first, len(order)))
    row = np.repeat(np.arange(len(ids)), n)
    slot = np.arange(len(order)) - first[row]
    points = np.repeat(block.points[order[first]][:, None], n.max(), axis=1)
    points[row, slot] = block.points[order]
    filled, totals = np.zeros(points.shape[:2], dtype=bool), np.zeros(points.shape[:2])
    filled[row, slot], totals[row, slot] = True, volumes[block.index[order]]
    cells = tuple(map(tuple, block.hosts[order[first]].tolist()))
    return CellPieces(cells, ids, points, filled), _running_sum(totals)


def ff_step(cx: GeoComplex, chain: PolyChain, m: int, seed: int,
            c_target: float | None = None):
    """One collapse level: push pieces out of the open m-cells.

    For m > k every m-hosted piece is projected from the center its cell's
    select_centers choice, reusing the images that center was scored with;
    the level draws from one generator seeded by [seed, m] (seed >= 0);
    for m = k cells are kept exactly when covered.  The pieces below m pass
    through, and the new ones follow them.  The chain is normalized first
    unless normalize_chain returned it for cx, and the new chain after; at
    m = k it is normalized by construction and only marked.
    Returns the new chain, the StepTrace, the cells kept whole and the
    largest accepted center ratio.
    """
    if not chain.normalized_for(cx):
        chain = normalize_chain(cx, chain)
    if chain.max_host_dim() > m:
        raise ValueError(f"chain is not supported in the {m}-skeleton")
    if m < chain.k:
        raise ValueError("level below the chain dimension")
    blocks, top = dict(chain.blocks), chain.blocks.get(m)
    cells, whole, track, ratio, counts = (), (), 0.0, 0.0, [0, 0, 0, 0]
    size = len(chain)
    if top is not None:
        size -= len(top.index)
        blocks = {d: Block(b.hosts, b.points, b.index - np.searchsorted(top.index, b.index))
                  for d, b in blocks.items() if d < m}
        grouped, totals = _group_by_cell(top, chain.host_ids(cx, m), chain.volumes)
        cells = grouped.cells
        if m == chain.k:
            arrays = cx.cell_arrays(m)
            if m == 1:
                kept = covers_edges(cx, grouped.ids, grouped.points, grouped.filled)
            else:
                kept = totals >= simplex_volume(arrays.models[grouped.ids]) * (1.0 - 1e-6)
            whole = tuple(cell for cell, covered in zip(cells, kept) if covered)
            added = (m, arrays.verts[grouped.ids[kept]], arrays.models[grouped.ids[kept]])
        else:
            centers, calls = select_centers(cx, cells, grouped, totals,
                                            np.random.default_rng([seed, m]), c_target)
            added = (m - 1, centers.hosts, centers.images)
            track = float(_running_sum(np.append(0.0, centers.tracks[grouped.filled])))
            ratio = max(0.0, float(centers.ratio.max()))
            counts = [int(a.sum()) for a in (centers.tries, centers.rejected_clearance,
                                             centers.rejected_exit)] + [calls]
        d, hosts, pts = added
        index = size + np.arange(len(hosts))
        size += len(hosts)
        if d in blocks:
            hosts, pts, index = (np.concatenate(a) for a in zip(blocks[d], (hosts, pts, index)))
        blocks[d] = Block(hosts, pts, index)
    built = PolyChain(chain.k, PieceList(dict(sorted(blocks.items())), size))
    if m == chain.k:
        # the pieces below m are those of a normalized chain, and a whole
        # cell at its vertices has no zero barycentric coordinate
        built.mark_normalized(cx)
        if whole and not built.pruned + built.cancelled:
            built.host_ids(cx, m, known=grouped.ids[kept])
    out = normalize_chain(cx, built)
    rebuilt = (out.pruned, out.cancelled) if out is not built else (0, 0)
    trace = StepTrace(m, len(cells), chain.volume(), out.volume(), track, len(chain), len(out),
                      built.pruned + rebuilt[0], built.cancelled + rebuilt[1], *counts)
    return out, trace, whole, ratio


def ff_deform(cx: GeoComplex, chain: PolyChain, seed: int,
              c_target: float | None = None) -> FFResult:
    """Full deformation of a k-chain into the k-skeleton, one level at a
    time: the final chain is a union of whole k-cells (cells the chain
    covered), everything else collapsed into the (k-1)-skeleton.  The seed
    is a nonnegative integer; each level's draws depend on all of it."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not chain.k < cx.dim:
        raise ValueError("chain dimension must be below the complex dimension")
    steps = []
    total_track = max_ratio = 0.0
    for m in range(cx.dim, chain.k - 1, -1):
        # only the last level, m = k, keeps whole cells
        chain, step, whole, ratio = ff_step(cx, chain, m, seed, c_target=c_target)
        total_track += step.track
        max_ratio = max(max_ratio, ratio)
        steps.append(step)
    return FFResult(chain, total_track, tuple(steps), whole, max_ratio)


def remainder_decomposition(cx: GeoComplex, result: FFResult):
    """Split the final chain into whole k-cells and skeleton remainder: the
    positions of the pieces hosted on whole cells and of the others, each
    increasing.  Every other piece must sit in the (k-1)-skeleton; the first
    one that does not raises AssertionError."""
    final, k = result.final, result.final.k
    whole = np.zeros(len(final), dtype=bool)
    outside = np.zeros(len(final), dtype=bool)
    for d, block in final.blocks.items():
        if d == k and result.whole_cells:
            whole[block.index] = np.isin(final.host_ids(cx, k), cx.cell_index(result.whole_cells))
        outside[block.index] = d > k - 1
    outside &= ~whole
    if outside.any():
        host = final.pieces[np.argmax(outside)].host
        raise AssertionError(f"remainder piece hosted on {host} is outside the "
                             f"{k - 1}-skeleton")
    return np.flatnonzero(whole), np.flatnonzero(~whole)


def vanishing_threshold(cx: GeoComplex, k: int, c_measured: float) -> float:
    """Local-mass threshold below which a point must collapse to the
    (k-1)-skeleton: min cell volume over the step constant and the count of
    top cells around a k-cell."""
    c = max(float(c_measured), 1.0)
    return cx.min_cell_volume(k) / (c * math.comb(cx.dim + 1, k + 1))

"""Flat torus test complexes and seeded random loop chains.

The n x n grid torus is realized on the Clifford torus in R^4, where every
triangle is flat, so all charts are exact isometries.  Each 2-cell remembers
an unwrapped parameter triangle in the [0, n)^2 picture; loops are generated
there, split along the triangulation lines, and their mod-2 intersection
parities with two fixed transversal circle families classify homology.

Every step is an array pass over a whole loop or chain.  The loop builder
cuts all waypoint segments at once, locates every piece's triangle at once,
and takes the barycentric coordinates of all piece endpoints from one
stacked inverse and their cells' models from one stacked product.  The
crossing parities gather each piece's charts, first top coface and
parameter triangle by cell position (GeoComplex.cell_arrays), one stacked
product per host dimension, and the whole-edge certificate applies the
collapse's rule (deform.covers_edges) to every piece at once.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .chains import Block, PieceList, PolyChain, normalize_chain
from .complexes import GeoComplex, barycentric
from .deform import covers_edges

#: offsets of the two transversal test-circle families, chosen to miss all
#: vertices and edges of the grid
_TEST_X = 0.493716
_TEST_Y = 0.517635


def flat_torus_complex(n: int = 8, radius: float = 1.0) -> GeoComplex:
    """Triangulated n x n grid torus on the Clifford torus in R^4.

    Each grid square holds a lower triangle (v <= u) and an upper one
    (v >= u); both are located, with their parameter triangles, by the rule
    the loop builder uses (``_locate_triangles``) at their centroids.
    """
    if n < 3:
        raise ValueError("need n >= 3 for a simplicial grid torus")

    def embed(i, j):
        a, b = 2 * math.pi * i / n, 2 * math.pi * j / n
        return [radius * math.cos(a), radius * math.sin(a),
                radius * math.cos(b), radius * math.sin(b)]

    vertices = np.array([embed(i, j) for i in range(n) for j in range(n)])
    squares = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), -1)
    centroids = squares.reshape(-1, 1, 2) + np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    tris, corners = _locate_triangles(n, centroids.reshape(-1, 2))
    tris = list(map(tuple, tris.tolist()))
    return GeoComplex(vertices, tris,
                      metadata={"torus_n": n, "param": dict(zip(tris, corners))})


def _vertex_id(n: int, i, j):
    """Vertex id of the grid point (i, j) of the n x n torus, wrapped."""
    return (i % n) * n + j % n


def _locate_triangles(n: int, pts: np.ndarray):
    """Cells of the n x n torus holding the parameter points (M, 2), as
    vertex ids (M, 3), and their unwrapped parameter triangles (M, 3, 2),
    corners in cell order."""
    ij = np.floor(pts).astype(np.int64)
    u, v = (pts - ij).T
    upper = (v > u)[:, None]
    corners = np.stack([ij, ij + np.where(upper, (0, 1), (1, 0)), ij + 1], axis=1)
    ids = _vertex_id(n, corners[..., 0], corners[..., 1])
    rows, order = np.arange(len(ids))[:, None], np.argsort(ids, axis=1)
    return ids[rows, order], corners[rows, order].astype(float)


#: a cut's segment parameter may leave [0, 1] by this much; a family of
#: lines a segment runs along within it is not cut
_CUT_TOL = 1e-12

#: pieces with a shorter parameter interval are dropped
_MIN_PIECE = 1e-10


def _split_path(waypoints: np.ndarray) -> np.ndarray:
    """Endpoints (M, 2, 2) of the pieces of the polygonal path through the
    waypoints (W, 2), split at its crossings of the grid lines x, y, y - x
    in Z.

    A segment a + t (b - a) is cut at t = 0, 1 and at each crossing
    t = (m - c) / delta, where its coordinate in one line family runs from
    c to c + delta; the pieces, in segment order and each segment's in
    order of t, are those between consecutive cuts.  Equal cuts bound a
    piece of length 0, which is dropped with every piece of parameter
    length up to _MIN_PIECE.
    """
    a = waypoints[:-1]
    d = waypoints[1:] - a
    S = len(a)
    # the families x, y and y - x, one after the other
    coord = np.concatenate([a.T.ravel(), a[:, 1] - a[:, 0]])
    delta = np.concatenate([d.T.ravel(), d[:, 1] - d[:, 0]])
    end = coord + delta
    first = np.floor(np.minimum(coord, end)) + 1
    # the lines m = first, first + 1, ... below max(coord, end)
    count = np.ceil(np.maximum(coord, end)) - first
    count[(count < 0) | (np.abs(delta) < _CUT_TOL)] = 0
    count = count.astype(np.int64)
    line = np.repeat(np.arange(3 * S), count)
    m = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(line))
    cuts = np.concatenate([(m - coord[line]) / delta[line], np.repeat([0.0, 1.0], S)])
    seg = np.concatenate([line % S, np.tile(np.arange(S), 2)])
    inside = (cuts >= -_CUT_TOL) & (cuts <= 1 + _CUT_TOL)
    cuts, seg = cuts[inside], seg[inside]
    order = np.lexsort((cuts, seg))
    cuts, seg = cuts[order], seg[order]
    piece = np.flatnonzero((seg[1:] == seg[:-1]) & (cuts[1:] - cuts[:-1] > _MIN_PIECE))
    t, seg = cuts[piece[:, None] + (0, 1)], seg[piece]
    return a[seg][:, None] + t[..., None] * d[seg][:, None]


def random_loop_chain(cx: GeoComplex, seed: int, n_waypoints: int = 6,
                      winding: tuple[int, int] | None = None):
    """Closed random polygonal loop with a prescribed winding class.

    Returns (chain, winding).  The loop is drawn in the unwrapped parameter
    plane, so it is closed on the torus by construction; segments are split
    along the triangulation before charting.
    """
    n = cx.metadata["torus_n"]
    rng = np.random.default_rng(seed)
    if winding is None:
        winding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    start = rng.uniform(0.1, n - 0.1, size=2)
    # the same draws, and the same additions in order, as one step at a time
    waypoints = np.empty((max(n_waypoints - 1, 0) + 2, 2))
    waypoints[0] = start
    waypoints[1:-1] = rng.uniform(-2.0, 2.0, size=(len(waypoints) - 2, 2))
    np.cumsum(waypoints[:-1], axis=0, out=waypoints[:-1])
    waypoints[-1] = start + (n * winding[0], n * winding[1])
    ends = _split_path(waypoints)
    cells, tris = _locate_triangles(n, (ends[:, 0] + ends[:, 1]) / 2.0)
    # b solves b @ [[1, tri_i]] = [1, p], as a chart's bary_solver does
    lifted = np.concatenate([np.ones(tris.shape[:2] + (1,)), tris], axis=2)
    bary = barycentric(np.linalg.inv(lifted), ends)
    ids = cx.cell_index(cells)
    coords = bary @ cx.cell_arrays(2).models[ids]
    chain = PolyChain(1, PieceList({2: Block(cells, coords, np.arange(len(cells)))}, len(cells)))
    if len(chain) == len(cells):
        # nothing pruned or cancelled: the block holds the pieces in order
        chain.host_ids(cx, 2, known=ids)
    return normalize_chain(cx, chain), winding


def _crossing_parity(lo: np.ndarray, hi: np.ndarray, offset, period: int, moves=True):
    """Parity of the number of crossings of the intervals [lo, hi] with the
    points offset + period Z, per column of lo and hi, leaving out the
    entries where moves is False."""
    first = np.ceil((lo - offset) / period)
    last = np.floor((hi - offset) / period)
    if np.any(((offset + first * period == lo) | (offset + last * period == hi)) & moves):
        raise ValueError("segment endpoint lies on a test circle")
    return np.where(moves, np.maximum(0, last - first + 1), 0).sum(axis=0) % 2


#: complex -> parameter triangles (T, 3, 2) in cells_of_dim(2) order; an
#: entry goes when its complex is freed
_PARAM: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _param_triangles(cx: GeoComplex) -> np.ndarray:
    tris = _PARAM.get(cx)
    if tris is None:
        param = cx.metadata["param"]
        tris = _PARAM[cx] = np.stack([param[top] for top in cx.cells_of_dim(2)])
    return tris


def crossing_parities(cx: GeoComplex, chain: PolyChain) -> tuple[int, int]:
    """Mod-2 intersection numbers with the two transversal circle families.

    The first parity counts crossings with the vertical circles x = x0 + nZ
    (the winding in the x-direction), the second with the horizontal ones.
    A piece is read in the parameter triangle of its host's first top cell.
    """
    n = cx.metadata["torus_n"]
    top_cells = cx.cell_arrays(cx.dim)
    param = _param_triangles(cx)
    pts = [np.zeros((0, 2, 2))]
    for d, block in chain.blocks.items():
        arrays = cx.cell_arrays(d)
        src = chain.host_ids(cx, d)
        top = arrays.tops[src, 0]
        # the transposed bases contiguous, as stacked from the charts
        ambient = (arrays.origins[src][:, None]
                   + block.points @ np.ascontiguousarray(np.swapaxes(arrays.bases[src], 1, 2)))
        coords = (ambient - top_cells.origins[top][:, None]) @ top_cells.bases[top]
        pts.append(barycentric(top_cells.solvers[top], coords) @ param[top])
    pts = np.concatenate(pts)
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    parities = _crossing_parity(lo, hi, np.array([_TEST_X, _TEST_Y]), n, hi - lo > 1e-12)
    return tuple(map(int, parities))


def representative_edge_cycle(cx: GeoComplex, winding: tuple[int, int]) -> list:
    """Edge cells of a reference cycle in the class with the given winding."""
    n = cx.metadata["torus_n"]
    edges = []
    if winding[0]:
        edges.extend(tuple(sorted((_vertex_id(n, i, 0), _vertex_id(n, i + 1, 0))))
                     for i in range(n))
    if winding[1]:
        edges.extend(tuple(sorted((_vertex_id(n, 0, j), _vertex_id(n, 0, j + 1))))
                     for j in range(n))
    # overlapping edges would cancel mod 2, but the two loops share no edge
    return edges


def whole_edges_of(cx: GeoComplex, chain: PolyChain) -> list:
    """Edge cells of the chain's pieces, in piece order, each of which must
    cover its edge alone by the rule the collapse keeps whole edges with
    (deform.covers_edges); the first piece that is not hosted on an edge or
    does not cover it raises ValueError."""
    bad = np.ones(len(chain), dtype=bool)
    edges = chain.blocks.get(1)
    if edges is not None:
        covered = covers_edges(cx, chain.host_ids(cx, 1), edges.points[:, None],
                               np.ones((len(edges.index), 1), dtype=bool))
        bad[edges.index] = ~covered
    if bad.any():
        host = chain.pieces[np.argmax(bad)].host
        if len(host) - 1 != 1:
            raise ValueError(f"piece hosted on {host} is not an edge")
        raise ValueError(f"piece on {host} does not cover the edge")
    return list(map(tuple, edges.hosts.tolist())) if edges is not None else []

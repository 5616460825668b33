"""Flat torus test complexes and seeded random loop chains.

The n x n grid torus is realized on the Clifford torus in R^4, where every
triangle is flat, so all charts are exact isometries.  Each 2-cell remembers
an unwrapped parameter triangle in the [0, n)^2 picture; loops are generated
there, split along the triangulation lines, and their mod-2 intersection
parities with two fixed transversal circle families classify homology.

A loop's pieces are charted together: every piece's triangle is located at
once, one stacked inverse and one stacked product give the barycentric
coordinates of all piece endpoints, and one stacked product maps them
through their cells' models.  The crossing parities likewise convert the
pieces of each host dimension to parameter coordinates in one stacked
product.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import Block, PieceList, PolyChain, normalize_chain
from .complexes import GeoComplex, barycentric
from .deform import covers_edge

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
    return GeoComplex(vertices, tris,
                      metadata={"torus_n": n, "param": dict(zip(tris, corners))})


def _vertex_id(n: int, i, j):
    """Vertex id of the grid point (i, j) of the n x n torus, wrapped."""
    return (i % n) * n + j % n


def _locate_triangles(n: int, pts: np.ndarray):
    """Cells of the n x n torus holding the parameter points (M, 2), and
    their unwrapped parameter triangles (M, 3, 2), corners in cell order."""
    ij = np.floor(pts).astype(np.int64)
    u, v = (pts - ij).T
    upper = (v > u)[:, None]
    corners = np.stack([ij, ij + np.where(upper, (0, 1), (1, 0)), ij + 1], axis=1)
    ids = _vertex_id(n, corners[..., 0], corners[..., 1])
    order = np.argsort(ids, axis=1)
    cells = [tuple(c) for c in np.take_along_axis(ids, order, axis=1).tolist()]
    return cells, np.take_along_axis(corners, order[..., None], axis=1).astype(float)


def _split_segment(a: np.ndarray, b: np.ndarray):
    """Split [a, b] at crossings of the grid lines x, y, y - x in Z."""
    cuts = {0.0, 1.0}
    d = b - a
    for coord, delta in ((a[0], d[0]), (a[1], d[1]), (a[1] - a[0], d[1] - d[0])):
        if abs(delta) < 1e-12:
            continue
        lo, hi = sorted((coord, coord + delta))
        m = math.floor(lo) + 1
        while m < hi:
            cuts.add((m - coord) / delta)
            m += 1
    ts = sorted(t for t in cuts if -1e-12 <= t <= 1 + 1e-12)
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 > 1e-10:
            yield a + t0 * d, a + t1 * d


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
    waypoints = [start]
    for _ in range(n_waypoints - 1):
        waypoints.append(waypoints[-1] + rng.uniform(-2.0, 2.0, size=2))
    waypoints.append(start + np.array([n * winding[0], n * winding[1]], dtype=float))

    ends = np.array([[p, q] for a, b in zip(waypoints, waypoints[1:])
                     for p, q in _split_segment(a, b)]).reshape(-1, 2, 2)
    cells, tris = _locate_triangles(n, (ends[:, 0] + ends[:, 1]) / 2.0)
    # b solves b @ [[1, tri_i]] = [1, p], as a chart's bary_solver does
    bary = barycentric(np.linalg.inv(np.insert(tris, 0, 1.0, axis=2)), ends)
    coords = bary @ cx.cell_arrays(2).models[cx.cell_index(cells)]
    pieces = PieceList({2: Block(np.array(cells), coords, np.arange(len(cells)))}, len(cells))
    chain = normalize_chain(cx, PolyChain(1, pieces))
    return chain, winding


def _crossing_parity(lo: np.ndarray, hi: np.ndarray, offset: float, period: int) -> int:
    """Parity of the number of crossings of the intervals [lo, hi] with the
    points offset + period Z."""
    first = np.ceil((lo - offset) / period)
    last = np.floor((hi - offset) / period)
    if np.any((offset + first * period == lo) | (offset + last * period == hi)):
        raise ValueError("segment endpoint lies on a test circle")
    return int(np.maximum(0, last - first + 1).sum()) % 2


def crossing_parities(cx: GeoComplex, chain: PolyChain) -> tuple[int, int]:
    """Mod-2 intersection numbers with the two transversal circle families.

    The first parity counts crossings with the vertical circles x = x0 + nZ
    (the winding in the x-direction), the second with the horizontal ones.
    A piece is read in the parameter triangle of its host's first top cell.
    """
    n = cx.metadata["torus_n"]
    param = cx.metadata["param"]

    def param_points(block):
        hosts = list(map(tuple, block.hosts.tolist()))
        tops = [cx.top_cofaces(host)[0] for host in hosts]
        src = [cx.chart(host) for host in hosts]
        dst = [cx.chart(top) for top in tops]
        ambient = (np.stack([c.origin for c in src])[:, None]
                   + block.points @ np.stack([c.basis.T for c in src]))
        coords = (ambient - np.stack([c.origin for c in dst])[:, None]) @ np.stack(
            [c.basis for c in dst])
        bary = barycentric(np.stack([c.bary_solver for c in dst]), coords)
        return bary @ np.stack([param[top] for top in tops])

    pts = np.concatenate([param_points(b) for b in chain.blocks.values()]
                         or [np.zeros((0, 2, 2))])
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    moves = hi - lo > 1e-12
    return tuple(
        _crossing_parity(lo[moves[:, i], i], hi[moves[:, i], i], offset, n)
        for i, offset in enumerate((_TEST_X, _TEST_Y))
    )


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
    """Edge cells fully covered by the chain's pieces, by the rule the
    collapse keeps whole edges with (deform.covers_edge); raises on partial
    pieces."""
    edges = []
    for piece in chain.pieces:
        if len(piece.host) - 1 != 1:
            raise ValueError(f"piece hosted on {piece.host} is not an edge")
        if not covers_edge(cx, piece.host, piece.points[None]):
            raise ValueError(f"piece on {piece.host} does not cover the edge")
        edges.append(piece.host)
    return edges

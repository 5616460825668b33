import gc
import json
import math
import statistics
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from symgeo.ffengine import (
    CenterSelectionError,
    Chart,
    FFResult,
    GeoComplex,
    Piece,
    PolyChain,
    check_uniform,
    crossing_parities,
    ff_deform,
    ff_step,
    flat_torus_complex,
    normalize_chain,
    random_loop_chain,
    remainder_decomposition,
    representative_edge_cycle,
    run_deformation_suite,
    select_center,
    validate_chain,
    vanishing_threshold,
    whole_edges_of,
)
from symgeo.ffengine import deform, homology
from symgeo.ffengine import torus as torus_mod
from symgeo.ffengine.chains import DEGENERATE_GRAM, normalize_host
from symgeo.ffengine.complexes import simplex_gram_det, simplex_volume
from symgeo.ffengine.deform import project_piece


# ---------------------------------------------------------------------------
# test-only helpers: OFF input, mod-2 boundary parity and chain JSON
# ---------------------------------------------------------------------------


def complex_from_off(text: str) -> GeoComplex:
    """A complex from an OFF document with vertex triples."""
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError("not an OFF document")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    coords = []
    for _ in range(nv):
        coords.append([float(tokens[pos + i]) for i in range(3)])
        pos += 3
    faces = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        face = [int(tokens[pos + 1 + i]) for i in range(cnt)]
        pos += cnt + 1
        if len(set(face)) != cnt:
            raise ValueError(f"OFF face {face} repeats a vertex")
        faces.append(face)
    return GeoComplex(np.array(coords), faces)


def boundary_keys(cx, chain, decimals=7) -> set:
    """Ambient-coordinate keys of the mod-2 boundary; empty iff closed."""
    parity: dict = {}
    for piece in chain.pieces:
        ambient = cx.to_ambient(piece.host, piece.points)
        for drop in range(piece.points.shape[0]):
            facet = np.delete(ambient, drop, axis=0)
            key = tuple(sorted(tuple(np.round(row, decimals) + 0.0) for row in facet))
            parity[key] = parity.get(key, 0) ^ 1
    return {key for key, p in parity.items() if p}


def is_closed(cx, chain) -> bool:
    return not boundary_keys(cx, chain)


def chain_to_json_dict(cx, chain) -> dict:
    """Pieces as ambient point lists plus host vertex tuples."""
    return {"k": chain.k,
            "pieces": [{"host": list(p.host), "points": cx.to_ambient(p.host, p.points).tolist()}
                       for p in chain.pieces]}


def chain_from_json_dict(cx, doc) -> PolyChain:
    pieces = []
    for item in doc["pieces"]:
        host = tuple(sorted(int(v) for v in item["host"]))
        if not cx.has_cell(host):
            raise ValueError(f"host {host} is not a cell of the complex")
        pieces.append(Piece(host, cx.to_chart(host, np.array(item["points"], dtype=float))))
    chain = PolyChain(int(doc["k"]), pieces)
    validate_chain(cx, chain, tol=1e-6)
    return normalize_chain(cx, chain)


def piece_volume(piece) -> float:
    return simplex_volume(piece.points)


def _per_shape(fn, pieces) -> list:
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


@pytest.fixture
def unit_square():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return GeoComplex(vertices, [(0, 1, 2), (0, 2, 3)])


@pytest.fixture(scope="module")
def torus8():
    return flat_torus_complex(8)


@pytest.fixture
def tetra():
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return GeoComplex(vertices, [(0, 1, 2, 3)])


class TestGeoComplex:
    def test_face_closure(self, unit_square):
        assert len(unit_square.cells_of_dim(0)) == 4
        assert len(unit_square.cells_of_dim(1)) == 5
        assert len(unit_square.cells_of_dim(2)) == 2

    def test_chart_roundtrip(self, unit_square):
        cell = (0, 1, 2)
        pts = np.array([[0.3, 0.2], [0.9, 0.5]])
        coords = unit_square.to_chart(cell, pts)
        assert np.allclose(unit_square.to_ambient(cell, coords), pts)

    def test_chart_isometric(self, unit_square):
        for d, cells in unit_square.cells.items():
            for cell in cells:
                assert _ref_chart_distortion(unit_square, cell) == pytest.approx(1.0)

    def test_face_chart_consistency(self, unit_square):
        # the chart of a face agrees with the cofacet chart through ambient space
        cell, edge = (0, 1, 2), (0, 2)
        pts = np.array([[0.5, 0.5], [0.25, 0.25]])
        via_face = unit_square.to_ambient(edge, unit_square.to_chart(edge, pts))
        assert np.abs(via_face - pts).max() <= 1e-9

    def test_volumes(self, unit_square):
        assert unit_square.cell_volume((0, 1, 2)) == pytest.approx(0.5)
        assert unit_square.cell_volume((0, 2)) == pytest.approx(math.sqrt(2))
        assert unit_square.cell_volume((3,)) == 1.0

    def test_json_roundtrip(self, unit_square):
        doc = unit_square.to_json_dict()
        back = GeoComplex.from_json_dict(json.loads(json.dumps(doc)))
        assert back.cells == unit_square.cells

    def test_off_parsing(self):
        text = """OFF
        4 2 5
        0 0 0
        1 0 0
        1 1 0
        0 1 0
        3 0 1 2
        3 0 2 3
        """
        cx = complex_from_off(text)
        assert len(cx.cells_of_dim(2)) == 2
        assert cx.cell_volume((0, 1, 2)) == pytest.approx(0.5)


class TestCheckUniform:
    def test_unit_square_passes(self, unit_square):
        report = check_uniform(unit_square, r=1.5, delta=0.1)
        assert report["pass"]

    def test_volume_condition_fails(self, unit_square):
        report = check_uniform(unit_square, r=1.5, delta=0.5)
        assert not report["pass"]
        assert not report["detail"]["worst"]["volume"]["ok"]
        assert report["detail"]["worst"]["diameter"]["ok"]

    def test_equilateral_triangle(self):
        cx = GeoComplex(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
            [(0, 1, 2)],
        )
        report = check_uniform(cx, r=1.0, delta=0.2)
        assert report["detail"]["worst"]["distortion"]["value"] == pytest.approx(1.0)
        assert report["pass"]

    def test_torus_uniform(self, torus8):
        report = check_uniform(torus8, r=1.2, delta=0.2)
        assert report["pass"]

    def test_report_holds_worst_violation(self, unit_square):
        report = check_uniform(unit_square, r=1.5, delta=0.5)
        assert set(report) == {"check", "params", "max_abs_err", "pass", "detail"}
        assert report["check"] == "uniformity"
        assert report["params"] == {"r": 1.5, "delta": 0.5}
        # the volume condition is the only one violated
        assert report["max_abs_err"] == -report["detail"]["worst"]["volume"]["margin"] > 0
        assert check_uniform(unit_square, r=1.5, delta=0.1)["max_abs_err"] == 0.0

    def test_empty_complex_raises(self):
        cx = GeoComplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [])
        with pytest.raises(ValueError, match="no cells"):
            check_uniform(cx, r=1.2, delta=0.2)

    def test_congruent_cells_report_the_first(self, torus8):
        # every triangle of the torus has the same area, every diagonal the
        # same length and every chart distortion 1, up to rounding that
        # differs from cell to cell
        worst = check_uniform(torus8, r=1.2, delta=0.2)["detail"]["worst"]
        triangles = torus8.cells_of_dim(2)
        margins = [torus8.cell_volume(c) - 0.2 * 1.2 ** 2 for c in triangles]
        assert len(set(margins)) > 1
        assert worst["volume"]["cell"] == list(triangles[0])
        assert worst["volume"]["margin"] == margins[0] == pytest.approx(min(margins), rel=1e-12)
        cells = [c for d in sorted(torus8.cells) for c in torus8.cells_of_dim(d)]
        for name, measure in (("diameter", _ref_cell_diameter),
                              ("distortion", _ref_chart_distortion)):
            values = [measure(torus8, c) for c in cells]
            assert len({v for v in values if v == pytest.approx(max(values), rel=1e-12)}) > 1
            first = next(c for c, v in zip(cells, values)
                         if v == pytest.approx(max(values), rel=1e-12))
            assert worst[name]["cell"] == list(first)
            assert worst[name]["value"] == measure(torus8, first)


# ---------------------------------------------------------------------------
# stacked charts and the uniformity check against per-cell oracles
# ---------------------------------------------------------------------------


def _ref_chart(cx, cell):
    """Oracle: one cell's chart from its own QR and inverse."""
    pts = cx.vertices[list(cell)]
    origin = pts[0]
    d = len(cell) - 1
    if d == 0:
        return Chart(origin, np.zeros((cx.vertices.shape[1], 0)), np.zeros((1, 0)),
                     np.ones((1, 1)))
    if d > len(origin):
        raise ValueError(f"degenerate cell {cell}")
    q, r = np.linalg.qr((pts[1:] - origin).T)
    if np.abs(np.diag(r)).min() < 1e-12:
        raise ValueError(f"degenerate cell {cell}")
    sign = np.sign(np.diag(r))
    model = np.vstack([np.zeros(d), (r.T * sign)])
    return Chart(origin, q * sign, model,
                 np.linalg.inv(np.hstack([np.ones((d + 1, 1)), model])))


def _ref_cell_arrays(cx, d):
    """Oracle: the fields of cx.cell_arrays(d) from one chart per cell and
    per facet, and the top cofaces found by search up the cofacets."""
    cells = cx.cells_of_dim(d)
    charts = [_ref_chart(cx, cell) for cell in cells]
    N, n = cx.vertices.shape[1], len(cells)
    fields = {
        "verts": np.array(cells, dtype=np.int64).reshape(n, d + 1),
        "origins": np.array([c.origin for c in charts]).reshape(n, N),
        "bases": np.array([c.basis for c in charts]).reshape(n, N, d),
        "models": np.array([c.model for c in charts]).reshape(n, d + 1, d),
        "solvers": np.array([c.bary_solver for c in charts]).reshape(n, d + 1, d + 1),
        "linear": None, "offset": None,
    }
    if d:
        facets = [[_ref_chart(cx, c[:j] + c[j + 1:]) for j in range(d + 1)] for c in cells]
        fields["linear"] = np.array([[c.basis.T @ f.basis for f in fs]
                                     for c, fs in zip(charts, facets)])
        fields["offset"] = np.array([[(c.origin - f.origin) @ f.basis for f in fs]
                                     for c, fs in zip(charts, facets)])
    top_index = {t: i for i, t in enumerate(cx.cells_of_dim(cx.dim))}
    tops = [[top_index[t] for t in _ref_top_cofaces(cx, c)] for c in cells]
    width = max(map(len, tops), default=0)
    fields["tops"] = np.array([t + [-1] * (width - len(t)) for t in tops],
                              dtype=np.int64).reshape(n, width)
    return fields


def _ref_cell_diameter(cx, cell):
    if len(cell) == 1:
        return 0.0
    pts = cx.vertices[list(cell)]
    diffs = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(-1)).max())


def _ref_chart_distortion(cx, cell):
    """max(s_max, 1/s_min) of the ambient-to-chart map on the cell's hull."""
    if len(cell) == 1:
        return 1.0
    model = _ref_chart(cx, cell).model  # rejects a degenerate cell
    pts = cx.vertices[list(cell)]
    _, r = np.linalg.qr((pts[1:] - pts[0]).T)  # hull coordinates of the ambient edges
    restricted = (model[1:] - model[0]).T @ np.linalg.inv(r)
    sv = np.linalg.svd(restricted, compute_uv=False)
    return float(max(sv.max(), 1.0 / sv.min()))


def _ref_check_uniform(cx, r, delta):
    """Oracle: check_uniform one cell at a time."""
    if not cx.cells:
        raise ValueError("complex has no cells")
    diameters, distortions, shortfalls = [], [], []
    for d, cells in cx.cells.items():
        for cell in cells:
            diameters.append((_ref_cell_diameter(cx, cell), cell))
            distortions.append((_ref_chart_distortion(cx, cell), cell))
            vol, bound = simplex_volume(_ref_chart(cx, cell).model), delta * r ** d
            shortfalls.append((bound - vol, cell, vol, bound))

    def first_worst(rows):
        top = max(row[0] for row in rows)
        return next(row for row in rows if top - row[0] <= 1e-12 * abs(top))

    diam, diam_cell = first_worst(diameters)
    dist, dist_cell = first_worst(distortions)
    shortfall, vol_cell, vol, bound = first_worst(shortfalls)
    worst = {
        "diameter": {"value": diam, "bound": r, "cell": list(diam_cell), "ok": diam <= r},
        "distortion": {"value": dist, "bound": 1.0 + delta, "cell": list(dist_cell),
                       "ok": dist <= 1.0 + delta},
        "volume": {"margin": -shortfall, "cell": list(vol_cell), "value": vol,
                   "bound": bound, "ok": shortfall <= 0},
    }
    violation = max(0.0, diam - r, dist - (1.0 + delta), shortfall)
    return {"check": "uniformity", "params": {"r": r, "delta": delta},
            "max_abs_err": violation, "pass": all(info["ok"] for info in worst.values()),
            "detail": {"worst": worst}}


@st.composite
def _flat_meshes(draw):
    """A random mesh of flat simplices in R^N, N = 2..5, at a scale from
    1e-3 to 1e3: top cells of mixed dimensions on random vertices; when
    degenerate, vertex 2 is the midpoint of vertices 0 and 1."""
    N = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_verts = draw(st.integers(3, 8))
    dim = draw(st.integers(1, min(N, n_verts - 1)))
    sizes = [dim + 1] + [int(rng.integers(1, dim + 2)) for _ in range(draw(st.integers(0, 5)))]
    tops = [rng.choice(n_verts, size, replace=False) for size in sizes]
    vertices = rng.normal(size=(n_verts, N)) * scale
    if draw(st.booleans()):
        vertices[2] = (vertices[0] + vertices[1]) / 2
        tops.append([0, 1, 2])
    return GeoComplex(vertices, tops)


def _charted(build, cx):
    """build(cx, d) for every dimension in order, or the message of the
    first ValueError."""
    return _error(lambda: [build(cx, d) for d in sorted(cx.cells)])


class TestStackedCharts:
    """Charts built per dimension on stacks against one chart per cell."""

    @settings(max_examples=150, deadline=None)
    @given(_flat_meshes())
    def test_stacks_equal_per_cell_charts(self, cx):
        def stacked(cx, d):
            arrays = cx.cell_arrays(d)
            return {name: getattr(arrays, name) for name in
                    ("verts", "origins", "bases", "models", "solvers", "linear", "offset", "tops")}

        got, want = _charted(stacked, cx), _charted(_ref_cell_arrays, cx)
        event("degenerate" if isinstance(want, str) else "charted")
        if isinstance(want, str):
            assert got == want and want.startswith("ValueError: degenerate cell")
            return
        for a, b in zip(got, want):
            for name, value in b.items():
                if value is None:
                    assert a[name] is None
                else:
                    assert a[name].shape == value.shape and np.array_equal(a[name], value), name
        for d, cells in cx.cells.items():
            for cell in cells:
                chart, ref = cx.chart(cell), _ref_chart(cx, cell)
                for name in ("origin", "basis", "model", "bary_solver"):
                    assert np.array_equal(getattr(chart, name), getattr(ref, name))
                assert cx.cell_volume(cell) == simplex_volume(ref.model)

    @settings(max_examples=150, deadline=None)
    @given(_flat_meshes(), st.sampled_from([0.5, 1.2, 4.0]), st.sampled_from([0.05, 0.2]))
    def test_check_uniform_equals_per_cell_report(self, cx, r, delta):
        r *= float(np.abs(cx.vertices).max())
        got = _error(check_uniform, cx, r, delta)
        assert got == _error(_ref_check_uniform, cx, r, delta)
        event("raises" if isinstance(got, str) else f"pass {got['pass']}")

    @pytest.mark.parametrize("n", [3, 8])
    def test_torus_check_uniform_equals_per_cell_report(self, n):
        cx = flat_torus_complex(n)
        for r, delta in ((1.2, 0.2), (0.5, 0.9)):
            assert check_uniform(cx, r, delta) == _ref_check_uniform(cx, r, delta)

    def test_degenerate_cell_named_first_in_cell_order(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
        cx = GeoComplex(vertices, [(0, 1, 3), (1, 2, 4), (0, 1, 2)])
        for fn in (check_uniform, _ref_check_uniform):
            with pytest.raises(ValueError, match=r"^degenerate cell \(0, 1, 2\)$"):
                fn(cx, 1.0, 0.1)
        with pytest.raises(ValueError, match=r"^degenerate cell \(0, 1, 2\)$"):
            cx.chart((0, 1, 3))

    def test_vertex_arrays_have_no_facet_maps(self, torus8):
        # a 0-cell's facet would be the empty cell
        cx = GeoComplex(torus8.vertices, torus8.cells_of_dim(2))
        arrays = cx.cell_arrays(0)
        assert arrays.linear is None and arrays.offset is None
        assert arrays.models.shape == (64, 1, 0) and arrays.tops.shape == (64, 6)
        rows = np.array([[5], [0], [63]])
        assert cx.cell_index(rows).tolist() == [5, 0, 63]
        assert cx.cell_index(np.array([[64]]), strict=False).tolist() == [-1]

    def test_chart_is_a_view_of_the_stacks(self, unit_square):
        chart = unit_square.chart((0, 2, 3))
        assert np.shares_memory(chart.model, unit_square.cell_arrays(2).models)
        with pytest.raises(ValueError, match="read-only"):
            chart.model[0, 0] = 1.0
        with pytest.raises(ValueError, match="not a cell"):
            unit_square.chart((1, 3))


class TestChains:
    def test_volume_unit_square_chain(self, unit_square):
        pieces = [
            Piece(cell, unit_square.chart(cell).model.copy())
            for cell in unit_square.cells_of_dim(2)
        ]
        chain = PolyChain(2, pieces)
        assert chain.volume() == pytest.approx(1.0, abs=1e-12)

    def test_empty_chain(self):
        assert PolyChain(1, []).volume() == 0.0

    def test_mod2_double_cancels(self, unit_square):
        piece = Piece((0, 1, 2), unit_square.chart((0, 1, 2)).model.copy())
        chain = PolyChain(2, [piece, Piece(piece.host, piece.points.copy())])
        assert len(chain) == 0
        assert chain.volume() == 0.0

    def test_degenerate_pruned(self):
        piece = Piece((0, 1, 2), np.array([[0.0, 0.0], [1e-12, 0.0]]))
        assert len(PolyChain(1, [piece])) == 0

    def test_normalize_host(self, unit_square):
        # a segment lying on the diagonal edge re-hosts from the triangle
        cell = (0, 1, 2)
        amb = np.array([[0.25, 0.25], [0.75, 0.75]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        chain = normalize_chain(unit_square, PolyChain(1, [piece]))
        assert chain.pieces[0].host == (0, 2)

    def test_validate_containment(self, unit_square):
        bad = Piece((0, 1, 2), np.array([[0.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            validate_chain(unit_square, PolyChain(1, [bad]))

    def test_json_roundtrip(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.2, 0.1], [0.7, 0.2]])
        chain = PolyChain(1, [Piece(cell, unit_square.to_chart(cell, amb))])
        doc = chain_to_json_dict(unit_square, chain)
        back = chain_from_json_dict(unit_square, doc)
        assert len(back) == 1
        assert np.allclose(
            unit_square.to_ambient(back.pieces[0].host, back.pieces[0].points), amb
        )


def _lapack_gram_det(points):
    """Oracle: the Gram determinant of a stack of simplices through LAPACK,
    as simplex_gram_det took it for every k before the closed forms."""
    if points.shape[-2] == 1:
        return np.ones(points.shape[:-2])
    edges = points[..., 1:, :] - points[..., :1, :]
    return np.linalg.det(edges @ np.swapaxes(edges, -1, -2))


def _exact_det(rows) -> Fraction:
    # Gaussian elimination over the rationals
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot], det = m[pivot], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


#: coordinates 0 or of magnitude above 1e-6, so that no product underflows
_COORDS = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)


@st.composite
def _simplex_stacks(draw, elements):
    """A stack (S, k+1, N) of simplices, k = 0..3 and N >= k."""
    k = draw(st.integers(0, 3))
    n = draw(st.integers(max(k, 1), 4))
    size = draw(st.integers(1, 4))
    flat = draw(st.lists(elements, min_size=size * (k + 1) * n, max_size=size * (k + 1) * n))
    return np.array(flat, dtype=float).reshape(size, k + 1, n)


class TestSimplexGramDet:
    """The closed-form Gram determinants (k <= 2) against LAPACK and exact
    rational arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(_simplex_stacks(_COORDS))
    def test_stack_equals_lapack(self, pts):
        got, want = simplex_gram_det(pts), _lapack_gram_det(pts)
        assert got.shape == want.shape == pts.shape[:1]
        # both round at about eps times the product of the squared edge
        # lengths (Hadamard's bound on the determinant)
        edges = pts[:, 1:] - pts[:, :1]
        scale = np.prod((edges * edges).sum(axis=-1), axis=-1)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        for one, det in zip(pts, got):
            assert simplex_gram_det(one) == det

    @settings(max_examples=300, deadline=None)
    @given(_simplex_stacks(st.integers(-6, 6)))
    def test_integer_simplices_equal_exact_determinants(self, pts):
        k = pts.shape[1] - 1
        for one, det in zip(pts, simplex_gram_det(pts)):
            edges = (one[1:] - one[0]).astype(int).tolist()
            exact = _exact_det([[sum(a * b for a, b in zip(u, v)) for v in edges]
                                for u in edges])
            if k <= 2:
                assert det == exact
            else:
                assert det == pytest.approx(float(exact), rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(_simplex_stacks(_COORDS),
           st.integers(-8, 8), st.floats(0.01, 100.0))
    @example(np.array([[[1.0], [0.99999]]]), 0, 0.01171875)
    def test_scales_as_s_to_the_2k(self, pts, e, s):
        # f * pts rounds each coordinate relative to itself: with the first
        # vertex at the origin the edges are coordinates, so they scale to
        # within rounding of themselves, as the bound assumes
        pts = pts - pts[:, :1]
        k = pts.shape[1] - 1
        det = simplex_gram_det(pts)
        edges = pts[:, 1:] - pts[:, :1]
        scale = np.prod((edges * edges).sum(axis=-1), axis=-1)
        for f in (2.0 ** e, s):
            assert np.all(np.abs(simplex_gram_det(f * pts) - f ** (2 * k) * det)
                          <= 1e-12 * f ** (2 * k) * scale)
        if k <= 2:
            # a power of two scales every rounding step of a closed form exactly
            assert np.array_equal(simplex_gram_det(2.0 ** e * pts), 4.0 ** (e * k) * det)


def piece_volumes(pieces):
    """Oracle: the k-volume of each piece, one stacked simplex_volume call
    per point shape."""
    return np.array(_per_shape(lambda pts, _: simplex_volume(pts).tolist(), pieces))


class _RefChain:
    """Oracle: the dict-keyed PolyChain constructor.  A piece's key is its
    host and its sorted rounded points; a second copy of a key deletes the
    first, so the kept pieces are in the order a dict keeps its keys."""

    def __init__(self, k, pieces):
        pieces = [Piece(p.host, np.asarray(p.points, dtype=float)) for p in pieces]
        kept: dict = {}
        for piece, det in zip(pieces, _per_shape(lambda pts, _: simplex_gram_det(pts).tolist(),
                                                 pieces)):
            if det < DEGENERATE_GRAM:
                continue
            rounded = np.round(piece.points, 9) + 0.0
            key = (piece.host, tuple(sorted(tuple(row) for row in rounded.tolist())))
            if key in kept:
                del kept[key]
            else:
                kept[key] = (piece, det)
        self.pieces = [piece for piece, _ in kept.values()]
        self.volumes = [math.sqrt(max(det, 0.0)) / math.factorial(k) for _, det in kept.values()]

    def volume(self):
        return float(sum(self.volumes))


_GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5])


@st.composite
def _chain_cases(draw):
    """Pieces of one dimension k hosted on cells of every dimension of the
    tetrahedron, each repeated 1 to 4 times as exact copies, copies with
    permuted points and copies moved within the key rounding, in a shuffled
    order; some pieces are degenerate (repeated grid points, more points
    than the host dimension allows) or shrunk below DEGENERATE_GRAM."""
    k = draw(st.integers(0, 2))
    cells = [c for d in range(4) for c in _TETRA.cells_of_dim(d)]
    coord = _GRID | st.floats(-1.0, 1.0)
    pieces: list[Piece] = []
    for _ in range(draw(st.integers(0, 6))):
        host = draw(st.sampled_from(cells))
        d = len(host) - 1
        rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                             min_size=k + 1, max_size=k + 1))
        pts = np.array(rows, dtype=float).reshape(k + 1, d)
        if draw(st.booleans()):
            # a k-volume of 1e-10 or 1e-8 times the original's
            pts = pts[:1] + draw(st.sampled_from([1e-10, 1e-8])) * (pts - pts[:1])
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["copy", "permuted", "jittered"]))
            copy = pts.copy()
            if kind == "permuted":
                copy = copy[draw(st.permutations(range(k + 1)))]
            elif kind == "jittered":
                copy = copy + draw(st.floats(-4e-10, 4e-10))
            pieces.append(Piece(host, copy))
    return k, draw(st.permutations(pieces))


class TestArrayChains:
    """The stacked PolyChain constructor and normalize_chain against the
    piece-at-a-time forms they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_chain_cases())
    def test_same_pieces_as_dict_constructor(self, case):
        k, pieces = case
        chain = PolyChain(k, pieces)
        ref = _RefChain(k, pieces)
        assert [p.host for p in chain.pieces] == [p.host for p in ref.pieces]
        for got, want in zip(chain.pieces, ref.pieces):
            assert got.points.shape == want.points.shape
            assert got.points.tobytes() == want.points.tobytes()
        assert chain.volumes.tolist() == ref.volumes
        assert chain.volume() == ref.volume()
        # each block keeps its pieces in chain order
        assert all((np.diff(block.index) > 0).all() for block in chain.blocks.values())
        assert chain.volumes.tolist() == piece_volumes(chain.pieces).tolist()
        live = sum(simplex_gram_det(np.asarray(p.points)) >= DEGENERATE_GRAM for p in pieces)
        assert (chain.pruned, chain.cancelled) == (len(pieces) - live, live - len(chain))

    def test_normalized_chain_returned_unchanged(self, torus8):
        chain, _ = random_loop_chain(torus8, seed=3)
        assert normalize_chain(torus8, chain) is chain

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_rehosts_like_piece_at_a_time(self, torus8, seed):
        # lift every other piece of a chain on edges into a triangle holding
        # it, so the chain mixes host dimensions and some pieces have a dead
        # coordinate
        loop, _ = random_loop_chain(torus8, seed=seed)
        chain = ff_step(torus8, loop, 2, seed)[0]
        pieces = []
        for i, p in enumerate(chain.pieces):
            if i % 2:
                tri = _ref_cofacets(torus8, p.host)[0]
                p = Piece(tri, torus8.convert_coords(p.host, tri, p.points))
            pieces.append(p)
        lifted = PolyChain(1, pieces)
        got = normalize_chain(torus8, lifted)
        want = PolyChain(1, (normalize_host(torus8, p) for p in lifted.pieces))
        assert got is not lifted
        assert [p.host for p in got.pieces] == [p.host for p in want.pieces]
        assert all(a.points.tobytes() == b.points.tobytes()
                   for a, b in zip(got.pieces, want.pieces))

    def test_suite_takes_no_lapack_determinant_and_normalizes_once_per_level(
            self, monkeypatch):
        from symgeo.ffengine import chains

        cx = flat_torus_complex(8)
        calls = [0]
        normalize = chains.normalize_chain

        def counting(*args):
            calls[0] += 1
            return normalize(*args)

        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det was called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        for module in (chains, torus_mod, deform):
            monkeypatch.setattr(module, "normalize_chain", counting)
        assert run_deformation_suite(cx, n_chains=2)["pass"]
        # a loop on the torus takes two levels (m = 2, 1): random_loop_chain
        # normalizes the loop once, and each level normalizes its output
        assert calls[0] == 2 * (1 + 2)

    def test_one_generator_per_level_that_selects_centers(self, torus8, tetra, monkeypatch):
        # levels with m > k draw every cell's candidates from one generator
        # seeded by [seed, m]; the chain's own level draws nothing
        loop, _ = random_loop_chain(torus8, seed=5)
        cell = (0, 1, 2, 3)
        amb = np.array([[0.2, 0.2, 0.2], [0.3, 0.25, 0.15]])
        segment = PolyChain(1, [Piece(cell, tetra.to_chart(cell, amb))])
        seeds = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        ff_deform(torus8, loop, seed=5)
        assert seeds == [[5, 2]]
        seeds.clear()
        ff_deform(tetra, segment, seed=4)
        assert seeds == [[4, 3], [4, 2]]

    def test_normalized_mark_is_per_complex_and_weak(self, torus8):
        loop, _ = random_loop_chain(torus8, seed=3)
        other = flat_torus_complex(8)
        assert loop.normalized_for(torus8) and not loop.normalized_for(other)
        # an unmarked chain, or one marked for another complex, is normalized
        # by the first level
        want = ff_deform(torus8, loop, seed=3).to_json_dict()
        plain = PolyChain(1, loop.pieces)
        assert not plain.normalized_for(torus8)
        assert ff_deform(torus8, plain, seed=3).to_json_dict() == want
        assert normalize_chain(other, plain) is plain
        assert plain.normalized_for(other) and not plain.normalized_for(torus8)
        assert ff_deform(torus8, plain, seed=3).to_json_dict() == want
        # the mark keeps no complex alive
        normalize_chain(other, plain)
        ref = weakref.ref(other)
        del other
        gc.collect()
        assert ref() is None
        assert not plain.normalized_for(torus8)

    def test_two_level_deformation_rebuilds_at_most_three_chains(self, torus8, monkeypatch):
        from symgeo.ffengine import chains

        inside, rebuilt = [0], [0]
        normalize, init = chains.normalize_chain, chains.PolyChain.__init__

        def counting_normalize(*args):
            inside[0] += 1
            try:
                return normalize(*args)
            finally:
                inside[0] -= 1

        def counting_init(self, *args, **kwargs):
            rebuilt[0] += inside[0] > 0
            init(self, *args, **kwargs)

        monkeypatch.setattr(chains.PolyChain, "__init__", counting_init)
        monkeypatch.setattr(deform, "normalize_chain", counting_normalize)
        chain, _ = random_loop_chain(torus8, seed=30)
        result = ff_deform(torus8, chain, seed=30)
        assert [s.level for s in result.steps] == [2, 1]
        assert rebuilt[0] <= 3


class TestRadialProject:
    """Radial projection of one piece from a center (project_piece)."""

    def test_boundary_piece_unchanged(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.3, 0.0], [0.8, 0.0]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        center = unit_square.to_chart(cell, np.array([[0.5, 0.25]]))[0]
        out, proj, track = project_piece(unit_square, cell, center, piece)
        assert [p.host for p in out] == [(0, 1)]
        assert np.allclose(unit_square.to_ambient(out[0].host, out[0].points), amb,
                           rtol=0, atol=1e-12)
        assert proj == pytest.approx(0.5, rel=0, abs=1e-12)
        assert track == pytest.approx(0.0, abs=1e-12)

    def test_point_projection_collinear(self, unit_square):
        cell = (0, 1, 2)
        x0_amb = np.array([0.6, 0.3])
        edge_mid = np.array([0.5, 0.0])  # midpoint of the bottom edge
        point_amb = (x0_amb + edge_mid) / 2.0
        piece = Piece(cell, unit_square.to_chart(cell, point_amb[None, :]))
        out, _, _ = project_piece(
            unit_square, cell, unit_square.to_chart(cell, x0_amb[None, :])[0], piece
        )
        assert len(out) == 1
        image_amb = unit_square.to_ambient(out[0].host, out[0].points)[0]
        assert np.allclose(image_amb, edge_mid, atol=1e-12)

    def test_center_on_piece_rejected(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.4, 0.2], [0.8, 0.4]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        mid = unit_square.to_chart(cell, ((amb[0] + amb[1]) / 2)[None, :])
        assert _lone(unit_square, cell, mid, [piece]).clear.tolist() == [[False]]

    def test_segment_splits_across_facets(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.55, 0.05], [0.95, 0.55]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        center = unit_square.to_chart(cell, np.array([[0.7, 0.3]]))[0]
        out, _, _ = project_piece(unit_square, cell, center, piece)
        assert len(out) >= 2
        hosts = {p.host for p in out}
        assert all(len(h) == 2 for h in hosts)

    def mc_projected_area(self, cx, cell, x0, piece, n_samples=10_000, h=1e-5):
        """Monte-Carlo oracle: area of the projected piece via finite-difference
        Jacobians at uniform sample points of the source triangle."""
        rng = np.random.default_rng(0)
        chart = cx.chart(cell)
        pts = piece.points
        e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
        area_src = piece_volume(piece)
        # orthonormal tangent frame of the piece plane
        u1 = e1 / np.linalg.norm(e1)
        u2 = e2 - (e2 @ u1) * u1
        u2 /= np.linalg.norm(u2)

        def project_points(ys):
            bary = chart.barycentric(ys)
            c = chart.barycentric(x0[None, :])[0]
            s_all = np.full(len(ys), np.inf)
            for j in range(len(cell)):
                denom = c[j] - bary[:, j]
                sj = np.where(denom > 1e-14, c[j] / np.maximum(denom, 1e-300), np.inf)
                s_all = np.minimum(s_all, np.where(sj >= 1 - 1e-9, sj, np.inf))
            return x0 + s_all[:, None] * (ys - x0)

        w = rng.dirichlet(np.ones(3), size=n_samples)
        ys = w @ pts
        p0 = project_points(ys)
        p1 = project_points(ys + h * u1)
        p2 = project_points(ys + h * u2)
        d1 = (p1 - p0) / h
        d2 = (p2 - p0) / h
        cross = np.cross(d1, d2)
        jac = np.linalg.norm(cross, axis=1)
        return area_src * float(jac.mean())

    def test_triangle_area_against_mc_oracle(self, tetra):
        cell = (0, 1, 2, 3)
        x0 = tetra.to_chart(cell, np.array([[0.25, 0.25, 0.25]]))[0]

        def projected_area(tri_ambient):
            piece = Piece(cell, tetra.to_chart(cell, tri_ambient))
            _, area, _ = project_piece(tetra, cell, x0, piece)
            return area, piece

        near_tri = np.array([[0.20, 0.20, 0.20], [0.30, 0.20, 0.20], [0.20, 0.30, 0.20]])
        far_tri = near_tri * 0.2  # same shape, pulled toward a vertex, away from x0
        area_near, piece_near = projected_area(near_tri)
        area_far, piece_far = projected_area(far_tri)
        mc_near = self.mc_projected_area(tetra, cell, x0, piece_near)
        assert area_near == pytest.approx(mc_near, rel=0.05)
        # the far triangle is smaller; compare per unit source area
        ratio_near = area_near / piece_volume(piece_near)
        ratio_far = area_far / piece_volume(piece_far)
        assert ratio_near > ratio_far


class TestSelectCenter:
    def test_empty_pieces_rejected(self, unit_square):
        with pytest.raises(ValueError, match="dimension below"):
            select_center(unit_square, (0, 1, 2), [], rng=1)

    def test_full_dim_pieces_rejected(self, unit_square):
        cell = (0, 1, 2)
        half = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
        piece = Piece(cell, unit_square.to_chart(cell, half))
        with pytest.raises(ValueError, match="dimension below"):
            select_center(unit_square, cell, [piece], rng=5)

    def test_small_piece_quick_success(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.64, 0.32], [0.68, 0.34]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        info = select_center(unit_square, cell, [piece], c_target=10.0, rng=3)
        assert info.tries <= 10
        assert info.ratio <= 10.0

    def test_deterministic(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.3, 0.1], [0.6, 0.3]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        a = select_center(unit_square, cell, [piece], rng=np.random.default_rng(9))
        b = select_center(unit_square, cell, [piece], rng=np.random.default_rng(9))
        assert np.array_equal(a.point, b.point)


class TestFFStep:
    def test_identity_on_lower_skeleton(self, unit_square):
        edge = (0, 1)
        piece = Piece(edge, np.array([[0.2], [0.8]]))
        chain = PolyChain(1, [piece])
        out, step, _, _ = ff_step(unit_square, chain, 2, seed=0)
        assert step.track == 0.0
        assert len(out) == 1
        assert out.pieces[0].host == edge

    def test_segment_pushed_to_boundary(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.5, 0.2], [0.75, 0.4]])
        chain = PolyChain(1, [Piece(cell, unit_square.to_chart(cell, amb))])
        out, step, _, _ = ff_step(unit_square, chain, 2, seed=1)
        assert all(len(p.host) == 2 for p in out.pieces)
        assert 0.0 < step.track <= unit_square.cell_volume(cell)
        validate_chain(unit_square, out)

    def test_full_cell_kept_at_chain_level(self, unit_square):
        cell = (0, 1, 2)
        chain = PolyChain(2, [Piece(cell, unit_square.chart(cell).model.copy())])
        out, step, whole, _ = ff_step(unit_square, chain, 2, seed=2)
        assert step.track == 0.0
        assert whole == (cell,)
        assert out.volume() == pytest.approx(0.5)

    def test_partial_cell_collapses_at_chain_level(self, unit_square):
        cell = (0, 1, 2)
        half = np.array([[0.1, 0.05], [0.5, 0.1], [0.4, 0.3]])
        chain = PolyChain(2, [Piece(cell, unit_square.to_chart(cell, half))])
        out, _, whole, _ = ff_step(unit_square, chain, 2, seed=3)
        assert whole == ()
        assert out.volume() == 0.0


class TestFFDeform:
    def test_skeletal_cycle_fixed_point(self, torus8):
        edges = representative_edge_cycle(torus8, (1, 0))
        pieces = [Piece(e, torus8.chart(e).model.copy()) for e in edges]
        chain = PolyChain(1, pieces)
        result = ff_deform(torus8, chain, seed=0)
        assert result.total_track == 0.0
        assert result.final.volume() == pytest.approx(chain.volume())
        assert {p.host for p in result.final.pieces} == set(edges)

    def test_random_loop_deforms_into_skeleton(self, torus8):
        chain, winding = random_loop_chain(torus8, seed=11)
        assert is_closed(torus8, chain)
        result = ff_deform(torus8, chain, seed=11)
        assert result.final.max_host_dim() <= 1
        validate_chain(torus8, result.final)
        # final chain consists of whole edges, has empty boundary, and is a
        # cycle of the simplicial complex
        assert is_closed(torus8, result.final)
        edges = whole_edges_of(torus8, result.final)
        vec = homology.cell_vector(torus8, 1, edges)
        assert homology.is_cycle(torus8, 1, vec)

    def test_homology_class_preserved(self, torus8):
        for seed in (3, 4, 5, 6):
            chain, winding = random_loop_chain(torus8, seed=seed)
            assert crossing_parities(torus8, chain) == winding
            result = ff_deform(torus8, chain, seed=seed)
            edges = whole_edges_of(torus8, result.final)
            assert crossing_parities(torus8, result.final) == winding
            vec = homology.cell_vector(torus8, 1, edges)
            rep = homology.cell_vector(
                torus8, 1, representative_edge_cycle(torus8, winding)
            )
            assert homology.homologous(torus8, 1, vec, rep)

    def test_volume_and_track_bounds(self, torus8):
        ratios = []
        for seed in range(8):
            chain, _ = random_loop_chain(torus8, seed=seed)
            vol_in = chain.volume()
            result = ff_deform(torus8, chain, seed=seed)
            ratios.append(max(result.final.volume(), result.total_track) / vol_in)
        assert max(ratios) <= 20.0

    def test_remainder_decomposition(self, torus8):
        chain, _ = random_loop_chain(torus8, seed=21)
        result = ff_deform(torus8, chain, seed=21)
        whole, rest = remainder_decomposition(torus8, result)
        assert len(whole) + len(rest) == len(result.final)
        for i in rest:
            assert len(result.final.pieces[i].host) - 1 <= 0

    def test_remainder_split_equals_list_form(self, torus8):
        for seed in range(40):
            chain, _ = random_loop_chain(torus8, seed=seed)
            result = ff_deform(torus8, chain, seed=seed)
            whole, rest = remainder_decomposition(torus8, result)
            n_pieces, q_pieces = _ref_remainder_decomposition(torus8, result)
            pieces = result.final.pieces
            for got, want in ((whole, n_pieces), (rest, q_pieces)):
                assert len(got) == len(want)
                assert all(pieces[i] is piece for i, piece in zip(got, want))

    def test_remainder_outside_the_skeleton_raises(self, torus8):
        # a part of an edge that is not whole, and a 1-piece inside a triangle
        edge, other = torus8.cells_of_dim(1)[:2]
        tri = torus8.cells_of_dim(2)[0]
        part = Piece(edge, torus8.chart(edge).model * 0.5)
        whole = Piece(other, torus8.chart(other).model.copy())
        inside = Piece(tri, torus8.chart(tri).model[:2] * 0.5 + 0.1)
        for pieces, cells in (([whole, part], (other,)), ([whole, inside, part], (other,)),
                              ([part], ()), ([whole], ())):
            result = FFResult(PolyChain(1, pieces), 0.0, (), cells)
            messages = []
            for split in (remainder_decomposition, _ref_remainder_decomposition):
                with pytest.raises(AssertionError, match="^remainder piece hosted on ") as info:
                    split(torus8, result)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_vanishing_check_on_run(self, torus8):
        from symgeo.ffengine.suite import vanishing_check

        for seed in (2, 7, 13):
            chain, _ = random_loop_chain(torus8, seed=seed)
            result = ff_deform(torus8, chain, seed=seed)
            assert vanishing_check(torus8, chain, result) >= 0.0

    def test_tiny_chain_keeps_no_cell(self, torus8):
        # a chain far below the local-mass threshold cannot cover any edge
        cell = torus8.cells_of_dim(2)[0]
        model = torus8.chart(cell).model
        center = model.mean(axis=0)
        tiny = PolyChain(1, [Piece(cell, np.vstack([center, center + 0.005]))])
        assert tiny.volume() < vanishing_threshold(torus8, 1, 20.0)
        result = ff_deform(torus8, tiny, seed=1)
        assert result.whole_cells == ()
        assert result.final.volume() == 0.0

    def test_trace_json(self, torus8):
        chain, _ = random_loop_chain(torus8, seed=30)
        result = ff_deform(torus8, chain, seed=30)
        doc = result.to_json_dict()
        assert [s["level"] for s in doc["steps"]] == [2, 1]
        assert all(
            set(s) == {"level", "cells", "volume_before", "volume_after", "track",
                       "pieces_in", "pieces_out", "pruned", "cancelled", "center_tries",
                       "rejected_clearance", "rejected_exit", "kernel_calls"}
            for s in doc["steps"]
        )
        assert doc["steps"][0]["track"] == pytest.approx(result.total_track)
        json.dumps(doc)  # serializable

    def test_step_counters(self, torus8, monkeypatch):
        infos = []
        select = deform.select_centers

        def recording(*args, **kwargs):
            result = select(*args, **kwargs)
            infos.extend(result[0])
            return result

        monkeypatch.setattr(deform, "select_centers", recording)
        chain, _ = random_loop_chain(torus8, seed=30)
        result = ff_deform(torus8, chain, seed=30)
        top, edges = result.steps
        assert (top.pieces_in, top.pieces_out) == (len(chain), edges.pieces_in)
        assert edges.pieces_out == len(result.final)
        assert len(infos) == top.cells
        assert top.center_tries == sum(i.tries for i in infos) >= top.cells
        assert top.rejected_clearance == sum(i.rejected_clearance for i in infos)
        assert top.rejected_exit == sum(i.rejected_exit for i in infos)
        # the chain's own level only decides coverage
        assert (edges.center_tries, edges.rejected_clearance, edges.rejected_exit,
                edges.kernel_calls) == (0, 0, 0, 0)
        again = ff_deform(torus8, chain, seed=30).to_json_dict()
        assert json.dumps(again) == json.dumps(result.to_json_dict())

    def test_one_kernel_call_when_every_cell_accepts_its_first_block(self, torus8):
        chain, _ = random_loop_chain(torus8, seed=30)
        top = ff_deform(torus8, chain, seed=30).steps[0]
        assert (top.rejected_clearance, top.rejected_exit) == (0, 0)
        assert top.cells > 1 and top.kernel_calls == 1

    def test_level_selection_equals_one_cell_at_a_time(self, unit_square):
        # one generator draws both cells' first blocks, then a second block
        # for cell (0, 1, 2): its first draw lands on its point piece, so
        # that cell needs more candidates, two kernel calls in all.  Each
        # cell alone, drawing its own rows of those blocks, chooses the same
        cells = [(0, 1, 2), (0, 2, 3)]
        rng = np.random.default_rng(5)
        first, second = rng.standard_exponential((2, 8, 3)), rng.standard_exponential((1, 8, 3))
        weights = (first[0, :1] / first[0, :1].sum(), np.array([[0.3, 0.3, 0.4]]))
        pieces = [[Piece(cell, w @ unit_square.chart(cell).model)]
                  for cell, w in zip(cells, weights)]
        totals = [sum(piece_volumes(ps).tolist()) for ps in pieces]
        infos, calls = deform.select_centers(unit_square, cells, pieces, totals,
                                             np.random.default_rng(5))
        assert calls == 2
        assert [i.rejected_clearance for i in infos] == [1, 0]
        rows = (np.concatenate([first[0], second[0]]), first[1])
        for cell, ps, own, info in zip(cells, pieces, rows, infos):
            one = select_center(unit_square, cell, ps, rng=_FixedDraws(own))
            assert np.array_equal(one.point, info.point)
            assert (one.tries, one.ratio, one.tracks) == (info.tries, info.ratio, info.tracks)

    def test_seeds_apart_by_two_to_the_31_draw_different_candidates(self, torus8, monkeypatch):
        # every bit of the seed reaches the level's generator
        loop, _ = random_loop_chain(torus8, seed=5)
        blocks = []
        draw = deform._draw

        def recording(*args):
            blocks.append(draw(*args))
            return blocks[-1]

        monkeypatch.setattr(deform, "_draw", recording)
        low = ff_deform(torus8, loop, seed=12345).to_json_dict()
        high = ff_deform(torus8, loop, seed=12345 + 2 ** 31).to_json_dict()
        assert len(blocks) == 2 and blocks[0].shape == blocks[1].shape
        assert not np.array_equal(blocks[0], blocks[1])
        assert low != high
        with pytest.raises(ValueError, match="nonnegative"):
            ff_deform(torus8, loop, seed=-1)

    def test_rejects_top_dimension(self, torus8):
        cell = torus8.cells_of_dim(2)[0]
        chain = PolyChain(2, [Piece(cell, torus8.chart(cell).model.copy())])
        with pytest.raises(ValueError):
            ff_deform(torus8, chain, seed=0)

    def test_two_level_collapse_in_tetrahedron(self, tetra):
        # a segment in the open tetrahedron crosses two collapse levels
        cell = (0, 1, 2, 3)
        amb = np.array([[0.2, 0.2, 0.2], [0.3, 0.25, 0.15]])
        chain = PolyChain(1, [Piece(cell, tetra.to_chart(cell, amb))])
        result = ff_deform(tetra, chain, seed=4)
        assert [s.level for s in result.steps] == [3, 2, 1]
        assert result.final.max_host_dim() <= 1
        validate_chain(tetra, result.final)
        assert result.total_track > 0.0
        # an open segment cannot cover any edge, so nothing survives
        assert result.whole_cells == ()

    def test_triangle_chain_in_tetrahedron(self, tetra):
        cell = (0, 1, 2, 3)
        amb = np.array(
            [[0.2, 0.2, 0.2], [0.4, 0.2, 0.2], [0.2, 0.4, 0.2]]
        )
        chain = PolyChain(2, [Piece(cell, tetra.to_chart(cell, amb))])
        result = ff_deform(tetra, chain, seed=5)
        assert result.final.max_host_dim() <= 2
        validate_chain(tetra, result.final)


class TestVanishingThreshold:
    def test_formula(self, torus8):
        eta = vanishing_threshold(torus8, 1, 4.0)
        min_len = min(torus8.cell_volume(c) for c in torus8.cells_of_dim(1))
        assert eta == pytest.approx(min_len / (4.0 * math.comb(3, 2)))

    def test_homogeneous_scaling(self, torus8):
        scaled = GeoComplex(
            torus8.vertices * 3.0,
            torus8.cells_of_dim(2),
            metadata=torus8.metadata,
        )
        assert vanishing_threshold(scaled, 1, 2.0) == pytest.approx(
            3.0 * vanishing_threshold(torus8, 1, 2.0)
        )

    def test_below_min_volume(self, torus8):
        for c in (0.5, 1.0, 7.0):
            eta = vanishing_threshold(torus8, 1, c)
            min_len = min(torus8.cell_volume(e) for e in torus8.cells_of_dim(1))
            assert eta <= min_len


    def test_min_cell_volume_computed_once_per_complex(self, monkeypatch):
        from symgeo.ffengine import complexes

        cx = flat_torus_complex(8)
        calls = []
        volume = complexes.simplex_volume
        monkeypatch.setattr(complexes, "simplex_volume",
                            lambda pts: calls.append(pts.shape) or volume(pts))
        eta = vanishing_threshold(cx, 1, 2.0)
        # one stacked call over the 192 edges
        assert calls == [(192, 2, 1)]
        assert eta == min(simplex_volume(_ref_chart(cx, e).model)
                          for e in cx.cells_of_dim(1)) / (2.0 * 3)
        calls.clear()
        assert vanishing_threshold(cx, 1, 5.0) == pytest.approx(eta * 2.0 / 5.0)
        assert calls == []
        scaled = GeoComplex(cx.vertices * 3.0, cx.cells_of_dim(2), metadata=cx.metadata)
        assert vanishing_threshold(scaled, 1, 2.0) == pytest.approx(3.0 * eta)


class TestHomology:
    def test_torus_betti(self, torus8):
        assert homology.betti(torus8, 0) == 1
        assert homology.betti(torus8, 1) == 2
        assert homology.betti(torus8, 2) == 1

    def test_representative_parities(self, torus8):
        for winding in [(1, 0), (0, 1), (1, 1)]:
            edges = representative_edge_cycle(torus8, winding)
            pieces = [Piece(e, torus8.chart(e).model.copy()) for e in edges]
            chain = PolyChain(1, pieces)
            assert crossing_parities(torus8, chain) == winding
            vec = homology.cell_vector(torus8, 1, edges)
            assert homology.is_cycle(torus8, 1, vec)

    def test_distinct_classes_not_homologous(self, torus8):
        a = homology.cell_vector(torus8, 1, representative_edge_cycle(torus8, (1, 0)))
        b = homology.cell_vector(torus8, 1, representative_edge_cycle(torus8, (0, 1)))
        assert not homology.homologous(torus8, 1, a, b)
        assert homology.homologous(torus8, 1, a, a)


def _pack(v) -> int:
    return int("".join(str(int(b)) for b in v) or "0", 2)


def _gf2_span(vectors) -> set[int]:
    """Every GF(2) combination of the vectors, each packed into an int."""
    span = {0}
    for v in vectors:
        span |= {s ^ _pack(v) for s in span}
    return span


gf2_matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows)))


def _ref_boundary_matrix(cx, d):
    """Oracle: the dense GF(2) matrix of the boundary map C_d -> C_{d-1}."""
    row_index = {c: i for i, c in enumerate(cx.cells_of_dim(d - 1))}
    cols = cx.cells_of_dim(d)
    mat = np.zeros((len(row_index), len(cols)), dtype=np.uint8)
    for j, cell in enumerate(cols):
        for i in range(len(cell)):
            mat[row_index[cell[:i] + cell[i + 1:]], j] ^= 1
    return mat


class _RefGf2RowSpace:
    """Oracle: an incremental dense GF(2) row basis, keyed by first set
    entry."""

    def __init__(self, rows):
        self._basis: dict[int, np.ndarray] = {}
        for row in np.asarray(rows, dtype=np.uint8) % 2:
            self._insert(row.copy())

    def _reduce(self, v):
        for pivot, row in self._basis.items():
            if v[pivot]:
                v ^= row
        return v

    def _insert(self, row):
        row = self._reduce(row)
        nz = np.flatnonzero(row)
        if nz.size:
            self._basis[int(nz[0])] = row

    @property
    def rank(self) -> int:
        return len(self._basis)

    def contains(self, v) -> bool:
        return not self._reduce(np.array(v, dtype=np.uint8) % 2).any()


def _ref_gf2_rank(mat) -> int:
    # row rank equals column rank; inserting the fewer vectors is cheaper
    return _RefGf2RowSpace(mat if mat.shape[0] <= mat.shape[1] else mat.T).rank


def _packed_rows(mat) -> list[int]:
    return [homology.pack(row) for row in np.asarray(mat, dtype=np.uint8)]


class TestGf2Engine:
    """The bit-packed GF(2) engine against brute-force span enumeration and
    the dense row basis."""

    @given(gf2_matrices)
    def test_rank_matches_span_size(self, rows):
        mat = np.array(rows, dtype=np.uint8)
        rank = homology.Gf2Basis(_packed_rows(mat)).rank
        assert 2 ** rank == len(_gf2_span(mat)) == 2 ** _ref_gf2_rank(mat)
        assert rank == homology.Gf2Basis(_packed_rows(mat.T)).rank == _ref_gf2_rank(mat.T)

    @given(gf2_matrices, st.data())
    def test_solve_matches_column_span(self, rows, data):
        mat = np.array(rows, dtype=np.uint8)
        target = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        expected = _pack(target) in _gf2_span(mat.T)
        space = homology.Gf2Basis(_packed_rows(mat.T))
        assert space.contains(homology.pack(np.array(target))) == expected
        assert _RefGf2RowSpace(mat.T).contains(np.array(target, dtype=np.uint8)) == expected

    @given(st.lists(st.integers(0, 3), max_size=70))
    def test_pack_puts_entry_i_at_bit_i(self, vec):
        # entries are read mod 2
        assert homology.pack(np.array(vec, dtype=np.uint8)) == sum(
            (v % 2) << i for i, v in enumerate(vec))

    @pytest.mark.parametrize("name", ["torus8", "tetra"])
    def test_boundary_rows_are_the_dense_matrix(self, name):
        cx = _CYCLE_COMPLEXES[name]
        for d in range(cx.dim + 1):
            rows = homology.boundary_rows(cx, d)
            if d == 0:
                assert rows == [0] * len(cx.cells_of_dim(0))
                continue
            mat = _ref_boundary_matrix(cx, d)
            assert rows == _packed_rows(mat.T)
            assert homology.Gf2Basis(rows).rank == _ref_gf2_rank(mat)

    def test_boundary_image_equals_dense_span(self, torus8):
        rng = np.random.default_rng(0)
        image = homology.boundary_image(torus8, 2)
        dense = _RefGf2RowSpace(_ref_boundary_matrix(torus8, 2).T)
        mat = _ref_boundary_matrix(torus8, 2)
        for _ in range(20):
            bounding = mat @ rng.integers(0, 2, mat.shape[1]) % 2
            other = rng.integers(0, 2, mat.shape[0])
            for vec in (bounding, other, bounding ^ other):
                assert image.bounds(vec) == dense.contains(vec)
        assert image.bounds(bounding)

    def test_torus32_betti(self):
        cx = flat_torus_complex(32)
        assert [homology.betti(cx, d) for d in range(3)] == [1, 2, 1]

    def test_betti_eliminates_each_boundary_once(self, monkeypatch):
        built = []
        init = homology.BoundaryImage.__init__

        def counting(self, cx, d):
            built.append((id(cx), d))
            init(self, cx, d)

        monkeypatch.setattr(homology.BoundaryImage, "__init__", counting)
        cx = flat_torus_complex(8)
        assert [homology.betti(cx, d) for d in range(3)] == [1, 2, 1]
        assert sorted(built) == [(id(cx), d) for d in range(4)]


# ---------------------------------------------------------------------------
# the level exit-facet kernel against the per-cell kernel and the scalar loop
# ---------------------------------------------------------------------------

_CLIP_TOL = deform._CLIP_TOL


def _ref_tied(row, rhs) -> bool:
    # a constraint identically zero on the piece: facets i and j tie there
    return bool(np.all(np.abs(row) < _CLIP_TOL)) and abs(rhs) <= _CLIP_TOL


def _ref_clip_interval(constraints, rhs):
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


def _ref_fan(verts, k):
    n = verts.shape[0]
    if n == k + 1:
        return [verts]
    if k == 2:
        return [verts[[0, i, i + 1]] for i in range(1, n - 1)]
    return [verts[[0, n - 1]]]


def _ref_cone_volume(apex, verts, k):
    return sum(simplex_volume(np.vstack([s, apex[None, :]])) for s in _ref_fan(verts, k))


def _ref_project_piece(cx, cell, x0, piece):
    """Oracle: one center, one piece, one exit facet at a time, as
    project_piece computed it before the batched kernel, with stretches on a
    tie between two facets given to the lower one and the exit facet's
    barycentric of a region vertex taken as b0_j + t . B_j, as the kernel
    takes it (the two forms differ in rounding, which decides the exit
    verdict of a center on the piece)."""
    chart = cx.chart(cell)
    m, k = len(cell) - 1, piece.points.shape[0] - 1
    c = chart.barycentric(x0[None, :])[0]
    b = chart.barycentric(piece.points)
    b0, B = b[0], (b[1:] - b[0]).T
    T = piece.points[1:] - piece.points[0]
    out, proj, track = [], 0.0, 0.0
    for j in range(m + 1):
        others = [i for i in range(m + 1) if i != j]
        rows = [c[i] * B[j] - c[j] * B[i] for i in others]
        rhs = [-(c[i] * b0[j] - c[j] * b0[i]) for i in others]
        if k == 0:
            if not all(r >= -_CLIP_TOL for r in rhs):
                continue
            params = np.zeros((1, 0))
        elif any(i < j and _ref_tied(row, d) for i, row, d in zip(others, rows, rhs)):
            continue
        elif k == 1:
            seg = _ref_clip_interval([row[0] for row in rows], rhs)
            if seg is None:
                continue
            params = np.array([[seg[0]], [seg[1]]])
        else:
            triangle = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            poly = deform._clip_polygon(triangle, rows, rhs)
            if deform._polygon_area(poly) <= _CLIP_TOL:
                continue
            params = np.vstack(poly)
        part = piece.points[0] + params @ T
        denom = c[j] - (b0[j] + (params * B[j]).sum(axis=-1))
        if np.any(denom <= 0):
            raise FloatingPointError("projection ray does not exit through facet")
        image = x0 + (c[j] / denom)[:, None] * (part - x0)
        if k >= 1:
            track += _ref_cone_volume(x0, image, k) - _ref_cone_volume(x0, part, k)
        facet = cell[:j] + cell[j + 1:]
        for simplex in _ref_fan(cx.convert_coords(cell, facet, image), k):
            proj += simplex_volume(simplex)
            out.append(Piece(facet, simplex))
        if k == 0:
            break  # a point leaves through its first exit facet only
    return out, proj, max(track, 0.0)


def _cell_kernel(cx, cell, centers, pieces):
    """Oracle: the per-cell kernel, every candidate against every piece of
    one cell, as project_pieces computed it before it took a whole level,
    with the exit facet's barycentric as _ref_project_piece takes it."""
    chart = cx.chart(cell)
    m = len(cell) - 1
    x = np.asarray(centers, dtype=float).reshape(-1, m)
    pts = np.stack([p.points for p in pieces])
    k = pts.shape[1] - 1
    C, P, J = len(x), len(pts), m + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        clear = ~deform._too_close(x, pts)
        c = chart.barycentric(x)
        b = chart.barycentric(pts.reshape(-1, m)).reshape(P, k + 1, J)
        b0, B = b[:, 0], np.swapaxes(b[:, 1:] - b[:, :1], 1, 2)
        ci, cj = c[:, None, None, :], c[:, None, :, None]
        rows = ci[..., None] * B[None, :, :, None] - cj[..., None] * B[None, :, None]
        rhs = -(ci * b0[None, :, :, None] - cj * b0[None, :, None, :])
        # each exit facet's constraints against the other facets
        off = ~np.eye(J, dtype=bool)
        params, counts = deform._exit_params(rows[..., off, :].reshape(C, P, J, J - 1, k),
                                             rhs[..., off].reshape(C, P, J, J - 1), k)
        V = params.shape[3]
        T = pts[:, 1:] - pts[:, :1]
        part = pts[None, :, None, :1] + params @ T[None, :, None]
        c_exit = c[:, None, :, None]
        # the exit facet's barycentric of each region vertex, as _ref_project_piece
        denom = c_exit - (b0[None, :, :, None] + (params * B[None, :, :, None]).sum(axis=-1))
        live = np.arange(V) < counts[..., None]
        exits = ~(live & (denom <= 0)).any(axis=(1, 2, 3))
        apex = x[:, None, None, None, :]
        image = apex + (c_exit / denom)[..., None] * (part - apex)
        images = np.empty((C, P, J, V, m - 1))
        for j in range(J):
            facet = cell[:j] + cell[j + 1:]
            flat = image[:, :, j].reshape(-1, m)
            images[:, :, j] = cx.convert_coords(cell, facet, flat).reshape(C, P, V, m - 1)
        fan = deform._fan(k, V)
        in_fan = counts[..., None] > fan[:, -1]
        face_volumes = np.where(in_fan, simplex_volume(images[..., fan, :]), 0.0)
        piece_proj = deform._running_sum(face_volumes.reshape(C, P, -1))
        if k == 0:
            piece_tracks = np.zeros((C, P))
        else:
            apex = np.broadcast_to(apex[..., None, :], in_fan.shape + (1, m))

            def cones(verts):
                cone = np.concatenate([verts[..., fan, :], apex], axis=-2)
                return deform._running_sum(np.where(in_fan, simplex_volume(cone), 0.0))

            swept = np.where(counts > 0, cones(image) - cones(part), 0.0)
            piece_tracks = np.maximum(deform._running_sum(swept), 0.0)
    return {"clear": clear, "exits": exits, "counts": counts, "images": images,
            "proj": deform._running_sum(piece_proj), "piece_tracks": piece_tracks}


def _ref_dist_to_hull(x, pts):
    span, v = pts[1:] - pts[0], x - pts[0]
    if span.shape[0] == 0:
        return float(np.linalg.norm(v))
    coef = np.linalg.lstsq(span.T, v, rcond=None)[0]
    return float(np.linalg.norm(v - coef @ span))


def _ref_dist_to_piece(x, pts):
    k = pts.shape[0] - 1
    if k == 0:
        return float(np.linalg.norm(x - pts[0]))
    if k == 1:
        d = pts[1] - pts[0]
        t = float(np.clip((x - pts[0]) @ d / (d @ d), 0.0, 1.0))
        return float(np.linalg.norm(x - (pts[0] + t * d)))
    coef = np.linalg.lstsq((pts[1:] - pts[0]).T, x - pts[0], rcond=None)[0]
    if coef.min() >= 0 and coef.sum() <= 1:
        return _ref_dist_to_hull(x, pts)
    return min(_ref_dist_to_piece(x, pts[[i, j]]) for i in range(3) for j in range(i + 1, 3))


def _ref_too_close(x, piece, m):
    pts = piece.points
    if _ref_dist_to_piece(x, pts) < deform.CENTER_CLEARANCE:
        return True
    return pts.shape[0] - 1 < m and _ref_dist_to_hull(x, pts) < deform.CENTER_CLEARANCE


def _assert_same_pieces(got, want, tol=1e-12):
    assert [p.host for p in got] == [p.host for p in want]
    for a, b in zip(got, want):
        assert np.allclose(a.points, b.points, rtol=0.0, atol=tol)


_interior = st.floats(0.02, 1.0, allow_nan=False)


def _vertex_weights(m):
    # a piece vertex lies on one facet or keeps clear of all: _CLIP_TOL is
    # absolute, and constraint values scale with the distance to a face, so
    # a vertex within ~1e-8 of a face blurs the exit regions (see CHANGES.md)
    weights = st.lists(st.floats(1e-3, 1.0), min_size=m + 1, max_size=m + 1)
    on_facet = st.one_of(st.none(), st.integers(0, m))
    return st.tuples(weights, on_facet).map(
        lambda wf: [0.0 if i == wf[1] else w for i, w in enumerate(wf[0])])


def _points(cx, cell, weights):
    w = np.array(weights, dtype=float)
    return (w / w.sum(axis=-1, keepdims=True)) @ cx.chart(cell).model


def _draw_cell_case(draw, cx, cell, k, n_centers):
    m = len(cell) - 1
    centers = _points(cx, cell, draw(st.lists(
        st.lists(_interior, min_size=m + 1, max_size=m + 1),
        min_size=n_centers, max_size=n_centers)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        corners = draw(st.lists(_vertex_weights(m), min_size=k + 1, max_size=k + 1))
        piece = Piece(cell, _points(cx, cell, corners))
        # pieces as a normalized chain holds them: hosted by the cell itself,
        # not by a face, and of full dimension k (the kernel and the oracle
        # measure clearance alike only then; a chain prunes the others)
        assume(normalize_host(cx, piece).host == cell)
        assume(k == 0 or simplex_volume(piece.points) > 1e-3)
        pieces.append(piece)
    return centers, pieces


@st.composite
def _kernel_cases(draw, cx, cells, k):
    cell = draw(st.sampled_from(cells))
    centers, pieces = _draw_cell_case(draw, cx, cell, k, draw(st.integers(1, 5)))
    return cx, cell, centers, pieces


@st.composite
def _level_cases(draw, cx, cells, k):
    """Up to four distinct cells of one dimension, each with its own pieces
    and the same number of centers."""
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True))
    n_centers = draw(st.integers(1, 5))
    cases = [_draw_cell_case(draw, cx, cell, k, n_centers) for cell in chosen]
    return cx, chosen, np.stack([c for c, _ in cases]), [p for _, p in cases]


_UNIT_SQUARE = GeoComplex(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                          [(0, 1, 2), (0, 2, 3)])
_TORUS8 = flat_torus_complex(8)
_TETRA = GeoComplex(np.vstack([np.zeros(3), np.eye(3)]), [(0, 1, 2, 3)])
_KERNEL_CASES = st.one_of(
    _kernel_cases(_UNIT_SQUARE, [(0, 1, 2), (0, 2, 3)], 1),
    _kernel_cases(_UNIT_SQUARE, [(0, 1, 2)], 0),
    _kernel_cases(_TORUS8, _TORUS8.cells_of_dim(2)[:16], 1),
    _kernel_cases(_TETRA, [(0, 1, 2, 3)], 2),
    _kernel_cases(_TETRA, [(0, 1, 2, 3)], 1),
)
_LEVEL_CASES = st.one_of(
    _level_cases(_TORUS8, _TORUS8.cells_of_dim(2)[:16], 1),
    _level_cases(_TORUS8, _TORUS8.cells_of_dim(2)[:16], 0),
    _level_cases(_TETRA, _TETRA.cells_of_dim(2), 1),
    _level_cases(_TETRA, [(0, 1, 2, 3)], 2),
)


def _lone(cx, cell, centers, pieces):
    """project_pieces on one cell."""
    return deform.project_pieces(cx, [cell], centers[None], [pieces])


class TestProjectPieces:
    """project_pieces against lone-cell and single-candidate calls, the
    per-cell kernel and the scalar loop."""

    @settings(max_examples=60, deadline=None)
    @given(_LEVEL_CASES)
    # region 3 of this triangle has 3 vertices, and the kernel once left its
    # 4th vertex slot NaN
    @example((_TETRA, [(0, 1, 2, 3)], np.array([[[1 / 3, 1 / 6, 1 / 6]]]),
              [[Piece((0, 1, 2, 3), _TETRA.to_chart((0, 1, 2, 3), np.array(
                  [[1 / 3, 1 / 3, 1 / 6], [1 / 4, 1 / 4, 1 / 4], [4 / 13, 4 / 13, 1 / 13]])))]]))
    def test_level_rows_equal_lone_cell_calls(self, case):
        cx, cells, centers, pieces = case
        level = deform.project_pieces(cx, cells, centers, pieces)
        for l, cell in enumerate(cells):
            one = _lone(cx, cell, centers[l], pieces[l])
            ref = _cell_kernel(cx, cell, centers[l], pieces[l])
            P = len(pieces[l])
            for got, g in ((level, l), (one, 0)):
                assert got.clear[g].tolist() == ref["clear"].tolist()
                assert got.exits[g].tolist() == ref["exits"].tolist()
                # vertex slots past a region's count hold 0
                padded = np.arange(got.images.shape[-2]) >= got.counts[g][..., None]
                assert not got.images[g][padded].any()
            row = level.counts[l]
            assert np.array_equal(row[:, :P], ref["counts"])
            assert not row[:, P:].any() and not level.piece_tracks[l, :, P:].any()
            assert np.array_equal(one.counts[0], ref["counts"])
            for i in np.flatnonzero(ref["clear"] & ref["exits"]):
                for got, g in ((level, l), (one, 0)):
                    assert got.proj[g, i] == pytest.approx(ref["proj"][i], rel=0, abs=1e-12)
                    assert np.allclose(got.piece_tracks[g, i, :P], ref["piece_tracks"][i],
                                       rtol=0, atol=1e-12)
                    for p, j in zip(*np.nonzero(ref["counts"][i])):
                        n = ref["counts"][i, p, j]
                        assert np.allclose(got.images[g, i, p, j, :n], ref["images"][i, p, j, :n],
                                           rtol=0, atol=1e-12)
                _assert_same_pieces(level.image_pieces(l, i), one.image_pieces(0, i))

    @settings(max_examples=60, deadline=None)
    @given(_KERNEL_CASES)
    def test_batch_row_equals_single_call(self, case):
        cx, cell, centers, pieces = case
        batch = _lone(cx, cell, centers, pieces)
        for i, x in enumerate(centers):
            one = _lone(cx, cell, x[None, :], pieces)
            assert (batch.clear[0, i], batch.exits[0, i]) == (one.clear[0, 0], one.exits[0, 0])
            assert np.array_equal(batch.counts[0, i], one.counts[0, 0])
            if batch.clear[0, i] and batch.exits[0, i]:
                assert batch.proj[0, i] == pytest.approx(one.proj[0, 0], rel=0, abs=1e-12)
                assert np.allclose(batch.piece_tracks[0, i], one.piece_tracks[0, 0],
                                   rtol=0, atol=1e-12)
                _assert_same_pieces(batch.image_pieces(0, i), one.image_pieces(0, 0))

    @settings(max_examples=60, deadline=None)
    @given(_KERNEL_CASES)
    # the center is the segment's second endpoint: the exit denominator there
    # is 0 up to rounding, so the verdict rests on how both take it
    @example((_UNIT_SQUARE, (0, 1, 2), _points(_UNIT_SQUARE, (0, 1, 2), [[0.25, 1.0, 1.0]]),
              [Piece((0, 1, 2), _points(_UNIT_SQUARE, (0, 1, 2),
                                        [[1.0, 0.4, 0.8], [0.25, 1.0, 1.0]]))]))
    def test_agrees_with_scalar_loop(self, case):
        cx, cell, centers, pieces = case
        m = len(cell) - 1
        batch = _lone(cx, cell, centers, pieces)
        for i, x in enumerate(centers):
            assert batch.clear[0, i] == (not any(_ref_too_close(x, p, m) for p in pieces))
            try:
                ref = [_ref_project_piece(cx, cell, x, p) for p in pieces]
            except FloatingPointError:
                assert not batch.exits[0, i]
                continue
            assert batch.exits[0, i]
            if not batch.clear[0, i]:
                continue
            _assert_same_pieces(batch.image_pieces(0, i), [q for r in ref for q in r[0]])
            assert batch.proj[0, i] == pytest.approx(sum(r[1] for r in ref), rel=0, abs=1e-12)
            assert np.allclose(batch.piece_tracks[0, i], [r[2] for r in ref], rtol=0, atol=1e-12)

    @staticmethod
    def assert_regions_partition(batch, i, p):
        regions = [batch.params[0, i, p, j, :n] for j, n in enumerate(batch.counts[0, i, p]) if n]
        if batch.k == 0:
            assert len(regions) == 1
        elif batch.k == 1:
            bounds = sorted((r[0, 0], r[1, 0]) for r in regions)
            assert bounds[0][0] == pytest.approx(0.0, abs=1e-9)
            assert bounds[-1][1] == pytest.approx(1.0, abs=1e-9)
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert lo == pytest.approx(hi, abs=1e-9)
        else:
            area = sum(deform._polygon_area(list(r)) for r in regions)
            assert area == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(_KERNEL_CASES, st.integers(0, 2 ** 32 - 1))
    def test_exit_regions_partition_the_piece(self, case, seed):
        # centers drawn as select_centers draws them
        cx, cell, _, pieces = case
        draws = np.random.default_rng(seed).dirichlet(np.ones(len(cell)), size=5)
        batch = _lone(cx, cell, draws @ cx.chart(cell).model, pieces)
        for i in np.flatnonzero(batch.clear[0] & batch.exits[0]):
            for p in range(len(pieces)):
                self.assert_regions_partition(batch, i, p)

    @settings(max_examples=60, deadline=None)
    @given(_KERNEL_CASES)
    def test_images_lie_on_their_exit_facets(self, case):
        cx, cell, centers, pieces = case
        batch = _lone(cx, cell, centers, pieces)
        for i in np.flatnonzero(batch.clear[0] & batch.exits[0]):
            for piece in batch.image_pieces(0, i):
                j = next(j for j, v in enumerate(cell) if v not in piece.host)
                bary = cx.barycentric(cell, cx.convert_coords(piece.host, cell, piece.points))
                assert np.abs(bary[:, j]).max() <= 1e-9
                assert bary.min() >= -1e-9

    def test_center_on_point_piece_fails_exit_ray(self, unit_square):
        # a point piece at the center: every exit denominator c_j - b_j is 0
        cell = (0, 1, 2)
        centers = unit_square.to_chart(cell, np.array([[0.6, 0.3], [0.7, 0.2]]))
        piece = Piece(cell, centers[:1].copy())
        batch = _lone(unit_square, cell, centers, [piece])
        assert batch.exits.tolist() == [[False, True]]
        assert batch.clear.tolist() == [[False, True]]
        with pytest.raises(FloatingPointError):
            project_piece(unit_square, cell, centers[0], piece)
        with pytest.raises(FloatingPointError):
            _ref_project_piece(unit_square, cell, centers[0], piece)

    @pytest.mark.parametrize("k", [1, 2])
    def test_tied_exit_regions_take_the_lower_facet(self, tetra, k):
        # the center (2/7, 2/7, 1/7) has c_0 = c_2, and the segment from
        # vertex 1 to (0, 1/3, 1/3) has b_0 = b_2 all along, so facets 0 and 2
        # tie on a stretch whose images lie on their shared edge (1, 3).  The
        # triangle adds the point (1/2, 1/10, 3/10) of the plane b_0 = b_2,
        # which holds the center, so clearance rejects that candidate; its
        # exit regions still partition the triangle
        cell = (0, 1, 2, 3)
        amb = np.array([[1.0, 0.0, 0.0], [0.0, 1 / 3, 1 / 3], [0.5, 0.1, 0.3]])[:k + 1]
        piece = Piece(cell, tetra.to_chart(cell, amb))
        x0 = tetra.to_chart(cell, np.array([[2 / 7, 2 / 7, 1 / 7]]))
        batch = _lone(tetra, cell, x0, [piece])
        assert (batch.clear[0, 0], batch.exits[0, 0]) == (k == 1, True)
        self.assert_regions_partition(batch, 0, 0)
        if k == 1:
            # the stretch on edge (1, 3) is one piece, not two that cancel
            pieces, proj, _ = project_piece(tetra, cell, x0[0], piece)
            assert [normalize_host(tetra, p).host for p in pieces] == [(1, 3), (0, 2, 3)]
            image = normalize_chain(tetra, PolyChain(k, pieces))
            assert [p.host for p in image.pieces] == [(1, 3), (0, 2, 3)]
            assert proj == pytest.approx(image.volume(), rel=1e-12)
            assert proj == pytest.approx(2.1595695548730234, rel=1e-12)


class _FixedDraws(np.random.Generator):
    """Generator for one cell whose exponential draws are given rows, in
    order, as (1, B, m+1) blocks; rows that sum to 1 are the Dirichlet
    draws that select_centers makes of them."""

    def __init__(self, rows):
        super().__init__(np.random.PCG64(0))
        self.rows = np.asarray(rows, dtype=float)

    def standard_exponential(self, size=None):
        # a block past the given rows repeats the last one
        n = size[-2]
        out, self.rows = self.rows[:n], self.rows[n:]
        return np.vstack([out, np.repeat(out[-1:], n - len(out), axis=0)]).reshape(size)


class _CenterSearch:
    """Oracle: one cell's rejection sampling as select_centers applied it
    cell by cell, fed one block of scored attempts at a time; ``choice`` is
    (attempt index, tries, rejected_clearance, rejected_exit) once one is
    accepted."""

    def __init__(self, c_target):
        self.target = c_target
        self.attempt = self.rejected_clearance = self.rejected_exit = 0
        self.candidates: list = []  # (ratio, attempt)
        self.choice = None

    def accept(self, candidate):
        attempt = candidate[1]
        self.choice = (attempt - 1, attempt, self.rejected_clearance, self.rejected_exit)

    def feed(self, ratios, clear, exits):
        for ratio, ok_clear, ok_exit in zip(ratios.tolist(), clear.tolist(), exits.tolist()):
            self.attempt += 1
            if not ok_clear:
                self.rejected_clearance += 1
                continue
            if not ok_exit:
                self.rejected_exit += 1
                continue
            self.candidates.append((ratio, self.attempt))
            if self.target is None and len(self.candidates) >= deform._BATCH:
                self.target = 4.0 * statistics.median(c[0] for c in self.candidates)
                for candidate in self.candidates:
                    if candidate[0] <= self.target:
                        return self.accept(candidate)
            elif self.target is not None and ratio <= self.target:
                return self.accept(self.candidates[-1])

    def finish(self):
        """The choice once _MAX_TRIES candidates found none acceptable."""
        if self.candidates and self.target is None:
            return self.accept(min(self.candidates, key=lambda c: c[0]))
        raise CenterSelectionError("no acceptable center")


class _ScriptedKernel:
    """Stands in for project_pieces: scores each cell's next block of
    scripted attempts, with the scripted ratio as projected volume (the
    totals are 1), no track and no image pieces."""

    def __init__(self, cells, ratio, clear, exits):
        self.row = {cell: l for l, cell in enumerate(cells)}
        self.used = [0] * len(cells)
        self.script = ratio, clear, exits

    def __call__(self, cx, cells, centers, pieces):
        L, C, m = centers.shape
        P, J = pieces.points.shape[1], m + 1
        rows = [self.row[cell] for cell in cells]
        for l in rows:
            self.used[l] += C
        proj, clear, exits = (np.array([a[l, self.used[l] - C:self.used[l]] for l in rows])
                              for a in self.script)
        return deform.Projections(
            tuple(cells), 0, centers, proj, np.zeros((L, C)), np.zeros((L, C, P)), clear, exits,
            np.zeros((L, C, P, J, 1, 0)), np.zeros((L, C, P, J), dtype=int),
            np.zeros((L, C, P, J, 1, m - 1)))


@st.composite
def _attempt_scripts(draw):
    """Ratios and verdicts of 64 attempts for 1 to 3 cells, each cell with
    0, a few, exactly 8 or many valid attempts, and ratios with ties."""
    L = draw(st.integers(1, 3))
    ratio = np.zeros((L, deform._MAX_TRIES))
    clear, exits = np.ones((2, L, deform._MAX_TRIES), dtype=bool)
    for l in range(L):
        n = draw(st.sampled_from([0, 1, 3, 7, 8, 12, 40, 64]))
        valid = draw(st.sets(st.integers(0, deform._MAX_TRIES - 1), min_size=n, max_size=n))
        by_clearance = draw(st.lists(st.booleans(), min_size=deform._MAX_TRIES,
                                     max_size=deform._MAX_TRIES))
        for a in set(range(deform._MAX_TRIES)) - valid:
            (clear if by_clearance[a] else exits)[l, a] = False
        ratio[l] = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0, 40.0]) | st.floats(0.0, 100.0),
                                 min_size=deform._MAX_TRIES, max_size=deform._MAX_TRIES))
    return ratio, clear, exits, draw(st.sampled_from([None, None, 0.5, 3.0]))


class TestAcceptanceRule:
    """select_centers' array acceptance rule against the cell-by-cell
    search it replaced, on scripted scores."""

    @settings(max_examples=200, deadline=None)
    @given(_attempt_scripts())
    def test_same_choices_as_cell_by_cell_search(self, torus8, script):
        ratio, clear, exits, c_target = script
        cells = torus8.cells_of_dim(2)[:len(ratio)]
        pieces = [[Piece(cell, torus8.chart(cell).model.mean(axis=0)[None])] for cell in cells]
        want, blocks = [], []
        for l in range(len(cells)):
            search, fed = _CenterSearch(c_target), 0
            while search.choice is None and fed < deform._MAX_TRIES:
                search.feed(*(s[l, fed:fed + deform._BATCH] for s in (ratio, clear, exits)))
                fed += deform._BATCH
            blocks.append(fed // deform._BATCH)
            try:
                if search.choice is None:
                    search.finish()
                    event("fewer than 8 valid: the first least ratio")
                else:
                    event("explicit target" if c_target else "target from the median")
                want.append(search.choice)
            except CenterSelectionError:
                event("no acceptable center")
                want.append(None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(deform, "project_pieces", _ScriptedKernel(cells, ratio, clear, exits))
            if None in want:
                with pytest.raises(CenterSelectionError) as err:
                    deform.select_centers(torus8, cells, pieces, [1.0] * len(cells),
                                          np.random.default_rng(0), c_target)
                infos = err.value.accepted
                assert len(infos) == want.index(None)
            else:
                infos, calls = deform.select_centers(torus8, cells, pieces, [1.0] * len(cells),
                                                     np.random.default_rng(0), c_target)
                assert calls == max(blocks)
        for l, info in enumerate(infos):
            attempt, tries, rejected_clearance, rejected_exit = want[l]
            assert (info.tries, info.rejected_clearance, info.rejected_exit) == (
                tries, rejected_clearance, rejected_exit)
            assert info.ratio == ratio[l, attempt]


class TestCenterRejections:
    weights = [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.3, 0.4, 0.3]]

    def _point_at_first_draw(self, cx, cell):
        return Piece(cell, np.array(self.weights[:1]) @ cx.chart(cell).model)

    def test_clearance_rejection(self, unit_square):
        cell = (0, 1, 2)
        piece = self._point_at_first_draw(unit_square, cell)
        info = select_center(unit_square, cell, [piece], c_target=1e9,
                             rng=_FixedDraws(self.weights))
        assert (info.tries, info.rejected_clearance, info.rejected_exit) == (2, 1, 0)

    def test_exit_ray_rejection(self, unit_square, monkeypatch):
        # with the clearance test off, the candidate on the point piece
        # reaches the exit-ray verdict and fails it
        monkeypatch.setattr(deform, "_too_close",
                            lambda x, pts: np.zeros(x.shape[:-1], dtype=bool))
        cell = (0, 1, 2)
        piece = self._point_at_first_draw(unit_square, cell)
        info = select_center(unit_square, cell, [piece], c_target=1e9,
                             rng=_FixedDraws(self.weights))
        assert (info.tries, info.rejected_clearance, info.rejected_exit) == (2, 0, 1)
        assert len(info.pieces) == 1 and len(info.tracks) == 1


# ---------------------------------------------------------------------------
# golden center choices
# ---------------------------------------------------------------------------

_GOLDEN = json.loads((Path(__file__).parent / "data" / "ff_golden.json").read_text())


def _cell_rng(seed: int, level: int, cell) -> np.random.Generator:
    """The stream the golden centers were recorded with: one generator per
    cell and level, seeded from the low 31 bits of the seed."""
    return np.random.default_rng([seed & 0x7FFFFFFF, level, *cell])


def _replay_cell_streams(monkeypatch, seed: int):
    """Make each level draw every cell's blocks from its own _cell_rng
    stream, continued from round to round, in place of the level's one
    generator."""
    streams = {}

    def draw(rng, cells, shape):
        for cell in cells:
            if cell not in streams:
                streams[cell] = _cell_rng(seed, len(cell) - 1, cell)
        return np.stack([streams[cell].standard_exponential(shape[1:]) for cell in cells])

    monkeypatch.setattr(deform, "_draw", draw)


class TestFFGolden:
    """Center choices, whole cells, tracks and ratios of seeded deformations
    on the 8x8 torus, recorded from the scalar per-candidate, per-piece
    projection loop with per-cell streams (_cell_rng), which these tests
    replay: three loops per winding class with the default acceptance rule,
    four with c_target = 3, one with c_target = 1.5 and one that runs out of
    tries at c_target = 2."""

    @pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: f"seed{c['seed']}-c{c['c_target']}")
    def test_same_choices(self, torus8, monkeypatch, case):
        _replay_cell_streams(monkeypatch, case["seed"])
        tries = []
        select = deform.select_centers

        def recording(cx, cells, *args, **kwargs):
            # per-cell tries of the accepted centers, in cell order; a failed
            # level has centers for the cells before the failing one
            try:
                infos, calls = select(cx, cells, *args, **kwargs)
            except CenterSelectionError as err:
                tries.extend([list(c), i.tries] for c, i in zip(cells, err.accepted))
                raise
            tries.extend([list(c), i.tries] for c, i in zip(cells, infos))
            return infos, calls

        monkeypatch.setattr(deform, "select_centers", recording)
        chain, _ = random_loop_chain(torus8, seed=case["seed"],
                                     winding=tuple(case["winding"]))
        if "error" in case:
            with pytest.raises(CenterSelectionError) as err:
                ff_deform(torus8, chain, seed=case["seed"], c_target=case["c_target"])
            assert str(err.value) == case["error"]
            assert tries == case["tries"]
            return
        result = ff_deform(torus8, chain, seed=case["seed"], c_target=case["c_target"])
        assert tries == case["tries"]
        assert [list(c) for c in result.whole_cells] == case["whole_cells"]
        assert result.total_track == pytest.approx(case["total_track"], rel=1e-9, abs=0)
        assert result.max_cell_ratio == pytest.approx(case["max_cell_ratio"], rel=1e-9, abs=0)

    @pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: f"seed{c['seed']}-c{c['c_target']}")
    def test_center_selection_gets_pieces_below_the_cell_dimension(self, torus8, monkeypatch,
                                                                   case):
        # why select_centers needs no path for empty cells or for pieces as
        # large as their cell: ff_step never hands it either
        _replay_cell_streams(monkeypatch, case["seed"])
        groups = []
        select = deform.select_centers

        def recording(cx, cells, pieces, *args, **kwargs):
            groups.extend(zip(cells, pieces))
            return select(cx, cells, pieces, *args, **kwargs)

        monkeypatch.setattr(deform, "select_centers", recording)
        chain, _ = random_loop_chain(torus8, seed=case["seed"],
                                     winding=tuple(case["winding"]))
        try:
            ff_deform(torus8, chain, seed=case["seed"], c_target=case["c_target"])
        except CenterSelectionError:
            assert "error" in case
        assert groups
        for cell, pieces in groups:
            assert pieces
            assert all(p.host == cell and len(p.points) < len(cell) for p in pieces)


# ---------------------------------------------------------------------------
# certification in work proportional to the chain, against the forms it
# replaced
# ---------------------------------------------------------------------------


def _ref_split_segment(a, b):
    """Oracle: split [a, b] at crossings of the grid lines x, y, y - x in Z,
    one segment at a time, with a set of cuts."""
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


def _ref_random_loop_chain(cx, seed, n_waypoints=6, winding=None):
    """Oracle: the piece-at-a-time loop builder (one triangle lookup, one
    3x3 inverse and two products per piece)."""
    n = cx.metadata["torus_n"]
    rng = np.random.default_rng(seed)
    if winding is None:
        winding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    start = rng.uniform(0.1, n - 0.1, size=2)
    waypoints = [start]
    for _ in range(n_waypoints - 1):
        waypoints.append(waypoints[-1] + rng.uniform(-2.0, 2.0, size=2))
    waypoints.append(start + np.array([n * winding[0], n * winding[1]], dtype=float))
    pieces = []
    for a, b in zip(waypoints, waypoints[1:]):
        for p, q in _ref_split_segment(a, b):
            mid = (p + q) / 2.0
            i, j = math.floor(mid[0]), math.floor(mid[1])
            if mid[1] - j <= mid[0] - i:
                corners = [(i, j), (i + 1, j), (i + 1, j + 1)]
            else:
                corners = [(i, j), (i, j + 1), (i + 1, j + 1)]
            ids = [((c % n) * n + (d % n)) for c, d in corners]
            order = np.argsort(ids)
            cell = tuple(int(ids[o]) for o in order)
            tri = np.array([corners[o] for o in order], dtype=float)
            solver = np.linalg.inv(np.hstack([np.ones((3, 1)), tri]))
            bary = np.hstack([np.ones((2, 1)), np.vstack([p, q])]) @ solver
            pieces.append(Piece(cell, bary @ cx.chart(cell).model))
    return normalize_chain(cx, PolyChain(1, pieces)), winding


def _ref_cofacets(cx, cell):
    """Oracle: the cells one dimension up that contain cell, in cell order."""
    return [c for c in cx.cells_of_dim(len(cell)) if set(cell) <= set(c)]


def _ref_top_cofaces(cx, cell):
    """Oracle: an uncached search up the cofacets."""
    out = [cell] if len(cell) - 1 == cx.dim else []
    frontier, seen = [cell], set()
    while frontier:
        for cof in _ref_cofacets(cx, frontier.pop()):
            if cof not in seen:
                seen.add(cof)
                (out if len(cof) - 1 == cx.dim else frontier).append(cof)
    return sorted(set(out))


def _ref_vanishing_check(cx, chain, result):
    """Oracle: the star_mass form, one top-coface search per piece per kept
    cell."""
    eta = vanishing_threshold(cx, result.final.k, max(result.max_cell_ratio, 1.0))
    worst = float("inf")
    for cell in result.whole_cells:
        tops = set(_ref_top_cofaces(cx, cell))
        total = 0.0
        for piece in chain.pieces:
            if tops & set(_ref_top_cofaces(cx, piece.host)):
                total += piece_volume(piece)
        worst = min(worst, total - eta)
    return worst


def _ref_vanishing_loop(cx, chain, result):
    """Oracle: the explicit loop, one top-coface lookup per piece and per
    kept cell, each mass added in piece order."""
    eta = vanishing_threshold(cx, result.final.k, max(result.max_cell_ratio, 1.0))
    near: dict = {}
    for i, piece in enumerate(chain.pieces):
        for top in _ref_top_cofaces(cx, piece.host):
            near.setdefault(top, []).append(i)
    worst = float("inf")
    for cell in result.whole_cells:
        mass = 0.0
        for i in sorted({i for top in _ref_top_cofaces(cx, cell) for i in near.get(top, ())}):
            mass += chain.volumes[i]
        worst = min(worst, mass - eta)
    return worst


def _ref_remainder_decomposition(cx, result):
    """Oracle: the list form, one Piece view per final piece."""
    whole = set(result.whole_cells)
    n_pieces = [p for p in result.final.pieces if p.host in whole]
    q_pieces = [p for p in result.final.pieces if p.host not in whole]
    for piece in q_pieces:
        if len(piece.host) - 1 > result.final.k - 1:
            raise AssertionError(f"remainder piece hosted on {piece.host} is outside the "
                                 f"{result.final.k - 1}-skeleton")
    return n_pieces, q_pieces


def _ref_crossing_parities(cx, chain):
    """Oracle: one chart conversion and one barycentric product per piece."""
    n = cx.metadata["torus_n"]

    def parity(lo, hi, offset):
        first = math.ceil((lo - offset) / n)
        last = math.floor((hi - offset) / n)
        if offset + first * n == lo or offset + last * n == hi:
            raise ValueError("segment endpoint lies on a test circle")
        return max(0, last - first + 1) % 2

    a = b = 0
    for piece in chain.pieces:
        host = piece.host if len(piece.host) == 3 else _ref_top_cofaces(cx, piece.host)[0]
        coords = cx.convert_coords(piece.host, host, piece.points)
        pts = cx.barycentric(host, coords) @ cx.metadata["param"][host]
        x_lo, x_hi = sorted((pts[0, 0], pts[1, 0]))
        y_lo, y_hi = sorted((pts[0, 1], pts[1, 1]))
        if x_hi - x_lo > 1e-12:
            a ^= parity(x_lo, x_hi, torus_mod._TEST_X)
        if y_hi - y_lo > 1e-12:
            b ^= parity(y_lo, y_hi, torus_mod._TEST_Y)
    return a, b


def _ref_validate_chain(cx, chain, tol=1e-9):
    """Oracle: one barycentric product per piece, in piece order."""
    for piece in chain.pieces:
        if not cx.has_cell(piece.host):
            raise ValueError(f"host {piece.host} is not a cell of the complex")
        bary = cx.barycentric(piece.host, piece.points)
        if bary.min() < -tol or bary.max() > 1.0 + tol:
            raise ValueError(
                f"piece escapes host {piece.host}: barycentric range "
                f"[{bary.min():.3e}, {bary.max():.3e}]"
            )


def _error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ref_is_cycle(cx, d, vec):
    """Oracle: the whole boundary matrix times the vector."""
    return d == 0 or not np.any(_ref_boundary_matrix(cx, d) @ (vec % 2) % 2)


def _ref_cell_vector(cx, d, cells):
    index = {c: i for i, c in enumerate(cx.cells_of_dim(d))}
    vec = np.zeros(len(index), dtype=np.uint8)
    for cell in cells:
        vec[index[tuple(sorted(cell))]] ^= 1
    return vec


_CYCLE_COMPLEXES = {"torus8": flat_torus_complex(8), "tetra": _TETRA}


@st.composite
def _gf2_chains(draw):
    """A complex, a dimension and a GF(2) vector on its cells: random, or the
    boundary of a random vector one dimension up (always a cycle)."""
    name = draw(st.sampled_from(sorted(_CYCLE_COMPLEXES)))
    cx = _CYCLE_COMPLEXES[name]
    d = draw(st.sampled_from([1, 2] if name == "torus8" else [0, 1, 2, 3]))
    up = len(cx.cells_of_dim(d + 1))
    if up and draw(st.booleans()):
        coeffs = np.array(draw(st.lists(st.integers(0, 1), min_size=up, max_size=up)))
        return cx, d, (_ref_boundary_matrix(cx, d + 1) @ coeffs % 2).astype(np.uint8)
    size = len(cx.cells_of_dim(d))
    support = draw(st.lists(st.integers(0, size - 1), max_size=8))
    vec = np.zeros(size, dtype=np.uint8)
    for j in support:
        vec[j] ^= 1
    return cx, d, vec


def _ref_split_path(waypoints):
    return np.array([[p, q] for a, b in zip(waypoints, waypoints[1:])
                     for p, q in _ref_split_segment(a, b)]).reshape(-1, 2, 2)


_COORD = st.one_of(st.floats(0.1, 7.9), st.integers(1, 7).map(float))
_TINY = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -9e-13, 2e-12, 1e-9])


@st.composite
def _waypoint_paths(draw):
    """Waypoints of a path in the torus plane, from points on grid lines or
    off them; a step is free, or runs along one of the line families x, y,
    y - x, its change across them tiny (below the 1e-12 cut tolerance or
    just above it)."""
    points = [np.array([draw(_COORD), draw(_COORD)])]
    for _ in range(draw(st.integers(1, 6))):
        t, tiny = draw(st.floats(-2.0, 2.0)), draw(_TINY)
        step = draw(st.sampled_from([(t, draw(st.floats(-2.0, 2.0))), (tiny, t), (t, tiny),
                                     (t, t + tiny)]))
        points.append(points[-1] + np.array(step))
    return np.array(points)


#: seed -> (loop, deformation) on the 8x8 torus, filled as examples need them
_DEFORMED: dict = {}


def _deformed(seed):
    if seed not in _DEFORMED:
        loop, _ = random_loop_chain(_CYCLE_COMPLEXES["torus8"], seed=seed)
        _DEFORMED[seed] = loop, ff_deform(_CYCLE_COMPLEXES["torus8"], loop, seed=seed)
    return _DEFORMED[seed]


class TestChainSizedCertification:
    """The suite's certification helpers, each against the form it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.none() | st.tuples(st.integers(0, 1), st.integers(0, 1)),
           st.integers(2, 8))
    def test_loop_builder_bit_identical(self, seed, winding, n_waypoints):
        cx = _CYCLE_COMPLEXES["torus8"]
        got, got_w = random_loop_chain(cx, seed=seed, n_waypoints=n_waypoints, winding=winding)
        want, want_w = _ref_random_loop_chain(cx, seed, n_waypoints, winding)
        assert got_w == want_w
        assert [p.host for p in got.pieces] == [p.host for p in want.pieces]
        assert all(a.points.tobytes() == b.points.tobytes()
                   for a, b in zip(got.pieces, want.pieces))

    @pytest.mark.parametrize("winding", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_loop_builder_bit_identical_in_every_class(self, winding):
        cx = _CYCLE_COMPLEXES["torus8"]
        for seed in range(8):
            got, got_w = random_loop_chain(cx, seed=seed, winding=winding)
            want, want_w = _ref_random_loop_chain(cx, seed, winding=winding)
            assert got_w == want_w == winding
            assert crossing_parities(cx, got) == winding
            assert [p.host for p in got.pieces] == [p.host for p in want.pieces]
            assert all(a.points.tobytes() == b.points.tobytes()
                       for a, b in zip(got.pieces, want.pieces))

    @settings(max_examples=300, deadline=None)
    @given(_waypoint_paths())
    def test_path_split_equals_segment_splitter(self, waypoints):
        got, want = torus_mod._split_path(waypoints), _ref_split_path(waypoints)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 199), st.integers(0, 7), st.integers(0, 7), st.booleans())
    def test_crossing_parities_equal_piece_at_a_time(self, seed, x0, y0, on_grid):
        # with test circles on grid lines the whole edges of a final chain
        # end on them, which both forms must reject alike
        cx = _CYCLE_COMPLEXES["torus8"]
        loop, result = _deformed(seed)
        with pytest.MonkeyPatch.context() as patch:
            if on_grid:
                patch.setattr(torus_mod, "_TEST_X", float(x0))
                patch.setattr(torus_mod, "_TEST_Y", float(y0))
            for chain in (loop, result.final):
                got = _error(crossing_parities, cx, chain)
                assert got == _error(_ref_crossing_parities, cx, chain)
                event(f"on grid {on_grid}: {'raises' if isinstance(got, str) else 'parities'}")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, 3.0]))
    def test_vanishing_slack_bit_identical_to_loop(self, seed, c_target):
        from symgeo.ffengine.suite import vanishing_check

        cx = _CYCLE_COMPLEXES["torus8"]
        loop, _ = random_loop_chain(cx, seed=seed)
        try:
            result = ff_deform(cx, loop, seed=seed, c_target=c_target)
        except CenterSelectionError:
            assume(False)
        got, want = vanishing_check(cx, loop, result), _ref_vanishing_loop(cx, loop, result)
        assert got.hex() == want.hex()

    def test_boundary_image_built_once_per_complex(self, monkeypatch):
        from symgeo.ffengine import run_deformation_suite

        builds = []
        init = homology.BoundaryImage.__init__

        def counting_init(self, cx, d):
            builds.append((cx, d))
            init(self, cx, d)

        monkeypatch.setattr(homology.BoundaryImage, "__init__", counting_init)
        cx = flat_torus_complex(8)
        for seed in range(20):
            assert run_deformation_suite(cx, n_chains=1, seed=seed)["pass"]
        assert builds == [(cx, 2)]
        other = flat_torus_complex(8)
        assert homology.boundary_image(other, 2) is not homology.boundary_image(cx, 2)
        assert len(builds) == 2
        builds.clear()
        held = len(homology._IMAGES)
        ref = weakref.ref(cx)
        del cx
        gc.collect()
        assert ref() is None
        assert len(homology._IMAGES) == held - 1

    @pytest.mark.parametrize("n_chains", [0, -1])
    def test_suite_rejects_no_chains(self, n_chains):
        from symgeo.ffengine import run_deformation_suite

        with pytest.raises(ValueError, match="n_chains"):
            run_deformation_suite(_CYCLE_COMPLEXES["torus8"], n_chains=n_chains)

    @pytest.mark.parametrize("name", sorted(_CYCLE_COMPLEXES))
    def test_top_cofaces_match_search(self, name):
        src = _CYCLE_COMPLEXES[name]
        cx = GeoComplex(src.vertices, src.cells_of_dim(src.dim))  # nothing cached yet
        top_cells = cx.cells_of_dim(cx.dim)
        for d, cells in cx.cells.items():
            tops = cx.cell_arrays(d).tops
            for cell, row in zip(cells, tops.tolist()):
                assert [top_cells[i] for i in row if i >= 0] == _ref_top_cofaces(cx, cell)
                assert row == sorted(row, key=lambda i: (i < 0, i))

    def test_vanishing_check_equals_star_mass(self, torus8):
        from symgeo.ffengine.suite import vanishing_check

        for seed in range(30):
            chain, _ = random_loop_chain(torus8, seed=seed)
            result = ff_deform(torus8, chain, seed=seed)
            assert vanishing_check(torus8, chain, result) == _ref_vanishing_check(
                torus8, chain, result)

    @settings(max_examples=200, deadline=None)
    @given(_gf2_chains())
    def test_is_cycle_equals_matrix_form(self, case):
        cx, d, vec = case
        assert homology.is_cycle(cx, d, vec) == _ref_is_cycle(cx, d, vec)
        cells = [cx.cells_of_dim(d)[j] for j in np.flatnonzero(vec)]
        assert np.array_equal(homology.cell_vector(cx, d, cells + cells[:1]),
                              _ref_cell_vector(cx, d, cells + cells[:1]))

    def test_stacked_helpers_equal_piece_at_a_time(self, torus8):
        for seed in range(50):
            loop, _ = random_loop_chain(torus8, seed=seed)
            final = ff_deform(torus8, loop, seed=seed).final
            for chain in (loop, final):
                assert crossing_parities(torus8, chain) == _ref_crossing_parities(torus8, chain)
                assert (_error(validate_chain, torus8, chain)
                        == _error(_ref_validate_chain, torus8, chain) is None)

    def test_validate_chain_reports_the_first_failing_piece(self, unit_square):
        inside = Piece((0, 1, 2), np.array([[0.2, 0.1], [0.7, 0.2]]))
        escapes = Piece((0, 1, 2), np.array([[0.0, 0.0], [2.0, 0.0]]))
        edge = Piece((0, 1), np.array([[0.1], [0.4]]))
        no_cell = Piece((1, 3), np.array([[0.1], [0.4]]))
        for pieces in ([inside, escapes, no_cell], [edge, no_cell, escapes],
                       [escapes, edge], [inside, edge]):
            chain = PolyChain(1, pieces)
            assert (_error(validate_chain, unit_square, chain)
                    == _error(_ref_validate_chain, unit_square, chain))
        assert "escapes" in _error(validate_chain, unit_square, PolyChain(1, [escapes, no_cell]))

    def test_endpoint_on_a_test_circle_raises(self):
        x = np.array([torus_mod._TEST_X, 0.1])
        with pytest.raises(ValueError, match="endpoint lies on a test circle"):
            torus_mod._crossing_parity(x, x + 1.0, torus_mod._TEST_X, 8)
        with pytest.raises(ValueError, match="endpoint lies on a test circle"):
            torus_mod._crossing_parity(x - 1.0, x, torus_mod._TEST_X, 8)
        # one crossing in [0, 0.5], none in [0.6, 1.1] or [-20, -19.5]
        lo = np.array([0.0, 0.6, -20.0])
        assert torus_mod._crossing_parity(lo, lo + 0.5, torus_mod._TEST_X, 8) == 1

    def test_is_cycle_rejects_a_vector_of_the_wrong_length(self, torus8):
        with pytest.raises(ValueError, match="192 1-cells"):
            homology.is_cycle(torus8, 1, np.zeros(191, dtype=np.uint8))


def _ref_edge_intervals(points):
    """Oracle: the scalar interval sweep, mod-2 reduction of 1-pieces with
    points (n, 2, 1) on one edge chart to intervals."""
    events = sorted(points[..., 0].ravel().tolist())
    flips = []
    i = 0
    while i < len(events):
        j = i
        while j + 1 < len(events) and events[j + 1] - events[i] <= deform._MERGE_TOL:
            j += 1
        if (j - i + 1) % 2:
            flips.append(sum(events[i:j + 1]) / (j - i + 1))
        i = j + 1
    return [(lo, hi) for lo, hi in zip(flips[::2], flips[1::2]) if hi - lo > deform._MERGE_TOL]


def _ref_covers_edge(cx, cell, points):
    """Oracle: the per-edge whole-edge rule on pieces with points (n, 2, 1)."""
    length = float(cx.chart(cell).model[1, 0])
    tol = 1e-6 * max(length, 1.0)
    intervals = _ref_edge_intervals(points)
    return (len(intervals) == 1 and abs(intervals[0][0]) <= tol
            and abs(intervals[0][1] - length) <= tol)


def _covers(cx, edge, points):
    """The array rule on one edge's pieces (n, 2, 1)."""
    return bool(deform.covers_edges(cx, cx.cell_index([edge]), points[None],
                                    np.ones((1, len(points)), dtype=bool))[0])


_EDGE_TORI = {radius: flat_torus_complex(8, radius=radius) for radius in (1.0, 10.0)}


@st.composite
def _edge_blocks(draw):
    """Edges of a torus with their pieces, padded as ff_step groups them.
    An edge's endpoints come in groups near 0, the edge length or an inner
    point: at multiples 0..4 of 0.6 _MERGE_TOL from it, into the edge, so
    runs of gaps below _MERGE_TOL can span more than it, or about the end
    tolerance 1e-6 max(length, 1) off it; consecutive endpoints pair into
    pieces."""
    cx = _EDGE_TORI[draw(st.sampled_from(sorted(_EDGE_TORI)))]
    edges = cx.cells_of_dim(1)
    ids = draw(st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=4, unique=True))
    points = []
    for i in ids:
        length = cx.chart(edges[i]).model[1, 0]
        anchors = [(0.0, 1), (length, -1), (0.3 * length, 1), (0.6 * length, -1)]
        events = []
        for _ in range(draw(st.integers(1, 3))):
            anchor, into = draw(st.sampled_from(anchors))
            if draw(st.integers(0, 3)):
                steps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
                events += [anchor + into * q * 0.6 * deform._MERGE_TOL for q in steps]
            else:
                off = draw(st.sampled_from([-1.5, -0.9, 0.9, 1.5]))
                events.append(anchor + off * 1e-6 * max(length, 1.0))
        events += [length] * (len(events) % 2)
        points.append(np.array(draw(st.permutations(events))).reshape(-1, 2, 1))
    P = max(map(len, points))
    padded = np.stack([np.concatenate([p, np.repeat(p[:1], P - len(p), axis=0)])
                       for p in points])
    filled = np.arange(P) < np.array([len(p) for p in points])[:, None]
    return cx, [edges[i] for i in ids], np.array(ids), padded, filled


class TestEdgeCoverage:
    """The collapse keeps an edge whole by the same array rule the suite's
    whole-edge check accepts it by (deform.covers_edges), and the rule makes
    the scalar sweep's decisions."""

    @pytest.mark.parametrize("radius, edge, gap, covered", [
        (10.0, (0, 1), 5e-6, True),     # edge of length 7.654
        (1.0, (0, 9), 1.05e-6, True),   # diagonal of length 1.082
        (10.0, (0, 1), 1e-5, False),
    ])
    def test_collapse_and_certificate_agree(self, radius, edge, gap, covered):
        cx = flat_torus_complex(8, radius=radius)
        piece = Piece(edge, np.array([[gap], [cx.chart(edge).model[1, 0]]]))
        assert _covers(cx, edge, piece.points[None]) == covered
        assert _ref_covers_edge(cx, edge, piece.points[None]) == covered
        chain = PolyChain(1, [piece])
        if covered:
            assert whole_edges_of(cx, chain) == [edge]
        else:
            with pytest.raises(ValueError, match="does not cover the edge"):
                whole_edges_of(cx, chain)

    @settings(max_examples=300, deadline=None)
    @given(_edge_blocks())
    def test_block_rule_equals_scalar_sweep(self, case):
        cx, edges, ids, points, filled = case
        got = deform.covers_edges(cx, ids, points, filled)
        want = [_ref_covers_edge(cx, e, p[f]) for e, p, f in zip(edges, points, filled)]
        event(f"covered {sum(want)} of {len(want)}")
        assert got.tolist() == want

    def test_left_anchored_clusters(self, torus8):
        # endpoints 0 | 1.2, 1.2, 1.8 | 2.4 (in units of _MERGE_TOL) | length:
        # the gaps from 1.2 to 2.4 are each below _MERGE_TOL, but 2.4 is
        # farther than it from the anchor 1.2, so the sweep flips at 0, 1.4,
        # 2.4 and the length and keeps two intervals; one cluster per run of
        # small gaps would flip at 0 and the length only and cover the edge
        tol, edge = deform._MERGE_TOL, (0, 1)
        length = torus8.chart(edge).model[1, 0]
        pts = np.array([[0.0, 1.2 * tol], [1.2 * tol, 1.8 * tol], [2.4 * tol, length]])[..., None]
        np.testing.assert_allclose(_ref_edge_intervals(pts),
                                   [(0.0, 1.4 * tol), (2.4 * tol, length)], rtol=1e-12)
        assert not _ref_covers_edge(torus8, edge, pts)
        assert not _covers(torus8, edge, pts)
        assert _covers(torus8, edge, pts[[0, 2]]) == _ref_covers_edge(torus8, edge, pts[[0, 2]])

    def test_whole_edges_of_names_the_first_bad_piece(self, torus8):
        edge, other = (0, 1), (0, 8)
        whole = Piece(edge, np.array([[0.0], [torus8.chart(edge).model[1, 0]]]))
        short = Piece(other, np.array([[0.0], [0.3]]))
        tri = Piece((0, 1, 9), np.array([[0.1, 0.05], [0.3, 0.1]]))
        assert whole_edges_of(torus8, PolyChain(1, [whole])) == [edge]
        with pytest.raises(ValueError, match=r"piece on \(0, 8\) does not cover"):
            whole_edges_of(torus8, PolyChain(1, [whole, short, tri]))
        with pytest.raises(ValueError, match=r"\(0, 1, 9\) is not an edge"):
            whole_edges_of(torus8, PolyChain(1, [tri, whole, short]))
        assert whole_edges_of(torus8, PolyChain(1, [])) == []


def _ref_torus_param(n):
    """Oracle: the parameter triangles as the grid builder once made them,
    one argsort of wrapped vertex ids per triangle."""

    def vid(i, j):
        return (i % n) * n + (j % n)

    param = {}
    for i in range(n):
        for j in range(n):
            for corners in (
                [(i, j), (i + 1, j), (i + 1, j + 1)],   # lower: v <= u
                [(i, j), (i, j + 1), (i + 1, j + 1)],   # upper: v >= u
            ):
                ids = [vid(a, b) for a, b in corners]
                order = np.argsort(ids)
                cell = tuple(int(ids[o]) for o in order)
                param[cell] = np.array([corners[o] for o in order], dtype=float)
    return param


@pytest.mark.parametrize("n", range(3, 17))
def test_torus_grid_matches_per_triangle_builder(n):
    cx = flat_torus_complex(n)
    got, want = cx.metadata["param"], _ref_torus_param(n)
    assert list(got) == list(want)
    assert all(type(v) is int for cell in got for v in cell)
    for cell, tri in want.items():
        assert got[cell].dtype == tri.dtype and got[cell].shape == tri.shape
        assert got[cell].tobytes() == tri.tobytes()
    assert cx.cells_of_dim(2) == sorted(want)

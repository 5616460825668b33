import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgeo.ffengine import (
    GeoComplex,
    Piece,
    PolyChain,
    chain_from_json_dict,
    chain_to_json_dict,
    check_uniform,
    crossing_parities,
    ff_deform,
    ff_step,
    flat_torus_complex,
    is_closed,
    normalize_chain,
    radial_project,
    random_loop_chain,
    remainder_decomposition,
    representative_edge_cycle,
    select_center,
    validate_chain,
    vanishing_threshold,
    whole_edges_of,
)
from symgeo.ffengine import homology
from symgeo.ffengine.chains import piece_volume
from symgeo.ffengine.deform import project_piece


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
                assert unit_square.chart_distortion(cell) == pytest.approx(1.0)

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
        cx = GeoComplex.from_off(text)
        assert len(cx.cells_of_dim(2)) == 2
        assert cx.cell_volume((0, 1, 2)) == pytest.approx(0.5)


class TestCheckUniform:
    def test_unit_square_passes(self, unit_square):
        report = check_uniform(unit_square, r=1.5, delta=0.1)
        assert report.passed

    def test_volume_condition_fails(self, unit_square):
        report = check_uniform(unit_square, r=1.5, delta=0.5)
        assert not report.passed
        assert not report.worst["volume"]["ok"]
        assert report.worst["diameter"]["ok"]

    def test_equilateral_triangle(self):
        cx = GeoComplex(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
            [(0, 1, 2)],
        )
        report = check_uniform(cx, r=1.0, delta=0.2)
        assert report.worst["distortion"]["value"] == pytest.approx(1.0)
        assert report.passed

    def test_torus_uniform(self, torus8):
        report = check_uniform(torus8, r=1.2, delta=0.2)
        assert report.passed


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


class TestRadialProject:
    def test_boundary_piece_unchanged(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.3, 0.0], [0.8, 0.0]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        out = radial_project(unit_square, cell, [0.5, 0.25], piece)
        assert len(out) == 1 and out[0] is piece

    def test_point_projection_collinear(self, unit_square):
        cell = (0, 1, 2)
        x0_amb = np.array([0.6, 0.3])
        edge_mid = np.array([0.5, 0.0])  # midpoint of the bottom edge
        point_amb = (x0_amb + edge_mid) / 2.0
        piece = Piece(cell, unit_square.to_chart(cell, point_amb[None, :]))
        out = radial_project(
            unit_square, cell, unit_square.to_chart(cell, x0_amb[None, :])[0], piece
        )
        assert len(out) == 1
        image_amb = unit_square.to_ambient(out[0].host, out[0].points)[0]
        assert np.allclose(image_amb, edge_mid, atol=1e-12)

    def test_center_on_piece_rejected(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.4, 0.2], [0.8, 0.4]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        mid = unit_square.to_chart(cell, ((amb[0] + amb[1]) / 2)[None, :])[0]
        with pytest.raises(ValueError):
            radial_project(unit_square, cell, mid, piece)

    def test_segment_splits_across_facets(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.55, 0.05], [0.95, 0.55]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        center = unit_square.to_chart(cell, np.array([[0.7, 0.3]]))[0]
        out = radial_project(unit_square, cell, center, piece)
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
    def test_empty_pieces_barycenter(self, unit_square):
        cell = (0, 1, 2)
        info = select_center(unit_square, cell, [], rng=1)
        bary = unit_square.barycentric(cell, info.point[None, :])[0]
        assert np.allclose(bary, 1.0 / 3.0)

    def test_small_piece_quick_success(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.64, 0.32], [0.68, 0.34]])
        piece = Piece(cell, unit_square.to_chart(cell, amb))
        info = select_center(unit_square, cell, [piece], c_target=10.0,
                            max_tries=10, rng=3)
        assert info.tries <= 10
        assert info.ratio <= 10.0

    def test_full_dim_case(self, unit_square):
        cell = (0, 1, 2)
        half = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]])
        piece = Piece(cell, unit_square.to_chart(cell, half))
        info = select_center(unit_square, cell, [piece], rng=5)
        assert info.ratio == 0.0

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
        out, track, _, _ = ff_step(unit_square, chain, 2, seed=0)
        assert track == 0.0
        assert len(out) == 1
        assert out.pieces[0].host == edge

    def test_segment_pushed_to_boundary(self, unit_square):
        cell = (0, 1, 2)
        amb = np.array([[0.5, 0.2], [0.75, 0.4]])
        chain = PolyChain(1, [Piece(cell, unit_square.to_chart(cell, amb))])
        out, track, _, _ = ff_step(unit_square, chain, 2, seed=1)
        assert all(len(p.host) == 2 for p in out.pieces)
        assert 0.0 < track <= unit_square.cell_volume(cell)
        validate_chain(unit_square, out)

    def test_full_cell_kept_at_chain_level(self, unit_square):
        cell = (0, 1, 2)
        chain = PolyChain(2, [Piece(cell, unit_square.chart(cell).model.copy())])
        out, track, whole, _ = ff_step(unit_square, chain, 2, seed=2)
        assert track == 0.0
        assert whole == (cell,)
        assert out.volume() == pytest.approx(0.5)

    def test_partial_cell_collapses_at_chain_level(self, unit_square):
        cell = (0, 1, 2)
        half = np.array([[0.1, 0.05], [0.5, 0.1], [0.4, 0.3]])
        chain = PolyChain(2, [Piece(cell, unit_square.to_chart(cell, half))])
        out, track, whole, _ = ff_step(unit_square, chain, 2, seed=3)
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
        n_pieces, q_pieces = remainder_decomposition(torus8, result)
        assert len(n_pieces) + len(q_pieces) == len(result.final.pieces)
        for piece in q_pieces:
            assert len(piece.host) - 1 <= 0

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
            set(s) == {"level", "cells", "volume_before", "volume_after", "track"}
            for s in doc["steps"]
        )
        assert doc["steps"][0]["track"] == pytest.approx(result.total_track)
        json.dumps(doc)  # serializable

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


class TestGf2Engine:
    """The GF(2) rank and solve against brute-force span enumeration."""

    @given(gf2_matrices)
    def test_rank_matches_span_size(self, rows):
        mat = np.array(rows, dtype=np.uint8)
        assert 2 ** homology.gf2_rank(mat) == len(_gf2_span(mat))
        assert homology.gf2_rank(mat) == homology.gf2_rank(mat.T)

    @given(gf2_matrices, st.data())
    def test_solve_matches_column_span(self, rows, data):
        mat = np.array(rows, dtype=np.uint8)
        target = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        expected = _pack(target) in _gf2_span(mat.T)
        assert homology.gf2_solve(mat, np.array(target, dtype=np.uint8)) == expected

import dataclasses
import gc
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgeo import rootdata
from symgeo.exponents import r_lower_bound
from symgeo.rootdata import (
    build_rank_one,
    build_sln,
    norm_sq,
    pair,
    rho,
    root_pairings,
    theta_so,
)
from symgeo.spherical import c_function


def killing_pair_oracle(n, xi, eta):
    """Independent pairing oracle: realize H_xi as a traceless diagonal matrix
    via B(X, Y) = 2n tr(XY) and evaluate eta on it, in floating point."""
    c = np.array([float(x) for x in xi.e_coords()])
    d = np.array([float(x) for x in eta.e_coords()])
    h = (c - c.mean()) / (2 * n)
    return float(d @ h)


def strongly_orthogonal_set(rd):
    """Oracle: the maximal strongly orthogonal set {alpha_{1,n},
    alpha_{2,n-1}, ...} of SLn as Covectors of rd."""
    return [rootdata.Covector(rootdata._root_coords(rd, s), rd)
            for s in rootdata._strongly_orthogonal_supports(rd)]


def dense_sln_root(n, i, j):
    """e_i - e_j (1-based, i < j) as the dense simple-root tuple
    alpha_i + ... + alpha_{j-1}."""
    return tuple(int(i <= l + 1 < j) for l in range(n - 1))


def dense_strongly_orthogonal(rd, members):
    """Strong orthogonality on dense simple-root tuples: no sum or difference
    of two members is a root or the negative of one."""
    roots = {coords for coords, _ in rd.root_coords}
    roots |= {tuple(-c for c in coords) for coords in roots}
    for a, b in itertools.combinations(members, 2):
        if tuple(x + y for x, y in zip(a, b)) in roots:
            return False
        if tuple(x - y for x, y in zip(a, b)) in roots:
            return False
    return True


def combine(a, b, sign):
    """The support of a + sign * b, in canonical form."""
    total = dict(a)
    for k, c in b:
        total[k] = total.get(k, 0) + sign * c
    return tuple(sorted((k, c) for k, c in total.items() if c))


def is_strongly_orthogonal(rd, members):
    """Oracle on sparse supports: no sum or difference of two members is a
    root."""
    positive = {support for support, _ in rd.roots}

    def is_root(support):
        return support in positive or tuple((k, -c) for k, c in support) in positive

    return not any(is_root(combine(a, b, 1)) or is_root(combine(a, b, -1))
                   for a, b in itertools.combinations(members, 2))


def half_sum(rd, weighted):
    """Oracle: half of the sum of root supports counted with multiplicity."""
    e = [0] * rd.e_dim
    for support, weight in weighted:
        for k, c in support:
            e[k] += weight * c
    coords = list(itertools.accumulate(e[:rd.rank])) if rd.family == "SLn" else e
    return rd.covector([Fraction(c, 2) for c in coords])


class TestBuildRankOne:
    @pytest.mark.parametrize(
        "family,n,m_a,m_2a,dim",
        [
            ("H2O", 2, 8, 7, 16),
            ("HnR", 2, 1, 0, 2),
            ("HnH", 3, 8, 3, 12),
            ("HnC", 4, 6, 1, 8),
        ],
    )
    def test_multiplicities(self, family, n, m_a, m_2a, dim):
        rd = build_rank_one(family, n)
        assert (rd.m_alpha, rd.m_2alpha, rd.dim_X) == (m_a, m_2a, dim)

    def test_unit_simple_root(self):
        for family in rootdata.RANK_ONE_FAMILIES:
            rd = build_rank_one(family, 2)
            assert norm_sq(rd, rd.alpha) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_rank_one("H2O", 3)
        with pytest.raises(ValueError):
            build_rank_one("HnC", 1)
        with pytest.raises(ValueError):
            build_rank_one("HnH", 0)
        with pytest.raises(ValueError):
            build_rank_one("E8", 2)

    def test_dimension_identity_sweep(self):
        for family in ("HnR", "HnC", "HnH"):
            for n in range(2, 9):
                rd = build_rank_one(family, n)
                assert rd.dim_X == rd.rank + sum(m for _, m in rd.positive_roots)
        rd = build_rank_one("H2O", 2)
        assert rd.dim_X == 1 + 8 + 7


class TestBuildSLn:
    def test_counts(self):
        for n, n_roots, rank, dim in [(2, 1, 1, 2), (4, 6, 3, 9), (16, 120, 15, 135)]:
            rd = build_sln(n)
            assert len(rd.positive_roots) == n_roots
            assert rd.rank == rank
            assert rd.dim_X == dim
            assert all(m == 1 for _, m in rd.positive_roots)

    def test_sl2_killing_norm(self):
        # hand computation: H_alpha = diag(1,-1)/4 under B(X,Y) = 4 tr(XY),
        # so <alpha, alpha> = alpha(H_alpha) = 1/2
        rd = build_sln(2, "Killing")
        assert norm_sq(rd, rd.simple_roots[0]) == Fraction(1, 2)

    def test_positive_roots_are_nonneg_simple_combinations(self):
        rd = build_sln(5)
        for root, _ in rd.positive_roots:
            assert all(c in (0, 1) for c in root.coords)
            assert any(c == 1 for c in root.coords)

    def test_e_coords_roundtrip(self):
        rd = build_sln(4)
        xi = rd.covector([3, 4, 3])  # 2 rho
        assert xi.e_coords() == (3, 1, -1, -3)

    def test_gram_positive_definite(self):
        rd = build_sln(6)
        g = np.array([[float(x) for x in row] for row in rd.dual_gram])
        assert np.allclose(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0

    def test_pair_against_killing_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            rd = build_sln(n, "Killing")
            for _ in range(5):
                xi = rd.covector(rng.integers(-4, 5, size=rd.rank).tolist())
                eta = rd.covector(rng.integers(-4, 5, size=rd.rank).tolist())
                exact = float(pair(rd, xi, eta))
                assert abs(exact - killing_pair_oracle(n, xi, eta)) <= 1e-12

    def test_owner_mismatch_rejected(self):
        rd1, rd2 = build_sln(3), build_sln(3)
        with pytest.raises(ValueError):
            pair(rd1, rd1.covector([1, 0]), rd2.covector([1, 0]))


class TestRho:
    def test_octonionic(self):
        rd = build_rank_one("H2O", 2)
        assert rho(rd).coords == (Fraction(11),)

    def test_real_hyperbolic_3(self):
        rd = build_rank_one("HnR", 3)
        assert rho(rd).coords == (Fraction(1),)

    def test_sl4(self):
        rd = build_sln(4)
        two_rho = Fraction(2) * rho(rd)
        assert two_rho.e_coords() == (3, 1, -1, -3)

    @pytest.mark.parametrize("family,n", [("SLn", n) for n in range(2, 65)]
                             + [(f, n) for f in ("HnR", "HnC", "HnH") for n in range(2, 7)]
                             + [("H2O", 2)])
    def test_closed_form_is_the_half_sum_of_the_roots(self, family, n):
        rd = build_sln(n) if family == "SLn" else build_rank_one(family, n)
        assert rho(rd).coords == half_sum(rd, rd.roots).coords

    def test_self_pairing_identity(self):
        # sum over positive roots of <alpha, 2 rho> equals <2 rho, 2 rho>
        for n in range(2, 8):
            rd = build_sln(n, "TraceForm")
            two_rho = Fraction(2) * rho(rd)
            total = sum(pair(rd, root, two_rho) for root, _ in rd.positive_roots)
            assert total == norm_sq(rd, two_rho)


class TestTheta:
    def test_sl4(self):
        rd = build_sln(4)
        assert (Fraction(2) * theta_so(rd)).e_coords() == (1, 1, -1, -1)

    def test_sl3(self):
        rd = build_sln(3)
        assert (Fraction(2) * theta_so(rd)).e_coords() == (1, 0, -1)

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError):
            theta_so(build_sln(2))
        with pytest.raises(ValueError):
            theta_so(build_rank_one("H2O", 2))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_strong_orthogonality(self, n):
        rd = build_sln(n)
        members = strongly_orthogonal_set(rd)
        assert len(members) == n // 2
        roots = {r.coords for r, _ in rd.positive_roots}
        roots |= {tuple(-c for c in r) for r in roots}
        for a, b in itertools.combinations(members, 2):
            assert tuple(x + y for x, y in zip(a.coords, b.coords)) not in roots
            assert tuple(x - y for x, y in zip(a.coords, b.coords)) not in roots

    @pytest.mark.parametrize("n", range(3, 65))
    def test_closed_form_is_the_half_sum_of_the_set(self, n):
        rd = build_sln(n)
        members = rootdata._strongly_orthogonal_supports(rd)
        assert is_strongly_orthogonal(rd, members)
        assert theta_so(rd).coords == half_sum(rd, ((s, 1) for s in members)).coords

    def test_closed_forms_read_no_roots(self):
        # rho and theta_so are O(n): a datum with its root list taken away
        # gives the same covectors
        rd = build_sln(16)
        bare = dataclasses.replace(rd, roots=None)
        assert rho(bare).coords == rho(rd).coords
        assert theta_so(bare).coords == theta_so(rd).coords

    def test_cache_makes_no_reference_cycle(self):
        # data freed by reference counting keep the memory of repeated rx flat;
        # a Covector cached on its own datum would make a cycle
        sl16, hnc3, h2o = (lambda: build_sln(16), lambda: build_rank_one("HnC", 3),
                           lambda: build_rank_one("H2O", 2))
        c_fn = lambda rd: c_function(rd, Fraction(3, 2) * rho(rd))
        cases = {
            "r_lower_bound": (sl16, r_lower_bound),
            "positive_roots": (sl16, lambda rd: rd.positive_roots),
            "simple_roots": (sl16, lambda rd: rd.simple_roots),
            "dual_gram": (sl16, lambda rd: rd.dual_gram),
            "alpha": (hnc3, lambda rd: rd.alpha),
            "c_function SL16": (sl16, c_fn),
            "c_function H2O": (h2o, c_fn),
        }
        # c_function's first call imports scipy.special, whose set-up leaves
        # cyclic garbage of its own; import it before any count starts
        import scipy.special  # noqa: F401
        for name, (build, use) in cases.items():
            gc.collect()
            gc.disable()
            try:
                use(build())
                assert gc.collect() == 0, name
            finally:
                gc.enable()

    def test_gap_pairing_example(self):
        # <alpha_{1,4}, 2 rho - theta> = 2*3 - 1 = 5 in the trace form
        rd = build_sln(4, "TraceForm")
        xi = Fraction(2) * rho(rd) - theta_so(rd)
        alpha_14 = rd.covector([1, 1, 1])
        assert pair(rd, alpha_14, xi) == 5


class TestBilinearity:
    def test_zero_and_symmetry(self):
        rd = build_sln(5)
        xi = rd.covector([1, 2, 0, -1])
        eta = rd.covector([0, 1, 1, 3])
        assert pair(rd, xi, rd.covector([0] * rd.rank)) == 0
        assert pair(rd, xi, eta) == pair(rd, eta, xi)
        assert pair(rd, xi + eta, eta) == pair(rd, xi, eta) + pair(rd, eta, eta)


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def sln_pairing_case(draw):
    """An SL(n) datum (n <= 8, any normalization), three covectors, a scalar."""
    n = draw(st.integers(min_value=2, max_value=8))
    rd = build_sln(n, draw(st.sampled_from(tuple(rootdata.SLN_SCALES))))
    coords = st.lists(small_fractions, min_size=rd.rank, max_size=rd.rank)
    xi, eta, zeta = (rd.covector(draw(coords)) for _ in range(3))
    return rd, xi, eta, zeta, draw(small_fractions)


class TestPairProperties:
    @given(sln_pairing_case())
    def test_symmetric_and_bilinear(self, case):
        rd, xi, eta, zeta, c = case
        assert pair(rd, xi, eta) == pair(rd, eta, xi)
        assert pair(rd, xi + zeta, eta) == pair(rd, xi, eta) + pair(rd, zeta, eta)
        assert pair(rd, c * xi, eta) == c * pair(rd, xi, eta)

    @given(sln_pairing_case())
    def test_matches_killing_oracle(self, case):
        rd, xi, eta, _, _ = case
        # the oracle realizes the Killing form B = 2n tr; rescale it to rd's
        expected = killing_pair_oracle(rd.n, xi, eta) * 2 * rd.n * float(rd.scale)
        assert float(pair(rd, xi, eta)) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=3, max_value=40))
    def test_two_rho_e_coords(self, n):
        two_rho = 2 * rho(build_sln(n))
        assert two_rho.e_coords() == tuple(range(n - 1, -n, -2))

    @given(st.integers(min_value=3, max_value=40))
    def test_two_theta_e_coords(self, n):
        two_theta = 2 * theta_so(build_sln(n))
        m = n // 2
        assert two_theta.e_coords() == (1,) * m + (0,) * (n % 2) + (-1,) * m


@st.composite
def any_datum(draw, max_n=10):
    """An SL(n) datum (2 <= n <= max_n, any normalization) or a rank-one one."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=max_n))
        return build_sln(n, draw(st.sampled_from(tuple(rootdata.SLN_SCALES))))
    family = draw(st.sampled_from(rootdata.RANK_ONE_FAMILIES))
    n = 2 if family == "H2O" else draw(st.integers(min_value=2, max_value=6))
    return build_rank_one(family, n)


@st.composite
def datum_and_covector(draw):
    rd = draw(any_datum())
    coords = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    return rd, rd.covector(draw(st.lists(coords, min_size=rd.rank, max_size=rd.rank)))


class TestSparseRoots:
    @given(datum_and_covector())
    def test_root_pairings_is_the_multiset_of_pair(self, case):
        rd, xi = case
        expected = Counter()
        for root, mult in rd.positive_roots:
            expected[pair(rd, root, xi)] += mult
        got = root_pairings(rd, xi)
        assert got == dict(expected)
        assert all(type(value) is Fraction for value in got)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sln_root_coords_are_the_dense_tuples(self, n):
        rd = build_sln(n)
        dense = [dense_sln_root(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        assert rd.root_coords == tuple((coords, 1) for coords in dense)

    def test_rank_one_root_coords(self):
        for family in rootdata.RANK_ONE_FAMILIES:
            rd = build_rank_one(family, 2)
            expected = (((1,), rd.m_alpha), ((2,), rd.m_2alpha))
            assert rd.root_coords == expected[: 1 + bool(rd.m_2alpha)]

    @given(any_datum(), st.data())
    def test_strong_orthogonality_matches_dense_check(self, rd, data):
        picks = data.draw(st.lists(st.integers(0, len(rd.roots) - 1), unique=True, max_size=5))
        supports = [rd.roots[i][0] for i in picks]
        dense = [rd.root_coords[i][0] for i in picks]
        assert is_strongly_orthogonal(rd, supports) == dense_strongly_orthogonal(rd, dense)


class TestPlainData:
    """Data and covectors hash, compare and print without recursing."""

    @pytest.mark.parametrize("build", [lambda: build_rank_one("H2O", 2),
                                       lambda: build_sln(4)], ids=["H2O", "SL4"])
    def test_hash_and_repr_terminate(self, build):
        rd = build()
        hash(rd)
        for root, _ in rd.positive_roots:
            hash(root)
        assert {rd.simple_roots[0], rd.simple_roots[0]} == {rd.simple_roots[0]}
        assert "Covector" in repr(rd.simple_roots[0])
        assert rd.family in repr(rd)

    def test_separately_built_data_do_not_compare_equal(self):
        rd1, rd2 = build_rank_one("H2O", 2), build_rank_one("H2O", 2)
        assert rd1 == rd1 and rd1 != rd2
        assert rd1.alpha == rd1.alpha
        assert rd1.alpha != rd2.alpha
        s1, s2 = build_sln(3), build_sln(3)
        assert s1.covector([1, 0]) != s2.covector([1, 0])


def test_json_roundtrip_shape():
    rd = build_rank_one("H2O", 2)
    doc = rd.to_json_dict()
    assert doc["family"] == "H2O"
    assert doc["roots"][0]["mult"] == 8
    assert doc["gram"] == [["1"]]

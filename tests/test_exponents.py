import itertools
import tracemalloc
from fractions import Fraction

import pytest

from symgeo import hesspec
from symgeo.exponents import (
    cx,
    cx_rows,
    gap_covector,
    golden_cx,
    golden_kappa,
    growth_exponents,
    kappa,
    kappa_rows,
    multiplicity_rows,
    omega_contains,
    r_lower_bound,
    r_profile,
    sln_intermediate_trace,
    sln_closed_form_bound,
    stationary_codims,
)
from symgeo.rootdata import build_rank_one, build_sln, norm_sq, pair


def sln_rx_oracle(n):
    """r(SL_n) and the tau rows ``rx SL:n`` prints, in integers.

    The gap covector 2 rho - theta_so has e-coordinates x / 2 with
    x_i = 2 (n - 1 - 2i) - t_i, where t = (1 x floor(n/2), 0 x (n mod 2),
    -1 x floor(n/2)) are the e-coordinates of 2 theta_so.  In the trace form
    the Hessian eigenvalues of exp(xi H), times 4, are |x|^2, n - 2 zeros and
    -2 (x_i - x_j) for i < j.
    """
    m = n // 2
    t = [1] * m + [0] * (n % 2) + [-1] * m
    x = [2 * (n - 1 - 2 * i) - t[i] for i in range(n)]
    eig = [sum(v * v for v in x)] + [0] * (n - 2)
    eig += [-2 * (x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
    eig.sort(reverse=True)
    dim = len(eig)
    prefix = list(itertools.accumulate(eig, initial=0))
    taus = [Fraction(prefix[dim - d], 4) for d in range(dim)]
    r = next(d for d in range(dim) if taus[d] >= 0) - 1
    return r, [(d, str(taus[d]), taus[d] < 0) for d in range(min(r + 3, dim))]


def brute_kappa(rd, k):
    values = [0] + [1] * rd.m_alpha + [2] * rd.m_2alpha
    return min(sum(c) for c in itertools.combinations(values, k)) if k <= 6 else sum(
        sorted(values)[:k]
    )


class TestKappa:
    @pytest.mark.parametrize(
        "family,n,k,expected",
        [("H2O", 2, 14, 18), ("H2O", 2, 15, 20), ("HnR", 5, 3, 2), ("HnC", 3, 1, 0)],
    )
    def test_values(self, family, n, k, expected):
        assert kappa(build_rank_one(family, n), k) == expected

    def test_real_family_linear(self):
        for n in range(2, 8):
            rd = build_rank_one("HnR", n)
            for k in range(1, rd.dim_X):
                assert kappa(rd, k) == k - 1

    def test_monotone_with_small_gaps(self):
        for family, n in [("HnC", 5), ("HnH", 4), ("H2O", 2)]:
            rd = build_rank_one(family, n)
            prev = kappa(rd, 1)
            for k in range(2, rd.dim_X):
                cur = kappa(rd, k)
                assert cur - prev in (0, 1, 2)
                prev = cur

    def test_domain(self):
        rd = build_rank_one("H2O", 2)
        assert kappa(rd, 16) == 22  # full trace, the volume-growth exponent
        with pytest.raises(ValueError):
            kappa(rd, 0)
        with pytest.raises(ValueError):
            kappa(rd, 17)
        with pytest.raises(ValueError):
            kappa(build_sln(3), 1)


class TestCx:
    @pytest.mark.parametrize(
        "family,n,d,expected",
        [
            ("H2O", 2, 2, 18),
            ("H2O", 2, 10, 5),
            ("HnR", 5, 1, 3),
            ("HnR", 5, 5, 0),
            ("HnC", 3, 0, 6),
            ("HnH", 2, 3, 4),
        ],
    )
    def test_values(self, family, n, d, expected):
        assert cx(build_rank_one(family, n), d) == expected

    def test_boundary_is_supremum(self):
        # at delta = cx(d) the (dim-d)-trace of {delta, -1 x m_a, -2 x m_2a}
        # hits exactly zero; just below it is negative
        rd = build_rank_one("H2O", 2)
        for d in range(rd.dim_X):
            delta = cx(rd, d)
            spec = hesspec.Spectrum.from_pairs(
                [(Fraction(delta), 1), (Fraction(-1), 8), (Fraction(-2), 7)]
            )
            assert hesspec.tau_k(spec, rd.dim_X - d) == 0
            below = hesspec.Spectrum.from_pairs(
                [(Fraction(delta) - Fraction(1, 7), 1), (Fraction(-1), 8), (Fraction(-2), 7)]
            )
            assert hesspec.tau_k(below, rd.dim_X - d) < 0


class TestOmega:
    def test_zero_never_member(self):
        for rd in (build_rank_one("H2O", 2), build_sln(4)):
            for d in (0, 1, 2):
                assert not omega_contains(rd, rd.covector([0] * rd.rank), d)

    def test_octonionic_threshold(self):
        rd = build_rank_one("H2O", 2)
        xi = Fraction(16) * rd.alpha
        assert omega_contains(rd, xi, 2)
        assert not omega_contains(rd, xi, 3)

    def test_sl16_gap(self):
        rd = build_sln(16)
        assert omega_contains(rd, gap_covector(rd), 1)

    def test_scaling_star_shape(self):
        rd = build_rank_one("H2O", 2)
        xi = Fraction(16) * rd.alpha
        for t in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
            assert omega_contains(rd, t * xi, 2)


class TestRLowerBound:
    def test_octonionic_exact(self):
        rd = build_rank_one("H2O", 2)
        assert r_lower_bound(rd) == 2
        profile = dict(r_profile(rd))
        assert profile[3] == 0  # tau at d = 3 is exactly 0, excluded by strictness

    def test_sl3(self):
        assert r_lower_bound(build_sln(3)) == 0

    @pytest.mark.parametrize("n", range(8, 33))
    def test_sln_beats_closed_form(self, n):
        assert r_lower_bound(build_sln(n)) >= sln_closed_form_bound(n)

    def test_full_trace_matches_intermediate_expression(self):
        # the enumerated full trace equals the term-by-term intermediate
        # expression (-m^2 + m/2), not the printed collected form
        for n in (4, 8, 12, 20):
            rd = build_sln(n, "TraceForm")
            xi = gap_covector(rd)
            trace = norm_sq(rd, xi) - sum(
                pair(rd, root, xi) for root, _ in rd.positive_roots
            )
            assert trace == sln_intermediate_trace(n)
            m = Fraction(n, 2)
            collected_form = -(m * m) + Fraction(11, 6) * m
            assert trace != collected_form

    @pytest.mark.parametrize("n", [*range(3, 49), 64, 128, 256])
    def test_sln_table_matches_integer_oracle(self, n):
        rd = build_sln(n, "TraceForm")
        r, rows = sln_rx_oracle(n)
        assert r_lower_bound(rd) == r >= sln_closed_form_bound(n)
        # the rows `rx SL:n` prints
        printed = [(d, str(t), t < 0) for d, t in r_profile(rd)[: r + 3]]
        assert printed == rows

    def test_sl256_memory(self):
        tracemalloc.start()
        try:
            r_lower_bound(build_sln(256, "TraceForm"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_trace_at_n4_is_minus_three(self):
        assert sln_intermediate_trace(4) == -3

    def test_unsupported_families(self):
        for rd in (build_rank_one("HnR", 4), build_rank_one("HnC", 3),
                   build_rank_one("HnH", 2), build_sln(2)):
            with pytest.raises(ValueError):
                r_lower_bound(rd)


class TestStationaryCodims:
    def test_octonionic(self):
        assert stationary_codims(build_rank_one("H2O", 2)) == {14, 15}

    def test_other_families_empty(self):
        for family in ("HnR", "HnC", "HnH"):
            for n in range(2, 7):
                assert stationary_codims(build_rank_one(family, n)) == set()


def feasible(budget) -> bool:
    """Does the gain exponent beat the loss exponent?"""
    return budget.gain_exponent > budget.loss_exponent


class TestGrowthExponents:
    def test_octonionic_budget(self):
        budget = growth_exponents(build_rank_one("H2O", 2), 14)
        assert budget.volume_exponent == 22
        assert (budget.gain_exponent, budget.loss_exponent) == (-4, -6)
        assert feasible(budget)

    def test_real_infeasible(self):
        budget = growth_exponents(build_rank_one("HnR", 4), 3)
        assert budget.volume_exponent == 3
        assert (budget.gain_exponent, budget.loss_exponent) == (-1, 1)
        assert not feasible(budget)

    def test_complex_volume(self):
        budget = growth_exponents(build_rank_one("HnC", 2), 4)
        assert budget.volume_exponent == 4

    def test_feasibility_matches_kappa_criterion(self):
        for family, n in [("HnR", 5), ("HnC", 3), ("HnH", 2), ("H2O", 2)]:
            rd = build_rank_one(family, n)
            for k in range(1, rd.dim_X):
                assert feasible(growth_exponents(rd, k)) == (kappa(rd, k) > rd.dim_X)


class TestTables:
    def test_multiplicity_rows(self):
        rows = {(r["family"], r["n"]): r for r in multiplicity_rows()}
        assert rows[("H2O", 2)]["m_alpha"] == 8
        assert rows[("HnH", 3)] == {
            "family": "HnH", "n": 3, "m_alpha": 8, "m_2alpha": 3, "dim": 12,
        }

    def test_kappa_rows_match_golden(self):
        rows = kappa_rows()
        assert all(
            r.value == golden_kappa(r.family, r.n, r.k_or_d) for r in rows
        )

    def test_cx_rows_match_golden(self):
        rows = cx_rows()
        assert all(r.value == golden_cx(r.family, r.n, r.k_or_d) for r in rows)

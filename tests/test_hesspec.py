import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgeo.hesspec import (
    Spectrum,
    cartan_radial_spectrum,
    distance_profile,
    fft_spectrum,
    half_square_profile,
    iwasawa_exp_spectrum,
    iwasawa_linear_spectrum,
    log_cosh_profile,
    min_trace,
    tau_k,
)
from symgeo.rootdata import build_rank_one, build_sln, norm_sq, rho, theta_so


def scaled(spec, c):
    return Spectrum.from_pairs((v * c, m) for v, m in spec.entries)


def spectrum_json(spec):
    """A spectrum as [{eigenvalue, mult}], rationals as strings."""
    def enc(v):
        return str(v) if isinstance(v, (Fraction, int)) else float(v)

    return [{"eigenvalue": enc(v), "mult": m} for v, m in spec.entries]


def brute_force_extreme_sum(values, k, largest):
    """Oracle: best sum over all k-subsets of the multiset."""
    best = None
    for combo in itertools.combinations(values, k):
        s = sum(combo)
        if best is None or (largest and s > best) or (not largest and s < best):
            best = s
    return best


class TestTraceOps:
    def test_min_trace_octonionic_unit(self):
        spec = Spectrum.from_pairs([(16, 1), (-1, 8), (-2, 7)])
        values = spec.values()
        assert min_trace(spec, 14) == brute_force_extreme_sum(values, 14, largest=False)
        assert min_trace(spec, 14) == -21

    def test_tau_octonionic_unit(self):
        spec = Spectrum.from_pairs([(16, 1), (-1, 8), (-2, 7)])
        assert tau_k(spec, 14) == -2
        assert tau_k(spec, 16) == -6
        assert tau_k(spec, 16) == brute_force_extreme_sum(spec.values(), 16, largest=True)

    def test_zeros_and_small(self):
        zeros = Spectrum.from_pairs([(0, 5)])
        for k in range(1, 6):
            assert tau_k(zeros, k) == 0
            assert min_trace(zeros, k) == 0
        spec = Spectrum.from_pairs([(3, 1), (1, 1), (-1, 1)])
        assert min_trace(spec, 2) == 0
        assert tau_k(spec, 2) == 4

    def test_out_of_range(self):
        spec = Spectrum.from_pairs([(1, 3)])
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                tau_k(spec, bad)
            with pytest.raises(ValueError):
                min_trace(spec, bad)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=12),
        st.data(),
    )
    def test_matches_brute_force(self, values, data):
        spec = Spectrum.from_pairs((v, 1) for v in values)
        # duplicate eigenvalues merge; use the expanded multiset as the oracle
        expanded = spec.values()
        k = data.draw(st.integers(1, len(expanded)))
        assert tau_k(spec, k) == brute_force_extreme_sum(expanded, k, largest=True)
        assert min_trace(spec, k) == brute_force_extreme_sum(expanded, k, largest=False)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
    def test_full_trace_agrees(self, values):
        spec = Spectrum.from_pairs((v, 1) for v in values)
        n = spec.total_dim
        assert tau_k(spec, n) == min_trace(spec, n) == spec.trace()

    def test_tau_monotone_under_positive_insertion(self):
        spec = Spectrum.from_pairs([(2, 1), (-1, 3)])
        bigger = Spectrum.from_pairs(list(spec.entries) + [(5, 1)])
        for k in range(1, spec.total_dim + 1):
            assert tau_k(bigger, k) >= tau_k(spec, k)


class TestIwasawaSpectra:
    def test_linear_real_hyperbolic(self):
        rd = build_rank_one("HnR", 3)
        spec = iwasawa_linear_spectrum(rd, rd.alpha)
        assert spec.entries == ((Fraction(0), 1), (Fraction(-1), 2))

    def test_linear_zero(self):
        rd = build_sln(4)
        spec = iwasawa_linear_spectrum(rd, rd.covector([0] * rd.rank))
        assert spec.entries == ((Fraction(0), 9),)

    def test_linear_sl2_killing(self):
        rd = build_sln(2, "Killing")
        spec = iwasawa_linear_spectrum(rd, rd.simple_roots[0])
        assert spec.entries == ((Fraction(0), 1), (Fraction(-1, 2), 1))

    def test_exp_octonionic(self):
        rd = build_rank_one("H2O", 2)
        xi = Fraction(16) * rd.alpha
        spec = iwasawa_exp_spectrum(rd, xi)
        assert spec.entries == ((Fraction(256), 1), (Fraction(-16), 8), (Fraction(-32), 7))
        assert scaled(spec, Fraction(1, 16)).entries == (
            (Fraction(16), 1),
            (Fraction(-1), 8),
            (Fraction(-2), 7),
        )

    def test_exp_sl4_gap_covector(self):
        rd = build_sln(4, "TraceForm")
        xi = Fraction(2) * rho(rd) - theta_so(rd)
        spec = iwasawa_exp_spectrum(rd, xi)
        assert spec.total_dim == 9
        assert spec.values()[0] == Fraction(13)

    def test_exp_zero(self):
        rd = build_rank_one("HnC", 2)
        spec = iwasawa_exp_spectrum(rd, rd.covector([0] * rd.rank))
        assert spec.values() == [0] * rd.dim_X

    def test_exp_trace_identity(self):
        # trace = |xi|^2 - sum_alpha m_alpha <alpha, xi>, summed independently
        for rd in (build_sln(5), build_rank_one("HnH", 3)):
            xi = Fraction(2) * rho(rd)
            spec = iwasawa_exp_spectrum(rd, xi)
            from symgeo.rootdata import pair

            expected = norm_sq(rd, xi) - sum(
                m * pair(rd, root, xi) for root, m in rd.positive_roots
            )
            assert spec.trace() == expected

    def test_owner_mismatch(self):
        rd1, rd2 = build_sln(3), build_sln(3)
        with pytest.raises(ValueError):
            iwasawa_linear_spectrum(rd1, rd2.covector([0] * rd2.rank))


class TestCartanRadial:
    def test_euclidean_limit(self):
        rd = build_rank_one("HnR", 2)
        spec = cartan_radial_spectrum(rd, half_square_profile(), 1e-12)
        assert spec.values() == [1.0, 1.0]

    def test_distance_hessian(self):
        rd = build_rank_one("HnR", 3)
        spec = cartan_radial_spectrum(rd, distance_profile(), 1.0)
        values = spec.values()
        assert values[0] == pytest.approx(1 / math.tanh(1.0))
        assert values[1] == values[0]
        assert values[2] == 0.0

    def test_smoothed_profile_octonionic(self):
        rd = build_rank_one("H2O", 2)
        t = 2.0
        spec = cartan_radial_spectrum(rd, log_cosh_profile(), t)
        expected = {
            2 * (1 - math.tanh(4.0) ** 2): 1,
            math.tanh(4.0) / math.tanh(2.0): 8,
            2 * math.tanh(4.0) / math.tanh(4.0): 7,
        }
        got = {v: m for v, m in spec.entries}
        for val, mult in expected.items():
            match = [m for v, m in got.items() if abs(v - val) < 1e-12]
            assert match == [mult]

    def test_negative_radius_rejected(self):
        rd = build_rank_one("HnR", 2)
        with pytest.raises(ValueError):
            cartan_radial_spectrum(rd, distance_profile(), -0.5)


class TestSmoothedDistanceSpectrum:
    def test_large_radius_real(self):
        rd = build_rank_one("HnR", 2)
        spec = fft_spectrum(rd, 30.0)
        values = sorted(spec.values())
        assert values[0] == pytest.approx(0.0, abs=1e-10)
        assert values[1] == pytest.approx(1.0, abs=1e-10)

    def test_doubled_root_eigenvalue_exact(self):
        rd = build_rank_one("H2O", 2)
        for t in (0.3, 1.0, 5.0):
            spec = fft_spectrum(rd, t)
            assert sum(m for v, m in spec.entries if v == 2.0) == 7

    def test_all_positive(self):
        rd = build_rank_one("HnC", 2)
        spec = fft_spectrum(rd, 0.5)
        assert all(v > 0 for v in spec.values())

    def test_dominates_kappa_on_log_grid(self):
        # the k smallest eigenvalues of the smoothed-distance Hessian sum to
        # at least kappa(k) for every k and radius t in [1e-3, 20]
        from symgeo.exponents import kappa

        top = math.log10(20.0)
        grid = [10 ** (-3 + (top + 3) * i / 24) for i in range(25)]
        for family, n in [("HnR", 4), ("HnC", 2), ("HnH", 2), ("H2O", 2)]:
            rd = build_rank_one(family, n)
            for t in grid:
                spec = fft_spectrum(rd, t)
                for k in range(1, rd.dim_X):
                    assert min_trace(spec, k) >= float(kappa(rd, k)) - 1e-9


def test_spectrum_json():
    spec = Spectrum.from_pairs([(Fraction(3, 2), 2), (Fraction(-1), 1)])
    assert spectrum_json(spec) == [
        {"eigenvalue": "3/2", "mult": 2},
        {"eigenvalue": "-1", "mult": 1},
    ]

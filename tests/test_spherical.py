import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1
from scipy.stats import kstest

from symgeo import spherical as sph
from symgeo.modelcheck import iwasawa_H_batch, iwasawa_H_rows
from symgeo.rootdata import build_rank_one, build_sln, rho

EPS = np.finfo(float).eps


def sl2_phi_oracle(s: float, t: float) -> float:
    """Closed-form 1-D integral for SL(2): phi at exponent weight s.

    E_theta[(e^{2t} sin^2 + e^{-2t} cos^2)^{-s}] equals phi for the spectral
    parameter with (rho - lambda) = 2 s rho.
    """
    val, _ = quad(
        lambda th: (math.exp(2 * t) * math.sin(th) ** 2
                    + math.exp(-2 * t) * math.cos(th) ** 2) ** (-s),
        0.0,
        2 * math.pi,
        limit=200,
    )
    return val / (2 * math.pi)


def qr_haar_oracle(n: int, count: int, rng) -> np.ndarray:
    """Haar samples by LAPACK QR of the same Gaussian draws, R diagonal made positive."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    return q * np.sign(np.einsum("...ii->...i", r))[..., None, :]


def qr_flag_oracle(z: np.ndarray) -> np.ndarray:
    """k of Z = T k (T upper triangular, positive diagonal) for each sample
    z[:, :, s], by LAPACK QR of the row-reversed transpose with R's diagonal
    made positive; shape (count, n, n)."""
    zs = np.moveaxis(z, -1, 0)
    q, r = np.linalg.qr(np.swapaxes(zs[..., ::-1, :], -1, -2))
    q = q * np.sign(np.einsum("...ii->...i", r))[..., None, :]
    return np.swapaxes(q, -1, -2)[..., ::-1, :]


def cgs2_haar_oracle(n: int, count: int, rng) -> np.ndarray:
    """Haar samples on O(n), shape (count, n, n): the Q factor with positive
    R diagonal of Gaussian matrices, orthonormalised by classical
    Gram-Schmidt applied twice."""
    z = rng.standard_normal((count, n, n))
    # cols[j, i]: entry (i, j) of every sample, so each step is a vector op
    # over the samples
    cols = np.ascontiguousarray(z.transpose(2, 1, 0))
    for j in range(n):
        v = cols[j]
        if j:
            prev = cols[:j]
            # one pass loses orthogonality on nearly dependent columns
            for _ in range(2):
                v -= np.einsum("jib,jb->ib", prev, np.einsum("jib,ib->jb", prev, v))
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    return cols.transpose(2, 1, 0)


def cgs2_phi_oracle(n: int, H, N: int, seed: int) -> tuple[float, float]:
    """phi_0(e^H) and its standard error by the CGS2 pipeline: Haar samples
    from ``cgs2_haar_oracle``, then H(k e^H) per sample."""
    w = sph._rho_e(n)
    rng = np.random.default_rng(seed)
    vals = []
    for done in range(0, N, sph._CHUNK):
        ks = cgs2_haar_oracle(n, min(sph._CHUNK, N - done), rng)
        vals.append(np.exp(iwasawa_H_batch(ks * np.exp(H)) @ w))
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(N))


def householder_haar_oracle(n: int, x: np.ndarray) -> np.ndarray:
    """Stewart's sampler one sample at a time with dense matrices: the
    product of the reflectors I - 2 h h^T / h^T h, h = y + sign(y_0)|y| e_0,
    for the Gaussian vectors y of sizes 2, ..., n laid out in x, times the
    signs -sign(y_0) per level and the 1x1 block's coin; shape (count, n, n)."""
    out = []
    for col in x.T:
        ys = {m: col[m * (m - 1) // 2 - 1:m * (m + 1) // 2 - 1] for m in range(2, n + 1)}
        q = np.eye(n)
        for m in range(n, 1, -1):
            h = np.zeros(n)
            h[n - m:] = ys[m]
            h[n - m] += math.copysign(np.linalg.norm(ys[m]), ys[m][0])
            q = q @ (np.eye(n) - 2.0 * np.outer(h, h) / (h @ h))
        signs = [-math.copysign(1.0, ys[m][0]) for m in range(n, 1, -1)]
        signs.append(1.0 if ys[2] @ ys[2] > math.log(4.0) else -1.0)
        out.append(q * signs)
    return np.array(out)


def qr_H_oracle(gs: np.ndarray) -> np.ndarray:
    """H(g) from the QR factorization of the row/column-reversed transpose."""
    m = np.swapaxes(gs, -1, -2)[..., :, ::-1]
    r = np.linalg.qr(m, mode="r")
    return np.log(np.abs(np.einsum("...ii->...i", r)))[..., ::-1]


class FixedNormals:
    """Stands in for a Generator whose next normal draw is a given array."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


class TestHaar:
    def test_orthogonality_and_det(self):
        for n in (2, 3, 5):
            q = sph.haar_orthogonal(n, seed=42)
            assert np.abs(q @ q.T - np.eye(n)).max() <= 1e-12
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)

    def test_column_mean_small(self):
        rng = np.random.default_rng(0)
        qs = sph._haar_batch(3, 100_000, rng)
        means = qs.mean(axis=0)
        sigma = 4.0 / math.sqrt(3 * 100_000)
        assert np.abs(means).max() <= sigma

    def test_n2_angle_distribution(self):
        rng = np.random.default_rng(7)
        qs = sph._haar_batch(2, 20_000, rng)
        entries = qs[:, 0, 0]
        # cos of a uniform angle has CDF 1 - arccos(x)/pi
        stat = kstest(entries, lambda x: 1.0 - np.arccos(np.clip(x, -1, 1)) / np.pi)
        assert stat.pvalue > 0.01

    def test_determinism(self):
        a = sph.haar_orthogonal(4, seed=123)
        b = sph.haar_orthogonal(4, seed=123)
        assert np.array_equal(a, b)

    def test_haar_orthogonal_is_special(self):
        # the batch is Haar on O(n); haar_orthogonal reflects into SO(n)
        dets = np.linalg.det(sph._haar_batch(3, 64, np.random.default_rng(0)))
        assert (dets < 0).any()
        for seed in range(32):
            assert np.linalg.det(sph.haar_orthogonal(3, seed)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_householder_oracle(self, n):
        x = np.random.default_rng(n).standard_normal((n * (n + 1) // 2 - 1, 512))
        got = sph._haar_batch(n, 512, FixedNormals(x))
        assert np.abs(got - householder_haar_oracle(n, x)).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fourth_moments_are_haar(self, n):
        # E q_ij^2 = 1/n, E q_00^4 = 3/(n(n+2)), E q_00^2 q_11^2 =
        # (n+1)/((n-1)n(n+2)), E q_00 q_11 q_01 q_10 = -1/((n-1)n(n+2)) on O(n)
        q = sph._haar_batch(n, 200_000, np.random.default_rng(50 + n))
        c = (n - 1) * n * (n + 2)
        stats = [(q * q, np.full((n, n), 1.0 / n)),
                 (q[:, 0, 0] ** 4, 3.0 / (n * (n + 2))),
                 (q[:, 0, 0] ** 2 * q[:, 1, 1] ** 2, (n + 1) / c),
                 (q[:, 0, 0] * q[:, 1, 1] * q[:, 0, 1] * q[:, 1, 0], -1.0 / c)]
        for sample, want in stats:
            err = sample.std(axis=0) / math.sqrt(len(q))
            assert (np.abs(sample.mean(axis=0) - want) <= 5 * err).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orientation_is_a_fair_coin(self, n):
        # without the 1x1 block's coin, det q = sign(q_00) at n = 2
        q = sph._haar_batch(n, 100_000, np.random.default_rng(60 + n))
        det = np.sign(np.linalg.det(q))
        bound = 5 / math.sqrt(len(q))
        assert abs(det.mean()) <= bound
        assert abs((det * np.sign(q[:, 0, 0])).mean()) <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_orthonormal_on_extreme_normals(self, n, data):
        # vectors along the axes, with signed zeros, or of tiny length
        entry = st.sampled_from([0.0, -0.0, 1e-150, -1e-8, 1.0, -3.0, 40.0])
        x = np.array(data.draw(st.lists(entry, min_size=n * (n + 1) // 2 - 1,
                                        max_size=n * (n + 1) // 2 - 1)))[:, None]
        for m in range(2, n + 1):
            y = x[m * (m - 1) // 2 - 1:m * (m + 1) // 2 - 1, 0]
            if not (y != 0).any():
                y[0] = 1.0
        q = sph._haar_batch(n, 1, FixedNormals(x))[0]
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
        assert np.abs(q - householder_haar_oracle(n, x)[0]).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_qr_oracle(self, n):
        # the CGS2 oracle behind cgs2_phi_oracle, against LAPACK QR of the
        # same draws
        got = cgs2_haar_oracle(n, 4096, np.random.default_rng(n))
        want = qr_haar_oracle(n, 4096, np.random.default_rng(n))
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
    def test_nearly_dependent_columns(self, seed, n, data):
        # the CGS2 oracle keeps orthogonality where one pass would lose it
        i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                         unique=True)))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((16, n, n))
        z[:, :, j] = z[:, :, i] + 1e-8 * rng.standard_normal((16, n))
        q = cgs2_haar_oracle(n, 16, FixedNormals(z))
        assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max() <= 1e-13
        r = np.swapaxes(q, -1, -2) @ z
        assert (np.einsum("...ii->...i", r) > 0).all()
        assert np.abs(q @ np.triu(r) - z).max() <= 1e-12


class TestPhiLambda:
    def test_phi_rho_exact_one(self):
        rd = build_sln(3)
        est = sph.phi_lambda(3, rho(rd), [1.0, 0.0, -1.0], N=1000, seed=1)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_phi_minus_rho_is_one(self):
        for n, H, seed in [(2, [1.0, -1.0], 5), (3, [1.5, 0.2, -1.7], 6)]:
            rd = build_sln(n)
            lam = Fraction(-1) * rho(rd)
            est = sph.phi_lambda(n, lam, H, N=100_000, seed=seed)
            assert abs(est.value - 1.0) <= 4 * est.stderr
            assert est.stderr > 0

    def test_identity_argument(self):
        est = sph.phi_lambda(2, np.zeros(2), [0.0, 0.0], N=100, seed=3)
        assert est.value == pytest.approx(1.0, abs=1e-15)

    def test_matches_sl2_closed_form(self):
        # lambda = 0 corresponds to s = 1/2
        t = 0.9
        est = sph.phi_lambda(2, np.zeros(2), [t, -t], N=200_000, seed=11)
        oracle = sl2_phi_oracle(0.5, t)
        assert abs(est.value - oracle) <= 4 * est.stderr

    def test_weyl_flip_invariance(self):
        # rank-one sign flip: phi_lambda = phi_{-lambda} within noise
        rd = build_sln(2)
        lam = rd.covector([Fraction(1, 3)])
        a = sph.phi_lambda(2, lam, [0.8, -0.8], N=150_000, seed=21)
        b = sph.phi_lambda(2, Fraction(-1) * lam, [0.8, -0.8], N=150_000, seed=22)
        assert abs(a.value - b.value) <= 4 * math.hypot(a.stderr, b.stderr)

    def test_imaginary_parameter_real_estimate(self):
        est = sph.phi_lambda(2, np.array([0.5j, -0.5j]), [1.0, -1.0],
                             N=50_000, seed=9)
        assert est.imag_value is not None
        assert abs(est.imag_value) <= 4 * max(est.imag_stderr, 1e-12)
        assert 0 < est.value <= 1.0 + 4 * est.stderr

    def test_determinism_bit_for_bit(self):
        a = sph.phi_lambda(3, np.zeros(3), [1.0, 0.0, -1.0], N=10_000, seed=77)
        b = sph.phi_lambda(3, np.zeros(3), [1.0, 0.0, -1.0], N=10_000, seed=77)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_positivity_and_decay(self):
        est = sph.phi_lambda(3, np.zeros(3), [2.0, 0.0, -2.0], N=50_000, seed=13)
        assert 0.0 < est.value < 1.0

    def test_stderr_scaling(self):
        lam = np.zeros(2)
        small = sph.phi_lambda(2, lam, [1.0, -1.0], N=10_000, seed=40)
        large = sph.phi_lambda(2, lam, [1.0, -1.0], N=100_000, seed=41)
        ratio = small.stderr / large.stderr
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_per_sample_H_matches_qr_pipeline(self, n, monkeypatch):
        # each chunk's Haar draw replays from the seed's PCG64 normals, and
        # its sweep gives H(k e^H) as LAPACK QR of k e^H does
        draws, sweeps = [], []
        haar_batch = sph._haar_batch

        def recording_draw(*args):
            draws.append(haar_batch(*args))
            return draws[-1].copy()

        def recording_sweep(rows):
            sweeps.append((rows.copy(), iwasawa_H_rows(rows)))
            return sweeps[-1][1]

        monkeypatch.setattr(sph, "_haar_batch", recording_draw)
        monkeypatch.setattr(sph, "iwasawa_H_rows", recording_sweep)
        H = np.linspace(0.9, -0.9, n)
        N = sph._CHUNK + 1000
        est = sph.phi_lambda(n, np.zeros(n), H, N, seed=100 + n)
        assert len(draws) == len(sweeps) == 2
        rng = np.random.default_rng(100 + n)
        want = []
        for count, k, (rows, got) in zip((sph._CHUNK, 1000), draws, sweeps):
            x = rng.standard_normal((n * (n + 1) // 2 - 1, count))
            assert np.array_equal(k, sph._reflector_product(n, x).transpose(2, 0, 1))
            assert np.abs(np.swapaxes(k, -1, -2) @ k - np.eye(n)).max() <= 1e-13
            assert np.array_equal(rows, (k * np.exp(H)).transpose(1, 2, 0))
            want.append(qr_H_oracle(k * np.exp(H)))
            assert np.abs(got.T - want[-1]).max() <= 1e-13
        oracle = np.exp(np.concatenate(want) @ sph._rho_e(n)).mean()
        assert est.value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_legendre_function(self, s, t):
        # on SL(2), phi at lambda = (s/2, -s/2) and H = (t/2, -t/2) is the
        # Legendre function P_nu(cosh t) with nu = (s - 1)/2
        nu = (s - 1.0) / 2.0
        exact = hyp2f1(-nu, nu + 1.0, 1.0, (1.0 - math.cosh(t)) / 2.0)
        est = sph.phi_lambda(2, [s / 2, -s / 2], [t / 2, -t / 2], N=1 << 17, seed=17)
        assert abs(est.value - exact) <= 4 * est.stderr

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 12), st.data())
    def test_row_flag_identity_on_nearly_dependent_rows(self, seed, n, digits, data):
        # H(k D) = H(Z D) - H(Z) with rows i and j of some samples 10^-digits apart
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n, 16))
        z[j, :, :8] = z[i, :, :8] + 10.0 ** -digits * rng.standard_normal((n, 8))
        H = rng.uniform(-1.0, 1.0, n)
        D = np.exp(H - H.mean())
        got = iwasawa_H_rows(z * D[None, :, None]) - iwasawa_H_rows(z.copy())
        want = qr_H_oracle(qr_flag_oracle(z) * D)
        kappa = np.linalg.cond(np.moveaxis(z, -1, 0))
        assert (np.abs(got.T - want).max(axis=1) <= 8 * EPS * kappa).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_cgs2_pipeline(self, n):
        H = np.linspace(0.8, -0.8, n)
        est = sph.phi_lambda(n, np.zeros(n), H, N=60_000, seed=300 + n)
        value, stderr = cgs2_phi_oracle(n, H, 60_000, seed=400 + n)
        assert abs(est.value - value) <= 4 * math.hypot(est.stderr, stderr)

    def test_draws_once_and_sweeps_once_per_chunk(self, monkeypatch):
        draws, sweeps = [], []
        haar_batch = sph._haar_batch

        def counting_draw(n, count, rng):
            draws.append((n, count))
            return haar_batch(n, count, rng)

        def counting_sweep(rows):
            sweeps.append(rows.shape)
            return iwasawa_H_rows(rows)

        monkeypatch.setattr(sph, "_haar_batch", counting_draw)
        monkeypatch.setattr(sph, "iwasawa_H_rows", counting_sweep)
        sph.phi_lambda(3, np.zeros(3), [0.5, 0.0, -0.5], N=2 * sph._CHUNK + 7, seed=5)
        assert draws == [(3, sph._CHUNK)] * 2 + [(3, 7)]
        assert sweeps == [(3, 3, sph._CHUNK)] * 2 + [(3, 3, 7)]

    def test_rejects_bad_H(self):
        with pytest.raises(ValueError):
            sph.phi_lambda(2, np.zeros(2), [1.0, 1.0], N=10, seed=0)

    def test_rejects_no_samples(self):
        for N in (0, -1):
            with pytest.raises(ValueError, match="at least one sample"):
                sph.phi_lambda(2, np.zeros(2), [0.5, -0.5], N=N, seed=0)

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            sph.phi_lambda(1, np.zeros(1), [0.0], N=10, seed=0)
        with pytest.raises(ValueError):
            sph.haar_orthogonal(1, seed=0)


class TestEstimateJson:
    def test_noise_flag_is_reported(self):
        noisy = sph.MCEstimate(value=0.1, stderr=0.2, samples=100, seed=1)
        clean = sph.MCEstimate(value=1.0, stderr=0.01, samples=100, seed=1)
        assert noisy.to_json_dict()["noisy"] is True
        assert clean.to_json_dict()["noisy"] is False


class TestPhiZeroBound:
    def test_sl2_bound(self):
        report = sph.phi_zero_bound_check(2, [2.0, -2.0], N=100_000, seed=2)
        assert report["pass"], report

    def test_sl3_rho_direction(self):
        H = np.array([1.0, 0.0, -1.0])
        report = sph.phi_zero_bound_check(3, H, N=100_000, seed=4)
        assert report["pass"]

    def test_trivial_at_identity(self):
        report = sph.phi_zero_bound_check(2, [0.0, 0.0], N=100, seed=5)
        assert report["pass"]
        assert report["detail"]["bound"] == pytest.approx(1.0)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            sph.phi_zero_bound_check(2, [1.0, -1.0], N=0, seed=5)


class TestLogConvexity:
    def test_segment_zero_to_rho_sl2(self):
        rd = build_sln(2)
        report = sph.logconvexity_check(
            2, [1.2, -1.2], rd.covector([0] * rd.rank), rho(rd),
            grid=[0.0, 0.25, 0.5, 0.75, 1.0], N=60_000, seed=8,
        )
        assert report["pass"], report

    def test_degenerate_segment(self):
        rd = build_sln(2)
        report = sph.logconvexity_check(
            2, [1.0, -1.0], rho(rd), rho(rd),
            grid=[0.0, 0.5, 1.0], N=1000, seed=10,
        )
        assert report["pass"]
        assert max(abs(v) for v in report["detail"]["log_values"]) <= 1e-12

    def test_interior_below_endpoints(self):
        # endpoints +-rho both give 1; convexity pushes the interior below 1
        rd = build_sln(2)
        report = sph.logconvexity_check(
            2, [1.5, -1.5], Fraction(-1) * rho(rd), rho(rd),
            grid=[0.0, 0.25, 0.5, 0.75, 1.0], N=60_000, seed=12,
        )
        assert report["pass"]
        logs = report["detail"]["log_values"]
        assert logs[2] <= 1e-2  # middle point at lambda = 0, phi <= 1ish

    def test_rejects_no_samples(self):
        rd = build_sln(2)
        with pytest.raises(ValueError, match="at least one sample"):
            sph.logconvexity_check(2, [1.0, -1.0], rho(rd), rho(rd),
                                   grid=[0.0, 0.5, 1.0], N=0, seed=10)


class TestCFunction:
    def test_at_rho_is_one(self):
        for rd in (build_rank_one("HnR", 3), build_rank_one("H2O", 2), build_sln(3)):
            assert sph.c_function(rd, rho(rd)) == pytest.approx(1.0)

    def test_conjugation_symmetry_imaginary(self):
        rd = build_rank_one("HnR", 3)
        lam = np.array([1.0j])
        a = sph.c_function(rd, -lam)
        b = np.conj(sph.c_function(rd, lam))
        assert abs(a - b) <= 1e-12

    def test_octonionic_at_two_rho(self):
        rd = build_rank_one("H2O", 2)
        val = sph.c_function(rd, Fraction(2) * rho(rd))
        assert np.isfinite(val)
        assert val != 0

    def test_rank_one_real_oracle(self):
        # the Gindikin-Karpelevich product for H2O written out by hand:
        # Beta(m_a/2, <nu, a>/<a, a>) Beta(m_2a/2, m_a/4 + <nu, 2a>/<2a, 2a>)
        # with (m_a, m_2a) = (8, 7)
        rd = build_rank_one("H2O", 2)
        from scipy.special import beta as beta_fn

        lam = rd.covector([5])

        def I(s):
            return beta_fn(4.0, s) * beta_fn(3.5, 2.0 + s / 2.0)

        expected = I(5.0) / I(11.0)
        assert sph.c_function(rd, lam) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family,n", [("HnR", 4), ("HnC", 3), ("HnH", 2), ("H2O", 2)])
    @pytest.mark.parametrize("fraction", [Fraction(1, 2), Fraction(4, 5)])
    def test_rank_one_matches_jacobi_limit(self, family, n, fraction):
        # c(s) = lim e^{(rho - s) t} phi_s(t) with phi_s the Jacobi function
        # 2F1((rho + s)/2, (rho - s)/2; (m_a + m_2a + 1)/2; -sinh^2 t) of a
        # unit simple root; at t = 14 the neglected terms are below 1e-8
        rd = build_rank_one(family, n)
        mult = dict(rd.root_coords)
        m_a, m_2a = mult[(1,)], mult.get((2,), 0)
        r = (m_a + 2 * m_2a) / 2.0
        assert float(rho(rd).coords[0]) == r
        s, t = float(fraction) * r, 14.0
        limit = math.exp((r - s) * t) * hyp2f1(
            (r + s) / 2.0, (r - s) / 2.0, (m_a + m_2a + 1) / 2.0, -math.sinh(t) ** 2)
        c = sph.c_function(rd, fraction * rho(rd))
        assert c.imag == 0.0
        assert c.real == pytest.approx(limit, rel=1e-8)

    def test_pole_detection(self):
        rd = build_rank_one("HnR", 3)
        with pytest.raises(sph.PoleError):
            sph.c_function(rd, rd.covector([0]))  # Beta(m/2, 0) pole

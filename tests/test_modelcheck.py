import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from symgeo import modelcheck as mc
from symgeo.hesspec import iwasawa_exp_spectrum, iwasawa_linear_spectrum
from symgeo.rootdata import build_rank_one, build_sln, rho


def random_sl(rng, n):
    while True:
        g = rng.normal(size=(n, n))
        det = np.linalg.det(g)
        if abs(det) > 1e-3:
            return g / np.sign(det) / abs(det) ** (1.0 / n)


class TestMatrixPoint:
    def test_sl_membership(self):
        mc.MatrixPoint(np.eye(3))
        with pytest.raises(ValueError):
            mc.MatrixPoint(2 * np.eye(3))

    def test_so_n1_membership(self):
        t = 0.7
        boost = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        g = np.eye(3)
        g[:2, :2] = boost
        mc.MatrixPoint(g, group="SOn1")
        with pytest.raises(ValueError):
            mc.MatrixPoint(np.diag([2.0, 1.0, 1.0]), group="SOn1")


def adjoint_form(X, Y):
    """tr(ad X ad Y) evaluated on the full matrix basis.

    The scalar matrices are central and contribute nothing, so the gl-trace
    equals the sl-trace of the adjoint composition."""
    n = X.shape[0]
    total = 0.0
    for a in range(n):
        for b in range(n):
            E = np.zeros((n, n))
            E[a, b] = 1.0
            W = X @ (Y @ E - E @ Y) - (Y @ E - E @ Y) @ X
            total += W[a, b]
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_killing_constant_oracle(n):
    # the invariant form on sl(n) is 2n times the trace form
    rng = np.random.default_rng(n)
    for _ in range(5):
        X = rng.normal(size=(n, n))
        Y = rng.normal(size=(n, n))
        X -= np.trace(X) / n * np.eye(n)
        Y -= np.trace(Y) / n * np.eye(n)
        assert adjoint_form(X, Y) == pytest.approx(2 * n * np.trace(X @ Y), abs=1e-10)


def gram_defect(frame) -> float:
    """Largest entry of the frame's Gram matrix under 2n tr(XY) minus the
    identity."""
    gram = 2 * frame.n * np.einsum("aij,bji->ab", frame.vectors, frame.vectors)
    return float(np.abs(gram - np.eye(len(frame.vectors))).max())


class TestFrame:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_orthonormal(self, n):
        frame = mc.sl_frame(n)
        assert len(frame.vectors) == n * (n + 1) // 2 - 1
        assert gram_defect(frame) <= 1e-10

    def test_frame_is_one_array(self):
        frame = mc.sl_frame(4)
        assert isinstance(frame.vectors, np.ndarray)
        assert frame.vectors.shape == (9, 4, 4)
        assert len(frame.labels) == 9

    def test_gram_defect_sees_a_bad_vector(self):
        frame = mc.sl_frame(3)
        vectors = frame.vectors.copy()
        vectors[2] *= 1.5
        assert gram_defect(mc.TangentFrame(3, vectors, frame.labels)) == pytest.approx(1.25)

    def test_vectors_symmetric_traceless(self):
        frame = mc.sl_frame(4)
        for v in frame.vectors:
            assert abs(np.trace(v)) < 1e-14
            assert np.allclose(v, v.T)


class TestIwasawa:
    def test_identity(self):
        assert np.allclose(mc.iwasawa_H(np.eye(4)), 0.0)

    def test_diagonal(self):
        g = np.diag([math.e, 1.0 / math.e])
        assert np.allclose(mc.iwasawa_H(g), [1.0, -1.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reconstruction_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            g = random_sl(rng, n)
            n_mat, H, k = mc.iwasawa_nak(g)
            assert np.abs(n_mat @ np.diag(np.exp(H)) @ k - g).max() <= 1e-10
            assert np.allclose(np.tril(n_mat, -1), 0.0)
            assert np.allclose(np.diag(n_mat), 1.0)
            assert np.abs(k @ k.T - np.eye(n)).max() <= 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        gs = np.stack([random_sl(rng, 3) for _ in range(17)])
        hs = mc.iwasawa_H_batch(gs)
        for g, h in zip(gs, hs):
            assert np.allclose(h, mc.iwasawa_H(g))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
    def test_batch_matches_factorization(self, seed, n, data):
        # SL(n) elements u e^s v with log singular values s in [-3, 3]
        rng = np.random.default_rng(seed)
        s = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        s -= s.mean()
        s *= min(1.0, 3.0 / max(np.abs(s).max(), 1e-300))
        gs = []
        for _ in range(8):
            u = np.linalg.qr(rng.normal(size=(n, n)))[0]
            v = np.linalg.qr(rng.normal(size=(n, n)))[0]
            g = (u * np.exp(s)) @ v
            if np.linalg.det(g) < 0:
                g[0] *= -1.0
            gs.append(g)
        hs = mc.iwasawa_H_batch(np.stack(gs))
        for g, h in zip(gs, hs):
            assert np.linalg.det(g) == pytest.approx(1.0, rel=1e-9)
            assert np.abs(h - mc.iwasawa_nak(g)[1]).max() <= 1e-12

    def test_left_unipotent_invariance(self):
        rng = np.random.default_rng(11)
        g = random_sl(rng, 3)
        u = np.eye(3)
        u[0, 1], u[0, 2], u[1, 2] = 0.3, -1.2, 0.8
        assert np.allclose(mc.iwasawa_H(u @ g), mc.iwasawa_H(g))

    def test_right_orthogonal_invariance(self):
        rng = np.random.default_rng(12)
        g = random_sl(rng, 4)
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        assert np.allclose(mc.iwasawa_H(g @ q), mc.iwasawa_H(g))


class TestCartan:
    def test_identity_and_diagonal(self):
        assert np.allclose(mc.cartan_a(np.eye(3)), 0.0)
        a = mc.cartan_a(np.diag([4.0, 1.0, 0.25]))
        assert np.allclose(a, [math.log(4), 0.0, -math.log(4)])

    def test_bi_invariance(self):
        rng = np.random.default_rng(5)
        g = random_sl(rng, 4)
        k1 = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        k2 = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        assert np.abs(mc.cartan_a(k1 @ g @ k2) - mc.cartan_a(g)).max() <= 1e-10

    def test_weyl_chamber(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = mc.cartan_a(random_sl(rng, 5))
            assert all(a[i] >= a[i + 1] - 1e-12 for i in range(4))


def fd_hessian_loop(F, frame, h):
    """Per-point oracle for fd_hessian: one F call per stencil point, on a
    single matrix, in the order of the scalar implementation it replaced."""
    f0 = F(np.eye(frame.n))

    def second_diff(y):
        return (F(mc._expm_sym(h * y)) - 2.0 * f0 + F(mc._expm_sym(-h * y))) / (h * h)

    d = len(frame.vectors)
    M = np.zeros((d, d))
    for a in range(d):
        M[a, a] = second_diff(frame.vectors[a])
    for a in range(d):
        for b in range(a + 1, d):
            plus = second_diff(frame.vectors[a] + frame.vectors[b])
            minus = second_diff(frame.vectors[a] - frame.vectors[b])
            M[a, b] = M[b, a] = (plus - minus) / 4.0
    return M


class TestFDHessian:
    def test_constant_function(self):
        frame = mc.sl_frame(2)
        M = mc.fd_hessian(lambda gs: np.ones(gs.shape[:-2]), frame, 1e-3)
        assert np.abs(M).max() <= 1e-8

    def test_sl2_linear(self):
        rd = build_sln(2, "Killing")
        M, _ = mc.fd_model_hessian(2, rd.simple_roots[0], 1e-3)
        eigs = np.sort(np.linalg.eigvalsh(M))
        assert np.allclose(eigs, [-0.5, 0.0], atol=1e-4)

    def test_sl3_exp_matches_closed_form(self):
        rd = build_sln(3, "Killing")
        xi = rho(rd)
        report = mc.verify_iwasawa_spectrum(3, xi, h=1e-3, tol=1e-3, exp=True)
        assert report["pass"], report

    def test_verify_reports(self):
        rd = build_sln(2, "Killing")
        r1 = mc.verify_iwasawa_spectrum(2, rd.simple_roots[0], h=1e-3, tol=1e-3)
        assert r1["pass"]
        rd3 = build_sln(3, "Killing")
        r2 = mc.verify_iwasawa_spectrum(3, Fraction(2) * rho(rd3), h=1e-3, tol=1e-3)
        assert r2["pass"]

    def test_negated_oracle_detected(self):
        # a sign-flipped oracle must be detected, and the labeled diagonal
        # entry differs from it by 2 <alpha, xi>
        rd = build_sln(3, "Killing")
        xi = rd.simple_roots[0]
        M, frame = mc.fd_model_hessian(3, xi, 1e-3)
        closed = iwasawa_linear_spectrum(rd, xi)
        wrong = [-float(v) for v in closed.values()]
        err = mc.spectrum_error(np.linalg.eigvalsh(M), wrong)
        assert err > 1e-3  # far beyond the verification tolerance
        from symgeo.rootdata import pair

        idx = frame.labels.index(("E", (1, 2)))
        pairing = float(pair(rd, rd.simple_roots[0], xi))
        gap = abs(M[idx, idx] - pairing)  # FD gives -pairing, oracle +pairing
        assert gap == pytest.approx(2.0 * pairing, rel=1e-3)

    def test_richardson_order_two_over_a_decade(self):
        rd = build_sln(2, "Killing")
        xi = rd.simple_roots[0]
        closed = iwasawa_exp_spectrum(rd, xi)
        hs = (5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 5e-4)
        errors = []
        for h in hs:
            M, _ = mc.fd_model_hessian(2, xi, h, exp=True)
            errors.append(mc.spectrum_error(np.linalg.eigvalsh(M), closed.values()))
        for e_big, e_small in zip(errors[:3], errors[1:4]):
            assert 2.5 <= e_big / e_small <= 6.0
        # across the full decade the error drops by about 10^2
        assert 50.0 <= errors[0] / errors[-1] <= 200.0

    def test_step_bounds(self):
        frame = mc.sl_frame(2)
        with pytest.raises(ValueError):
            mc.fd_hessian(lambda gs: np.zeros(gs.shape[:-2]), frame, 1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stencil_value_raises(self, bad):
        # F is finite everywhere but at the single stencil point exp(h Y_1)
        frame = mc.sl_frame(3)
        h = 1e-3
        target = mc._expm_sym(h * frame.vectors[1])

        def F(gs):
            hit = np.isclose(gs, target, rtol=0.0, atol=1e-15).all(axis=(-2, -1))
            return np.where(hit, bad, 0.0)

        with pytest.raises(ValueError, match="during differencing"):
            mc.fd_hessian(F, frame, h)

    def test_non_finite_base_value_raises(self):
        frame = mc.sl_frame(3)

        def F(gs):
            base = np.isclose(gs, np.eye(3), rtol=0.0, atol=0.0).all(axis=(-2, -1))
            return np.where(base, np.nan, 0.0)

        with pytest.raises(ValueError, match="base point"):
            mc.fd_hessian(F, frame, 1e-3)

    @pytest.mark.parametrize("n", list(mc.MODEL_SIZES))
    @pytest.mark.parametrize("exp", [False, True])
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_batched_stencil_matches_loop_oracle(self, n, exp, h):
        rd = build_sln(n, "Killing")
        xi = rho(rd)
        M, frame = mc.fd_model_hessian(n, xi, h, exp=exp)
        F = mc.exp_coordinate_function(xi) if exp else mc.linear_coordinate_function(xi)
        M_loop = fd_hessian_loop(F, frame, h)
        assert np.all(np.abs(M - M_loop) <= 1e-7 * np.maximum(1.0, np.abs(M_loop)))

    @pytest.mark.parametrize("n", list(mc.MODEL_SIZES))
    def test_stencil_is_one_batched_call(self, n, monkeypatch):
        # a per-point loop over the stencil would call iwasawa_H_batch
        # O(d^2) times
        calls = []
        batch = mc.iwasawa_H_batch

        def counting(gs):
            calls.append(np.shape(gs))
            return batch(gs)

        monkeypatch.setattr(mc, "iwasawa_H_batch", counting)
        xi = rho(build_sln(n, "Killing"))
        for exp in (False, True):
            calls.clear()
            mc.fd_model_hessian(n, xi, 1e-3, exp=exp)
            assert 1 <= len(calls) <= 2

    def test_symmetry_by_construction(self):
        rd = build_sln(3, "Killing")
        M, _ = mc.fd_model_hessian(3, rho(rd), 1e-3, exp=True)
        assert np.abs(M - M.T).max() == 0.0


class TestBusemann:
    def test_base_point(self):
        x = np.array([1.0, 0.0, 0.0])
        assert mc.busemann_hyperboloid(x, [1.0, 0.0]) == pytest.approx(0.0)

    def test_along_ray(self):
        theta = np.array([0.0, 1.0])
        for t in (0.3, 1.0, 2.5):
            toward = mc.hyperboloid_point(t, theta)
            away = mc.hyperboloid_point(t, -theta)
            assert mc.busemann_hyperboloid(toward, theta) == pytest.approx(-t, abs=1e-12)
            assert mc.busemann_hyperboloid(away, theta) == pytest.approx(t, abs=1e-12)

    def test_rejects_off_hyperboloid(self):
        with pytest.raises(ValueError):
            mc.busemann_hyperboloid([2.0, 0.0, 0.0], [1.0, 0.0])

    def test_gradient_norm_one_numerically(self):
        # horofunctions are 1-Lipschitz with unit gradient along geodesics
        theta = np.array([1.0, 0.0])
        h = 1e-5
        for t in (0.5, 1.5):
            b1 = mc.busemann_hyperboloid(mc.hyperboloid_point(t + h, theta), theta)
            b0 = mc.busemann_hyperboloid(mc.hyperboloid_point(t - h, theta), theta)
            assert (b1 - b0) / (2 * h) == pytest.approx(-1.0, abs=1e-8)


class TestCutoff:
    def test_plateaus(self):
        assert mc.cutoff_chi(-0.1) == 1.0
        assert mc.cutoff_chi(1.1) == 0.0
        assert mc.cutoff_chi(0.5) == pytest.approx(0.5)

    def test_slope_bound(self):
        us = np.linspace(0, 1, 2001)
        vals = np.array([mc.cutoff_chi(u) for u in us])
        slopes = np.diff(vals) / np.diff(us)
        assert slopes.min() >= -2.0
        assert slopes.min() == pytest.approx(-15.0 / 8.0, abs=1e-3)

    def test_monotone(self):
        us = np.linspace(-0.5, 1.5, 500)
        vals = [mc.cutoff_chi(u) for u in us]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def quad_profile(k: int, r: float) -> float:
    """The mass profile by adaptive quadrature of its definition (QUADPACK)."""
    upper = mc.smooth_distance_inverse(r + 1.0) + 1e-9
    val, _ = quad(
        lambda t: mc.cutoff_chi(mc.smooth_distance(t) - r) * math.sinh(t) ** (k - 1),
        0.0, upper, epsabs=1e-12, epsrel=1e-12, limit=300,
    )
    return mc.sphere_area(k) * val


def mpmath_profile(k: int, r: float):
    """The mass profile to 30 digits, split where the cutoff starts and ends."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)

        def f_inv(s):
            x = mpmath.exp(2 * s) / 2
            return mpmath.acosh(x) / 2 if x > 1 else mpmath.mpf(0)

        def integrand(t):
            u = mpmath.log(2 * mpmath.cosh(2 * t)) / 2 - r
            chi = 1 if u <= 0 else 0 if u >= 1 else 1 - u ** 3 * (10 - 15 * u + 6 * u * u)
            return chi * mpmath.sinh(t) ** (k - 1)

        a, b = f_inv(r), f_inv(r + 1)
        val = mpmath.quad(integrand, [0, a, b] if a > 0 else [0, b])
        return 2 * mpmath.pi ** (mpmath.mpf(k) / 2) / mpmath.gamma(mpmath.mpf(k) / 2) * val


class TestBallVolume:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_mpmath(self, k):
        # across the switch from the series to the recursion at sinh T = 1/2
        for T in (1e-3, 0.3, 0.48, 0.49, 0.5, 1.0, 3.0, 12.0):
            with mpmath.workdps(30):
                exact = mpmath.quad(lambda t: mpmath.sinh(t) ** (k - 1), [0, T])
            assert float(mc.ball_volume(k, T)) == pytest.approx(float(exact), rel=1e-14)

    def test_small_radius_is_euclidean(self):
        # V(T) = T^k / k + O(T^(k+2)): no cancellation left at tiny radii
        for k in (2, 3, 4, 5):
            assert float(mc.ball_volume(k, 1e-8)) == pytest.approx(1e-8 ** k / k, rel=1e-15)

    def test_arrays_and_low_k(self):
        T = np.array([0.1, 0.7, 2.0])
        assert mc.ball_volume(3, T) == pytest.approx([float(mc.ball_volume(3, t)) for t in T])
        assert float(mc.ball_volume(2, 0.0)) == 0.0
        with pytest.raises(ValueError):
            mc.ball_volume(1, 1.0)


class TestMonotonicityProfile:
    def test_matches_quad_on_default_grid(self):
        for n in (4, 5, 6):
            rd = build_rank_one("HnR", n)
            for k in range(2, n):
                for r, v in mc.monotonicity_profile(rd, k, range(9)):
                    assert v == pytest.approx(quad_profile(k, r), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_mpmath_off_grid(self, k):
        # quad misses 1e-12 at r = 0.35, 0.4 and 12; the rule does not.
        # f(0) -+ 1e-9 puts f^{-1}'s branch point just inside and just
        # outside the cutoff's support
        rd = build_rank_one("HnR", 6)
        radii = [0.35, 0.4, 12.0, mc._HALF_LOG2 - 1e-9, mc._HALF_LOG2 + 1e-9]
        for r, v in mc.monotonicity_profile(rd, k, radii):
            assert v == pytest.approx(float(mpmath_profile(k, r)), rel=1e-14)

    def test_disagreeing_rules_raise(self):
        # 10 and 20 nodes differ by about 6e-11 relative at r = 0
        with pytest.raises(mc.QuadratureError):
            mc._certified_profile(3, [0.0], 10, 20)
        assert mc._certified_profile(3, [0.0], 20, 40)[0] > 0.0

    def test_overflow_raises(self):
        rd = build_rank_one("HnR", 4)
        with pytest.raises(mc.QuadratureError):
            mc.monotonicity_profile(rd, 3, [400.0])

    def test_zero_below_the_surrogate_minimum(self):
        # f(t) - r > 1 everywhere, so the cutoff is 0 on the whole subspace
        (_, v), = mc.monotonicity_profile(build_rank_one("HnR", 3), 2, [-1.0])
        assert v == 0.0

    def test_ratio_one_at_equal_radii(self):
        rd = build_rank_one("HnR", 3)
        prof = mc.monotonicity_profile(rd, 2, [1.0, 1.0])
        assert prof[0][1] == pytest.approx(prof[1][1])

    def test_bracketed_by_sharp_cutoff(self):
        rd = build_rank_one("HnR", 6)
        for k in (2, 3, 4, 5):
            for r in (1.0, 3.0):
                (_, v), = mc.monotonicity_profile(rd, k, [r])
                assert mc.sharp_cutoff_mass(k, r) <= v <= mc.sharp_cutoff_mass(k, r + 1.0)

    def test_unit_rate_on_grid(self):
        rd = build_rank_one("HnR", 3)
        prof = mc.monotonicity_profile(rd, 2, range(7))
        logs = [math.log(v) for _, v in prof]
        for a, b in zip(logs, logs[1:]):
            assert b - a >= 1.0

    def test_growth_exponent_k3(self):
        rd = build_rank_one("HnR", 4)
        prof = mc.monotonicity_profile(rd, 3, [7.0, 8.0])
        rate = math.log(prof[1][1]) - math.log(prof[0][1])
        assert rate == pytest.approx(2.0, rel=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mc.monotonicity_profile(build_rank_one("HnC", 2), 2, [1.0])
        with pytest.raises(ValueError):
            mc.monotonicity_profile(build_rank_one("HnR", 3), 3, [1.0])


class TestSharpCutoffMass:
    @pytest.mark.parametrize("k", [4, 5])
    def test_matches_mpmath(self, k):
        for r in (0.4, 1.0, 3.0):
            with mpmath.workdps(30):
                T = mpmath.acosh(mpmath.exp(2 * mpmath.mpf(r)) / 2) / 2
                exact = (2 * mpmath.pi ** (mpmath.mpf(k) / 2) / mpmath.gamma(mpmath.mpf(k) / 2)
                         * mpmath.quad(lambda t: mpmath.sinh(t) ** (k - 1), [0, T]))
            assert mc.sharp_cutoff_mass(k, r) == pytest.approx(float(exact), rel=1e-14)

    def test_low_dimensions_in_closed_form(self):
        for r in (0.4, 2.0):
            T = mc.smooth_distance_inverse(r)
            assert mc.sharp_cutoff_mass(2, r) == pytest.approx(
                2 * math.pi * (math.cosh(T) - 1.0), rel=1e-13)
            assert mc.sharp_cutoff_mass(3, r) == pytest.approx(
                2 * math.pi * (math.sinh(T) * math.cosh(T) - T), rel=1e-13)

    def test_zero_below_the_surrogate_minimum(self):
        assert mc.sharp_cutoff_mass(4, 0.2) == 0.0

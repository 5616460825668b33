"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
time budget and prints a single PASS line on success (run with -s to see
them).  Budgets are wall-clock upper bounds for the criterion's computation.
"""

import time
from fractions import Fraction

import numpy as np

from symgeo import hesspec, modelcheck, spherical
from symgeo.exponents import (
    cx,
    gap_covector,
    golden_cx,
    golden_kappa,
    kappa,
    omega_contains,
    r_lower_bound,
    sln_intermediate_trace,
    sln_closed_form_bound,
    stationary_codims,
)
from symgeo.ffengine import flat_torus_complex, homology
from symgeo.ffengine.suite import run_deformation_suite
from symgeo.hesspec import Spectrum, iwasawa_exp_spectrum, tau_k
from symgeo.rootdata import (
    build_rank_one,
    build_sln,
    norm_sq,
    pair,
    rho,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds:g}s budget: {elapsed:.2f}s"
            )
            print(f"[PASS] {self.name} ({elapsed:.2f}s)")


def test_criterion_1_table_reproduction():
    with Budget("criterion 1: exact table reproduction", 1.0):
        expected_mult = {
            "HnR": lambda n: (n - 1, 0),
            "HnC": lambda n: (2 * n - 2, 1),
            "HnH": lambda n: (4 * n - 4, 3),
            "H2O": lambda n: (8, 7),
        }
        for family, rule in expected_mult.items():
            for n in ([2] if family == "H2O" else range(2, 7)):
                rd = build_rank_one(family, n)
                assert (rd.m_alpha, rd.m_2alpha) == rule(n)
                assert rd.dim_X == 1 + rd.m_alpha + rd.m_2alpha
                for k in range(1, rd.dim_X + 1):
                    assert kappa(rd, k) == golden_kappa(family, n, k)
                for d in range(rd.dim_X + 1):
                    assert cx(rd, d) == golden_cx(family, n, d)
        # spot values straight from the published rows
        h2o = build_rank_one("H2O", 2)
        assert kappa(h2o, 14) == 18 and kappa(h2o, 15) == 20
        assert cx(h2o, 2) == 18 and cx(h2o, 10) == 5
        assert all(
            kappa(build_rank_one("HnR", n), k) == k - 1
            for n in range(2, 7)
            for k in range(1, n + 1)
        )


def test_criterion_2_octonionic_spectrum():
    with Budget("criterion 2: octonionic spectrum, codimension gap", 1.0):
        rd = build_rank_one("H2O", 2)
        s = Fraction(16)
        spec = iwasawa_exp_spectrum(rd, s * rd.alpha)
        spec = Spectrum.from_pairs((v / s, m) for v, m in spec.entries)
        assert spec.entries == (
            (Fraction(16), 1),
            (Fraction(-1), 8),
            (Fraction(-2), 7),
        )
        assert tau_k(spec, 14) == -2
        assert r_lower_bound(rd) == 2


def test_criterion_3_sln_enumeration():
    with Budget("criterion 3: SL(n) enumeration and trace arithmetic", 5.0):
        for n in range(8, 33):
            assert r_lower_bound(build_sln(n)) >= sln_closed_form_bound(n)
        # the full trace follows the intermediate expression, not the
        # printed collected form
        rd4 = build_sln(4, "TraceForm")
        xi = gap_covector(rd4)
        trace = norm_sq(rd4, xi) - sum(pair(rd4, a, xi) for a, _ in rd4.positive_roots)
        assert trace == sln_intermediate_trace(4) == -3
        for n in (4, 8, 16, 24, 32):
            rd = build_sln(n, "TraceForm")
            xi = gap_covector(rd)
            trace = norm_sq(rd, xi) - sum(
                pair(rd, a, xi) for a, _ in rd.positive_roots
            )
            assert trace == sln_intermediate_trace(n)
            m = Fraction(n, 2)
            assert trace != -m * m + Fraction(11, 6) * m


def test_criterion_4_stationary_codims():
    with Budget("criterion 4: stationary codimension set", 1.0):
        assert stationary_codims(build_rank_one("H2O", 2)) == {14, 15}
        for family in ("HnR", "HnC", "HnH"):
            for n in range(2, 7):
                rd = build_rank_one(family, n)
                # brute force over every codimension
                hits = {k for k in range(1, rd.dim_X) if kappa(rd, k) > rd.dim_X}
                assert stationary_codims(rd) == hits == set()


def test_criterion_5_finite_difference_hessian():
    with Budget("criterion 5: finite-difference Hessian verification", 30.0):
        for n in (2, 3):
            rd = build_sln(n, "Killing")
            for xi in (rd.simple_roots[0], rho(rd)):
                for exp in (False, True):
                    report = modelcheck.verify_iwasawa_spectrum(
                        n, xi, h=1e-3, tol=1e-3, exp=exp
                    )
                    assert report["pass"], report
                    closed = (
                        iwasawa_exp_spectrum(rd, xi)
                        if exp
                        else hesspec.iwasawa_linear_spectrum(rd, xi)
                    )
                    errs = []
                    for h in (1e-3, 5e-4):
                        M, _ = modelcheck.fd_model_hessian(n, xi, h, exp=exp)
                        errs.append(
                            modelcheck.spectrum_error(
                                np.linalg.eigvalsh(M), closed.values()
                            )
                        )
                    if errs[0] > 1e-6:
                        # ratio is meaningful only above the roundoff floor
                        assert 2.5 <= errs[0] / errs[1] <= 6.0, (n, xi.coords, exp, errs)
                    else:
                        assert errs[1] < 1e-6


def test_criterion_6_monotonicity_profile():
    with Budget("criterion 6: mass-profile monotonicity", 10.0):
        rd = build_rank_one("HnR", 4)
        for k in (2, 3):
            profile = modelcheck.monotonicity_profile(rd, k, range(9))
            margins = modelcheck.monotonicity_margins(profile, float(k - 1))
            assert len(margins) == 36
            assert min(margins) >= 0.0, f"k={k}: margin {min(margins)}"


def test_criterion_7_spherical_identities():
    with Budget("criterion 7: spherical identities", 120.0):
        N = 100_000
        cases = {
            2: [0.5, 1.25, 2.0],
            3: [0.4, 0.8, 1.2],
        }
        for n, ts in cases.items():
            rd = build_sln(n)
            direction = np.linspace(1.0, -1.0, n)
            direction -= direction.mean()
            for i, t in enumerate(ts):
                H = t * direction
                est = spherical.phi_lambda(
                    n, Fraction(-1) * rho(rd), H, N, seed=1000 + 10 * n + i
                )
                assert abs(est.value - 1.0) <= 4 * est.stderr, (n, t, est)
                bound = spherical.phi_zero_bound_check(n, H, N, seed=2000 + 10 * n + i)
                assert bound["pass"], bound
            convexity = spherical.logconvexity_check(
                n,
                ts[1] * direction,
                rd.covector([0] * rd.rank),
                rho(rd),
                grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                N=60_000,
                seed=3000 + n,
            )
            assert convexity["pass"], convexity


def _omega_float_oracle(rd, coords, d):
    """Independent float evaluation of the membership predicate."""
    gram = np.array([[float(x) for x in row] for row in rd.dual_gram])
    v = np.array([float(c) for c in coords])
    eigs = [float(v @ gram @ v)] + [0.0] * (rd.rank - 1)
    for root, mult in rd.positive_roots:
        rv = np.array([float(c) for c in root.coords])
        eigs.extend([-float(rv @ gram @ v)] * mult)
    eigs.sort(reverse=True)
    return sum(eigs[: rd.dim_X - d]) < 0


def test_criterion_8_omega_convexity():
    with Budget("criterion 8: convexity of the membership cone", 10.0):
        rng = np.random.default_rng(0xF420)
        lambdas = [Fraction(i, 11) for i in range(1, 11)]

        def rank_one_sampler(rd, d):
            top = 64 * int(cx(rd, d))
            def sample():
                return Fraction(int(rng.integers(1, top)), 64) * rd.alpha
            return sample

        def sln_sampler(rd, d):
            gap = gap_covector(rd)
            def sample():
                while True:
                    t = Fraction(int(rng.integers(8, 63)), 64)
                    noise = [Fraction(int(rng.integers(-8, 9)), 64) for _ in range(rd.rank)]
                    xi = t * gap + rd.covector(noise)
                    if omega_contains(rd, xi, d):
                        return xi
            return sample

        configs = []
        for family, n, ds in [
            ("H2O", 2, (0, 1, 2)),
            ("HnC", 2, (0, 1)),
            ("HnH", 2, (0, 1)),
            ("HnR", 4, (0, 1)),
        ]:
            rd = build_rank_one(family, n)
            configs.extend((rd, d, rank_one_sampler(rd, d)) for d in ds)
        sl4 = build_sln(4)
        configs.append((sl4, 0, sln_sampler(sl4, 0)))
        sl16 = build_sln(16)
        configs.append((sl16, 1, sln_sampler(sl16, 1)))

        for rd, d, sample in configs:
            n_probes = 200 if rd.rank == 1 else 40
            for _ in range(n_probes):
                xi1, xi2 = sample(), sample()
                assert omega_contains(rd, xi1, d)
                assert omega_contains(rd, xi2, d)
                for lam in lambdas:
                    mid = lam * xi1 + (Fraction(1) - lam) * xi2
                    assert omega_contains(rd, mid, d), (rd.family, d, lam)
                t = Fraction(int(rng.integers(1, 65)), 64)
                assert omega_contains(rd, t * xi1, d)
            # float oracle agrees with the exact path on a probe sample
            for _ in range(20):
                xi = sample()
                assert _omega_float_oracle(rd, xi.coords, d)


def test_criterion_9_deformation_suite():
    with Budget("criterion 9: deformation of random chains", 120.0):
        cx_torus = flat_torus_complex(8)
        group_constants = []
        for seed in range(10):
            report = run_deformation_suite(cx_torus, n_chains=10, seed=seed)
            assert report["pass"], report
            group_constants.append(report["detail"]["c_empirical"])
        # one uniform constant bounds all groups, and the per-group constants
        # are stable within a factor of two
        C = max(group_constants)
        assert C <= 20.0
        assert C / min(group_constants) <= 2.0, group_constants


def test_torus32_betti_numbers():
    # the GF(2) homology oracle on 2048 triangles; a dense elimination took
    # 0.72-1.10 s on a 2-vCPU shared host
    cx = flat_torus_complex(32)
    with Budget("mod-2 Betti numbers of the 32x32 torus", 0.5):
        assert [homology.betti(cx, d) for d in range(3)] == [1, 2, 1]

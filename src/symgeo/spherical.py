"""Monte-Carlo evaluation of elementary spherical functions and the
meromorphic normalization factor of the spherical Plancherel density.

The spherical function is computed as the compact-group average

    phi_lambda(g) = E_k [ exp((rho - lambda)(H(k g))) ],

with k Haar-distributed in SO(n) and H the horospherical coordinate of the
g = n e^H k factorization.  With that convention phi_{rho} is identically one
with zero variance (the exponent vanishes) and phi_{-rho} is one by the Haar
averaging identity, which pins down the sign of the exponent; the identity is
exercised by the test suite.  The decay-bound and log-convexity checks
return plain check reports (``symgeo.report``).

Estimators are deterministic functions of (seed, N): samples are drawn in
fixed-size chunks from a PCG64 stream and reduced in order.  No Haar matrix
is formed.  A sample is a Gaussian matrix Z, and k is the orthogonal factor
of Z = T k with T upper triangular and positive on the diagonal.  That k is
Haar on O(n) (Mezzadri 2007): Z O has the law of Z for orthogonal O, and
k(Z O) = k(Z) O.  Row i of T g is T_ii g_i plus a combination of the rows
below it, so H(T g) = log diag T + H(g) for every g, and H(k) = 0.  Hence,
with D = e^H,

    H(k D) = H(Z D) - H(Z),

two row sweeps (``modelcheck.iwasawa_H_rows``) on the draw.  Haar on O(n)
has the same average as Haar on SO(n): reflecting the last column of k
multiplies k e^H on the right by an orthogonal diagonal matrix, which leaves
H(k e^H) unchanged.  ``haar_orthogonal`` forms one element of SO(n), as the
Q factor with positive R diagonal of a Gaussian matrix, orthonormalised by
classical Gram-Schmidt applied twice (``_haar_batch``); the estimator does
not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modelcheck import iwasawa_H_rows
from .report import check_report
from .rootdata import Covector, RootDatum, rho

_CHUNK = 1 << 15


class PoleError(ValueError):
    pass


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    imag_value: float | None = None
    imag_stderr: float | None = None

    @property
    def variance_flag(self) -> bool:
        """True when the estimate is too noisy to be meaningful."""
        return self.value != 0 and self.stderr / abs(self.value) > 0.5

    def to_json_dict(self) -> dict:
        out = {"value": self.value, "stderr": self.stderr,
               "N": self.samples, "seed": self.seed, "noisy": self.variance_flag}
        if self.imag_value is not None:
            out["imag_value"] = self.imag_value
            out["imag_stderr"] = self.imag_stderr
        return out


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """One Haar-distributed element of SO(n)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q = np.ascontiguousarray(_haar_batch(n, 1, rng)[0])
    # flipping the last column maps a sample with det -1 into SO(n)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def _haar_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-distributed elements of O(n), shape (count, n, n)."""
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


def _e_coords(lam, n: int) -> np.ndarray:
    if isinstance(lam, Covector):
        if lam.owner.family != "SLn" or lam.owner.n != n:
            raise ValueError("covector does not belong to an SLn datum of this size")
        arr = np.array([complex(c) for c in lam.e_coords()])
    else:
        arr = np.asarray(lam, dtype=complex)
        if arr.shape != (n,):
            raise ValueError(f"expected {n} e-coordinates")
    if np.abs(arr.imag).max(initial=0.0) == 0.0:
        return arr.real
    return arr


def _rho_e(n: int) -> np.ndarray:
    return np.array([(n + 1 - 2 * i) / 2.0 for i in range(1, n + 1)])


def phi_lambda(n: int, lam, H: Sequence[float], N: int, seed: int) -> MCEstimate:
    """Monte-Carlo estimate of phi_lambda(e^H) on SL(n,R).

    ``lam`` is a Covector on an SLn datum or a length-n array of
    e-coordinates (complex allowed; for purely imaginary spectral parameters
    the estimate is real and the imaginary part is reported as a diagnostic).
    """
    H = np.asarray(H, dtype=float)
    if H.shape != (n,) or abs(H.sum()) > 1e-9:
        raise ValueError("H must be a traceless coordinate vector of length n")
    w = _rho_e(n) - _e_coords(lam, n)
    # scales column k of every sample by e^{H_k}
    diag = np.exp(H)[None, :, None]
    rng = np.random.default_rng(seed)
    vals = np.empty(N, dtype=complex if np.iscomplexobj(w) else float)
    done = 0
    while done < N:
        count = min(_CHUNK, N - done)
        # z[i, k, s]: entry (i, k) of sample s, the layout of the row sweep
        z = rng.standard_normal((n, n, count))
        hs = iwasawa_H_rows(z * diag) - iwasawa_H_rows(z)
        vals[done:done + count] = np.exp(w @ hs)
        done += count
    re = vals.real if np.iscomplexobj(vals) else vals
    value = float(re.mean())
    stderr = float(re.std(ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    imag_value = imag_stderr = None
    if np.iscomplexobj(vals):
        imag_value = float(vals.imag.mean())
        imag_stderr = float(vals.imag.std(ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    return MCEstimate(value, stderr, N, seed, imag_value, imag_stderr)


def reduced_root_count(n: int) -> int:
    return n * (n - 1) // 2


def phi_zero_bound_check(n: int, H: Sequence[float], N: int, seed: int) -> dict:
    """Check phi_0(e^H) <= exp(-rho(a)) (1 + |a|)^d within Monte-Carlo noise.

    Returns a check report whose ``max_abs_err`` is the amount by which the
    estimate exceeds the bound plus four standard errors (0.0 when it holds).
    """
    H = np.asarray(H, dtype=float)
    est = phi_lambda(n, np.zeros(n), H, N, seed)
    a = np.sort(H)[::-1]
    bound = math.exp(-float(_rho_e(n) @ a)) * (1.0 + float(np.linalg.norm(a))) ** reduced_root_count(n)
    slack = bound + 4.0 * est.stderr - est.value
    return check_report(
        "phi_zero_bound",
        {"n": n, "H": H.tolist(), "N": N, "seed": seed},
        max(0.0, -slack),
        slack >= 0.0,
        {"estimate": est.to_json_dict(), "bound": bound},
    )


def logconvexity_check(n: int, H: Sequence[float], lam1, lam2,
                       grid: Sequence[float], N: int, seed: int) -> dict:
    """Discrete convexity of s -> log phi_{(1-s) lam1 + s lam2}(e^H).

    Second differences on the grid must stay above -4 times the propagated
    standard error of the log-estimates.  Returns a check report whose
    ``max_abs_err`` is the largest shortfall below that margin (0.0 when
    none falls short).
    """
    if len(grid) < 3:
        raise ValueError("need at least three grid points")
    l1, l2 = _e_coords(lam1, n), _e_coords(lam2, n)
    if np.iscomplexobj(l1) or np.iscomplexobj(l2):
        raise ValueError("log-convexity is checked for real spectral parameters")
    seeds = np.random.SeedSequence(seed).spawn(len(grid))
    logs, sigmas = [], []
    for s, sub in zip(grid, seeds):
        lam = (1.0 - s) * l1.real + s * l2.real
        est = phi_lambda(n, lam, H, N, int(sub.generate_state(1)[0]))
        logs.append(math.log(est.value))
        sigmas.append(est.stderr / est.value)
    margins = []
    for i in range(1, len(grid) - 1):
        d2 = logs[i + 1] - 2.0 * logs[i] + logs[i - 1]
        noise = math.sqrt(sigmas[i + 1] ** 2 + 4.0 * sigmas[i] ** 2 + sigmas[i - 1] ** 2)
        margins.append(d2 + 4.0 * noise)
    worst = min(margins)
    return check_report(
        "log_convexity",
        {"n": n, "H": list(map(float, H)), "N": N, "seed": seed,
         "grid": list(map(float, grid))},
        max(0.0, -worst),
        worst >= 0.0,
        {"log_values": logs, "stderr_log": sigmas},
    )


# ---------------------------------------------------------------------------
# the meromorphic normalization factor (Beta-factor product)
# ---------------------------------------------------------------------------


def _beta(z1: complex, z2: complex) -> complex:
    from scipy.special import loggamma

    return np.exp(loggamma(z1) + loggamma(z2) - loggamma(z1 + z2))


def _near_gamma_pole(z: complex, tol: float = 1e-8) -> bool:
    k = round(z.real)
    return k <= 0 and abs(z - k) < tol


def _simple_coords(lam, rank: int) -> np.ndarray:
    if isinstance(lam, Covector):
        return np.array([complex(c) for c in lam.coords])
    arr = np.asarray(lam, dtype=complex)
    if arr.shape != (rank,):
        raise ValueError(f"expected {rank} simple-root coordinates")
    return arr


def c_function(rd: RootDatum, lam) -> complex:
    """Beta-factor product normalization c(lambda) = I(lambda) / I(rho).

    I(nu) runs over the distinct positive roots alpha and multiplies
    Beta(m_alpha / 2, m_{alpha/2} / 2 + <nu, alpha> / <alpha, alpha>), where
    m_{alpha/2} is zero when alpha/2 is not a root.  Arguments within 1e-8 of
    a nonpositive integer raise :class:`PoleError`.
    """
    nu = _simple_coords(lam, rd.rank)
    rho_coords = np.array([complex(c) for c in rho(rd).coords])
    gram = np.array([[float(x) for x in row] for row in rd.dual_gram])
    mult = dict(rd.root_coords)

    def I(coords: np.ndarray) -> complex:
        total = complex(1.0)
        for root, m in rd.root_coords:
            half = tuple(c / 2 for c in root)
            m_half = mult.get(half, 0)
            rvec = np.array(root, dtype=float)
            ratio = (coords @ (gram @ rvec)) / (rvec @ (gram @ rvec))
            z1 = m / 2.0
            z2 = m_half / 2.0 + ratio
            if _near_gamma_pole(complex(z2)):
                raise PoleError(f"Beta argument {z2} is at a pole")
            total *= _beta(z1, complex(z2))
        return total

    return complex(I(nu) / I(rho_coords))

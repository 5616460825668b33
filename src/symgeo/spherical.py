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
fixed-size chunks from a PCG64 stream and reduced in order.

Haar samples come from products of Householder reflectors (Stewart 1980;
Mezzadri 2007).  Householder QR of a Gaussian matrix Z = Q R reduces one
column at a time.  Each reflector depends only on the column it reduces,
and the rest of Z, reflected, is again Gaussian and independent of it, so
the reduced columns are independent Gaussian vectors of sizes n, ..., 1.
``_haar_batch`` draws only the vectors of sizes n, ..., 2, which are
n(n+1)/2 - 1 normals, and multiplies their reflectors onto the identity,
innermost (size 2) first; it forms neither Z nor R.  Q diag(sign R_jj) is
Haar on O(n): O Z has the law of Z for orthogonal O, and that Q factor of
O Z is O times the one of Z.  That is the sign correction.  The reflector
built from x maps e_1 to -sign(x_1) x/|x|, and R_jj = -sign(x_1)|x|, so the
corrected first column of each level is x/|x|, uniform on its sphere.  The
1x1 block R_nn is an independent Gaussian whose sign is a fair coin; the
sampler takes the coin |y|^2 > log 4 from the size-2 vector y instead,
since |y|^2 is exponential with median log 4 and independent of y/|y|.

For g = n e^H k', a diagonal sign matrix S conjugates n to another upper
unipotent matrix and commutes with e^H, so S g = (S n S) e^H (S k') and
H(S g) = H(g); a right orthogonal factor leaves H unchanged too.  Hence
H(S k D S') = H(k D) for diagonal sign matrices S and S', with D = e^H:
the estimate does not see the sign conventions, and Haar on O(n) gives
the same average as Haar on SO(n).  Since k is orthonormal, H(k) = 0, and
one row sweep (``modelcheck.iwasawa_H_rows``) of k D gives H(k D).
``haar_orthogonal`` is one sample of the same sampler, with its last
column reflected when its determinant is -1, which maps Haar on O(n) onto
Haar on SO(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modelcheck import iwasawa_H_rows
from .report import check_report
from .rootdata import Covector, RootDatum, rho

_CHUNK = 1 << 13
#: the median of |x|^2 for a standard Gaussian x in R^2, which is
#: exponential with mean 2, so comparing with it is a fair coin
_LOG4 = math.log(4.0)


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
    """count Haar-distributed elements of O(n), shape (count, n, n): a view
    of storage laid out as q[i, k, sample]."""
    if n < 2:
        raise ValueError("Haar samples are drawn for n >= 2")
    x = rng.standard_normal((n * (n + 1) // 2 - 1, count))
    return _reflector_product(n, x).transpose(2, 0, 1)


def _reflector_product(n: int, x: np.ndarray) -> np.ndarray:
    """Haar samples q[i, k, sample] of O(n) from a block x of
    independent standard normals of shape (n(n+1)/2 - 1, count).

    Rows m(m-1)/2 - 1 to m(m+1)/2 - 2 of x hold the Gaussian vector of size
    m = 2, ..., n, which makes the reflector on the last m coordinates; the
    squared length of the size-2 vector gives the sign of the 1x1 block.
    """
    q = np.zeros((n, n, x.shape[1]))
    np.copysign(1.0, x[0] * x[0] + x[1] * x[1] - _LOG4, out=q[-1, -1])
    for m in range(2, n + 1):
        a = n - m
        v = x[m * (m - 1) // 2 - 1:][:m]
        # with u = v/|v|, the reflector along u + sign(u_0) e_0 maps e_0 to
        # -sign(u_0) u; the sign correction makes the level's first column u
        u = q[a:, a]
        np.divide(v, np.sqrt(np.einsum("i...,i...->...", v, v)), out=u)
        w = np.einsum("i...,ik...->k...", u[1:], q[a + 1:, a + 1:])
        np.multiply(w, np.copysign(1.0, -u[0]), out=q[a, a + 1:])
        w /= 1.0 + np.abs(u[0])
        # one row at a time, as in the row sweep, keeps the update in cache
        for i in range(1, m):
            q[a + i, a + 1:] -= u[i] * w
    return q


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
        # k[s] is a view of rows[i, k, s], the layout of the row sweep
        rows = _haar_batch(n, count, rng).transpose(1, 2, 0)
        rows *= diag
        vals[done:done + count] = np.exp(w @ iwasawa_H_rows(rows))
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

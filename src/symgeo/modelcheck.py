"""Numerical verification of the closed-form spectra in explicit matrix models.

The SL(n,R) model realizes the horospherical coordinate H(g) through the
factorization g = n e^H k (n unit upper triangular, e^H positive diagonal,
k orthogonal).  Since g g^T = n e^{2H} n^T, e^{2 H_i} is the ratio of the
trailing principal minors of g g^T of orders n - i and n - i - 1; a batched
kernel takes those Schur-complement steps on the rows of g, vectorised over
a stack of matrices.  The full factorization (n and k as well) comes from an
orthogonal-triangular decomposition of the transpose with row/column
reversal.  The polar coordinate a(g) is the vector of singular value
logarithms.  Hessians are differenced along the geodesics t -> exp(tY) K,
which are exact in the model, against an orthonormal frame of symmetric
traceless matrices for the form <X, Y> = 2n tr(XY), stored as one (d, n, n)
array.  The whole stencil of one Hessian (the base point and exp(+-hY) for
every frame vector and every sum and difference of two) is exponentiated
with one batched eigh and evaluated in one call, so a differenced function
maps a stack of matrices (..., n, n) to its values (...).  The comparison
with the closed form is returned as a plain check report
(``symgeo.report``).

The hyperboloid model supplies horofunction values for the real hyperbolic
family.  The mass growth profile of a totally geodesic subspace is
integrated by parts onto closed-form ball volumes and evaluated by two
fixed Gauss-Legendre rules that must agree, with numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hesspec import iwasawa_exp_spectrum, iwasawa_linear_spectrum
from .report import check_report
from .rootdata import Covector, RootDatum, build_sln

DEFAULT_STEP = 1e-3

#: matrix sizes and finite-difference steps the model verification accepts; below
#: h = 1e-4 the rounding of a second difference (eps |F| / h^2) outweighs its O(h^2) error
MODEL_SIZES = range(2, 7)
STEP_RANGE = (1e-4, 1e-2)


class QuadratureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# matrix points and frames
# ---------------------------------------------------------------------------


def _minkowski_form(n: int) -> np.ndarray:
    J = np.eye(n + 1)
    J[0, 0] = -1.0
    return J


@dataclass(frozen=True)
class MatrixPoint:
    """A group element in a concrete matrix model, membership-checked."""

    entries: np.ndarray
    group: str = "SLn"
    membership_tol: float = 1e-9

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("matrix point must be square")
        if self.group == "SLn":
            defect = abs(np.linalg.det(g) - 1.0)
        elif self.group == "SOn1":
            J = _minkowski_form(g.shape[0] - 1)
            defect = np.abs(g.T @ J @ g - J).max()
        else:
            raise ValueError(f"unknown group tag {self.group!r}")
        if defect > self.membership_tol:
            raise ValueError(f"{self.group} membership defect {defect:.3e}")


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Orthonormal basis of the symmetric part of sl(n) under 2n tr(XY),
    stored as one (d, n, n) array."""

    n: int
    vectors: np.ndarray
    labels: tuple[tuple, ...]


def sl_frame(n: int) -> TangentFrame:
    """Cartan directions first, then one symmetric vector per root (i, j)."""
    vectors = np.zeros((n * (n + 1) // 2 - 1, n, n))
    labels: list[tuple] = []
    # orthonormal basis of traceless diagonals: partial-sum (Jacobi-like) vectors
    for i in range(1, n):
        d = np.zeros(n)
        d[:i] = 1.0
        d[i] = -float(i)
        d /= math.sqrt(2 * n * (i + i * i))
        vectors[len(labels)] = np.diag(d)
        labels.append(("H", i))
    for i in range(n):
        for j in range(i + 1, n):
            vectors[len(labels), i, j] = vectors[len(labels), j, i] = 1.0 / (2.0 * math.sqrt(n))
            labels.append(("E", (i + 1, j + 1)))
    return TangentFrame(n, vectors, tuple(labels))


# ---------------------------------------------------------------------------
# Iwasawa and polar coordinates
# ---------------------------------------------------------------------------


def iwasawa_nak(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor g = n e^H k; returns (n, H, k) with H the diagonal log vector."""
    g = np.asarray(g, dtype=float)
    # g^T = Q L (L lower triangular, positive diagonal); reversal turns the
    # QL problem into a QR problem.
    q, r = np.linalg.qr(g.T[:, ::-1])
    sign = np.where(np.diag(r) < 0, -1.0, 1.0)
    L = (r * sign[:, None])[::-1, ::-1]
    a = np.diag(L)
    return L.T / a, np.log(a), (q * sign).T[::-1]


def iwasawa_H(g) -> np.ndarray:
    """The abelian coordinate H(g) of g = n e^{H(g)} k, as a vector of logs."""
    if isinstance(g, MatrixPoint):
        g = g.entries
    g = np.asarray(g, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("input matrix is singular")
    return iwasawa_H_batch(g)


def iwasawa_H_batch(gs: np.ndarray) -> np.ndarray:
    """H(g) for a stack of matrices (..., n, n) -> (..., n).

    e^{H_i} is the distance from row i of g to the span of the rows below
    it.  Step i takes the norm of row i, then removes its direction from the
    rows above, which takes the Schur complement of g g^T on g itself: the
    Gram matrix of the rows left is that complement.  Forming g g^T would
    square the condition number of g.
    """
    rows = np.moveaxis(np.asarray(gs, dtype=float), (-2, -1), (0, 1)).copy(order="C")
    return np.moveaxis(iwasawa_H_rows(rows), 0, -1)


def iwasawa_H_rows(rows: np.ndarray) -> np.ndarray:
    """H of a stack stored as rows[i, k, ...] (entry (i, k) of every matrix,
    so each step is a vector op over the stack) -> H[i, ...].

    The sweep of ``iwasawa_H_batch``; it overwrites ``rows``.
    """
    n = rows.shape[0]
    H = np.empty(rows.shape[:1] + rows.shape[2:])
    for i in range(n - 1, -1, -1):
        u = rows[i]
        norm = np.sqrt(np.einsum("k...,k...->...", u, u))
        H[i] = np.log(norm)
        if i:
            u /= norm
            # one row at a time: on a large stack the (i, n, ...) product of
            # the whole block leaves the cache (2.5x slower at n = 4 with
            # 24,000 matrices)
            for j, c in enumerate(np.einsum("jk...,k...->j...", rows[:i], u)):
                rows[j] -= c * u
    return H


def cartan_a(g) -> np.ndarray:
    """Polar coordinate: singular value logarithms, sorted descending."""
    if isinstance(g, MatrixPoint):
        g = g.entries
    s = np.linalg.svd(np.asarray(g, dtype=float), compute_uv=False)
    return np.log(s)


# ---------------------------------------------------------------------------
# finite-difference Hessians along geodesics
# ---------------------------------------------------------------------------


def _expm_sym(y: np.ndarray) -> np.ndarray:
    """exp of a stack of symmetric matrices (..., n, n), one batched eigh."""
    w, v = np.linalg.eigh(y)
    return (v * np.exp(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def fd_hessian(F: Callable[[np.ndarray], np.ndarray], frame: TangentFrame,
               h: float = DEFAULT_STEP) -> np.ndarray:
    """Second-order central differences of F along exp(tY) geodesics.

    Diagonal entries use the 3-point second difference, off-diagonal entries
    the polarization (q(Y_a + Y_b) - q(Y_a - Y_b)) / 4, so the whole matrix
    carries an O(h^2) error and is symmetric by construction.

    F maps a stack of matrices (..., n, n) to its values (...).  The base
    point and every stencil point exp(+-h Y) for Y in {Y_a, Y_a + Y_b,
    Y_a - Y_b} are exponentiated with one batched eigh and passed to F in
    one call.
    """
    if not STEP_RANGE[0] <= h <= STEP_RANGE[1]:
        raise ValueError(f"step h = {h} outside [{STEP_RANGE[0]:g}, {STEP_RANGE[1]:g}]")
    Y = frame.vectors
    d = len(Y)
    a, b = np.triu_indices(d, 1)
    steps = h * np.concatenate([Y, Y[a] + Y[b], Y[a] - Y[b]])
    stencil = _expm_sym(np.concatenate([steps, -steps]))
    values = np.asarray(F(np.concatenate([np.eye(frame.n)[None], stencil])), dtype=float)
    f0, f_plus, f_minus = values[0], *np.split(values[1:], 2)
    if not np.isfinite(f0):
        raise ValueError("F returned a non-finite value at the base point")
    q = (f_plus - 2.0 * f0 + f_minus) / (h * h)
    if not np.isfinite(q).all():
        raise ValueError("F returned a non-finite value during differencing")
    q_diag, q_sum, q_diff = np.split(q, [d, d + len(a)])
    M = np.diag(q_diag)
    M[a, b] = M[b, a] = (q_sum - q_diff) / 4.0
    return M


def linear_coordinate_function(xi: Covector) -> Callable[[np.ndarray], np.ndarray]:
    """g -> xi(H(g)) for a covector on an SLn datum, over a stack of matrices."""
    w = np.array([float(c) for c in xi.e_coords()])

    def F(gs):
        return iwasawa_H_batch(gs) @ w

    return F


def exp_coordinate_function(xi: Covector) -> Callable[[np.ndarray], np.ndarray]:
    """g -> e^{xi(H(g))}, over a stack of matrices."""
    w = np.array([float(c) for c in xi.e_coords()])

    def F(gs):
        return np.exp(iwasawa_H_batch(gs) @ w)

    return F


def spectrum_error(fd_eigs: np.ndarray, expected: Sequence[float]) -> float:
    """Scale-aware distance between sorted spectra."""
    exp_sorted = np.sort(np.array([float(v) for v in expected]))
    fd_sorted = np.sort(np.asarray(fd_eigs))
    scale = max(1.0, float(np.abs(exp_sorted).max(initial=0.0)))
    return float(np.abs(fd_sorted - exp_sorted).max() / scale)


def fd_model_hessian(n: int, xi: Covector, h: float = DEFAULT_STEP,
                     exp: bool = False) -> tuple[np.ndarray, TangentFrame]:
    """FD Hessian matrix of xi(H) (or e^{xi(H)}) at the base point of SL(n)."""
    if n not in MODEL_SIZES:
        raise ValueError("matrix-model verification supports 2 <= n <= 6")
    frame = sl_frame(n)
    F = exp_coordinate_function(xi) if exp else linear_coordinate_function(xi)
    return fd_hessian(F, frame, h), frame


def verify_iwasawa_spectrum(n: int, xi: Covector, h: float = DEFAULT_STEP,
                            tol: float = 1e-3, exp: bool = False) -> dict:
    """Compare the FD Hessian of xi(H) or e^{xi(H)} with the closed form.

    Also checks the mixed flat/root block of the FD matrix, which the closed
    form predicts to vanish identically.  Returns a check report
    (``symgeo.report``) whose ``max_abs_err`` is the larger of the spectrum
    error and the cross block's largest entry.
    """
    rd = build_sln(n, "Killing")
    xi_k = rd.covector(list(xi.coords))
    M, frame = fd_model_hessian(n, xi_k, h, exp=exp)
    closed = iwasawa_exp_spectrum(rd, xi_k) if exp else iwasawa_linear_spectrum(rd, xi_k)
    err = spectrum_error(np.linalg.eigvalsh(M), closed.values())

    n_flat = rd.rank
    cross = np.abs(M[:n_flat, n_flat:]).max(initial=0.0)
    worst = None
    if err > tol:
        fd_sorted = np.sort(np.linalg.eigvalsh(M))
        exp_sorted = np.sort([float(v) for v in closed.values()])
        idx = int(np.abs(fd_sorted - exp_sorted).argmax())
        worst = {"index": idx, "fd": float(fd_sorted[idx]), "expected": float(exp_sorted[idx])}
    return check_report(
        "iwasawa_exp_spectrum" if exp else "iwasawa_linear_spectrum",
        {"n": n, "xi": [str(c) for c in xi.coords], "h": h, "tol": tol},
        max(err, float(cross)),
        err <= tol and cross <= tol,
        {"spectrum_err": err, "cross_block_max": float(cross),
         **({"worst": worst} if worst else {})},
    )


# ---------------------------------------------------------------------------
# hyperboloid model
# ---------------------------------------------------------------------------


def hyperboloid_point(t: float, direction: Sequence[float]) -> np.ndarray:
    """Point at distance t from the base point along a unit direction."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return np.concatenate([[math.cosh(t)], math.sinh(t) * d])


def busemann_hyperboloid(x: Sequence[float], theta: Sequence[float]) -> float:
    """Horofunction of the boundary direction theta, zero at the base point."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError("boundary direction must be a unit vector")
    mink = -x[0] * x[0] + float(x[1:] @ x[1:])
    if abs(mink + 1.0) > 1e-9 or x[0] <= 0:
        raise ValueError("point is not on the upper hyperboloid sheet")
    return math.log(x[0] - float(x[1:] @ theta))


# ---------------------------------------------------------------------------
# monotonicity profile from closed-form ball volumes
# ---------------------------------------------------------------------------

#: node counts of the two Gauss-Legendre rules that evaluate a profile, and
#: the relative agreement between them that certifies its values
PROFILE_NODES = (40, 80)
PROFILE_RTOL = 1e-12

#: f(0) = (1/2) log 2, the minimum of the smooth radial surrogate
_HALF_LOG2 = 0.5 * math.log(2.0)
#: below this sinh T, V(T) comes from its series: the recursion subtracts
#: nearly equal terms there and loses about a factor 1/T^2 per step
_SERIES_BELOW = 0.5
#: terms of the series in sinh^2 T < 1/4; the first one left out is below
#: 4^-30 of the first
_SERIES_TERMS = 30


def cutoff_chi(u: float) -> float:
    """Quintic smoothstep cutoff: 1 below 0, 0 above 1, slope >= -15/8."""
    if u <= 0.0:
        return 1.0
    if u >= 1.0:
        return 0.0
    return 1.0 - u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def smooth_distance(t: float) -> float:
    """(1/2) log(2 cosh 2t), the smooth radial surrogate at unit root length."""
    a = abs(2.0 * t)
    return 0.5 * (a + math.log1p(math.exp(-2.0 * a)))


def _radius_above_minimum(d):
    """f^{-1}(f(0) + d) for d >= 0 (scalar or array).

    f^{-1}(s) = acosh(e^{2s} / 2) / 2 and e^{2 f(0)} / 2 = 1, so the acosh
    argument is 1 + expm1(2d); acosh(1 + y) = log1p(y + sqrt(y (y + 2)))
    keeps the square-root branch at d = 0 free of cancellation.
    """
    y = np.expm1(2.0 * np.asarray(d, dtype=float))
    return 0.5 * np.log1p(y + np.sqrt(y * (y + 2.0)))


def smooth_distance_inverse(s: float) -> float:
    """Radius where the surrogate reaches s (0 when s is below its minimum)."""
    return float(_radius_above_minimum(max(s - _HALF_LOG2, 0.0)))


def sphere_area(k: int) -> float:
    """Surface area of the unit (k-1)-sphere."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def ball_volume(k: int, T):
    """V(T) = int_0^T sinh^{k-1}(t) dt, the volume of the radius-T ball of
    H^k over the area of the unit (k-1)-sphere, for k >= 2 (T scalar or
    array, returned as an array).

    The two-step recursion I_m = (sinh^{m-1} T cosh T - (m-1) I_{m-2}) / m
    from I_0 = T and I_1 = 2 sinh^2(T/2) gives V = I_{k-1}.  Where
    sinh T < 1/2 the series from the substitution S = sinh t,
    I_m = sum_j (-1)^j C(2j, j) 4^{-j} S^{m+1+2j} / (m+1+2j), whose terms
    shrink at least fourfold, replaces it.
    """
    if k < 2:
        raise ValueError(f"ball volumes need k >= 2, got k = {k}")
    T = np.asarray(T, dtype=float)
    m = k - 1
    S, C = np.sinh(T), np.cosh(T)
    prev, cur = T, 2.0 * np.sinh(0.5 * T) ** 2
    for j in range(2, m + 1):
        prev, cur = cur, (S ** (j - 1) * C - (j - 1) * prev) / j
    # the series at min(S, 1/2), so that no large S overflows it
    Sc = np.minimum(S, _SERIES_BELOW)
    coeffs = [(-1) ** j * math.comb(2 * j, j) / 4.0 ** j / (m + 1 + 2 * j)
              for j in range(_SERIES_TERMS - 1, -1, -1)]
    series = Sc ** (m + 1) * np.polyval(coeffs, Sc * Sc)
    return np.where(S < _SERIES_BELOW, series, cur)


@functools.cache
def _unit_legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _profile_integrals(k: int, radii: np.ndarray, nodes: int) -> np.ndarray:
    """int chi(f(t) - r) sinh^{k-1}(t) dt for each radius, by one rule.

    By parts, with -chi'(u) = 30 u^2 (1-u)^2 and t = f^{-1}(u + r), the
    integral is int_0^1 30 u^2 (1-u)^2 V(f^{-1}(u + r)) du.  Its integrand
    vanishes below u0 = max(0, f(0) - r), and u = u0 + w^2 turns f^{-1}'s
    square-root branch at u + r = f(0) into an analytic function of w on
    [0, sqrt(1 - u0)].  There u + r - f(0) = w^2 + max(r - f(0), 0).
    """
    x, weights = _unit_legendre_rule(nodes)
    u0 = np.clip(_HALF_LOG2 - radii, 0.0, 1.0)[:, None]
    width = np.sqrt(1.0 - u0)
    w = width * x
    u = u0 + w * w
    excess = np.maximum(radii - _HALF_LOG2, 0.0)[:, None] + w * w
    volume = ball_volume(k, _radius_above_minimum(excess))
    # du = 2 w dw
    integrand = 30.0 * (u * (1.0 - u)) ** 2 * volume * 2.0 * w
    return width[:, 0] * (integrand @ weights)


def _certified_profile(k: int, radii: Sequence[float], coarse: int, fine: int) -> np.ndarray:
    """The fine rule's integrals; raises QuadratureError unless the coarse
    rule agrees with them to PROFILE_RTOL relative at every radius."""
    radii = np.asarray(radii, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = _profile_integrals(k, radii, coarse)
        hi = _profile_integrals(k, radii, fine)
    if not np.isfinite(hi).all():
        i = int(np.argmin(np.isfinite(hi)))
        raise QuadratureError(f"the profile overflows at r = {radii[i]}")
    bad = np.abs(hi - lo) > PROFILE_RTOL * np.abs(hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"{coarse}- and {fine}-node rules disagree at r = {radii[i]}: "
            f"{float(lo[i])!r} against {float(hi[i])!r}"
        )
    return hi


def monotonicity_profile(rd: RootDatum, k: int, r_grid: Sequence[float]) -> list[tuple[float, float]]:
    """Smoothed mass profile of a totally geodesic k-subspace of H^n.

    v(r) integrates the cutoff of the smooth radial surrogate against the
    polar density sinh^{k-1}(t) of the subspace; the subspace is area
    minimizing, so v must grow at rate at least kappa(k) = k - 1.  The
    integral runs on closed-form ball volumes with the Gauss-Legendre rules
    of PROFILE_NODES (``_profile_integrals``).
    """
    if rd.family != "HnR":
        raise ValueError("the mass profile is implemented for HnR only")
    if not 2 <= k < rd.n:
        raise ValueError(f"need 2 <= k < n, got k = {k}, n = {rd.n}")
    values = sphere_area(k) * _certified_profile(k, r_grid, *PROFILE_NODES)
    return [(float(r), float(v)) for r, v in zip(r_grid, values)]


def sharp_cutoff_mass(k: int, r: float) -> float:
    """Closed-form mass with a sharp cutoff at radius f^{-1}(r), k >= 2."""
    return sphere_area(k) * float(ball_volume(k, smooth_distance_inverse(r)))


def monotonicity_margins(profile: Sequence[tuple[float, float]], rate: float) -> list[float]:
    """log v(r) - log v(s) - rate (r - s) over all grid pairs s < r."""
    margins = []
    for i, (s, vs) in enumerate(profile):
        for r, vr in profile[i + 1:]:
            margins.append(math.log(vr) - math.log(vs) - rate * (r - s))
    return margins

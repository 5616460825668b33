"""Closed-form eigenvalue spectra of Hessians on symmetric spaces.

Two sources of spectra are implemented.

* Horospherical coordinates: for a linear functional ``xi`` of the Iwasawa
  coordinate H, the Hessian of ``xi(H)`` is diagonal with eigenvalues 0 (flat
  directions) and ``-<alpha, xi>`` per positive root ``alpha`` with its
  multiplicity.  The Hessian of ``exp(xi(H))``, divided by the function value,
  adds the rank-one block ``{|xi|^2, 0 x (rank-1)}``.

* Polar coordinates: for a Weyl-invariant radial profile u(t) the Hessian of
  the induced function has eigenvalues u''(t) in the radial direction and
  ``|a| u'(t) coth(|a| t)`` per root ``a`` with multiplicity (``a`` running
  over ``alpha, 2alpha`` in rank one).  At t = 0 all eigenvalues degenerate to
  the limit u''(0).

Spectra over rational data stay rational; polar spectra are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .rootdata import Covector, RootDatum, norm_sq, root_pairings

#: below this radius the polar formulas switch to their t -> 0 limit
SINGULAR_RADIUS = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Multiset of (eigenvalue, multiplicity), sorted by descending eigenvalue."""

    entries: tuple[tuple[object, int], ...]
    total_dim: int

    def __post_init__(self):
        if sum(m for _, m in self.entries) != self.total_dim:
            raise ValueError("multiplicities do not sum to total_dim")

    @staticmethod
    def from_pairs(pairs) -> "Spectrum":
        merged: dict = {}
        for value, mult in pairs:
            if mult <= 0:
                continue
            merged[value] = merged.get(value, 0) + mult
        entries = tuple(sorted(merged.items(), key=lambda vm: vm[0], reverse=True))
        return Spectrum(entries, sum(m for _, m in entries))

    def values(self) -> list:
        """Eigenvalues expanded with multiplicity, descending."""
        out = []
        for value, mult in self.entries:
            out.extend([value] * mult)
        return out

    def trace(self):
        return sum(v * m for v, m in self.entries)


def iwasawa_linear_spectrum(rd: RootDatum, xi: Covector) -> Spectrum:
    """Eigenvalues of Hess(xi(H)): zeros on the flat, -<alpha,xi> per root."""
    pairs = [(Fraction(0), rd.rank)]
    pairs += [(-value, mult) for value, mult in root_pairings(rd, xi).items()]
    return Spectrum.from_pairs(pairs)


def iwasawa_exp_spectrum(rd: RootDatum, xi: Covector) -> Spectrum:
    """Eigenvalues of Hess(exp(xi(H))) divided by the function value."""
    pairs = [(norm_sq(rd, xi), 1)]
    if rd.rank > 1:
        pairs.append((Fraction(0), rd.rank - 1))
    pairs += [(-value, mult) for value, mult in root_pairings(rd, xi).items()]
    return Spectrum.from_pairs(pairs)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function handle supplying u, u' and u''."""

    u: Callable[[float], float]
    du: Callable[[float], float]
    d2u: Callable[[float], float]


def distance_profile() -> RadialProfile:
    return RadialProfile(lambda t: t, lambda t: 1.0, lambda t: 0.0)


def half_square_profile() -> RadialProfile:
    return RadialProfile(lambda t: 0.5 * t * t, lambda t: t, lambda t: 1.0)


def log_cosh_profile(alpha_norm: float = 1.0) -> RadialProfile:
    """The smooth distance surrogate (1/2|a|) log(2 cosh(2|a| t))."""
    a = alpha_norm

    def u(t):
        return (math.log(2.0) + _log_cosh(2 * a * t)) / (2 * a)

    return RadialProfile(
        u,
        lambda t: math.tanh(2 * a * t),
        lambda t: 2 * a * (1.0 - math.tanh(2 * a * t) ** 2),
    )


def _log_cosh(x: float) -> float:
    # overflow-safe log cosh
    ax = abs(x)
    return ax + math.log1p(math.exp(-2 * ax)) - math.log(2.0)


def cartan_radial_spectrum(rd: RootDatum, u: RadialProfile, t: float) -> Spectrum:
    """Hessian spectrum of the radial function u(d(.,o)) at radius t (rank one)."""
    rd._require_rank_one()
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    a = math.sqrt(float(norm_sq(rd, rd.alpha)))
    d2 = u.d2u(t)
    pairs = [(d2, 1)]
    if t < SINGULAR_RADIUS:
        # all polar eigenvalues collapse to the flat limit u''(t)
        pairs.append((d2, rd.dim_X - 1))
        return Spectrum.from_pairs(pairs)
    d1 = u.du(t)
    pairs.append((a * d1 / math.tanh(a * t), rd.m_alpha))
    if rd.m_2alpha:
        pairs.append((2 * a * d1 / math.tanh(2 * a * t), rd.m_2alpha))
    return Spectrum.from_pairs(pairs)


def fft_spectrum(rd: RootDatum, t: float) -> Spectrum:
    """Hessian spectrum of the smooth distance surrogate at radius t.

    The eigenvalue on the doubled root is ``2 tanh(2|a|t) coth(2|a|t) |a|``,
    which is exactly ``2|a|``; it is emitted in simplified form so the
    identity survives floating point.
    """
    rd._require_rank_one()
    if t < 0:
        raise ValueError(f"radius must be nonnegative, got {t}")
    a = math.sqrt(float(norm_sq(rd, rd.alpha)))
    if t < SINGULAR_RADIUS:
        return Spectrum.from_pairs([(2 * a, rd.dim_X)])
    th = math.tanh(2 * a * t)
    pairs = [
        (2 * a * (1.0 - th * th), 1),
        (a * th / math.tanh(a * t), rd.m_alpha),
    ]
    if rd.m_2alpha:
        pairs.append((2 * a, rd.m_2alpha))
    return Spectrum.from_pairs(pairs)


def _partial_sum(values, k: int, total: int, label: str):
    if not 1 <= k <= total:
        raise ValueError(f"{label}: k = {k} out of range [1, {total}]")
    out = values[0] * 0
    for v in values[:k]:
        out = out + v
    return out


def min_trace(spec: Spectrum, k: int):
    """Sum of the k smallest eigenvalues counted with multiplicity."""
    return _partial_sum(spec.values()[::-1], k, spec.total_dim, "min_trace")


def tau_k(spec: Spectrum, k: int):
    """Sum of the k largest eigenvalues counted with multiplicity."""
    return _partial_sum(spec.values(), k, spec.total_dim, "tau_k")

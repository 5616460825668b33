"""Restricted root data for the rank-one hyperbolic families and SL(n,R)/SO(n).

A :class:`RootDatum` is plain data: each positive root stored once as its
sparse integer support in e-coordinates, ``((index, coefficient), ...)``
sorted by index, with its multiplicity, and the scale of the dual inner
product.  The SLn root e_i - e_j is ``((i, 1), (j, -1))``; the rank-one
roots alpha and 2 alpha are ``((0, 1),)`` and ``((0, 2),)``.  So SL(n) data
take O(n^2) memory, and ``root_pairings`` runs on the supports in O(n^2)
time; ``rho`` and ``theta_so`` are closed forms in O(n) that read no root.
The dense views ``root_coords`` (integer simple-root coordinates) and
``positive_roots`` (covectors) are derived on demand.  Only plain data are
cached on a datum (``root_coords``, ``dual_gram``): a cached Covector would
point back at its datum, a reference cycle that only the cyclic collector
frees.

Covector coordinates are kept in the simple-root basis with exact rational
entries, so that integrality and Weyl-invariance checks are exact; floats
appear only when a caller converts explicitly.

Supported families::

    HnR   real hyperbolic space,        (m_a, m_2a) = (n-1, 0)
    HnC   complex hyperbolic space,     (m_a, m_2a) = (2n-2, 1)
    HnH   quaternionic hyperbolic space,(m_a, m_2a) = (4n-4, 3)
    H2O   octonionic hyperbolic plane,  (m_a, m_2a) = (8, 7)
    SLn   SL(n,R)/SO(n), roots e_i - e_j on traceless diagonals

The dual inner product is ``scale`` times the Euclidean product of
e-coordinates (:meth:`Covector.e_coords`).  For SLn the e-coordinates are
the functionals on the diagonal entries; for the rank-one families they are
the simple coordinate itself.

Normalizations.  Rank-one data are built with the simple root of unit length
(``SimpleRootUnit``, scale 1).  For SLn three scalings of the same integral
base form are available: ``TraceForm`` (the pairing induced by tr(XY) on
diagonal traceless matrices, i.e. the Euclidean pairing of e-coordinates),
``Killing`` (induced by B(X,Y) = 2n tr(XY), a factor 1/(2n)) and
``SimpleRootUnit`` (simple roots of length one, a factor 1/2).  Scaling the
form does not change sign-based predicates downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

#: a root's e-coordinates as sorted (index, nonzero coefficient) pairs
Support = tuple[tuple[int, int], ...]

RANK_ONE_MULTIPLICITIES = {
    "HnR": lambda n: (n - 1, 0),
    "HnC": lambda n: (2 * n - 2, 1),
    "HnH": lambda n: (4 * n - 4, 3),
    "H2O": lambda n: (8, 7),
}

RANK_ONE_FAMILIES = tuple(RANK_ONE_MULTIPLICITIES)

#: scale applied to the SLn base (trace-form) pairing per normalization
SLN_SCALES = {
    "TraceForm": lambda n: Fraction(1),
    "Killing": lambda n: Fraction(1, 2 * n),
    "SimpleRootUnit": lambda n: Fraction(1, 2),
}


def _check_owner(rd: "RootDatum", *covectors: "Covector"):
    """Raise unless every covector belongs to this very datum."""
    for xi in covectors:
        if xi.owner is not rd:
            raise ValueError("covector owner mismatch")


@dataclass(frozen=True)
class Covector:
    """Element of the dual of the split Cartan, in simple-root coordinates."""

    coords: tuple[int | Fraction, ...]
    owner: "RootDatum" = field(repr=False)

    def __post_init__(self):
        if len(self.coords) != self.owner.rank:
            raise ValueError(
                f"coordinate length {len(self.coords)} != rank {self.owner.rank}"
            )

    def __add__(self, other: "Covector") -> "Covector":
        _check_owner(self.owner, other)
        return Covector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.owner)

    def __sub__(self, other: "Covector") -> "Covector":
        _check_owner(self.owner, other)
        return Covector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.owner)

    def __rmul__(self, c) -> "Covector":
        c = Fraction(c)
        return Covector(tuple(c * a for a in self.coords), self.owner)

    def __neg__(self) -> "Covector":
        return Covector(tuple(-a for a in self.coords), self.owner)

    def e_coords(self) -> tuple:
        """Coordinates in the e_i basis: for SLn the functionals on the
        diagonal entries, for the rank-one families the simple coordinate."""
        return self._sln_e_coords if self.owner.family == "SLn" else self.coords

    @cached_property
    def _sln_e_coords(self) -> tuple:
        # e_i = c_i - c_{i-1} with c_0 = c_n = 0
        c = (0,) + self.coords + (0,)
        return tuple(c[i + 1] - c[i] for i in range(len(c) - 1))


@dataclass(frozen=True, eq=False)
class RootDatum:
    """A restricted root system with multiplicities and a dual inner product.

    Equality and hashing are by identity: covectors of two separately built
    data never mix, even when the data describe the same space.
    """

    family: str
    n: int
    rank: int
    #: positive roots as sparse integer e-coordinate supports, with multiplicity
    roots: tuple[tuple[Support, int], ...]
    dim_X: int
    normalization: str
    scale: Fraction

    @property
    def e_dim(self) -> int:
        """Number of e-coordinates: n for SLn, one for the rank-one families."""
        return self.n if self.family == "SLn" else 1

    @cached_property
    def root_coords(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The positive roots as integer simple-root coordinates, with multiplicity."""
        return tuple((_root_coords(self, support), mult) for support, mult in self.roots)

    @property
    def positive_roots(self) -> tuple[tuple[Covector, int], ...]:
        return tuple((Covector(coords, self), mult) for coords, mult in self.root_coords)

    @property
    def simple_roots(self) -> tuple[Covector, ...]:
        return tuple(
            Covector(tuple(int(i == l) for l in range(self.rank)), self)
            for i in range(self.rank)
        )

    @cached_property
    def dual_gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """Gram matrix of the pairing on the simple roots."""
        simple = self.simple_roots
        return tuple(tuple(pair(self, a, b) for b in simple) for a in simple)

    @property
    def m_alpha(self) -> int:
        """Multiplicity of the simple root (rank-one families only)."""
        self._require_rank_one()
        return self.roots[0][1]

    @property
    def m_2alpha(self) -> int:
        self._require_rank_one()
        return self.roots[1][1] if len(self.roots) > 1 else 0

    @property
    def alpha(self) -> Covector:
        self._require_rank_one()
        return self.simple_roots[0]

    def _require_rank_one(self):
        if self.rank != 1:
            raise ValueError(f"operation requires a rank-one datum, got {self.family}")

    def covector(self, coords: Sequence) -> Covector:
        return Covector(tuple(Fraction(c) for c in coords), self)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "rank": self.rank,
            "roots": [
                {"coords": [str(c) for c in coords], "mult": mult}
                for coords, mult in self.root_coords
            ],
            "gram": [[str(x) for x in row] for row in self.dual_gram],
            "normalization": self.normalization,
            "scale": str(self.scale),
        }


def build_rank_one(family: str, n: int) -> RootDatum:
    """Rank-one root datum with the simple root normalized to unit length."""
    if family not in RANK_ONE_FAMILIES:
        raise ValueError(f"unknown rank-one family {family!r}")
    if family == "H2O" and n != 2:
        raise ValueError("the octonionic hyperbolic space exists only for n = 2")
    if n < 2:
        raise ValueError(f"{family} requires n >= 2, got {n}")
    m_a, m_2a = RANK_ONE_MULTIPLICITIES[family](n)
    roots = ((((0, 1),), m_a), (((0, 2),), m_2a)) if m_2a else ((((0, 1),), m_a),)
    return RootDatum(family, n, 1, roots, 1 + m_a + m_2a, "SimpleRootUnit", Fraction(1))


def build_sln(n: int, normalization: str = "Killing") -> RootDatum:
    """Root datum of SL(n,R)/SO(n) with roots e_i - e_j on traceless diagonals."""
    if n < 2:
        raise ValueError(f"SLn requires n >= 2, got {n}")
    if normalization not in SLN_SCALES:
        raise ValueError(f"unknown normalization {normalization!r}")
    # roots share the (index, +-1) pairs, so each holds only two small tuples
    plus = [(i, 1) for i in range(n)]
    minus = [(j, -1) for j in range(n)]
    roots = tuple(((plus[i], minus[j]), 1) for i in range(n - 1) for j in range(i + 1, n))
    return RootDatum("SLn", n, n - 1, roots, n * (n + 1) // 2 - 1, normalization,
                     SLN_SCALES[normalization](n))


def pair(rd: RootDatum, xi: Covector, eta: Covector) -> Fraction:
    """Dual inner product <xi, eta>: scale times the e-coordinate dot product."""
    _check_owner(rd, xi, eta)
    total = 0
    for a, b in zip(xi.e_coords(), eta.e_coords()):
        if a and b:
            total += a * b
    return total * rd.scale


def norm_sq(rd: RootDatum, xi: Covector) -> Fraction:
    return pair(rd, xi, xi)


def root_pairings(rd: RootDatum, xi: Covector) -> dict[Fraction, int]:
    """The multiset of <alpha, xi> over the positive roots, counted with
    multiplicity, as {value: count}.

    xi's e-coordinates are scaled once to integers by their common
    denominator and each root's support is summed in integers, so one
    ``Fraction`` is made per distinct value.  Root by root this is ``pair``.
    """
    _check_owner(rd, xi)
    e = xi.e_coords()
    den = math.lcm(*(c.denominator for c in e))
    x = [c.numerator * (den // c.denominator) for c in e]
    counts: dict[int, int] = {}
    for support, mult in rd.roots:
        total = 0
        for k, c in support:
            total += c * x[k]
        counts[total] = counts.get(total, 0) + mult
    unit = rd.scale / den  # <alpha, xi> = unit * (the integer sum)
    return {
        Fraction(total * unit.numerator, unit.denominator): mult
        for total, mult in counts.items()
    }


def _e_vector(rd: RootDatum, weighted: Iterable[tuple[Support, int]]) -> list[int]:
    """Dense integer e-coordinates of sum(weight * support)."""
    e = [0] * rd.e_dim
    for support, weight in weighted:
        for k, c in support:
            e[k] += weight * c
    return e


def _simple_coords(rd: RootDatum, e: Sequence[int]) -> tuple[int, ...]:
    """Simple-root coordinates of a traceless e-vector: for SLn the partial
    sums c_l = e_0 + ... + e_l, inverting e_i = c_i - c_{i-1}."""
    if rd.family == "SLn":
        return tuple(itertools.accumulate(e[: rd.rank]))
    return tuple(e)


def _root_coords(rd: RootDatum, support: Support) -> tuple[int, ...]:
    """Integer simple-root coordinates of one root support."""
    return _simple_coords(rd, _e_vector(rd, [(support, 1)]))


def _halved(rd: RootDatum, e: Sequence[int]) -> Covector:
    """Half of the covector with integer e-coordinates e."""
    return Covector(tuple(Fraction(s, 2) for s in _simple_coords(rd, e)), rd)


def rho(rd: RootDatum) -> Covector:
    """Half-sum of the positive roots counted with multiplicity, in closed
    form: 2 rho is (m_alpha + 2 m_2alpha) alpha for the rank-one families,
    and for SLn its e-coordinates are n-1-2i, 0-based."""
    if rd.family == "SLn":
        return _halved(rd, [rd.n - 1 - 2 * i for i in range(rd.n)])
    return _halved(rd, [rd.m_alpha + 2 * rd.m_2alpha])


def _strongly_orthogonal_supports(rd: RootDatum) -> list[Support]:
    """Supports of {alpha_{1,n}, alpha_{2,n-1}, ...}: e_i - e_{n-1-i}, 0-based."""
    if rd.family != "SLn":
        raise ValueError("strongly orthogonal set is implemented for SLn only")
    if rd.n < 3:
        raise ValueError("SL2 has rank one; the growth-gap bound does not apply")
    return [((i, 1), (rd.n - 1 - i, -1)) for i in range(rd.n // 2)]


def theta_so(rd: RootDatum) -> Covector:
    """Half-sum of the strongly orthogonal root set; rejects rank-one data.
    Its members e_i - e_{n-1-i} have disjoint supports, so 2 theta_so has
    e-coordinates 1 on the first n//2 indices, -1 on the last n//2 and 0
    between."""
    half = len(_strongly_orthogonal_supports(rd))
    return _halved(rd, [1] * half + [0] * (rd.n % 2) + [-1] * half)

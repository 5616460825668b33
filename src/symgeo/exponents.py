"""Exponent tables and feasibility predicates for volume contraction.

Everything here is exact integer/rational arithmetic over the root data:

* ``kappa(rd, k)``     lower bound for the k-trace of the smoothed distance
                       Hessian, i.e. the monotonicity exponent;
* ``cx(rd, d)``        largest critical exponent whose boundary density is
                       still (dim-d)-superharmonic;
* ``omega_contains``   membership in the cone of functionals whose
                       horospherical Hessian has negative (dim-d)-trace;
* ``r_lower_bound``    the largest codimension gap certified by the growth
                       bound of the family (octonionic plane and SLn);
* ``stationary_codims`` codimensions where the monotonicity exponent beats
                       the volume growth of the space;
* ``growth_exponents`` the exponent pair in the mass-versus-decay budget.

Every table row is ``Enumerated``: its value comes from the sum-of-smallest
rule over the eigenvalue multiset, and the row builders check it against the
one golden oracle per table (``golden_kappa``, ``golden_cx``), transcribed
from the published per-family case formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import hesspec
from .rootdata import (
    RANK_ONE_FAMILIES,
    RANK_ONE_MULTIPLICITIES,
    Covector,
    RootDatum,
    build_rank_one,
    rho,
    theta_so,
)

#: critical-exponent gap thresholds for discrete non-lattice subgroups,
#: known exactly for the quaternionic family and the octonionic plane
CRITICAL_EXPONENT_GAP = {
    "HnH": lambda n: 4 * n,
    "H2O": lambda n: 16,
}


@dataclass(frozen=True)
class ExponentReport:
    family: str
    n: int
    k_or_d: int
    value: Fraction
    provenance: str

    def as_row(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k_or_d": self.k_or_d,
            "value": str(self.value),
            "provenance": self.provenance,
        }


def _kappa_multiset(rd: RootDatum) -> list[int]:
    return [0] + [1] * rd.m_alpha + [2] * rd.m_2alpha


def kappa(rd: RootDatum, k: int) -> Fraction:
    """Sum of the k smallest entries of {0} u {1 x m_a} u {2 x m_2a}.

    The monotonicity statements use k < dim X; k = dim X (the full trace,
    equal to the volume-growth exponent) is admitted so the published table
    rows and the growth budget can be evaluated at the top dimension.
    """
    rd._require_rank_one()
    if not 1 <= k <= rd.dim_X:
        raise ValueError(f"k = {k} out of range [1, {rd.dim_X}]")
    values = sorted(_kappa_multiset(rd))
    return Fraction(sum(values[:k]))


def cx(rd: RootDatum, d: int) -> Fraction:
    """Supremal critical exponent delta keeping tau_{dim-d} of
    {delta, -1 x m_a, -2 x m_2a} nonpositive."""
    rd._require_rank_one()
    if not 0 <= d <= rd.dim_X:
        raise ValueError(f"d = {d} out of range [0, {rd.dim_X}]")
    if d == rd.dim_X:
        return Fraction(0)
    negatives = sorted([1] * rd.m_alpha + [2] * rd.m_2alpha)
    return Fraction(sum(negatives[: rd.dim_X - d - 1]))


def omega_contains(rd: RootDatum, xi: Covector, d: int) -> bool:
    """True iff the (dim-d)-trace of Hess(exp(xi H))/exp(xi H) is negative."""
    if not 0 <= d < rd.dim_X:
        raise ValueError(f"d = {d} out of range [0, {rd.dim_X})")
    spec = hesspec.iwasawa_exp_spectrum(rd, xi)
    return hesspec.tau_k(spec, rd.dim_X - d) < 0


def gap_covector(rd: RootDatum) -> Covector:
    """The functional dominating the growth indicator of non-lattices."""
    if rd.family == "H2O":
        return Fraction(CRITICAL_EXPONENT_GAP["H2O"](rd.n)) * rd.alpha
    if rd.family == "SLn":
        # theta_so rejects SL2, which has rank one
        two_rho = Fraction(2) * rho(rd)
        return two_rho - theta_so(rd)
    raise ValueError(
        f"no growth-gap bound is available for {rd.family} (n = {rd.n})"
    )


def r_profile(rd: RootDatum) -> list[tuple[int, Fraction]]:
    """(d, tau_{dim-d}(xi_gap)) for every d, by exact enumeration."""
    xi = gap_covector(rd)
    entries = hesspec.iwasawa_exp_spectrum(rd, xi).entries
    # prefix sums of the descending eigenvalues, in integers over one
    # common denominator
    den = math.lcm(*(v.denominator for v, _ in entries))
    prefix = [0]
    for v, mult in entries:
        step = v.numerator * (den // v.denominator)
        for _ in range(mult):
            prefix.append(prefix[-1] + step)
    return [(d, Fraction(prefix[rd.dim_X - d], den)) for d in range(rd.dim_X)]


def r_lower_bound(rd: RootDatum) -> int:
    """Largest d with tau_{dim-d}(xi_gap) < 0 (strict)."""
    best = None
    for d, value in r_profile(rd):
        if value < 0:
            best = d
        else:
            break
    if best is None:
        raise ArithmeticError("gap covector fails even at full trace")
    return best


def sln_closed_form_bound(n: int) -> int:
    """The floor(n/8) - 1 closed-form lower bound for SLn."""
    return n // 8 - 1


def sln_intermediate_trace(n: int) -> Fraction:
    """Full trace of the gap Hessian for even n = 2m, as the term-by-term
    intermediate expression evaluates: -m^2 + m/2.

    The collected closed form printed alongside it (-m^2 + 11m/6) is
    inconsistent with this expression; the enumerated trace is the ground
    truth and equals the intermediate form.
    """
    if n % 2:
        raise ValueError("the intermediate expression is stated for even n")
    m = Fraction(n, 2)
    first = m / 2 + 2 * m * (m - 1) + Fraction(4, 3) * (m - 1) * m * (2 * m - 1)
    second = Fraction(2, 3) * m * (2 * m - 1) * (2 * m + 1) - m * m
    return first - second


def stationary_codims(rd: RootDatum) -> set[int]:
    """Codimensions k where kappa(k) exceeds the dimension of the space."""
    rd._require_rank_one()
    return {k for k in range(1, rd.dim_X) if kappa(rd, k) > rd.dim_X}


@dataclass(frozen=True)
class GrowthBudget:
    volume_exponent: Fraction
    gain_exponent: Fraction
    loss_exponent: Fraction


def growth_exponents(rd: RootDatum, k: int) -> GrowthBudget:
    """Volume growth exponent and the (gain, loss) exponent pair at codim k."""
    rd._require_rank_one()
    vol = Fraction(rd.m_alpha + 2 * rd.m_2alpha)
    return GrowthBudget(
        volume_exponent=vol,
        gain_exponent=kappa(rd, k) - vol,
        loss_exponent=Fraction(1 - rd.m_2alpha),
    )


# ---------------------------------------------------------------------------
# golden tables
#
# The values below are transcribed from the published case formulas per
# family; the enumerated rules above must reproduce them exactly.  The one
# known defect in the printed tables (the complex-hyperbolic kappa row places
# the jump value at k = dim-1 in one copy, clashing with its own first case)
# is resolved in favor of the eigenvalue derivation: the jump sits at k = dim,
# outside the domain of kappa.
# ---------------------------------------------------------------------------


def golden_kappa(family: str, n: int, k: int) -> int:
    if family == "HnR":
        return k - 1
    if family == "HnC":
        return k - 1 if k <= 2 * n - 1 else 2 * n
    if family == "HnH":
        if k <= 4 * n - 3:
            return k - 1
        return 4 * n - 4 + 2 * (k - (4 * n - 3))
    if family == "H2O":
        return k - 1 if k <= 9 else 8 + 2 * (k - 9)
    raise ValueError(family)


def golden_cx(family: str, n: int, d: int) -> int:
    if family == "HnR":
        return n - 1 - d if d <= n - 1 else 0
    if family == "HnC":
        if d <= 1:
            return 2 * n - 2 * d
        return 2 * n - 1 - d if d <= 2 * n - 1 else 0
    if family == "HnH":
        if d <= 3:
            return 4 * n + 2 - 2 * d
        return 4 * n - 1 - d if d <= 4 * n - 1 else 0
    if family == "H2O":
        if d <= 7:
            return 22 - 2 * d
        return 15 - d if d <= 15 else 0
    raise ValueError(family)


def multiplicity_rows(families=RANK_ONE_FAMILIES, n_range=range(2, 7)) -> list[dict]:
    rows = []
    for family in families:
        ns = [2] if family == "H2O" else list(n_range)
        for n in ns:
            m_a, m_2a = RANK_ONE_MULTIPLICITIES[family](n)
            rows.append(
                {
                    "family": family,
                    "n": n,
                    "m_alpha": m_a,
                    "m_2alpha": m_2a,
                    "dim": 1 + m_a + m_2a,
                }
            )
    return rows


def kappa_rows(families=RANK_ONE_FAMILIES, n_range=range(2, 7)) -> list[ExponentReport]:
    rows = []
    for family in families:
        ns = [2] if family == "H2O" else list(n_range)
        for n in ns:
            rd = build_rank_one(family, n)
            for k in range(1, rd.dim_X + 1):
                value = kappa(rd, k)
                golden = Fraction(golden_kappa(family, n, k))
                if value != golden:
                    raise AssertionError(
                        f"kappa mismatch {family} n={n} k={k}: {value} != {golden}"
                    )
                rows.append(ExponentReport(family, n, k, value, "Enumerated"))
    return rows


def cx_rows(families=RANK_ONE_FAMILIES, n_range=range(2, 7)) -> list[ExponentReport]:
    rows = []
    for family in families:
        ns = [2] if family == "H2O" else list(n_range)
        for n in ns:
            rd = build_rank_one(family, n)
            for d in range(rd.dim_X + 1):
                value = cx(rd, d)
                golden = Fraction(golden_cx(family, n, d))
                if value != golden:
                    raise AssertionError(
                        f"cx mismatch {family} n={n} d={d}: {value} != {golden}"
                    )
                rows.append(ExponentReport(family, n, d, value, "Enumerated"))
    return rows

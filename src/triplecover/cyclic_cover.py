"""Numerology of cyclic triple covers.

A cyclic degree-3 cover pi: X -> C with deck automorphism of order 3 has
g - 3h + 2 totally ramified branch points, and the space of holomorphic
1-forms on X splits into three eigenspaces H_0, H_1, H_2 of the deck
action.  The integer t counts the branch points at which the local
eigenvalue is the primitive cube root itself; the canonical-degree identity

    t + 3 k_1 = (g - 3h + 2 - t) + 3 k_2 = 2g - 2

fixes the base-divisor degrees k_1, k_2 and hence the eigenspace dimensions
h, k_1 - h + 1, k_2 - h + 1, which sum to g.  From t alone one reads off
lower bounds for the degrees of eigenfunctions and the sharpness window
between the Castelnuovo-Severi bound and the composed-pencil threshold
(g - 3h + 2 + t)/3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .brill_noether import cs_max_degree
from .existence import _require_base_genus, critical_degree

__all__ = [
    "CongruenceError",
    "BranchRangeError",
    "CyclicCoverProfile",
    "PencilGapReport",
    "Feasibility",
    "derive_profile",
    "normalize_t",
    "pencil_gap_report",
    "construction_feasible",
]


class CongruenceError(ValueError):
    """t must be congruent to 2g - 2 modulo 3."""


class BranchRangeError(ValueError):
    """t must lie in [0, g - 3h + 2]."""


class CyclicCoverProfile(NamedTuple):
    """Derived ledger for one (g, h, t).

    dim_h1/dim_h2 are populated only when the corresponding k_j exceeds
    2h - 2 (so the dimension is forced); otherwise they are None.
    """

    g: int
    h: int
    t: int
    branch_count: int
    k1: int
    k2: int
    dim_h0: int
    dim_h1: int | None
    dim_h2: int | None
    n1_lower: int
    n2_lower: int


class PencilGapReport(NamedTuple):
    """Comparison of the pencil-degree thresholds visible from one profile.

    composed_below is the exact rational (g - 3h + 2 + t)/3 with strict
    semantics: every pencil of degree strictly below it is composed with
    the covering; largest_excluded is the largest such degree.
    """

    g: int
    h: int
    t: int
    cs_bound: int
    composed_below: Fraction
    largest_excluded: int
    exists_at_most: int
    theorem_a_degree: int


class Feasibility(NamedTuple):
    """Whether a cyclic cover realising (g, h, t) can be constructed, and
    the auxiliary point count ell = (2t - g + 3h - 2)/3 when it can."""

    g: int
    h: int
    t: int
    feasible: bool
    ell: int | None


def _validate_t(g: int, h: int, t: int) -> int:
    _require_base_genus(h)
    if g < 3 * h - 1:
        raise ValueError(f"cyclic-cover numerology needs g >= 3h - 1, got g = {g}, h = {h}")
    branch_count = g - 3 * h + 2
    if t < 0 or t > branch_count:
        raise BranchRangeError(f"t = {t} outside [0, {branch_count}]")
    if (t - (2 * g - 2)) % 3 != 0:
        raise CongruenceError(
            f"t = {t} is not congruent to 2g - 2 = {2 * g - 2} modulo 3"
        )
    return branch_count


def derive_profile(g: int, h: int, t: int) -> CyclicCoverProfile:
    """Populate the eigenspace/degree ledger for (g, h, t)."""
    branch_count = _validate_t(g, h, t)
    k1 = (2 * g - 2 - t) // 3
    k2 = (2 * g - 2 - (branch_count - t)) // 3
    dim_h1, dim_h2 = (k - h + 1 if k > 2 * h - 2 else None for k in (k1, k2))
    return CyclicCoverProfile(
        g=g,
        h=h,
        t=t,
        branch_count=branch_count,
        k1=k1,
        k2=k2,
        dim_h0=h,
        dim_h1=dim_h1,
        dim_h2=dim_h2,
        n1_lower=branch_count + t,
        n2_lower=2 * branch_count - t,
    )


def normalize_t(g: int, h: int, t: int) -> int:
    """Return t if 2t >= g - 3h + 2, else the swapped value g - 3h + 2 - t
    (relabelling the primitive cube root preserves the congruence)."""
    branch_count = _validate_t(g, h, t)
    if 2 * t >= branch_count:
        return t
    return branch_count - t


def pencil_gap_report(g: int, h: int, t: int) -> PencilGapReport:
    """Threshold comparison for a t that ``normalize_t`` leaves as it is:
    the Castelnuovo-Severi bound, the composed-pencil threshold, the
    guaranteed-existence degree, and the critical degree of the main
    existence statement."""
    branch_count = _validate_t(g, h, t)
    normalized = normalize_t(g, h, t)
    if normalized != t:
        raise ValueError(
            f"t = {t} is not normalized (needs 2t >= {branch_count}); "
            f"the same cover has t = {normalized}"
        )
    return PencilGapReport(
        g=g,
        h=h,
        t=t,
        cs_bound=cs_max_degree(g, h),
        composed_below=Fraction(branch_count + t, 3),
        largest_excluded=(branch_count + t - 1) // 3,
        exists_at_most=max(t, g + 2 - t),
        theorem_a_degree=critical_degree(h, g),
    )


def construction_feasible(g: int, h: int, t: int) -> Feasibility:
    """Whether a cyclic triple cover with invariants (g, h, t) exists for
    every base curve: g >= 7h - 4, (g - 3h + 2)/2 <= t <= g - 3h + 2 and
    t congruent to 2g - 2 mod 3.  Infeasibility is a result, not an error.
    """
    _require_base_genus(h)
    try:
        # g >= 7h - 4 implies g >= 3h - 1, so normalize_t only rejects t.
        feasible = g >= 7 * h - 4 and normalize_t(g, h, t) == t
    except (BranchRangeError, CongruenceError):
        feasible = False
    ell: int | None = None
    if feasible:
        numerator = 2 * t - g + 3 * h - 2
        assert numerator % 3 == 0 and numerator >= 0
        ell = numerator // 3
    return Feasibility(g=g, h=h, t=t, feasible=feasible, ell=ell)

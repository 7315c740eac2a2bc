"""Degree ledger for a triple cover embedded in a ruled surface.

A degree-3 cover pi: X -> C of a genus-h curve splits off a rank-2 bundle E
on C with deg(det E) = 3h - g - 2 (Riemann-Hurwitz), and X embeds in the
ruled surface P(E).  Writing delta for minus the self-intersection of a
minimal section, everything else is linear bookkeeping in (g, h, delta):
the twist degree n = deg M, the quotient degree deg L, and the fiber
coefficient of the class of the embedded curve.  Nagata's theorem bounds
delta below by -h; irreducibility of the embedded curve bounds it above by
(g - 3h + 2)/3.

``section_vanishing_margins`` records the degree bounds under which the
twisted bundles have no sections, which is what makes the pencil loci
reduced at the pulled-back points; ``reducedness_genus_bounds`` compares
the genus bound obtained that way with the weaker one obtained by routing
through the Castelnuovo-Severi inequality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .existence import _parity_e, _pullback_degree, _require_base_genus

__all__ = [
    "DeltaParityError",
    "DeltaWindowError",
    "TripleCoverGeometry",
    "VanishingMargins",
    "TwistedDegrees",
    "ReducednessBounds",
    "derive_geometry",
    "admissible_deltas",
    "section_vanishing_margins",
    "twisted_degrees",
    "reducedness_genus_bounds",
]


class DeltaParityError(ValueError):
    """delta must share the parity of g - 3h for the twist degree to be integral."""


class DeltaWindowError(ValueError):
    """delta must lie in [-h, (g - 3h + 2)/3]."""


class TripleCoverGeometry(NamedTuple):
    """The derived degree ledger for one (g, h, delta).

    Invariants: det_e_degree = 3h - g - 2, n = deg_m = (delta - g + 3h - 2)/2,
    deg_l = (-g + 3h - 2 - delta)/2, deg_m + deg_l = det_e_degree, and
    fx_fiber_coeff = (3 delta + g - 3h + 2)/2.  Note deg_m - deg_l = delta.
    """

    g: int
    h: int
    delta: int
    det_e_degree: int
    n: int
    deg_m: int
    deg_l: int
    fx_fiber_coeff: int


class VanishingMargins(NamedTuple):
    """Degree margins forcing the twisted bundles to have no sections."""

    g: int
    h: int
    parity: str
    twist_degree_2d: int
    bound_m: Fraction
    bound_l: Fraction
    vanishing_guaranteed: bool


class TwistedDegrees(NamedTuple):
    """Actual twisted degrees for one admissible delta, beside the twist
    degree and the rational bounds of ``section_vanishing_margins``."""

    g: int
    h: int
    delta: int
    twist_degree_2d: int
    deg_m_twisted: int
    deg_l_twisted: int
    bound_m: Fraction
    bound_l: Fraction


class ReducednessBounds(NamedTuple):
    """Genus bounds for reducedness of the pencil locus, by parity of h:
    the direct bound from the vanishing margins versus the alternative one
    obtained through the Castelnuovo-Severi inequality.
    """

    h: int
    parity: str
    direct: int
    alternative: int


def _require_cover(g: int, h: int) -> None:
    _require_base_genus(h)
    if g < 3 * h:
        raise ValueError(f"triple-cover numerology needs g >= 3h, got g = {g}, h = {h}")


def derive_geometry(g: int, h: int, delta: int) -> TripleCoverGeometry:
    """Populate the full ledger for (g, h, delta), validating parity, then the
    Nagata/irreducibility window for delta as ``admissible_deltas`` states it."""
    deltas = admissible_deltas(g, h)
    if (delta - (g - 3 * h)) % 2 != 0:
        raise DeltaParityError(
            f"delta = {delta} must have the parity of g - 3h = {g - 3 * h}"
        )
    if not deltas.start <= delta < deltas.stop:  # as delta has their parity; O(1) for a float too
        raise DeltaWindowError(
            f"delta = {delta} outside the window [-h, (g-3h+2)/3] = "
            f"[{-h}, {Fraction(g - 3 * h + 2, 3)}]"
        )
    det_e_degree = 3 * h - g - 2
    n = (delta - g + 3 * h - 2) // 2  # exact, parity checked above
    deg_l = (-g + 3 * h - 2 - delta) // 2
    fx_fiber_coeff = (3 * delta + g - 3 * h + 2) // 2
    return TripleCoverGeometry(
        g=g,
        h=h,
        delta=delta,
        det_e_degree=det_e_degree,
        n=n,
        deg_m=n,
        deg_l=deg_l,
        fx_fiber_coeff=fx_fiber_coeff,
    )


def admissible_deltas(g: int, h: int) -> range:
    """All delta in [-h, (g-3h+2)/3] with the parity of g - 3h, ascending,
    as a ``range``: it takes no memory per element, and slicing it works at
    any g, while ``len`` overflows past ``sys.maxsize``."""
    _require_cover(g, h)
    # -h + g % 2 is the least delta >= -h with the parity of g - 3h.
    return range(-h + g % 2, (g - 3 * h + 2) // 3 + 1, 2)


def section_vanishing_margins(g: int, h: int) -> VanishingMargins:
    """Degree bounds for the twisted sub- and quotient bundles after adding
    twice the auxiliary base-curve pencil divisor (degree floor((h+3)/2):
    e+1 for h = 2e, e+2 for h = 2e+1):

        bound_m = (-g + 6h + 4)/3,    bound_l = (-g + 6h + 2)/2.

    Vanishing of sections is guaranteed from the direct bound of
    ``reducedness_genus_bounds`` on (g > 6h + 4 for h even, g > 6h + 7 for
    h odd); in that regime both bounds are negative.  A genus below 3h - 2
    is an error: by Riemann-Hurwitz, 2g - 2 >= 3(2h - 2) for a triple
    cover.
    """
    bounds = reducedness_genus_bounds(h)
    if g < 3 * h - 2:
        raise ValueError(
            f"a triple cover needs g >= 3h - 2 (Riemann-Hurwitz), got g = {g}, h = {h}"
        )
    guaranteed = g >= bounds.direct
    bound_m = Fraction(-g + 6 * h + 4, 3)
    bound_l = Fraction(-g + 6 * h + 2, 2)
    if guaranteed:
        assert bound_m < 0 and bound_l < 0
    return VanishingMargins(
        g=g,
        h=h,
        parity=bounds.parity,
        twist_degree_2d=2 * _pullback_degree(h),
        bound_m=bound_m,
        bound_l=bound_l,
        vanishing_guaranteed=guaranteed,
    )


def twisted_degrees(g: int, h: int) -> list[TwistedDegrees]:
    """Per-delta actual degrees of the twisted bundles, alongside the
    rational bounds reported by ``section_vanishing_margins``."""
    _require_cover(g, h)  # g >= 3h is stricter than the margins' 3h - 2
    margins = section_vanishing_margins(g, h)
    out = []
    for delta in admissible_deltas(g, h):
        geom = derive_geometry(g, h, delta)
        out.append(
            TwistedDegrees(
                g=g,
                h=h,
                delta=delta,
                twist_degree_2d=margins.twist_degree_2d,
                deg_m_twisted=geom.deg_m + margins.twist_degree_2d,
                deg_l_twisted=geom.deg_l + margins.twist_degree_2d,
                bound_m=margins.bound_m,
                bound_l=margins.bound_l,
            )
        )
    return out


def reducedness_genus_bounds(h: int) -> ReducednessBounds:
    """The two genus bounds guaranteeing reducedness of the pencil locus at
    pulled-back points: 12e+5 vs 18e+6 for h = 2e, 12e+14 vs 18e+21 for
    h = 2e+1.  The direct bound rewrites as 6h+5 (h even) and 6h+8 (h odd).
    """
    parity, e = _parity_e(h)
    if parity == "even":
        return ReducednessBounds(h=h, parity=parity, direct=12 * e + 5, alternative=18 * e + 6)
    return ReducednessBounds(h=h, parity=parity, direct=12 * e + 14, alternative=18 * e + 21)

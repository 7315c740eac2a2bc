"""Verification engine for the low-degree pencil existence bound.

For a curve of genus g carrying a degree-3 cover of a general genus-h curve,
the existence of base-point-free pencils of every degree down to the
critical degree g - m - 1, m = floor((3h+1)/2), reduces at the critical
degree itself to one strict intersection-number inequality:

* the class of the rank-1 special-divisor locus, paired against the
  complementary power x^(g-2m-3) (the left side), must strictly exceed
* the contribution of the pencils pulled back from the base curve (the
  right side).

Both sides are built from one pairing: on the d-th symmetric product of a
genus-G curve, the rank-1 locus class against x^(2d-G-1) is
C(G, d-1) - C(G, d).  The left side is this at (g, g-m-1); the right side
is C(g-2m-3, 2p-h-1) times this at (h, p), p = floor((h+3)/2).  Parity
only sets the reported parity and e, the audit's ``residual_case`` step and
the ``_odd`` suffix of the odd-case audit step names.

``verify_inequality`` computes the left side by two independent routes (the
binomial closed form and a polynomial expansion evaluated by Poincare's
formula) and insists they agree exactly.  ``audit_proof_chain`` replays the
whole chain of auxiliary inequalities leading to the comparison, reporting
each verdict without judging; near the smallest admissible genus some links
of the chain fail arithmetically, and the audit's job is to say so.
``sweep`` fans ``verify_inequality`` over (h, g) ranges, sharded by h, with
results assembled in a deterministic order regardless of worker count.  With
W >= 2 workers the calling process computes every W-th base genus itself and
starts W - 1 processes, no more than they have tasks, for the rest; those
return only the integer sides of each case, and the caller builds their
reports.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import binomial
from .brill_noether import bn1_class, rho
from .cohomology import evaluate_top, monomial, mul_classes

__all__ = [
    "InequalityReport",
    "AuditStep",
    "ProofAudit",
    "genus_bound",
    "critical_degree",
    "verify_inequality",
    "audit_proof_chain",
    "sweep",
]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of the critical-degree comparison for one (h, g)."""

    h: int
    g: int
    e: int
    parity: str
    critical_degree: int
    lhs: Fraction
    rhs: Fraction
    lhs_via_expansion: Fraction
    strict: bool


@dataclass(frozen=True)
class AuditStep:
    """One named inequality in the replayed chain, with exact sides."""

    name: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    holds: bool
    detail: str


@dataclass(frozen=True)
class ProofAudit:
    """The ordered inequality chain for one (h, g), verdicts included."""

    h: int
    g: int
    e: int
    parity: str
    steps: tuple[AuditStep, ...]

    @property
    def all_hold(self) -> bool:
        return all(step.holds for step in self.steps)

    def failures(self) -> list[AuditStep]:
        return [step for step in self.steps if not step.holds]


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


def _require_base_genus(h: int) -> None:
    if h < 1:
        raise ValueError(f"base genus must be at least 1, got {h}")


def _parity_e(h: int) -> tuple[str, int]:
    _require_base_genus(h)
    if h % 2 == 0:
        return "even", h // 2
    return "odd", (h - 1) // 2


def _half_bracket(h: int) -> int:
    # floor((3h+1)/2): 3e for h = 2e, 3e+2 for h = 2e+1
    return (3 * h + 1) // 2


def genus_bound(h: int) -> int:
    """Smallest genus the existence statement covers for base genus h."""
    _require_base_genus(h)
    m = _half_bracket(h)
    return (2 * m + 1) * (m + 1)


def critical_degree(h: int, g: int) -> int:
    """The last degree the statement must handle: g - floor((3h+1)/2) - 1."""
    _require_base_genus(h)
    return g - _half_bracket(h) - 1


def _bn1_closed_form(genus: int, d: int) -> int:
    """The rank-1 locus class on the d-th symmetric product of a genus-G
    curve paired against x^(2d-G-1): C(G, d-1) - C(G, d), G = genus."""
    return binomial(genus, d - 1) - binomial(genus, d)


def _bn1_pairing(genus: int, d: int) -> Fraction:
    """The same pairing as ``_bn1_closed_form``, expanded in the x/theta
    ring and evaluated by Poincare's formula.  It takes a factorial and
    falling factorials but no binomial, so the two routes stay independent."""
    return evaluate_top(mul_classes(bn1_class(genus, d), monomial(genus, d, 2 * d - genus - 1, 0)))


def _pullback_degree(h: int) -> int:
    """Degree of the base-curve pencils pulled back at the critical degree
    (e+1 for h = 2e, e+2 for h = 2e+1): the smallest d with rho(h, 1, d) >= 0."""
    return (h + 3) // 2


def _sides(h: int, g: int) -> tuple[int, int]:
    """The closed-form sides (lhs, rhs) of the critical-degree comparison,
    after checking the left side against its expansion route."""
    _require_base_genus(h)
    m = _half_bracket(h)
    if g < 2 * m + 4:  # the complementary x-power g-2m-3 must be at least 1
        raise ValueError(
            f"genus {g} too small for the {_parity_e(h)[0]}-case arithmetic (needs g >= {2 * m + 4})"
        )
    d = g - m - 1  # the critical degree
    pullback = _pullback_degree(h)
    lhs = _bn1_closed_form(g, d)
    rhs = binomial(g - 2 * m - 3, 2 * pullback - h - 1) * _bn1_closed_form(h, pullback)
    expansion = _bn1_pairing(g, d)
    if expansion != lhs:
        raise ArithmeticError(
            f"internal consistency failure at (h={h}, g={g}): closed form {lhs} "
            f"!= expansion {expansion}"
        )
    return lhs, rhs


def _report(h: int, g: int, lhs: int, rhs: int) -> InequalityReport:
    """The report of sides that ``_sides`` computed for (h, g).  The two
    routes agreed exactly, so the expansion's value is the closed form's."""
    parity, e = _parity_e(h)
    lhs_value = Fraction(lhs)
    # Positional arguments, in field order: keywords cost the serial sweep
    # about 0.5 us per report.
    return InequalityReport(
        h, g, e, parity, g - _half_bracket(h) - 1, lhs_value, Fraction(rhs), lhs_value, lhs > rhs
    )


def verify_inequality(h: int, g: int) -> InequalityReport:
    """Compute both sides of the critical-degree comparison for (h, g).

    With m = floor((3h+1)/2) and d = g-m-1, the left side pairs the rank-1
    locus class at (g, d) against x^(g-2m-3), evaluated twice: by the
    binomial closed form C(g, d-1) - C(g, d) = C(g, m+2) - C(g, m+1) and by
    expanding the class in the x/theta ring.  Disagreement between the two
    routes is a fatal internal error, not a reportable verdict.  The right
    side is C(g-2m-3, 2p-h-1) times the same closed form on the base curve
    at the pull-back degree p = floor((h+3)/2), the Castelnuovo count of the
    pulled-back pencils; no formula depends on the parity of h.  The sides
    stay ints until the report: comparing ints is cheaper than comparing
    Fractions.
    """
    return _report(h, g, *_sides(h, g))


def _step(name: str, detail: str, lhs: Fraction | int, relation: str, rhs: Fraction | int) -> AuditStep:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    return AuditStep(
        name=name,
        lhs=lhs,
        relation=relation,
        rhs=rhs,
        holds=_RELATIONS[relation](lhs, rhs),
        detail=detail,
    )


def audit_proof_chain(h: int, g: int) -> ProofAudit:
    """Replay every inequality in the chain behind the existence bound.

    Each step is recorded with its exact sides and a verdict; a failed step
    is reported, never raised.  The chain, with m = floor((3h+1)/2) and
    n = m + 2 (odd-case steps carry an ``_odd`` suffix):

    1. cs_window            the auxiliary pencil degree n+1 sits inside the
                            Castelnuovo-Severi window (g-3h)/2
    2. pullback_rho         the base-curve pencils being pulled back move in
                            a family of nonnegative expected dimension
    3. composed_dim         every degree-(n+1) pencil composed with the cover
                            lies in a locus of dimension < 1 (an empty locus
                            is reported as dimension -1)
    4. equidim_genus        the genus hypothesis making the pencil loci
                            equi-dimensional of minimal dimension at n
    5. bpfpt_chain          the base-point-free pencil trick forces at least
                            three sections on the square of a minimal
                            base-free constituent
    6. residual_case        the degenerate residual-series case contradicts
                            the genus hypothesis
    7. martens_mumford      the doubling dimension bound meets the
                            Martens-Mumford cap exactly at the cap
    8. mm_vs_cs             the Martens-Mumford cap fits back inside the
                            Castelnuovo-Severi window
    9. castelnuovo_pairing  the expanded base-curve class pairing
                            reproduces its closed form, the Castelnuovo count
    10. final_strict        the critical-degree comparison itself
    """
    parity, e = _parity_e(h)
    m = _half_bracket(h)
    n = m + 2
    pullback = _pullback_degree(h)
    window = Fraction(g - 3 * h, 2)
    m_hi = (n + 1) // 3  # largest base degree a composed pencil allows
    composed_dim = (n - pullback - h - 1) if pullback <= m_hi else -1
    beta_min = m + 3
    slack = beta_min - m
    residual_cap, residual_text, sfx = (g - 7, "g-7", "") if parity == "even" else (g - 15, "g-15", "_odd")
    beta_cap = 3 * m + 4
    report = verify_inequality(h, g)

    chain = [
        ("cs_window", f"pencils of degree n+1 = {n + 1} fall inside the Castelnuovo-Severi "
         "window: n+1 <= (g-3h)/2", n + 1, "<=", window),
        ("pullback_rho", f"pulled-back pencils of base degree {pullback} move in a family of "
         f"nonnegative dimension: rho({h}, 1, {pullback}) >= 0", rho(h, 1, pullback), ">=", 0),
        ("composed_dim", "the locus of degree-(n+1) pencils composed with the cover has "
         "dimension < 1 (empty locus reported as -1)", composed_dim, "<", 1),
        ("equidim_genus", "genus hypothesis for equi-dimensionality of the pencil loci: "
         f"g >= (2n-3)(n-1) at n = {n}", g, ">=", genus_bound(h)),
        ("bpfpt_chain", "base-point-free pencil trick at the minimal base-free degree "
         f"beta = {beta_min}: h0(L^2) >= {slack} >= 3", slack, ">=", 3),
        ("residual_case", "the residual-series case is ruled out by the genus hypothesis: "
         f"12e < {residual_text}", 12 * e, "<", residual_cap),
        ("martens_mumford", "the doubling dimension bound meets the Martens-Mumford cap "
         f"exactly at beta = {beta_cap}", 2 * (beta_cap - m) - 5, "<=", beta_cap + m - 1),
        ("mm_vs_cs", "the Martens-Mumford cap fits inside the Castelnuovo-Severi "
         f"window: {beta_cap} <= (g-3h)/2", beta_cap, "<=", window),
        ("castelnuovo_pairing", "pairing the rank-1 locus class on the base curve reproduces the "
         "Castelnuovo count", _bn1_pairing(h, pullback), "==", _bn1_closed_form(h, pullback)),
        ("final_strict", "the rank-1 locus pairs strictly above the pulled-back pencil "
         "contribution at the critical degree", report.lhs, ">", report.rhs),
    ]
    steps = tuple(_step(name + sfx, *sides) for name, *sides in chain)
    return ProofAudit(h=h, g=g, e=e, parity=parity, steps=steps)


def _sweep_one_h(args: tuple[int, int]) -> list[InequalityReport]:
    h, g_margin = args
    base = genus_bound(h)
    return [verify_inequality(h, g) for g in range(base, base + g_margin + 1)]


def _sweep_sides(args: tuple[int, int]) -> list[tuple[int, int]]:
    """A pool worker's task: the (lhs, rhs) ints of ``_sweep_one_h``'s cases,
    which cost a fraction of the reports to pickle and unpickle."""
    h, g_margin = args
    base = genus_bound(h)
    return [_sides(h, g) for g in range(base, base + g_margin + 1)]


def sweep(
    h_range: tuple[int, int], g_margin: int = 0, workers: int | None = None
) -> list[InequalityReport]:
    """Verify the comparison for every h in h_range (inclusive) and every
    g from genus_bound(h) to genus_bound(h) + g_margin.

    Work is sharded by h; the result order (h ascending, then g ascending)
    is independent of the worker count.  With W >= 2 workers and at least
    two base genera, the calling process verifies every W-th base genus
    itself while at most W - 1 forked processes compute the integer sides
    of the others, from which the caller builds their reports.
    """
    h_lo, h_hi = h_range
    if g_margin < 0:
        raise ValueError(f"g_margin must be nonnegative, got {g_margin}")
    tasks = [(h, g_margin) for h in range(h_lo, h_hi + 1)]
    if not tasks:
        return []
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(tasks) == 1:
        return [report for task in tasks for report in _sweep_one_h(task)]
    pooled = [task for i, task in enumerate(tasks) if i % workers]
    chunks = {}
    # Under fork every process of the pool starts at once, so the pool has
    # no more processes than tasks.
    with ProcessPoolExecutor(max_workers=min(workers - 1, len(pooled))) as pool:
        pairs = pool.map(_sweep_sides, pooled)
        try:
            for task in tasks[::workers]:
                chunks[task[0]] = _sweep_one_h(task)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        for (h, _), sides in zip(pooled, pairs):
            base = genus_bound(h)
            chunks[h] = [_report(h, g, lhs, rhs) for g, (lhs, rhs) in enumerate(sides, base)]
    return [report for h in range(h_lo, h_hi + 1) for report in chunks[h]]

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

``verify_inequality`` computes the left side by two independent routes,
``_bn1_closed_form`` (the binomial closed form) and ``_bn1_expansions`` (the
rank-1 locus class expanded in the x/theta ring and paired with x^(g-2m-3)
by Poincare's formula), and insists they agree, in integers.
``audit_proof_chain`` replays the whole chain of auxiliary inequalities
leading to the comparison, reporting each verdict without judging; near the
smallest admissible genus some links of the chain fail arithmetically, and
the audit's job is to say so.
``verify_inequality`` is the one-genus case of a kernel, ``_genus_sides``,
that derives what depends only on a base genus h once, then runs both routes
along a run g = g0, g0+1, ...: each takes its binomials or falling factorials
at g0 and steps them from one g to the next by one multiplication and one
exact division by small ints (``_bn1_closed_forms``; ``top_numerators``
under ``_bn1_expansions``).  ``sweep`` runs the kernel once per base genus h
from genus_bound(h), sharded by h across forked processes, and assembles
results in a deterministic order regardless of worker count.
"""

from __future__ import annotations

import marshal
import operator
import os
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .arith import binomial, binomial_bits
from .brill_noether import bn1_class, pencil_dimension_genus, rho
from .cohomology import top_numerators

__all__ = [
    "InequalityReport",
    "AuditStep",
    "ProofAudit",
    "genus_bound",
    "critical_degree",
    "lhs_bits",
    "verify_inequality",
    "audit_proof_chain",
    "sweep",
]


class InequalityReport(NamedTuple):
    """Outcome of the critical-degree comparison for one (h, g), in ints."""

    h: int
    g: int
    e: int
    parity: str
    critical_degree: int
    lhs: int
    rhs: int
    lhs_via_expansion: int
    strict: bool


class AuditStep(NamedTuple):
    """One named inequality in the replayed chain, with exact sides: ints,
    except the Castelnuovo-Severi window (g-3h)/2 and the expanded
    base-curve pairing, which are Fractions."""

    name: str
    lhs: int | Fraction
    relation: str
    rhs: int | Fraction
    holds: bool
    detail: str


class ProofAudit(NamedTuple):
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
    return ("even", "odd")[h % 2], h // 2


def _half_bracket(h: int) -> int:
    # floor((3h+1)/2): 3e for h = 2e, 3e+2 for h = 2e+1
    return (3 * h + 1) // 2


def genus_bound(h: int) -> int:
    """Smallest genus the existence statement covers for base genus h."""
    _require_base_genus(h)
    return pencil_dimension_genus(_half_bracket(h) + 2)


def critical_degree(h: int, g: int) -> int:
    """The last degree the statement must handle: g - floor((3h+1)/2) - 1."""
    _require_base_genus(h)
    return g - _half_bracket(h) - 1


def _bn1_closed_form(genus: int, d: int) -> int:
    """The rank-1 locus class on the d-th symmetric product of a genus-G
    curve paired against x^(2d-G-1): C(G, d-1) - C(G, d), G = genus."""
    return binomial(genus, d - 1) - binomial(genus, d)


def _bn1_closed_forms(genus: int, d: int, count: int) -> list[int]:
    """``_bn1_closed_form`` at (G, d + G - genus) for the ``count`` >= 1
    genera G from ``genus`` on, 2d >= genus + 2 (the sweep's runs).  The
    binomials are taken at the first genus only.  With k = genus - d fixed,
    L(G) = C(G, k+1) - C(G, k) = C(G, k)(G-2k-1)/(k+1), so each later genus
    costs one multiplication and one exact division by small ints:

        L(G+1) = L(G) * (G+1)(G-2k) / ((G+1-k)(G-2k-1)),

    whose divisor is positive for G >= 2k+2, that is 2d >= genus + 2.
    """
    value = _bn1_closed_form(genus, d)
    k = genus - d
    values = [value]
    for G in range(genus, genus + count - 1):
        value = value * ((G + 1) * (G - 2 * k)) // ((G + 1 - k) * (G - 2 * k - 1))
        values.append(value)
    return values


def _bn1_expansions(genus: int, d: int, count: int) -> tuple[list[int], int]:
    """``_bn1_closed_form`` at (G, d + G - genus) for the ``count`` genera G
    from ``genus`` on, expanded in the x/theta ring: the rank-1 locus class
    at (genus, d), placed on each (G, d') with d' = d + G - genus and paired
    with x^(2d'-G-1) by Poincare's formula (``top_numerators``), as
    top-degree numerators over the class's denominator; the product class is
    never built.  It takes a factorial and falling factorials but no
    binomial, so the two routes stay independent.  ``_genus_sides`` pairs one
    class at every genus of a run, and the audit's ``castelnuovo_pairing``
    step at its base genus alone."""
    cls = bn1_class(genus, d)
    return top_numerators(cls, 2 * d - genus - 1, count), cls._denominator


def _pullback_degree(h: int) -> int:
    """Degree of the base-curve pencils pulled back at the critical degree
    (e+1 for h = 2e, e+2 for h = 2e+1): the smallest d with rho(h, 1, d) >= 0."""
    return (h + 3) // 2


def _checked_half_bracket(h: int, g: int) -> int:
    """m = floor((3h+1)/2), after checking that (h, g) is a comparison the
    verifier can make."""
    _require_base_genus(h)
    m = _half_bracket(h)
    if g < 2 * m + 4:  # the complementary x-power g-2m-3 must be at least 1
        raise ValueError(
            f"genus {g} too small for the {_parity_e(h)[0]}-case arithmetic (needs g >= {2 * m + 4})"
        )
    return m


def lhs_bits(h: int, g: int) -> int:
    """An integer j with verify_inequality(h, g).lhs >= 2**j, found without
    computing the left side.  With m = floor((3h+1)/2) the left side is
    C(g, m+1)(g-2m-3)/(m+2) >= C(g, m+1)/(m+2), and m+2 < 2**(m+2).bit_length()."""
    m = _checked_half_bracket(h, g)
    return binomial_bits(g, m + 1) - (m + 2).bit_length()


def _genus_sides(h: int, g0: int, count: int) -> list[tuple[int, int]]:
    """The closed-form sides (lhs, rhs) of base genus h at the ``count``
    genera g from g0 on, the lhs stepped along g (``_bn1_closed_forms``) and
    checked at each g against the expansion route at the critical degree d
    (``_bn1_expansions``): the rank-1 locus class paired with x^(g-2m-3) by
    Poincare's formula, since 2d-g-1 = g-2m-3.  What depends only on h is
    derived once, and admissibility checked at g0.  That includes the rank-1
    class: it depends on (g, d) only through k = g - d = m + 1 and the
    survival tests k+1 <= d and k <= g, which hold for g >= 2m+4, so it is
    built once, at g0.  The expansion is lhs exactly when its numerator is
    lhs times the class's denominator; a ``Fraction`` is built only to report
    a disagreement."""
    m = _checked_half_bracket(h, g0)
    pullback = _pullback_degree(h)
    draws = 2 * pullback - h - 1  # 1 or 2, and g-2m-3 >= 1: math.comb needs no range check
    base_pairing = _bn1_closed_form(h, pullback)
    d = g0 - m - 1  # the critical degree
    closed_forms = _bn1_closed_forms(g0, d, count)
    numerators, denominator = _bn1_expansions(g0, d, count)
    sides = []
    for g, lhs, numerator in zip(range(g0, g0 + count), closed_forms, numerators):
        if numerator != lhs * denominator:
            raise ArithmeticError(
                f"internal consistency failure at (h={h}, g={g}): closed form {lhs} "
                f"!= expansion {Fraction(numerator, denominator)}"
            )
        sides.append((lhs, comb(g - 2 * m - 3, draws) * base_pairing))
    return sides


def _reports(h: int, g_lo: int, sides: list[tuple[int, int]]) -> list[InequalityReport]:
    """The reports of base genus h from g = g_lo on, from the int sides that
    ``_genus_sides`` computed; the two routes agreed, so each report's
    ``lhs_via_expansion`` is its ``lhs`` object."""
    parity, e = _parity_e(h)
    offset = _half_bracket(h) + 1
    # Positional arguments, in field order: keywords cost the serial sweep
    # about 0.4 us per report.
    return [
        InequalityReport(h, g, e, parity, g - offset, lhs, rhs, lhs, lhs > rhs)
        for g, (lhs, rhs) in enumerate(sides, g_lo)
    ]


def verify_inequality(h: int, g: int) -> InequalityReport:
    """Compute both sides of the critical-degree comparison for (h, g).

    With m = floor((3h+1)/2) and d = g-m-1, the left side pairs the rank-1
    locus class at (g, d) against x^(g-2m-3), evaluated twice: by the
    binomial closed form C(g, d-1) - C(g, d) = C(g, m+2) - C(g, m+1) and by
    expanding the class in the x/theta ring.  Disagreement between the two
    routes is a fatal internal error, not a reportable verdict.  The right
    side is C(g-2m-3, 2p-h-1) times the same closed form on the base curve
    at the pull-back degree p = floor((h+3)/2), the Castelnuovo count of the
    pulled-back pencils; no formula depends on the parity of h.
    """
    return _reports(h, g, _genus_sides(h, g, 1))[0]


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
    (numerator,), denominator = _bn1_expansions(h, pullback, 1)

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
         "Castelnuovo count", Fraction(numerator, denominator), "==", _bn1_closed_form(h, pullback)),
        ("final_strict", "the rank-1 locus pairs strictly above the pulled-back pencil "
         "contribution at the critical degree", report.lhs, ">", report.rhs),
    ]
    steps = tuple(
        AuditStep(name + sfx, lhs, relation, rhs, _RELATIONS[relation](lhs, rhs), detail)
        for name, detail, lhs, relation, rhs in chain
    )
    return ProofAudit(h=h, g=g, e=e, parity=parity, steps=steps)


def _fork_share(share: range, count: int) -> tuple[int, int]:
    """Fork a child that runs ``_genus_sides`` for each base genus of
    ``share`` (see ``sweep``); return its pid and the read end of its pipe.
    The child writes the int sides marshalled and exits 0, or its pickled
    exception and exits 1, through ``os._exit``: it never returns into the
    caller's stack and never flushes the stdio buffers it inherited."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 70  # set only once the whole payload is written
        try:
            os.close(read_end)
            try:
                payload, done = marshal.dumps([_genus_sides(h, genus_bound(h), count) for h in share]), 0
            except BaseException as exc:
                import pickle

                payload, done = pickle.dumps(exc), 1
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = done
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _received(share: range, status: int, payload: bytes) -> list[list[tuple[int, int]]]:
    """The int pairs a reaped child sent for ``share``, given its wait status;
    re-raises the child's exception, and refuses a payload it did not finish."""
    if status == 0:
        return marshal.loads(payload)
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 1:
        import pickle

        raise pickle.loads(payload)
    genera = ", ".join(map(str, share))
    raise ChildProcessError(
        f"the sweep process for base genera {genera} ended without its result (wait status {status})"
    )


def sweep(
    h_range: tuple[int, int], g_margin: int = 0, workers: int | None = None
) -> list[InequalityReport]:
    """Verify the comparison for every h in h_range (inclusive) and every
    g from genus_bound(h) to genus_bound(h) + g_margin.

    Work is sharded by h, one task per base genus: a run of ``_genus_sides``
    from genus_bound(h), which checks both left-side routes against each
    other at every case.  The result order (h ascending, then g ascending) is
    independent of the worker count W, which defaults to the number of
    processors this process may run on.  With P = min(W, the number of
    tasks) processes, the calling process forks P - 1 children (``os.fork``),
    each with its own pipe, and verifies every P-th base genus from the first
    itself while child i = 1, 2, ... computes the integer sides of every P-th
    from the (i+1)-th on and sends them back marshalled.  The caller builds
    the reports of its own share, then reads each child's pairs, reaps it and
    builds its reports.  The serial sweep is this path with P = 1: W < 2, a
    single task, or no ``os.fork`` forks no child.  A child's exception is
    raised again with its type and message; a child that ends without its
    result raises ``ChildProcessError``; if the caller's own share raises,
    every child is killed and reaped first.
    """
    if g_margin < 0:
        raise ValueError(f"g_margin must be nonnegative, got {g_margin}")
    tasks = range(h_range[0], h_range[1] + 1)
    if tasks:
        _require_base_genus(tasks[0])  # before any child is forked
    count = g_margin + 1
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # A slice of a range is measured where len(tasks) would overflow.
    processes = max(1, len(tasks[:max(workers, 1)])) if hasattr(os, "fork") else 1
    shares = [tasks[i::processes] for i in range(1, processes)]
    children = []  # (pid, read end) of each child forked so far
    statuses = []
    try:
        for share in shares:
            children.append(_fork_share(share, count))
        chunks = {h: _reports(h, genus_bound(h), _genus_sides(h, genus_bound(h), count))
                  for h in tasks[::processes]}
        payloads = []
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end in children:
            os.close(read_end)
            statuses.append(os.waitpid(pid, 0)[1])
    for share, status, payload in zip(shares, statuses, payloads):
        for h, sides in zip(share, _received(share, status, payload)):
            chunks[h] = _reports(h, genus_bound(h), sides)
    return [report for h in tasks for report in chunks[h]]

"""Compatibility between quasi-orders and valuations.

Home of convexity sweeps, the induced quasi-order on the residue class
domain, the five-condition implication matrix, the local-valuation
criterion I_v < 1, the special* property, rank over a candidate family,
and the passage to the associated quasi-ordered field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groups import INF, value_le, value_lt, value_neg
from .quasiorders import (
    QuasiOrder,
    check_qo_axioms,
    classify_qo,
    frac_extend_qo,
    pullback,
)
from .report import (
    HARD,
    INCONCLUSIVE,
    PASS,
    CheckResult,
    PreconditionError,
    once,
    result,
    sweep,
    witnessed,
)
from .rings import RingElement, RingMismatchError, ZeroIdeal, quotient_ring
from .sampling import SampleUniverse, draws
from .valuations import (
    Padic,
    Valuation,
    field_embedding,
    frac_extend_val,
    in_iv,
    in_rv,
    in_uv,
    is_coarsening,
    on_quotient,
)

#: Detail of an equivalence entry whose sampled sub-verdicts disagree.
DISAGREE = "the sampled verdicts disagree"


# ---------------------------------------------------------------------------
# convexity and compatibility


def is_convex(
    member: Callable[[RingElement], bool],
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = "convex",
    require_symmetric: bool = False,
) -> CheckResult:
    """For symmetric S containing 0: sweep 0 <= y <= z, z in S implies y in S."""
    if require_symmetric:
        sym = sweep(
            f"{label}:sym",
            universe.tuples(1, min(samples, 100), f"{label}:sym"),
            lambda x: member(x) != member(-x),
        )
        if sym.witness:
            raise PreconditionError(
                f"{label}: set is not symmetric at {sym.witness[0]}", witness=sym.witness
            )
    zero = q.ring.zero()
    # z-major: each candidate upper bound is tried against all middles, so
    # the first reported witness has the smallest possible bound; pairs are
    # drawn and swept as (z, y) and the witness is reported as (y, z)
    r = sweep(
        label,
        universe.pairs(samples, label),
        lambda z, y: member(z) and q.le(zero, y) and q.le(y, z) and not member(y),
    )
    if r.witness:
        r.witness = r.witness[::-1]
    return r


def is_compatible(
    v: Valuation,
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = None,
) -> CheckResult:
    """0 <= y <= z forces v(z) <= v(y), swept over sampled pairs."""
    if v.ring is not q.ring:
        raise RingMismatchError("valuation and quasi-order live on different rings")
    label = label or f"compat({v.name},{q.name})"
    zero = q.ring.zero()
    return sweep(
        label,
        universe.pairs(samples, label),
        lambda y, z: q.le(zero, y) and q.le(y, z) and not value_le(v(z), v(y)),
    )


def compatible(v, q, universe, samples=500) -> bool:
    return is_compatible(v, q, universe, samples).status == PASS


# ---------------------------------------------------------------------------
# the residue quasi-order


def residue_rule(q: QuasiOrder, v: Valuation) -> Callable:
    """Comparator on valuation-ring representatives: x <= y or v(x-y) > 0.

    This replaces the existential perturbation by I_v elements in the
    definition of the induced relation; sign stability under I_v shifts
    makes the two agree whenever I_v is convex, and the representative
    invariance sweep guards the replacement.

    Both terms are pure, so their order is free: q is asked first, as it
    is cheaper and decides about three calls in four on the shipped
    instances, and x - y is formed
    and valued only when q says no.
    """
    ring = v.ring
    zero = v.group.zero()
    compare = q._compare_payload

    def rule(px, py):
        return compare(px, py) or value_lt(zero, v._eval_memo(ring.sub(px, py)))

    return rule


def residue_qo(q: QuasiOrder, v: Valuation) -> QuasiOrder:
    """The induced quasi-order on Rv; meaningful once compatibility holds."""
    rule = residue_rule(q, v)
    residue = v.residue_ring()
    return QuasiOrder(
        residue,
        rule,
        f"{q.name}/{v.name}",
        support_ideal=ZeroIdeal(residue),
    )


def residue_universe(
    v: Valuation, universe: SampleUniverse, count: Optional[int] = None
) -> SampleUniverse:
    """A sample universe on Rv echoing the parent's distinguished elements."""
    residue = v.residue_ring()
    zero = v.group.zero()
    dist = []
    for x in universe.distinguished:
        if value_le(zero, v(x)):
            dist.append(residue.el(x.payload))
    return SampleUniverse(
        residue,
        seed=universe.seed,
        count=count or universe.count,
        bounds=universe.bounds,
        distinguished=tuple(dist),
    )


def residue_rule_report(
    q: QuasiOrder,
    v: Valuation,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = None,
) -> List[CheckResult]:
    """Does the comparator rule define a quasi-order with support {0} on Rv?

    Three sweeps: representative invariance under sampled I_v shifts,
    support exactly {0}, and the full axiom suite on residue samples.
    """
    label = label or f"residue-rule({q.name},{v.name})"
    out: List[CheckResult] = []
    rule = residue_rule(q, v)
    ring = v.ring
    zero = v.group.zero()

    elems = universe.elements()
    fsize = universe.forced_size
    rv_forced = [x for x in elems[:fsize] if value_le(zero, v(x))]
    rv_elems = [x for x in elems if value_le(zero, v(x))]
    iv_elems = [c for c in elems if value_lt(zero, v(c))]

    # forced-prefix pairs first so pinned witnesses are met deterministically
    def pair_stream():
        for x in rv_forced:
            for y in rv_forced:
                yield x, y
        if rv_elems:
            rng = random.Random(universe.seed ^ 0x5EED)
            slots = draws(rng, rv_elems)
            yield from zip(slots, slots)

    # each shifted representative x + c is formed once per call
    shift = once(lambda x, c: ring.add(x.payload, c.payload))
    witness = None
    budget = samples * 4
    used = 0
    for x, y in pair_stream():
        if budget <= 0 or witness is not None:
            break
        base_xy = rule(x.payload, y.payload)
        base_yx = rule(y.payload, x.payload)
        for c in iv_elems[:8]:
            budget -= 3
            used += 1
            xs, ys = shift(x, c), shift(y, c)
            if (
                rule(xs, y.payload) != base_xy
                or rule(x.payload, ys) != base_xy
                or rule(ys, x.payload) != base_yx
            ):
                witness = (str(x), str(y), str(c))
                break
    out.append(
        result(f"{label}.representative-invariance", witness is None, witness, used)
    )

    residue = v.residue_ring()
    rq = residue_qo(q, v)
    out.append(
        sweep(
            f"{label}.support-zero",
            [(x,) for x in rv_elems],
            lambda x: rq.sim(residue.el(x.payload), residue.zero()),
            given=lambda x: in_uv(v, x),
        )
    )

    runiverse = residue_universe(v, universe)
    axioms = check_qo_axioms(rq, runiverse, samples=samples, label=f"{label}.axioms")
    out.extend(axioms)
    return out


# ---------------------------------------------------------------------------
# the compatibility theorem and the implication table


@dataclass
class CompatReport:
    """Flags (1)-(5): compatible, Rv convex, Iv convex, Iv < 1, residue rule."""

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    witnesses: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    checks: List[CheckResult] = field(default_factory=list)
    samples: int = 0

    def flag(self, i: int) -> bool:
        return (self.c1, self.c2, self.c3, self.c4, self.c5)[i - 1]

    def format_flags(self) -> str:
        """The flags as "c1=T c2=F c3=F c4=T c5=T", for printing."""
        return " ".join(f"c{i}={'T' if self.flag(i) else 'F'}" for i in range(1, 6))


def table_conditions(
    v: Valuation,
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = None,
) -> CompatReport:
    """Evaluate the five table conditions with recorded witnesses.

    Condition i holds when its deciding entry passed, and the entry's
    witness, if any, is recorded as "ci".  Conditions (1)-(4) are decided
    by one entry each; (5) by the first residue-rule entry that did not
    pass, or else by the last one.
    """
    label = label or f"table({v.name},{q.name})"
    iv_below_one = f"{label}.Iv-below-1"
    checks = [
        is_compatible(v, q, universe, samples, label=f"{label}.compatible"),
        is_convex(lambda x: in_rv(v, x), q, universe, samples, label=f"{label}.Rv-convex"),
        is_convex(lambda x: in_iv(v, x), q, universe, samples, label=f"{label}.Iv-convex"),
        _iv_below_one(v, q, universe, samples, iv_below_one, iv_below_one),
    ]
    residue_checks = residue_rule_report(q, v, universe, samples, label=f"{label}.residue")
    deciding = checks + [
        next((r for r in residue_checks if r.status != PASS), residue_checks[-1])
    ]
    return CompatReport(
        *(r.status == PASS for r in deciding),
        witnesses={f"c{i}": r.witness for i, r in enumerate(deciding, 1) if r.witness},
        checks=checks + residue_checks,
        samples=samples,
    )


#: The printed implication matrix: checkmarked cells of "(row) implies (col)".
TABLE_CHECKMARKS = frozenset(
    {(1, 2), (1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (5, 4)}
)


def table_blank_cells():
    return [
        (i, j)
        for i in range(1, 6)
        for j in range(1, 6)
        if i != j and (i, j) not in TABLE_CHECKMARKS
    ]


def implication_table(
    instance_reports: Dict[str, CompatReport]
) -> Tuple[List[CheckResult], Dict[Tuple[int, int], List[str]]]:
    """Validate the matrix against a corpus of condition reports.

    Checkmarked cells must have zero corpus violations; blank cells must
    have at least one named witness with row true and column false.
    """
    checks: List[CheckResult] = []
    witnesses: Dict[Tuple[int, int], List[str]] = {}
    n = len(instance_reports)
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            offenders = [
                name
                for name, rep in instance_reports.items()
                if rep.flag(i) and not rep.flag(j)
            ]
            if (i, j) in TABLE_CHECKMARKS:
                detail = "checkmark violated" if offenders else "checkmark holds"
                checks.append(
                    result(f"table.{i}=>{j}", not offenders, offenders, n, detail, otherwise=HARD)
                )
            else:
                witnesses[(i, j)] = offenders
                detail = "blank cell witnessed" if offenders else "no corpus witness for blank cell"
                checks.append(witnessed(f"table.{i}-x->{j}", offenders, n, detail))
    return checks, witnesses


def theorem_compat_report(
    v: Valuation,
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = None,
) -> List[CheckResult]:
    """For Manis v: conditions compat, Iv convex and residue rule must agree,
    and Rv convexity joins them when v is nontrivial.

    A divergence among the sampled truth values is inconclusive: a sampled
    pass proves nothing, so the sweeps may simply have missed a witness.
    Also records that compatibility forces I_v < 1, and that the residue
    quasi-order classifies like the original.
    """
    if not v.manis:
        raise PreconditionError(f"theorem report needs a Manis valuation, {v.name} is not")
    label = label or f"compat_equivalence({v.name},{q.name})"
    rep = table_conditions(v, q, universe, samples, label=label)
    out = list(rep.checks)

    t1, t2, t3, t4 = rep.c1, rep.c3, rep.c5, rep.c2
    agree = t1 == t2 == t3
    if v.nontrivial:
        agree = agree and (t4 == t1)
    scope = "nontrivial" if v.nontrivial else "trivial valuation: Rv convexity exempt"
    verdicts = (f"compat={t1}", f"Iv-convex={t2}", f"residue={t3}", f"Rv-convex={t4}")
    detail = scope if agree else f"{DISAGREE}; {scope}"
    out.append(
        result(f"{label}.equivalence", agree, verdicts, rep.samples, detail, otherwise=INCONCLUSIVE)
    )
    if t1:
        out.append(
            result(
                f"{label}.compat-implies-Iv-below-1",
                rep.c4,
                rep.witnesses.get("c4"),
                rep.samples,
            )
        )
        rq = residue_qo(q, v)
        same = classify_qo(rq) == classify_qo(q)
        out.append(
            result(
                f"{label}.residue-class-matches",
                same,
                (classify_qo(rq), classify_qo(q)) if not same else None,
                1,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the local-valuation criterion


def iv_prec_one(
    v: Valuation,
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = None,
) -> List[CheckResult]:
    """For local Manis v: I_v < 1 on samples iff v is compatible with q.

    Sides that disagree on the samples are inconclusive, not a failure.
    """
    if not (v.local and v.manis):
        raise PreconditionError(
            f"iv_prec_one needs a local Manis valuation, {v.name} is not"
        )
    label = label or f"iv1({v.name},{q.name})"
    below = _iv_below_one(v, q, universe, samples, f"{label}.Iv-below-1", label)
    compat = is_compatible(v, q, universe, samples, label=f"{label}.compatible")
    t_below, t_compat = below.status == PASS, compat.status == PASS
    agree = t_below == t_compat
    verdicts = (f"Iv-below-1={t_below}", f"compatible={t_compat}")
    detail = None if agree else DISAGREE
    equivalence = result(
        f"{label}.equivalence", agree, verdicts, samples, detail, otherwise=INCONCLUSIVE
    )
    return [below, compat, equivalence]


def _iv_below_one(v, q, universe, samples, name, tag) -> CheckResult:
    """Every sampled x in I_v has x < 1; samples_used counts the I_v members."""
    one = q.ring.one()
    return sweep(
        name,
        universe.tuples(1, samples, tag),
        lambda x: not q.strict(x, one),
        given=lambda x: in_iv(v, x),
    )


# ---------------------------------------------------------------------------
# special* valuations


def special_star_check(
    v: Valuation,
    universe: SampleUniverse,
    samples: int = 300,
    label: str = None,
) -> List[CheckResult]:
    """Quot(Rv) reaches every residue of the fraction-field extension.

    For each sampled field element of nonnegative extended value we hunt a
    fraction of valuation-ring elements with unit denominator in the same
    residue class: through the Manis preimage when available, otherwise by
    a bounded search over sampled multipliers.  Exhausted searches are
    inconclusive, not failures.
    """
    label = label or f"special*({v.name})"
    uniformizer = None
    if not v.manis:
        # bounded search for value witnesses happens below; the extension
        # still needs its own Manis witness element
        for t in universe.elements():
            val = v(t)
            if val is not INF and val != v.group.zero() and abs(val[0]) == 1:
                uniformizer = t
                break
    nu = frac_extend_val(v, uniformizer)
    to_field = field_embedding(v, nu)
    K = nu.ring
    zero_v = v.group.zero()

    field_universe = universe.on(K)
    multipliers = [x for x in universe.elements() if v(x) is not INF]
    split = _num_den_in(v, K)

    checked = 0
    witness = None
    inconclusive = None
    for xi in field_universe.singles(samples, label):
        if nu(xi) is INF or not value_le(zero_v, nu(xi)):
            continue
        checked += 1
        num, den = split(xi)
        if v(den) is INF:
            inconclusive = (str(xi),)
            continue

        def verify(a, b):
            if not (value_le(zero_v, v(a)) and v(b) == zero_v):
                return False
            frac = to_field(a) * K.inv(to_field(b))
            dv = nu._eval_memo(K.sub(xi.payload, frac.payload))
            return dv is INF or value_lt(zero_v, dv)

        found = False
        bad_pair = None
        for a, b in _representation_candidates(v, num, den, multipliers):
            if verify(a, b):
                found = True
                break
            if v.manis:
                # a Manis witness pair must already agree; record the breakage
                bad_pair = (a, b)
                break
        if not found:
            if v.manis and bad_pair is not None:
                witness = (str(xi), str(bad_pair[0]), str(bad_pair[1]))
                break
            inconclusive = (str(xi),)
    if witness is not None:
        return [result(label, False, witness, checked, "residue mismatch")]
    ok = inconclusive is None
    detail = None if ok else "no representation found within the sampled multipliers"
    return [result(label, ok, inconclusive, checked, detail, otherwise=INCONCLUSIVE)]


def _num_den_in(v: Valuation, K) -> Callable:
    """The split of K = Quot(R/supp(v)) into numerator and denominator in
    R = v.ring: K.poly_pair read in R/supp(v), lifted by the quotient
    section; when R/supp(v) is a field, the denominator is 1."""
    qring, _, section = quotient_ring(v.ring, v.support)
    if K is qring:
        one = v.ring.one()
        return lambda x: (section(x), one)

    def split(x):
        num, den = K.poly_pair(x.payload)
        return section(RingElement(qring, num)), section(RingElement(qring, den))

    return split


def _representation_candidates(v: Valuation, num, den, multipliers):
    """Pairs (a, b) that might represent num/den with a unit denominator."""
    from .rings import PolynomialRing

    zero_v = v.group.zero()
    dval = v(den)
    if v.manis and dval is not INF:
        m = v.preimage(value_neg(dval))
        yield num * m, den * m
        return
    for m in multipliers[:60]:
        if v(m) != value_neg(dval):
            continue
        nval = v(num * m)
        if nval is INF or value_le(zero_v, nval):
            yield num * m, den * m
    ring = v.ring
    if isinstance(ring, PolynomialRing):
        # constant pairs built from the top coefficients
        ncoefs = [c for _, c in ring.terms(num.payload)[:4]]
        dcoefs = [c for _, c in ring.terms(den.payload)[:4]]
        for cn in ncoefs:
            for cd in dcoefs:
                a = RingElement(ring, ring._canon_dict({(0,) * ring.nvars: cn}))
                b = RingElement(ring, ring._canon_dict({(0,) * ring.nvars: cd}))
                if v(b) == zero_v:
                    yield a, b
    yield ring.zero(), ring.one()


# ---------------------------------------------------------------------------
# rank


def rank_check(
    q: QuasiOrder,
    candidates: Sequence[Valuation],
    universe: SampleUniverse,
    samples: int = 500,
    label: str = "rank",
    expect: Optional[int] = None,
) -> Tuple[int, List[Valuation], List[CheckResult]]:
    """Filter nontrivial candidates by compatibility, dedupe, verify a chain.

    The survivors must be totally ordered by coarsening; a violation
    contradicts a guaranteed invariant and is reported as a hard
    inconsistency.  Returns (chain length, coarsest-first chain, checks).
    """
    out: List[CheckResult] = []
    if not q.ring.is_field:
        raise PreconditionError(f"rank wants a quasi-ordered field, got {q.ring.name}")
    for v in candidates:
        if not v.nontrivial:
            raise PreconditionError(f"rank candidates must be nontrivial: {v.name}")

    survivors: List[Valuation] = []
    for v in candidates:
        res = is_compatible(v, q, universe, samples, label=f"{label}.compat({v.name})")
        ok = res.status == PASS
        # candidate filtering is information, not a failure of the rank check
        out.append(replace(res, status=PASS, detail="compatible" if ok else "incompatible"))
        if ok:
            survivors.append(v)

    # whether survivors[i] is a coarsening of survivors[j], swept once per
    # ordered pair; on a field, equivalent valuations have one valuation
    # ring, so the equivalent candidates are the mutual coarsenings
    coarser = {
        (i, j): is_coarsening(v, w, universe, samples)
        for i, v in enumerate(survivors)
        for j, w in enumerate(survivors)
        if i != j
    }
    kept: List[int] = []
    for i in range(len(survivors)):
        if not any(coarser[i, j] and coarser[j, i] for j in kept):
            kept.append(i)

    witness = None
    for k, i in enumerate(kept):
        for j in kept[k + 1:]:
            if not (coarser[i, j] or coarser[j, i]):
                witness = (survivors[i].name, survivors[j].name)
    detail = None if witness is None else "survivors are not totally ordered by coarsening"
    out.append(
        result(f"{label}.chain", witness is None, witness, samples, detail, otherwise=HARD)
    )

    def coarseness(i):
        return sum(coarser[i, j] for j in kept if j != i)

    chain = [survivors[i] for i in sorted(kept, key=lambda i: -coarseness(i))]
    out.append(
        result(
            f"{label}.length",
            expect is None or expect == len(chain),
            (str(len(chain)), f"expected {expect}"),
            samples,
            detail=f"rank {len(chain)}: " + (" < ".join(v.name for v in chain) or "empty"),
        )
    )
    return len(chain), chain, out


# ---------------------------------------------------------------------------
# associated quasi-ordered field


def associated_qofield(
    q: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 400,
    v: Optional[Valuation] = None,
    label: str = "qofield",
):
    """Quotient by the support, extend to the fraction field.

    When a valuation is supplied, its support must agree with q's on the
    samples (PreconditionError otherwise), and compatibility verdicts are
    compared at each distinct level.
    """
    ring = q.ring
    support = q.support_ideal
    if support is None:
        raise PreconditionError(f"{q.name} has no declared support ideal")
    agree = sweep(
        f"{label}.support-agree",
        universe.tuples(1, samples, f"{label}.support-agree"),
        lambda x: q.sim(x, ring.zero()) != support.contains(x.payload),
    )
    if agree.witness:
        raise PreconditionError(
            f"{q.name}: support ideal disagrees with the relation", witness=agree.witness
        )
    out = [agree]

    qring, project, section = quotient_ring(ring, support)
    q_mid = q if qring is ring else pullback(
        q,
        qring,
        lambda p: section(RingElement(qring, p)).payload,
        f"{q.name}/supp",
        ZeroIdeal(qring),
    )
    ext = frac_extend_qo(q_mid)

    if v is not None:
        same_supp = all(
            v.support.contains(x.payload) == support.contains(x.payload)
            for x in universe.singles(min(samples, 100), f"{label}.samesupp")
        )
        if not same_supp:
            raise PreconditionError("valuation support differs from the q.o. support")
        v_mid = on_quotient(v, qring, project, section)
        # each distinct level once: R/supp is R when the support is zero, and
        # the field is R/supp when that is a field; the field level needs a
        # Manis v or a p-adic uniformizer (see frac_extend_val)
        levels = [("R", v, q, universe)]
        if qring is not ring:
            levels.append(("R/E0", v_mid, q_mid, universe.on(qring)))
        if ext.ring is not qring and (v_mid.manis or isinstance(v_mid.provenance, Padic)):
            nu = frac_extend_val(v_mid)
            levels.append(("K", nu, ext, universe.on(nu.ring)))
        verdicts = [compatible(w, p, U, samples) for _, w, p, U in levels]
        detail = " ".join(f"{lv[0]}:{ok}" for lv, ok in zip(levels, verdicts))
        if len(levels) == 1:
            detail += " (one level only, nothing compared)"
        # verdicts sampled on different universes: a disagreement is
        # inconclusive, and so is a single level, which compares nothing
        agree = len(levels) > 1 and len(set(verdicts)) == 1
        name = f"{label}.compat-levels-agree"
        out.append(result(name, agree, None, samples, detail, otherwise=INCONCLUSIVE))

    return ext.ring, ext, out

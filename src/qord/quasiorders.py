"""Quasi-orders on commutative rings.

A quasi-order is a reflexive, transitive, total relation satisfying QR1
through QR5; it is either a ring order or the divisibility relation
x <= y iff v(y) <= v(x) of a valuation.  Quasi-orders are intensional
here: pure comparator functions, never enumerated relations, and two of
them are only ever compared by agreement on a sample universe.
"""

from __future__ import annotations

import operator
from functools import cmp_to_key
from typing import Callable, Optional

from .groups import value_le
from .report import PreconditionError, once, result, sweep
from .rings import (
    Ideal,
    IntegerRing,
    PolynomialRing,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
    RingMismatchError,
    VariableIdeal,
    ZeroIdeal,
    fraction_field,
)
from .valuations import ResidueDomainRing, Valuation

ORDER = "order"
PROPER = "proper-quasi-order"


class QuasiOrder:
    """A quasi-order descriptor exposing a pure comparator for x <= y."""

    def __init__(
        self,
        ring: Ring,
        compare_payload: Callable,
        name: str,
        *,
        support_ideal: Optional[Ideal] = None,
    ):
        self.ring = ring
        self._compare_payload = compare_payload
        self.name = name
        self.support_ideal = support_ideal
        self._memo: dict = {}

    def le(self, x: RingElement, y: RingElement) -> bool:
        # keyed on payload ids of self.ring's table (see Ring.pid), read from
        # the elements' cache; pid hands one out to an element not seen before
        ring = self.ring
        if x.ring is not ring or y.ring is not ring:
            raise RingMismatchError(f"{self.name} compares elements of {ring.name}")
        i, j = x._id, y._id
        if i is None:
            i = ring.pid(x)
        if j is None:
            j = ring.pid(y)
        key = i, j
        cached = self._memo.get(key)
        if cached is None:
            cached = bool(self._compare_payload(x.payload, y.payload))
            self._memo[key] = cached
        return cached

    def sim(self, x, y) -> bool:
        return self.le(x, y) and self.le(y, x)

    def strict(self, x, y) -> bool:
        return self.le(x, y) and not self.le(y, x)

    def __repr__(self):
        return f"QuasiOrder({self.name} on {self.ring.name})"


# ---------------------------------------------------------------------------
# constructors


def from_valuation(w: Valuation) -> QuasiOrder:
    """x <= y iff w(y) <= w(x); the proper quasi-order of a valuation."""

    def cmp(px, py):
        return value_le(w._eval_memo(py), w._eval_memo(px))

    return QuasiOrder(
        w.ring,
        cmp,
        f"qo({w.name})",
        support_ideal=w.support,
    )


def _q_le(a, b) -> bool:
    """a <= b for Q payloads (n, d), cross-multiplied as d > 0."""
    return a[0] * b[1] <= b[0] * a[1]


def natural_order(ring: Ring) -> QuasiOrder:
    """The unique order of Z or Q."""
    if not isinstance(ring, (IntegerRing, RationalField)):
        raise ValueError(f"no natural order on {ring.name}")
    le = operator.le if isinstance(ring, IntegerRing) else _q_le
    return QuasiOrder(ring, le, f"leq({ring.name})", support_ideal=ZeroIdeal(ring))


def const_term_order(poly: PolynomialRing) -> QuasiOrder:
    """f >= 0 iff the constant term of f is >= 0; support is <variables>."""
    if not isinstance(poly.base, (IntegerRing, RationalField)):
        raise ValueError(f"no constant-term order over {poly.base.name}")
    return pullback(
        natural_order(poly.base),
        poly,
        poly.const_coef,
        f"leq0({poly.name})",
        VariableIdeal(poly, poly.variables),
    )


def leading_term_order(field: RationalFunctionField) -> QuasiOrder:
    """Order of a univariate function field by behavior at +infinity."""
    if field.poly.nvars != 1:
        raise ValueError("leading-term order wants a univariate function field")
    return QuasiOrder(
        field, field.le_at_infinity, f"leqinf({field.name})", support_ideal=ZeroIdeal(field)
    )


def at_zero_order(field: RationalFunctionField) -> QuasiOrder:
    """Order of a univariate function field by behavior as the variable -> 0+."""
    if field.poly.nvars != 1:
        raise ValueError("at-zero order wants a univariate function field")
    return QuasiOrder(
        field, field.le_at_zero, f"leq0+({field.name})", support_ideal=ZeroIdeal(field)
    )


def pullback(q: QuasiOrder, ring: Ring, f: Callable, name: str,
             support_ideal: Optional[Ideal]) -> QuasiOrder:
    """x <= y on ring iff f(x) <= f(y) under q, for f a payload map into q.ring."""
    compare = q._compare_payload
    return QuasiOrder(
        ring,
        lambda pa, pb: compare(f(pa), f(pb)),
        name,
        support_ideal=support_ideal,
    )


def transport_qo(q: QuasiOrder, residue: ResidueDomainRing) -> QuasiOrder:
    """Move a quasi-order on the concrete residue ring up to Rv itself (or
    return one already on Rv)."""
    if q.ring is residue:
        return q
    if residue.concrete_ring is None:
        raise ValueError(f"{residue.name} has no concrete residue form")
    if q.ring is not residue.concrete_ring:
        raise RingMismatchError(
            f"{q.name} lives on {q.ring.name}, expected {residue.concrete_ring.name}"
        )
    return pullback(
        q, residue, residue._to_c, f"{q.name}@{residue.name}", ZeroIdeal(residue)
    )


def frac_extend_qo(q: QuasiOrder) -> QuasiOrder:
    """Extend a quasi-order with support {0} on a domain to its fraction field.

    The rule compares cross-multiplied squares: x/y <= a/b iff
    x*y*b^2 <= a*b*y^2 back in the domain.
    """
    domain = q.ring
    K, _ = fraction_field(domain)
    if K is domain:
        return q
    dom = domain

    def cmp(pa, pb):
        x, y = K.poly_pair(pa)
        a, b = K.poly_pair(pb)
        left = dom.mul(dom.mul(x, y), dom.mul(b, b))
        right = dom.mul(dom.mul(a, b), dom.mul(y, y))
        return q._compare_payload(left, right)

    return QuasiOrder(
        K,
        cmp,
        f"{q.name}~",
        support_ideal=ZeroIdeal(K),
    )


# ---------------------------------------------------------------------------
# classification


def classify_qo(q: QuasiOrder) -> str:
    """'order' when -1 < 0, 'proper-quasi-order' when 0 < -1.

    Proper quasi-orders put every element above 0, so the sign of -1
    decides the dichotomy.
    """
    zero = q.ring.zero()
    minus_one = -q.ring.one()
    below, above = q.le(zero, minus_one), q.le(minus_one, zero)
    if not (below or above):
        raise PreconditionError(
            f"{q.name} is not total on ({zero}, {minus_one})",
            witness=(str(zero), str(minus_one)),
        )
    if not above:
        return PROPER
    if not below:
        return ORDER
    raise PreconditionError(
        f"{q.name} has -1 ~ 0; its support would contain 1", witness=("-1",)
    )


# ---------------------------------------------------------------------------
# axiom checker


def check_qo_axioms(q: QuasiOrder, universe, samples: int = 500, label: str = None):
    """Reflexivity, totality, transitivity, QR1-QR5, and primeness of E_0."""
    label = label or q.name
    zero = q.ring.zero()
    one = q.ring.one()

    singles = universe.tuples(1, samples, f"qo:{label}:1")
    pairs = universe.pairs(samples, f"qo:{label}:2")
    triples = universe.triples(samples, f"qo:{label}:3")
    mul, add = once(operator.mul), once(operator.add)

    def support_fails(x, y):
        sx, sy = q.sim(x, zero), q.sim(y, zero)
        if sx and sy and not q.sim(add(x, y), zero):
            return True
        if sx and not q.sim(mul(x, y), zero):
            return True
        return q.sim(mul(x, y), zero) and not (sx or sy)

    return [
        sweep(f"{label}.reflexive", singles, lambda x: not q.le(x, x)),
        sweep(f"{label}.total", pairs, lambda x, y: not (q.le(x, y) or q.le(y, x))),
        sweep(
            f"{label}.transitive",
            triples,
            lambda x, y, z: q.le(x, y) and q.le(y, z) and not q.le(x, z),
        ),
        result(f"{label}.QR1", q.strict(zero, one), ("0", "1"), 1),
        sweep(
            f"{label}.QR2",
            pairs,
            lambda x, y: q.le(mul(x, y), zero)
            and not (q.le(x, zero) or q.le(y, zero)),
        ),
        sweep(
            f"{label}.QR3",
            triples,
            lambda x, y, z: q.le(x, y) and q.le(zero, z)
            and not q.le(mul(x, z), mul(y, z)),
        ),
        sweep(
            f"{label}.QR4",
            triples,
            lambda x, y, z: q.le(x, y) and not q.sim(z, y)
            and not q.le(add(x, z), add(y, z)),
        ),
        sweep(
            f"{label}.QR5",
            triples,
            lambda x, y, z: q.strict(zero, z) and q.le(mul(x, z), mul(y, z))
            and not q.le(x, y),
        ),
        sweep(f"{label}.support-ideal", pairs, support_fails),
    ]


# ---------------------------------------------------------------------------
# derived lemma suite


def check_derived_lemmas(q: QuasiOrder, universe, samples: int = 500,
                         label: str = None):
    """The nine consequences of the axioms, each swept with its hypotheses.

    The ultrametric bound x+y <= max(x, y) only holds in the proper case
    and is gated on 0 < -1; for orders it is reported as vacuously true.
    """
    label = label or q.name
    zero = q.ring.zero()

    ones = universe.tuples(1, samples, f"dl:{label}:1")
    singles = [x for x, in ones]
    pairs = universe.pairs(samples, f"dl:{label}:2")
    triples = universe.triples(samples, f"dl:{label}:3")
    mul, add = once(operator.mul), once(operator.add)

    out = [
        sweep(
            f"{label}.cancel-sim",
            triples,
            lambda x, y, z: not q.sim(z, zero) and q.sim(mul(x, z), mul(y, z))
            and not q.sim(x, y),
        ),
        sweep(
            f"{label}.support-translate",
            pairs,
            lambda x, y: q.sim(x, zero) and not q.sim(y, zero)
            and not q.sim(add(x, y), y),
        ),
        sweep(
            f"{label}.sym-criterion",
            ones,
            lambda x: q.sim(x, -x) != (q.le(zero, x) and q.le(zero, -x)),
        ),
        sweep(
            f"{label}.mul-preserves-sim",
            triples,
            lambda a, x, y: q.sim(x, y) and not q.sim(mul(a, x), mul(a, y)),
        ),
    ]

    if q.strict(zero, -q.ring.one()):
        def above_max(x, y):
            hi = y if q.le(x, y) else x
            return not q.le(add(x, y), hi)

        out.append(sweep(f"{label}.sum-below-max", pairs, above_max))
    else:
        gated = "gated: 0 < -1 fails, bound is vacuous"
        out.append(result(f"{label}.sum-below-max", True, None, 0, gated))

    out += [
        sweep(
            f"{label}.QR3-neg",
            triples,
            lambda x, y, z: q.le(x, y) and q.le(z, zero)
            and not q.le(mul(y, z), mul(x, z)),
        ),
        sweep(
            f"{label}.QR5-neg",
            triples,
            lambda x, y, z: q.le(mul(x, z), mul(y, z)) and q.strict(z, zero)
            and not q.le(y, x),
        ),
        sweep(
            f"{label}.class-translate",
            pairs,
            lambda c, x: q.sim(c, zero) and not q.sim(add(c, x), x),
        ),
    ]

    # symmetric classes: once some y ~ x leaves the translate coset, the
    # whole class of x is closed under negation.  The ~-classes come from
    # one stable sort of the distinct samples by q.le, cut wherever two
    # neighbours are not equivalent, so each class keeps first-occurrence
    # order; x's extra member y and the witness z are looked for in x's
    # class only, and each is still checked pair by pair against x.
    ordered = sorted(
        {id(x): x for x in singles}.values(),
        key=cmp_to_key(lambda a, b: q.le(b, a) - q.le(a, b)),
    )
    classes = {}
    block = []
    for a in ordered:
        if block and not q.sim(block[-1], a):
            block = []
        block.append(a)
        classes[id(a)] = block

    def search(x):
        """(x has an extra member, the first z ~ x with -z not ~ x)."""
        cls = classes[id(x)]
        if not any(q.sim(y, x) and not q.sim(y - x, zero) for y in cls):
            return False, None
        return True, next((z for z in cls if q.sim(z, x) and not q.sim(-z, x)), None)

    witness = None
    checked = 0
    found = {}
    for x in singles[: max(20, len(singles) // 10)]:
        if id(x) not in found:
            found[id(x)] = search(x)
        has_extra, z = found[id(x)]
        checked += has_extra
        if z is not None:
            witness = (str(x), str(z))
            break
    out.append(
        result(
            f"{label}.class-symmetric",
            witness is None,
            witness,
            len(singles),
            detail=f"{checked} classes with extra members",
        )
    )
    return out

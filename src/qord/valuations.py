"""Valuations on commutative rings: v(0)=inf, v(1)=0, v(xy)=v(x)+v(y) and
the ultrametric inequality v(x+y) >= min(v(x), v(y)).

Constructors cover p-adic valuations, trivial valuations with a declared
prime support, Gauss extensions to polynomial rings, extensions to
fraction fields, composites along a residue-level valuation, and the
quotient valuation w/v on a residue class domain.  Manis (surjectivity)
and locality are structural flags set by each constructor together with
explicit preimage witnesses; they are never inferred by search.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from .groups import (
    INF,
    TRIVIAL_GROUP,
    Z_GROUP,
    GroupMismatchError,
    ValueGroup,
    format_value,
    lex_product,
    value_add,
    value_le,
    value_lt,
    value_neg,
    value_sub,
)
from .report import PASS, PreconditionError, once, result, sweep
from .rings import (
    Ideal,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
    RingMismatchError,
    SupportIdeal,
    ZeroIdeal,
    distinct_names,
    fraction_field,
    quotient_ring,
)

@dataclass(frozen=True)
class Padic:
    """Provenance of padic_valuation: the prime p."""

    prime: int


@dataclass(frozen=True)
class Gauss:
    """Provenance of gauss_on: the base valuation and one twist per variable."""

    base: "Valuation"
    gammas: Tuple[int, ...]


@dataclass(frozen=True)
class Composite:
    """Provenance of composite_valuation: the Manis base v and the upper u on Rv."""

    base: "Valuation"
    upper: "Valuation"


@dataclass(frozen=True)
class Extension:
    """Provenance of a field passage: the base valuation v and the embedding
    to_field, x -> x/1 from v.ring into Quot(v.ring/supp(v))."""

    base: "Valuation"
    to_field: Callable


Provenance = Union[Padic, Gauss, Composite, Extension]

#: (concrete ring, to_concrete, from_concrete) on payloads: a canonical form
#: of the residue class domain, used for canonical representatives.
ResidueForm = Tuple[Ring, Callable, Callable]


class Valuation:
    """A valuation descriptor with a pure, memoized evaluation map.

    ``provenance`` records the construction facts that later constructors
    read (None when none are needed); ``residue_form`` is the concrete
    form of Rv, when the constructor knows one.
    """

    def __init__(
        self,
        ring: Ring,
        group: ValueGroup,
        eval_payload: Callable,
        name: str,
        *,
        support: Optional[Ideal] = None,
        manis: bool = False,
        local: bool = False,
        preimage_fn: Optional[Callable] = None,
        provenance: Optional[Provenance] = None,
        residue_form: Optional[ResidueForm] = None,
    ):
        self.ring = ring
        self.group = group
        self._eval_payload = eval_payload
        self.name = name
        self.manis = manis
        self.local = local
        self.provenance = provenance
        self.residue_form = residue_form
        self._preimage_fn = preimage_fn
        self._memo: dict = {}
        self._preimage_memo: dict = {}
        self.support = support if support is not None else SupportIdeal(self)
        # what is derived from this valuation holds it, so it is held weakly:
        # filled by residue_ring, frac_extend_val and baerkrull.default_basis
        self._residue_ring = None
        self._passages = weakref.WeakValueDictionary()
        self._default_basis = None

    # ------------------------------------------------------------------
    def _eval_memo(self, payload):
        v = self._memo.get(payload)
        if v is None:
            v = self._eval_payload(payload)
            self._memo[payload] = v
        return v

    def __call__(self, x: RingElement):
        if x.ring is not self.ring:
            mine, got = distinct_names(self.ring, x.ring)
            raise RingMismatchError(f"{self.name} is a valuation on {mine}, not {got}")
        return self._eval_memo(x.payload)

    @property
    def nontrivial(self) -> bool:
        return self.group.rank > 0

    def preimage(self, gamma) -> RingElement:
        """A fixed element with the requested value; Manis witnesses only."""
        if not self.manis or self._preimage_fn is None:
            raise PreconditionError(f"{self.name} is not Manis (no preimage witness)")
        gamma = self.group.check(gamma)
        if gamma not in self._preimage_memo:
            x = self._preimage_fn(gamma)
            got = self(x)
            if got != gamma:
                raise AssertionError(
                    f"preimage witness broken: {self.name}({x}) = "
                    f"{format_value(got)} != {format_value(gamma)}"
                )
            self._preimage_memo[gamma] = x
        return self._preimage_memo[gamma]

    def residue_ring(self) -> "ResidueDomainRing":
        # held weakly, as the ring holds this valuation: while anything holds
        # the ring it is the one returned, and no cycle keeps either alive
        ring = self._residue_ring and self._residue_ring()
        if ring is None:
            ring = ResidueDomainRing(self)
            self._residue_ring = weakref.ref(ring)
        return ring

    def __repr__(self):
        return f"Valuation({self.name} on {self.ring.name} -> {self.group.name})"


def in_rv(v: Valuation, x: RingElement) -> bool:
    return value_le(v.group.zero(), v(x))


def in_iv(v: Valuation, x: RingElement) -> bool:
    return value_lt(v.group.zero(), v(x))


def in_uv(v: Valuation, x: RingElement) -> bool:
    return v(x) == v.group.zero()


# ---------------------------------------------------------------------------
# residue class domain


class ResidueDomainRing(Ring):
    """Rv = R_v/I_v with representatives from R_v.

    Equality is v(a-b) > 0.  When the parent valuation has a recognized
    residue structure (a prime field or the rationals), elements carry a
    canonical representative obtained through that concrete ring.
    Without one, an element is any representative, as a payload of the
    parent ring: the parent's payloads are canonical on construction, so
    ``add``, ``neg`` and ``mul`` return the parent's result as it is, and
    ``sampler`` draws from the parent.
    """

    def __init__(self, val: Valuation):
        self.val = val
        self.parent = val.ring
        self.name = f"Rv({val.name})"
        form = val.residue_form
        self.concrete_ring, self._to_c, self._from_c = form or (None, None, None)
        self.canonical_eq = form is not None
        self.is_field = val.local

    @property
    def full_name(self):
        conc = self.concrete_ring
        return f"{self.name} over {self.parent.name}" + (f" ({conc.name})" if conc else "")

    def zero_payload(self):
        return self.parent.zero_payload()

    def one_payload(self):
        return self.parent.one_payload()

    def int_payload(self, n):
        return self.canon(self.parent.int_payload(n))

    def add(self, a, b):
        s = self.parent.add(a, b)
        return s if self._to_c is None else self.canon(s)

    def neg(self, a):
        n = self.parent.neg(a)
        return n if self._to_c is None else self.canon(n)

    def mul(self, a, b):
        p = self.parent.mul(a, b)
        return p if self._to_c is None else self.canon(p)

    def eq(self, a, b):
        # a, b: any representatives in R_v; the lift passes cleared products
        if self.canonical_eq:
            return self._to_c(a) == self._to_c(b)
        diff = self.parent.sub(a, b)
        return value_lt(self.val.group.zero(), self.val._eval_memo(diff))

    def canon(self, a):
        if self._to_c is not None:
            return self._from_c(self._to_c(a))
        return self.parent.canon(a)

    def inv(self, x):
        if not self.is_field:
            raise NotImplementedError(f"{self.name} is not known to be a field")
        if self.eq(x.payload, self.zero_payload()):
            raise ZeroDivisionError("inverse of 0")
        c = self.concrete_ring
        if c is None:
            raise NotImplementedError(f"{self.name} has no concrete inverse map")
        return self.el(self._from_c(c.inv(c.el(self._to_c(x.payload))).payload))

    def format(self, a):
        # every payload handed out is canonical already: through the
        # concrete form, or as a payload of the parent
        return self.parent.format(a)

    def parse_payload(self, text):
        p = self.parent.parse_payload(text)
        if not value_le(self.val.group.zero(), self.val._eval_memo(p)):
            raise ValueError(f"{text!r} is not in the valuation ring of {self.val.name}")
        return self.canon(p)

    # ------------------------------------------------------------------
    def element(self, x: RingElement) -> RingElement:
        """The residue class of a valuation-ring element."""
        if x.ring is not self.parent:
            raise RingMismatchError(f"{x!r} is not in {self.parent.name}")
        if not value_le(self.val.group.zero(), self.val(x)):
            raise ValueError(f"{x} is outside the valuation ring of {self.val.name}")
        return self.el(x.payload)

    def representative(self, xbar: RingElement) -> RingElement:
        return RingElement(self.parent, xbar.payload)

    def sampler(self, draw_on):
        """A function drawing one payload per call, for
        ``sampling.payload_drawer``: through the concrete ring when there
        is one, otherwise from the parent, drawing again (up to 8 draws)
        while the draw is outside R_v, or moving it into R_v by a preimage
        when v is Manis.  ``draw_on(ring)`` draws on another ring."""
        if self.concrete_ring is not None:
            # _from_c gives canonical payloads (tests/test_valuations.py pins
            # it), so the draw is not canonicalised again
            inner, from_c = draw_on(self.concrete_ring), self._from_c
            return lambda: from_c(inner())
        draw, val, parent = draw_on(self.parent), self.val, self.parent
        zero, one = val.group.zero(), self.one_payload()

        def sample():
            for _ in range(8):
                x = draw()
                g = val._eval_memo(x)
                if value_le(zero, g):
                    return x
                if val.manis and g is not INF:
                    return parent.mul(x, val.preimage(value_neg(g)).payload)
            return one

        return sample


# ---------------------------------------------------------------------------
# constructors


def _vp_int(n: int, p: int) -> object:
    if n == 0:
        return INF
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (k,)


def _padic_residue_form_q(p: int) -> ResidueForm:
    """Rv of v_p on Q is Z/pZ: a/b maps to a * b^-1 mod p."""

    from .rings import QQ

    def to_c(x):
        n, d = x
        return (n * pow(d, -1, p)) % p

    return IntegerModRing(p), to_c, QQ.int_payload


def padic_valuation(p: int, ring: Ring = None) -> Valuation:
    """The p-adic valuation, on Q (Manis, local) or on Z (neither)."""
    from .rings import QQ, _is_prime

    if ring is None:
        ring = QQ
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(ring, RationalField):

        def ev(x):
            n, d = x
            if not n:
                return INF
            return value_sub(_vp_int(n, p), _vp_int(d, p))

        return Valuation(
            ring,
            Z_GROUP,
            ev,
            f"v_{p}",
            support=ZeroIdeal(ring),
            manis=True,
            local=True,
            preimage_fn=lambda g: RingElement(ring, (p, 1)) ** g[0],
            provenance=Padic(p),
            residue_form=_padic_residue_form_q(p),
        )
    if isinstance(ring, IntegerRing):
        return Valuation(
            ring,
            Z_GROUP,
            lambda n: _vp_int(n, p),
            f"v_{p}",
            support=ZeroIdeal(ring),
            manis=False,
            local=False,
            provenance=Padic(p),
            residue_form=(IntegerModRing(p), lambda n: n % p, lambda k: k),
        )
    raise ValueError(f"p-adic valuations live on Z or Q, not {ring.name}")


def trivial_valuation(ring: Ring, support: Optional[Ideal] = None) -> Valuation:
    """Value 0 off the declared prime support, infinity on it."""
    if support is None:
        support = ZeroIdeal(ring)
    if support.ring is not ring:
        raise RingMismatchError("support ideal lives in a different ring")

    def ev(payload):
        return INF if support.contains(payload) else ()

    form = None
    if support.reducible:
        target, project, section = quotient_ring(ring, support)
        if target is not ring:
            form = (
                target,
                lambda p: project(RingElement(ring, p)).payload,
                lambda c: section(RingElement(target, c)).payload,
            )
    return Valuation(
        ring,
        TRIVIAL_GROUP,
        ev,
        f"triv({support.describe()})",
        support=support,
        manis=True,
        local=ring.is_field and support.is_zero,
        preimage_fn=lambda g: ring.one(),
        residue_form=form,
    )


def gauss_on(u: Valuation, poly: PolynomialRing, gammas: Sequence[int]) -> Valuation:
    """Extend u to a polynomial ring by min over monomials of u(coef)+sum(e_i*g_i).

    The value group is Z; the base group must be trivial or Z.  When u is
    trivial with support 0, u(c) = 0 for every c != 0, so the value is the
    least sum(e_i*g_i) over the exponents of f's terms, and u is never
    called: on Z[X] and Q[X] that is g*deg f for g < 0, g*ord_X f for g > 0
    and 0 for g = 0, read off ``PolynomialRing.int_form``.  Any other base
    is called on the coefficients.  On Z[X] and Q[X] the polynomial is read
    as N/d with integer coefficients N_e (``int_form``), with value
    min_e(u(N_e) + e*g) - u(d); u's value on each integer is kept in a table
    of this valuation, so u is called once per distinct integer, always on
    the base payload ``u.ring.int_payload(c)``, and the table is the only
    memo that fills.  Other polynomial rings read ``terms``.  The Manis
    flag is set only for the recognized witness patterns: a Manis base on
    a field with the same value group (constant witnesses), or a trivial
    base with both a +1 and a -1 twist (variable-power witnesses).
    """
    if poly.base is not u.ring:
        raise RingMismatchError(
            f"{poly.name} is not a polynomial ring over {u.ring.name}"
        )
    if u.group.rank > 1:
        raise GroupMismatchError("gauss extension supports base groups 0 and Z only")
    gammas = tuple(int(g) for g in gammas)
    if len(gammas) != poly.nvars:
        raise ValueError("need one gamma per variable")

    def embed(val):
        if val is INF:
            return INF
        return val if u.group.rank == 1 else (0,)

    if u.group.rank == 0 and u.support.is_zero:
        if poly.dense:
            (gamma,) = gammas

            def ev(payload):
                n = poly.int_form(payload)[0]
                if not n:
                    return INF
                # the least e*gamma over the exponents: the degree for
                # gamma < 0, the lowest exponent for gamma > 0
                if gamma < 0:
                    return (gamma * (len(n) - 1),)
                if gamma > 0:
                    return (gamma * next(e for e, c in enumerate(n) if c),)
                return (0,)

        else:

            def ev(payload):
                weights = [
                    sum(map(operator.mul, exps, gammas)) for exps, _ in poly.terms(payload)
                ]
                return (min(weights),) if weights else INF

    elif poly.dense:
        # u on each integer met so far, read on its base payload
        on_int: dict = {}
        (gamma,) = gammas

        def u_int(c):
            val = on_int.get(c)
            if val is None:
                val = on_int[c] = embed(u._eval_payload(u.ring.int_payload(c)))
            return val

        def ev(payload):
            n, d = poly.int_form(payload)
            best = None
            for e, c in enumerate(n):
                if c:
                    val = u_int(c)
                    if val is not INF:
                        term = val[0] + e * gamma
                        if best is None or term < best:
                            best = term
            return INF if best is None else (best - u_int(d)[0],)

    else:

        def ev(payload):
            best = INF
            for exps, coef in poly.terms(payload):
                c = embed(u._eval_memo(coef))
                if c is INF:
                    continue
                term = (c[0] + sum(e * g for e, g in zip(exps, gammas)),)
                if best is INF or term < best:
                    best = term
            return best

    manis = False
    preimage = None
    if u.ring.is_field and u.manis and u.group.rank == 1:
        manis = True

        def preimage(g, _p=poly):
            c = u.preimage(g)
            return RingElement(_p, _p._canon_dict({(0,) * _p.nvars: c.payload}))

    elif u.group.rank == 0:
        pos = next((i for i, g in enumerate(gammas) if g == 1), None)
        neg = next((i for i, g in enumerate(gammas) if g == -1), None)
        if pos is not None and neg is not None:
            manis = True

            def preimage(g, _p=poly, _pos=pos, _neg=neg):
                n = g[0]
                var = _p.variables[_pos] if n >= 0 else _p.variables[_neg]
                return _p.var(var) ** abs(n)

    support = ZeroIdeal(poly) if u.support.is_zero else None
    gname = ",".join(str(g) for g in gammas)
    return Valuation(
        poly,
        Z_GROUP,
        ev,
        f"gauss({u.name};{gname})",
        support=support,
        manis=manis,
        local=False,
        preimage_fn=preimage,
        provenance=Gauss(u, gammas),
    )


def degree_valuation(poly: PolynomialRing) -> Valuation:
    """f maps to -deg f: the Gauss extension of the trivial valuation by -1."""
    if poly.nvars != 1:
        raise ValueError("degree valuation wants a univariate polynomial ring")
    return gauss_on(trivial_valuation(poly.base), poly, (-1,))


def on_quotient(
    v: Valuation, qring: Ring, project, section, provenance: Optional[Provenance] = None
) -> Valuation:
    """v moved to qring = v.ring/supp(v) along the section, y -> v(section(y)),
    with the residue form of v, if any, carried along the same two maps."""
    if qring is v.ring:
        return v

    def down(p):
        return section(RingElement(qring, p)).payload

    form = v.residue_form
    if form is not None:
        conc, to_c, from_c = form
        form = (conc, lambda p: to_c(down(p)), lambda c: project(v.ring.el(from_c(c))).payload)
    return Valuation(
        qring,
        v.group,
        lambda p: v._eval_memo(down(p)),
        f"{v.name}'",
        support=ZeroIdeal(qring),
        manis=v.manis,
        local=qring.is_field,
        preimage_fn=(lambda g: project(v.preimage(g))) if v.manis else None,
        residue_form=form,
        provenance=provenance,
    )


def frac_extend_val(v: Valuation, uniformizer: Optional[RingElement] = None) -> Valuation:
    """Extend v to nu on the fraction field of v.ring/supp(v) by v(x)-v(y),
    along R -> R/supp(v) -> Quot(R/supp(v)).

    nu is always Manis onto the group generated by the image; a preimage
    witness comes from v itself when v is Manis, otherwise from the
    supplied uniformizer (an element of value +-1 in a rank-1 group).
    nu is v itself when v.ring is a field and supp(v) = 0; otherwise nu
    carries ``Extension(v, to_field)``, with to_field the map x -> x/1 from
    v.ring into nu.ring (``field_embedding`` reads it).  nu reads x as
    num/den by ``num_den`` (no gcd) and calls v's evaluator on both parts,
    not v's memo, so nu's memo, keyed on the fraction, is the only one that
    an evaluation of nu fills.  nu holds v, and
    v holds nu only weakly: while anything holds nu (its residue ring
    included), it is the one nu returned for (v, uniformizer), and once
    nothing does, both are freed by reference counting.
    """
    key = None if uniformizer is None else (uniformizer.ring, uniformizer.payload)
    nu = v._passages.get(key)
    if nu is None:
        nu = v._passages[key] = _build_passage(v, uniformizer)
    return nu


def field_embedding(v: Valuation, nu: Valuation) -> Callable:
    """The map x -> x/1 from v.ring into nu.ring, for nu = frac_extend_val(v, ...)."""
    if nu is v:
        return lambda x: x
    prov = nu.provenance
    if not (isinstance(prov, Extension) and prov.base is v):
        raise ValueError(f"{nu.name} is not a field passage of {v.name}")
    return prov.to_field


def _build_passage(v: Valuation, uniformizer: Optional[RingElement]) -> Valuation:
    base = v.ring
    qring, project, section = quotient_ring(base, v.support)
    K, embed = fraction_field(qring)
    if K is qring:
        return on_quotient(v, qring, project, section, Extension(v, project))
    vq = on_quotient(v, qring, project, section)

    zero, ev_q = qring.zero_payload(), vq._eval_payload

    def ev(payload):
        num, den = K.num_den(payload)
        if num == zero:
            return INF
        return value_sub(ev_q(num), ev_q(den))

    if uniformizer is None and not vq.manis and isinstance(v.provenance, Padic):
        uniformizer = base.from_int(v.provenance.prime)

    preimage_fn = None
    if vq.manis:

        def preimage_fn(g):
            return embed(vq.preimage(g))

    elif uniformizer is not None:
        if v.group.rank != 1:
            raise ValueError("uniformizer witnesses need a rank-1 group")
        t = project(uniformizer) if uniformizer.ring is base else uniformizer
        tval = vq(t)
        if tval is INF or abs(tval[0]) != 1:
            raise ValueError(f"uniformizer must have value +-1, got {format_value(tval)}")
        sign = tval[0]

        def preimage_fn(g, _t=t, _s=sign):
            k = g[0] * _s
            if k >= 0:
                return embed(_t ** k)
            return K.inv(embed(_t ** (-k)))

    else:
        raise ValueError(
            f"cannot extend {v.name}: no Manis witness and no uniformizer supplied"
        )

    return Valuation(
        K,
        v.group,
        ev,
        f"{v.name}~",
        support=ZeroIdeal(K),
        manis=True,
        local=True,
        preimage_fn=preimage_fn,
        residue_form=_fraction_residue_form(v, K),
        provenance=Extension(v, lambda x: embed(project(x))),
    )


def _fraction_residue_form(v: Valuation, K: Ring) -> Optional[ResidueForm]:
    """The concrete residue field of v extended to K, for the recognized cases:
    v_p on Z (Rv = Z/pZ) and the degree valuation (Rv = Q)."""
    prov = v.provenance
    if isinstance(K, RationalField) and isinstance(prov, Padic):
        return _padic_residue_form_q(prov.prime)
    if not (
        isinstance(K, RationalFunctionField)
        and isinstance(prov, Gauss)
        and prov.base.group.rank == 0
        and prov.gammas == (-1,)
    ):
        return None

    def lc_fraction(payload):
        q = K.limit_at_infinity(payload)
        if q is None:
            raise ValueError("element is outside the valuation ring")
        return q

    from .rings import QQ

    return QQ, lc_fraction, K.rational_payload


def transport_to_residue(u: Valuation, residue: ResidueDomainRing) -> Valuation:
    """Move a valuation on the concrete residue ring up to Rv itself (or
    return one already on Rv)."""
    if u.ring is residue:
        return u
    if residue.concrete_ring is None:
        raise ValueError(f"{residue.name} has no concrete residue form")
    if u.ring is not residue.concrete_ring:
        raise RingMismatchError(
            f"{u.name} lives on {u.ring.name}, expected {residue.concrete_ring.name}"
        )

    def ev(payload):
        return u._eval_memo(residue._to_c(payload))

    pre = None
    if u.manis:

        def pre(g):
            return residue.el(residue._from_c(u.preimage(g).payload))

    return Valuation(
        residue,
        u.group,
        ev,
        f"{u.name}@{residue.name}",
        support=ZeroIdeal(residue),
        manis=u.manis,
        local=u.local,
        preimage_fn=pre,
    )


def composite_valuation(
    v: Valuation, u: Valuation, section_uniformizers: Sequence[RingElement]
) -> Valuation:
    """w(x) = (v(x), u(residue of x*s(-v(x)))) in the lexicographic product.

    s is the multiplicative section generated by one fixed preimage per
    basis generator of v's group; u lives on v's residue domain (or on
    its concrete form, in which case it is transported automatically).
    """
    if not v.manis:
        raise PreconditionError(f"composite needs a Manis base, {v.name} is not")
    if not v.ring.is_field:
        raise ValueError("composite valuations are built over field valuations here")
    residue = v.residue_ring()
    u = transport_to_residue(u, residue)
    sections = list(section_uniformizers)
    if len(sections) != v.group.rank:
        raise ValueError("need one section uniformizer per basis generator")
    for i, s in enumerate(sections):
        if s.ring is not v.ring:
            raise RingMismatchError("section uniformizers live in the base ring")
        want = tuple(1 if j == i else 0 for j in range(v.group.rank))
        if v(s) != want:
            raise ValueError(
                f"section uniformizer {s} has value {format_value(v(s))}, wanted {want}"
            )

    field = v.ring
    section_memo: dict = {}

    def sect(gamma):
        if gamma not in section_memo:
            out = field.one()
            for g, s in zip(gamma, sections):
                if g >= 0:
                    out = out * (s ** g)
                else:
                    out = out * (field.inv(s) ** (-g))
            section_memo[gamma] = out
        return section_memo[gamma]

    group = lex_product(v.group, u.group)

    def ev(payload):
        gamma = v._eval_memo(payload)
        if gamma is INF:
            return INF
        unit = field.mul(payload, sect(value_neg(gamma)).payload)
        delta = u._eval_memo(residue.canon(unit))
        if delta is INF:
            return INF
        return gamma + delta

    pre = None
    if u.manis:

        def pre(g, _vr=v.group.rank):
            gamma, delta = g[:_vr], g[_vr:]
            rep = residue.representative(u.preimage(delta))
            return sect(gamma) * rep

    return Valuation(
        field,
        group,
        ev,
        f"comp({v.name},{u.name})",
        support=ZeroIdeal(field),
        manis=v.manis and u.manis,
        local=True,
        preimage_fn=pre,
        provenance=Composite(v, u),
    )


def quotient_val(
    w: Valuation, v: Valuation, universe, samples: int = 200
) -> Valuation:
    """The valuation w/v on Rv: infinity on I_v, else (the u-part of) w(a).

    Precondition, checked on samples: v is Manis and the quasi-order of w
    is v-compatible, i.e. w(z) <= w(y) implies v(z) <= v(y).
    """
    if w.ring is not v.ring:
        raise RingMismatchError("w and v must live on the same ring")
    if not v.manis:
        raise PreconditionError(f"quotient valuation needs Manis v, {v.name} is not")
    tag = f"quotient_val({w.name},{v.name})"
    compat = sweep(
        tag,
        universe.pairs(samples, tag),
        lambda y, z: value_le(w(z), w(y)) and not value_le(v(z), v(y)),
    )
    if compat.witness:
        raise PreconditionError(
            f"{v.name} is not compatible with the quasi-order of {w.name}",
            witness=compat.witness,
        )
    residue = v.residue_ring()
    zero_v = v.group.zero()

    if isinstance(w.provenance, Composite) and w.provenance.base is v:
        upper = w.provenance.upper
        group = upper.group
        vr = v.group.rank

        def ev(payload):
            if value_lt(zero_v, v._eval_memo(payload)):
                return INF
            return w._eval_memo(payload)[vr:]

        pre = (lambda g: upper.preimage(g)) if upper.manis else None
        manis = upper.manis
    elif w is v:
        group = TRIVIAL_GROUP

        def ev(payload):
            if value_lt(zero_v, v._eval_memo(payload)):
                return INF
            return ()

        pre = lambda g: residue.one()
        manis = True
    else:
        group = w.group

        def ev(payload):
            if value_lt(zero_v, v._eval_memo(payload)):
                return INF
            return w._eval_memo(payload)

        manis = w.manis and all(
            (v(x) is INF) == (w(x) is INF)
            for x in universe.singles(samples, f"supports({w.name},{v.name})")
        )
        pre = None
        if manis:

            def pre(g):
                x = w.preimage(g)
                if v(x) != zero_v:
                    raise PreconditionError(
                        f"preimage {x} of {format_value(g)} is not a v-unit"
                    )
                return residue.element(x)

    return Valuation(
        residue,
        group,
        ev,
        f"{w.name}/{v.name}",
        support=ZeroIdeal(residue),
        manis=manis,
        local=False,
        preimage_fn=pre,
    )


# ---------------------------------------------------------------------------
# checks


def check_val_axioms(v: Valuation, universe, samples: int = 500, label: str = None):
    """V1-V4, the min-equality lemma, and primeness of the support."""
    label = label or v.name
    zero = v.group.zero()

    pairs = universe.pairs(samples, f"val_axioms:{label}")
    mul, add = once(operator.mul), once(operator.add)

    def valmin_fails(x, y):
        vx, vy = v(x), v(y)
        if vx == vy:
            return False
        lo = vx if value_le(vx, vy) else vy
        return v(add(x, y)) != lo

    return [
        result(f"{label}.V1", v(v.ring.zero()) is INF, ("0",), 1),
        result(f"{label}.V2", v(v.ring.one()) == zero, ("1",), 1),
        sweep(f"{label}.V3", pairs, lambda x, y: v(mul(x, y)) != value_add(v(x), v(y))),
        sweep(
            f"{label}.V4",
            pairs,
            lambda x, y: not value_le(
                v(x) if value_le(v(x), v(y)) else v(y), v(add(x, y))
            ),
        ),
        sweep(f"{label}.valmin", pairs, valmin_fails),
        sweep(
            f"{label}.support-prime",
            pairs,
            lambda x, y: v(mul(x, y)) is INF and v(x) is not INF and v(y) is not INF,
        ),
        sweep(
            f"{label}.support-agree",
            universe.tuples(1, samples, f"support-agree:{label}"),
            lambda x: v.support.contains(x.payload) != (v(x) is INF),
        ),
    ]


def coarsening_check(v: Valuation, w: Valuation, universe, samples: int = 500,
                     label: str = None):
    """Containments R_w in R_v and I_v in I_w, plus the order-transfer laws.

    The verdict entry passes exactly when both containments hold on the
    samples, i.e. when v looks like a coarsening of w.
    """
    if v.ring is not w.ring:
        raise RingMismatchError("coarsening_check wants valuations on one ring")
    label = label or f"coarsening({v.name},{w.name})"
    singles = universe.tuples(1, samples, label)
    pairs = universe.pairs(samples, label)
    zv, zw = v.group.zero(), w.group.zero()

    out = [
        sweep(
            f"{label}.Rw-in-Rv",
            singles,
            lambda x: value_le(zw, w(x)) and not value_le(zv, v(x)),
        ),
        sweep(
            f"{label}.Iv-in-Iw",
            singles,
            lambda x: value_lt(zv, v(x)) and not value_lt(zw, w(x)),
        ),
    ]
    verdict = all(r.status == PASS for r in out)
    out += [
        sweep(
            f"{label}.transfer-1",
            pairs,
            lambda x, y: value_le(w(x), w(y)) and not value_le(v(x), v(y)),
        ),
        sweep(
            f"{label}.transfer-2",
            pairs,
            lambda x, y: value_le(w(x), w(y)) and value_le(zv, v(x))
            and not value_le(zv, v(y)),
        ),
        sweep(
            f"{label}.transfer-3",
            pairs,
            lambda x, y: value_le(w(x), w(y)) and value_lt(zv, v(x))
            and not value_lt(zv, v(y)),
        ),
    ]

    if v.manis and w.manis and v.nontrivial and w.nontrivial:
        out.append(
            sweep(
                f"{label}.supports-equal",
                singles,
                lambda x: (v(x) is INF) != (w(x) is INF),
            )
        )

    out.append(
        result(
            f"{label}.is-coarsening",
            verdict,
            None,
            len(singles),
            detail="v <= w" if verdict else "containment failed",
        )
    )
    return out


def is_coarsening(v: Valuation, w: Valuation, universe, samples: int = 500) -> bool:
    zv, zw = v.group.zero(), w.group.zero()
    tag = f"is_coarsening({v.name},{w.name})"
    return sweep(
        tag,
        universe.tuples(1, samples, tag),
        lambda x: (value_le(zw, w(x)) and not value_le(zv, v(x)))
        or (value_lt(zv, v(x)) and not value_lt(zw, w(x))),
    ).status == PASS


def equivalent_check(v: Valuation, w: Valuation, universe, samples: int = 500,
                     label: str = None):
    """Both directions of: v(x) <= v(y) iff w(x) <= w(y), on sampled pairs."""
    if v.ring is not w.ring:
        raise RingMismatchError("equivalent_check wants valuations on one ring")
    label = label or f"equivalent({v.name},{w.name})"
    pairs = universe.pairs(samples, label)
    fwd = sweep(
        f"{label}.forward",
        pairs,
        lambda x, y: value_le(v(x), v(y)) and not value_le(w(x), w(y)),
    )
    bwd = sweep(
        f"{label}.backward",
        pairs,
        lambda x, y: value_le(w(x), w(y)) and not value_le(v(x), v(y)),
    )
    both = fwd.status == PASS and bwd.status == PASS
    return [
        fwd,
        bwd,
        result(f"{label}.equivalent", both, fwd.witness or bwd.witness, len(pairs)),
    ]


"""Exact arithmetic for the concrete commutative rings everything else acts on.

Supported ring kinds: the integers, the rationals, polynomial rings over
them (dense integer coefficients in one variable over Z or Q, sparse
terms otherwise), quotients by ideals that are prime by construction,
and fraction fields of domains.  All payloads are immutable
hashable Python values (ints, and tuples of them: a rational is the
reduced pair (n, d) of ints), all operations are pure, and every ring has
a canonical element syntax that round-trips through ``parse``.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from fractions import Fraction
from typing import Iterable


class RingMismatchError(TypeError):
    """Raised when an operation mixes elements of different rings."""


class ElementSyntaxError(ValueError):
    """Raised when an element literal does not parse in the given ring."""


# ---------------------------------------------------------------------------
# elements


class RingElement:
    """An exact element of a declared ring.

    Payloads are canonical on construction; arithmetic delegates to the
    ring so quotient reduction and fraction normalization always apply.
    ``_id`` caches the payload id that ``ring.pid`` hands out.
    """

    __slots__ = ("ring", "payload", "_id")

    def __init__(self, ring: "Ring", payload):
        self.ring = ring
        self.payload = payload
        self._id = None

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                a, b = distinct_names(other.ring, self.ring)
                raise RingMismatchError(f"cannot combine element of {a} with {b}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.payload, o.payload))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(o.payload, self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            if isinstance(n, int) and self.ring.is_field:
                return self.ring.inv(self) ** (-n)
            raise ValueError("nonnegative integer exponent required")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.ring is not self.ring:
            return False
        return self.ring.eq(self.payload, other.payload)

    def __hash__(self):
        return hash((self.ring, self.ring.hash_payload(self.payload)))

    def __str__(self):
        return self.ring.format(self.payload)

    def __repr__(self):
        return f"<{self.ring.name}: {self}>"


class Ring:
    """Base class: payload-level arithmetic plus element conveniences.  A ring
    is its object: ``is`` is the only ring-identity test (see ``_Interned``)."""

    name = "?"
    is_field = False
    #: True when equal elements always carry identical payloads.
    canonical_eq = True

    @property
    def full_name(self) -> str:
        return self.name  # residue rings add what tells like-named ones apart

    @property
    def serial(self) -> int:
        """A number of this ring object alone, handed out on first use."""
        s = vars(self).get("_serial")
        if s is None:
            s = self._serial = next(_SERIALS)
        return s

    def pid(self, x: RingElement) -> int:
        """A small int naming x's payload in this ring's one table (made by the
        first call), cached on x.  Two payloads get one id exactly when they
        are == and hash-equal, so a memo keyed on ids hits exactly when one
        keyed on payloads would."""
        if x.ring is not self:
            raise RingMismatchError("%s is not %s" % distinct_names(x.ring, self))
        i = x._id
        if i is None:
            ids = vars(self).setdefault("_ids", {})
            i = x._id = ids.setdefault(x.payload, len(ids))
        return i

    # payload protocol ---------------------------------------------------
    def zero_payload(self):
        raise NotImplementedError

    def one_payload(self):
        return self.int_payload(1)

    def int_payload(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def canon(self, a):
        return a

    def hash_payload(self, a):
        if not self.canonical_eq:
            raise TypeError(f"elements of {self.name} are not hashable")
        return a

    def format(self, a) -> str:
        raise NotImplementedError

    def parse_payload(self, text: str):
        raise NotImplementedError

    def sampler(self, draw_on):
        """A function drawing one payload per call, for a ring that
        ``sampling.payload_drawer`` does not draw itself; ``draw_on(ring)``
        draws on another ring from the same stream."""
        raise ValueError(f"no sampler for ring {self.name}")

    # element conveniences ----------------------------------------------
    def el(self, payload) -> RingElement:
        return RingElement(self, self.canon(payload))

    def zero(self) -> RingElement:
        return RingElement(self, self.zero_payload())

    def one(self) -> RingElement:
        return RingElement(self, self.one_payload())

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, self.int_payload(n))

    def inv(self, x: RingElement) -> RingElement:
        raise NotImplementedError(f"{self.name} is not a field")

    def parse(self, text: str) -> RingElement:
        return self.el(self.parse_payload(text))

    def __repr__(self):
        return f"Ring({self.name})"


def distinct_names(a: Ring, b: Ring):
    """Names of two different rings for a message: in full when they coincide,
    and with each ring's serial when the full names coincide too."""
    if a.name != b.name:
        return a.name, b.name
    if a.full_name != b.full_name:
        return a.full_name, b.full_name
    return f"{a.full_name} #{a.serial}", f"{b.full_name} #{b.serial}"


_SERIALS = itertools.count(1)


#: (class, constructor arguments) -> the live ring built from them
_RINGS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class _Interned(type):
    """Metaclass of the rings built from other objects: one live ring per
    (class, constructor arguments).  Rings and ideals among the arguments
    count by identity, other iterables by their items."""

    def __call__(cls, *args):
        args = tuple(a if isinstance(a, (Ring, Ideal, int)) else tuple(a) for a in args)
        key = (cls, *args)
        ring = _RINGS.get(key)
        if ring is None:
            ring = _RINGS[key] = super().__call__(*args)
        return ring


# ---------------------------------------------------------------------------
# the integers and the rationals


class IntegerRing(Ring):
    name = "Z"

    def zero_payload(self):
        return 0

    def int_payload(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def format(self, a):
        return str(a)

    def parse_payload(self, text):
        return _parse_int(text, self.name)


#: zero of Q, one shared pair
_Q_ZERO = (0, 1)


def _q_pair(n: int, d: int):
    """The Q payload of n/d, for ints n and d != 0."""
    if d < 0:
        n, d = -n, -d
    g = math.gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


class RationalField(Ring):
    """Q.  A payload is the reduced pair (n, d) of ints standing for n/d:
    d > 0 and gcd(n, d) = 1, so zero is (0, 1) and equal rationals have
    equal pairs.  ``canon`` (and so ``el``) also takes an int or a
    ``fractions.Fraction``.  Sums and products reduce as ``fractions`` does
    (Knuth, TAOCP 2, 4.5.1): the gcds run on the parts, not on the result."""

    name = "Q"
    is_field = True

    def poly_pair(self, a):
        """(numerator, denominator) of a as Z payloads: Q read as Quot(Z)."""
        return a

    # the reduced pair is the stored one, so no split is cheaper
    num_den = poly_pair

    def zero_payload(self):
        return _Q_ZERO

    def int_payload(self, n):
        return (n, 1) if n else _Q_ZERO

    def canon(self, a):
        if isinstance(a, tuple):
            n, d = a
        elif isinstance(a, (int, Fraction)):
            n, d = a.numerator, a.denominator
        else:
            raise TypeError(f"not a rational payload: {a!r}")
        if not d:
            raise ZeroDivisionError(f"zero denominator in {self.name}")
        return _q_pair(n, d)

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        g = math.gcd(da, db)
        if g == 1:
            return na * db + da * nb, da * db
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)
        if g2 == 1:
            return t, s * db
        return t // g2, s * (db // g2)

    def neg(self, a):
        return -a[0], a[1]

    def mul(self, a, b):
        (na, da), (nb, db) = a, b
        g1 = math.gcd(na, db)
        if g1 != 1:
            na, db = na // g1, db // g1
        g2 = math.gcd(nb, da)
        if g2 != 1:
            nb, da = nb // g2, da // g2
        return na * nb, da * db

    def inv(self, x):
        n, d = x.payload
        if not n:
            raise ZeroDivisionError("inverse of 0")
        return RingElement(self, (d, n) if n > 0 else (-d, -n))

    def format(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def parse_payload(self, text):
        return _parse_fraction(text, self.name)


ZZ = IntegerRing()
QQ = RationalField()


def _parse_int(text: str, where: str) -> int:
    t = text.strip()
    if re.fullmatch(r"-?\d+", t):
        return int(t)
    raise ElementSyntaxError(f"bad integer literal {text!r} in {where}")


def _parse_fraction(text: str, where: str):
    t = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(\d+))?", t)
    if not m:
        raise ElementSyntaxError(f"bad rational literal {text!r} in {where}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ElementSyntaxError(f"zero denominator in {text!r}")
    return _q_pair(num, den)


# ---------------------------------------------------------------------------
# polynomials

# Two payload forms.  One variable over Z or Q is dense (``dense``): the
# integer coefficients N, lowest degree first, with no trailing zero, the
# same form the univariate kernel below and the fraction field use.  Over Z
# the payload is N itself, zero is (); over Q it is a pair (N, d) standing
# for N/d, with d > 0 and gcd(content(N), d) = 1, zero is ((), 1).  Every
# other polynomial ring is sparse: a tuple of (exponent-tuple,
# coefficient-payload), sorted descending in graded-lex order, with no zero
# coefficients.  ``terms`` reads either form as the sparse one and
# ``_canon_dict`` builds either from a term dict.


def _mono_key(exps):
    return (sum(exps), exps)


#: zero of Q[X] in dense form
_QX_ZERO = ((), 1)


class PolynomialRing(Ring, metaclass=_Interned):
    def __init__(self, base: Ring, variables: Iterable[str]):
        if not variables:
            raise ValueError("polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", v):
                raise ValueError(f"bad variable name {v!r}")
        self.base = base
        self.variables = variables
        self.name = f"{base.name}[{','.join(variables)}]"
        self.dense = len(variables) == 1 and isinstance(base, (IntegerRing, RationalField))
        self._over_q = self.dense and isinstance(base, RationalField)

    @property
    def nvars(self):
        return len(self.variables)

    def zero_payload(self):
        return _QX_ZERO if self._over_q else ()

    def int_payload(self, n):
        return self._canon_dict({(0,) * self.nvars: self.base.int_payload(n)})

    def _canon_dict(self, d: dict):
        """The payload of the polynomial with terms {exponent-tuple: coefficient
        payload}; the one constructor from terms."""
        if self.dense:
            n = [0] * (1 + max((e for (e,) in d), default=-1))
            if not self._over_q:
                for (e,), c in d.items():
                    n[e] = c
                return tuple(_trimmed(n))
            cs = [(e, self.base.canon(c)) for (e,), c in d.items()]
            den = math.lcm(*[cd for _, (_, cd) in cs])
            for e, (cn, cd) in cs:
                n[e] = cn * (den // cd)
            return _q_reduced(_trimmed(n), den)
        items = []
        zero = self.base.zero_payload()
        for exps, c in d.items():
            c = self.base.canon(c)
            if not self.base.eq(c, zero):
                items.append((exps, c))
        items.sort(key=lambda t: _mono_key(t[0]), reverse=True)
        return tuple(items)

    def terms(self, a):
        """a in the sparse form: (exponent-tuple, coefficient payload) pairs,
        largest monomial first."""
        if not self.dense:
            return a
        n, d = self.int_form(a)
        return tuple(
            ((e,), _q_pair(n[e], d) if self._over_q else n[e])
            for e in range(len(n) - 1, -1, -1)
            if n[e]
        )

    def int_form(self, a):
        """(N, d) of a dense payload: a = N/d with d = 1 over Z."""
        return a if self._over_q else (a, 1)

    def canon(self, a):
        if not self.dense:
            return self._canon_dict(dict(a))
        if not self._over_q:
            return tuple(_trimmed(a))
        n, d = a
        if d < 0:
            n, d = [-c for c in n], -d
        elif not d:
            raise ZeroDivisionError(f"zero denominator in {self.name}")
        return _q_reduced(_trimmed(n), d)

    def add(self, a, b):
        if self.dense:
            if not self._over_q:
                return tuple(_uni_add(a, b))
            (na, da), (nb, db) = a, b
            if not na:
                return b
            if not nb:
                return a
            if da != db:
                g = math.gcd(da, db)
                sa, sb = db // g, da // g
                na, nb, da = [c * sa for c in na], [c * sb for c in nb], da * sa
            return _q_reduced(_uni_add(na, nb), da)
        d = dict(a)
        for exps, c in b:
            if exps in d:
                d[exps] = self.base.add(d[exps], c)
            else:
                d[exps] = c
        return self._canon_dict(d)

    def neg(self, a):
        if self.dense:
            if self._over_q:
                return tuple(-c for c in a[0]), a[1]
            return tuple(-c for c in a)
        return tuple((exps, self.base.neg(c)) for exps, c in a)

    def mul(self, a, b):
        if self.dense:
            if not self._over_q:
                return tuple(_uni_mul(a, b))
            (na, da), (nb, db) = a, b
            if not na or not nb:
                return _QX_ZERO
            return _q_reduced(_uni_mul(na, nb), da * db)
        d: dict = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(x + y for x, y in zip(e1, e2))
                prod = self.base.mul(c1, c2)
                if e in d:
                    d[e] = self.base.add(d[e], prod)
                else:
                    d[e] = prod
        return self._canon_dict(d)

    # polynomial-specific helpers ---------------------------------------
    def const_coef(self, a):
        """Coefficient of the all-zero monomial, as a base payload."""
        if self.dense:
            n, d = self.int_form(a)
            c = n[0] if n else 0
            return _q_pair(c, d) if self._over_q else c
        zero_exps = (0,) * self.nvars
        for exps, c in a:
            if exps == zero_exps:
                return c
        return self.base.zero_payload()

    def var(self, name: str) -> RingElement:
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return RingElement(self, self._canon_dict({exps: self.base.one_payload()}))

    def substitute_zero(self, a, var_indices):
        """Drop every monomial involving one of the given variables."""
        return self._canon_dict(
            {e: c for e, c in self.terms(a) if all(e[i] == 0 for i in var_indices)}
        )

    # printing / parsing --------------------------------------------------
    def format(self, a):
        terms = self.terms(a)
        if not terms:
            return "0"
        parts = []
        for exps, c in terms:
            factors = [self.base.format(c)]
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def parse_payload(self, text):
        return _parse_poly(self, text)


_POLY_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9_]*|\^|\*|\+|-|/)")


def _parse_poly(ring: PolynomialRing, text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ElementSyntaxError(f"bad polynomial literal {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ElementSyntaxError("empty polynomial literal")

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def take():
        nonlocal i
        t = tokens[i]
        i += 1
        return t

    def parse_number(sign: int):
        """The reduced pair (num, den) of the number literal next in line."""
        t = take()
        if not t.isdigit():
            raise ElementSyntaxError(f"expected number in {text!r}")
        num = sign * int(t)
        if peek() == "/":
            take()
            den = take()
            if not den.isdigit() or int(den) == 0:
                raise ElementSyntaxError(f"bad coefficient in {text!r}")
            return _q_pair(num, int(den))
        return num, 1

    def coef_payload(value):
        if isinstance(ring.base, RationalField):
            return value
        num, den = value
        if den != 1:
            raise ElementSyntaxError(f"fractional coefficient in {ring.name}: {text!r}")
        return ring.base.int_payload(num)

    def parse_term():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        coef = None
        exps = [0] * ring.nvars
        expect_factor = True
        while expect_factor:
            t = peek()
            if t is None:
                break
            if t.isdigit():
                if coef is not None:
                    raise ElementSyntaxError(f"two coefficients in a term: {text!r}")
                coef = parse_number(sign)
                sign = 1
            elif re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", t):
                take()
                if t not in ring.variables:
                    raise ElementSyntaxError(f"unknown variable {t!r} in {ring.name}")
                e = 1
                if peek() == "^":
                    take()
                    d = take()
                    if not d.isdigit():
                        raise ElementSyntaxError(f"bad exponent in {text!r}")
                    e = int(d)
                exps[ring.variables.index(t)] += e
            else:
                raise ElementSyntaxError(f"unexpected token {t!r} in {text!r}")
            if peek() == "*":
                take()
                expect_factor = True
            else:
                expect_factor = False
        # a number has taken the sign before it; a bare monomial has +-1
        return tuple(exps), coef_payload((sign, 1) if coef is None else coef)

    d: dict = {}
    while i < len(tokens):
        if peek() == "+":
            take()
            continue
        exps, c = parse_term()
        if exps in d:
            d[exps] = ring.base.add(d[exps], c)
        else:
            d[exps] = c
    return ring._canon_dict(d)


# univariate integer kernel -------------------------------------------------
# Dense integer coefficients, lowest degree first, with no trailing zero (the
# zero polynomial is empty); the functions take them as tuples or lists.
# Z[X] and Q[X] payloads are built from them (see ``PolynomialRing``), and
# so are the pairs (N, D) of Quot(Z[X]) and Quot(Q[X]): numerator and
# denominator are formed in Z[X], their gcd, by primitive PRS (Collins 1967;
# Brown 1971), is cancelled by exact division, then the joint content, with
# the sign that makes the denominator's leading coefficient positive.  Sums
# and products of canonical pairs split that gcd into gcds of the smaller
# parts (Henrici 1956; Knuth, TAOCP 2, 4.5.1), so coprime denominators cost
# no gcd on the sum, and products cancel crosswise.  Such
# a pair is unique for its fraction: N/D = N'/D' with both coprime forces
# N' = cN, D' = cD for a rational c, and the content and sign rules force
# c = 1; over Z it is coprime in Z[X] as well.


def _trimmed(p):
    """Dense integer coefficients p without trailing zeros, as a list."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _q_reduced(n, d):
    """The Q[X] payload of n/d, for trimmed dense integer n and d > 0."""
    if not n:
        return _QX_ZERO
    g = math.gcd(d, *n)
    if g == 1:
        return tuple(n), d
    return tuple(c // g for c in n), d // g


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _uni_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _primitive(a):
    """a divided by the gcd of its coefficients."""
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _uni_prem(a, b):
    """Pseudo-remainder: c*a - q*b for some nonzero integer c and q in Z[X],
    of lower degree than b (b of positive degree)."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(r) > n:
        lr = r[-1]
        g = math.gcd(lr, lb)
        s, t = lb // g, lr // g
        if s != 1:
            r = [s * c for c in r]
        k = len(r) - 1 - n
        for i in range(n):
            r[k + i] -= t * b[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _uni_gcd(a, b):
    """Primitive gcd, up to sign, of nonzero a and b in Z[X] (primitive PRS)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    while True:
        r = _uni_prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _primitive(r)


def _ord(p):
    """ord_X of nonzero p in Z[X]: the index of its first nonzero coefficient."""
    i = 0
    while not p[i]:
        i += 1
    return i


def _common_factor(a, b):
    """The primitive gcd of nonzero a and b in Z[X] when it has positive
    degree, else None.  A constant operand needs no gcd, and neither does a
    monomial c*X^k: its primitive gcd with p is X^min(k, ord_X(p)), returned
    as the monic X^j that ``_uni_exquo`` divides out by a shift."""
    if len(a) == 1 or len(b) == 1:
        return None
    if a.count(0) == len(a) - 1:
        k = min(len(a) - 1, _ord(b))
    elif b.count(0) == len(b) - 1:
        k = min(len(b) - 1, _ord(a))
    else:
        g = _uni_gcd(a, b)
        return g if len(g) > 1 else None
    return [0] * k + [1] if k else None


def _unit_normal(num, den):
    """(num, den) divided by their joint content, with the sign that makes
    lc(den) positive, as tuples: the payload of num/den for coprime nonzero
    num and den in Z[X]."""
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num, den = [x // c for x in num], [x // c for x in den]
    return tuple(num), tuple(den)


def _uni_exquo(a, b):
    """The quotient a/b in Z[X], for b that divides a; the quotient by the
    monic X^n is the shift a[n:]."""
    n = len(b) - 1
    if b[-1] == 1 and b.count(0) == n:
        return a[n:]
    r = list(a)
    lb = b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n] // lb
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] -= c * b[i]
    return q


def _content(ring: PolynomialRing, a):
    """gcd of integer coefficients, or the Q payload of
    gcd(numerators)/lcm(denominators)."""
    if isinstance(ring.base, RationalField):
        num = 0
        den = 1
        for _, (n, d) in a:
            num = math.gcd(num, n)
            den = math.lcm(den, d)
        return num or 1, den
    g = 0
    for _, c in a:
        g = math.gcd(g, abs(c))
    return g or 1


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Membership test plus, when available, a canonical reduction."""

    ring: Ring
    reducible = True
    is_zero = False

    def contains(self, a) -> bool:
        raise NotImplementedError

    def reduce(self, a):
        """Canonical coset representative payload, or None if unreducible."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"Ideal({self.describe()} in {self.ring.name})"


class ZeroIdeal(Ideal):
    is_zero = True

    def __init__(self, ring: Ring):
        self.ring = ring

    def contains(self, a):
        return self.ring.eq(a, self.ring.zero_payload())

    def reduce(self, a):
        return self.ring.canon(a)

    def describe(self):
        return "{0}"


class PrincipalIdeal(Ideal):
    """n*Z for a prime n; the only principal quotients we form."""

    def __init__(self, ring: Ring, generator: int):
        if not isinstance(ring, IntegerRing):
            raise ValueError("principal ideals are supported over Z only")
        if not _is_prime(generator):
            raise ValueError(f"{generator} is not prime; quotient would not be a domain")
        self.ring = ring
        self.generator = generator

    def contains(self, a):
        return a % self.generator == 0

    def reduce(self, a):
        return a % self.generator

    def describe(self):
        return f"{self.generator}Z"


class VariableIdeal(Ideal):
    """The ideal generated by a subset of the variables of a polynomial ring."""

    def __init__(self, ring: PolynomialRing, variables: Iterable[str]):
        variables = tuple(variables)
        if not isinstance(ring, PolynomialRing):
            raise ValueError("variable ideals live in polynomial rings")
        for v in variables:
            if v not in ring.variables:
                raise ValueError(f"{v!r} is not a variable of {ring.name}")
        if not variables:
            raise ValueError("need at least one generating variable")
        self.ring = ring
        self.variables = variables
        self.indices = tuple(ring.variables.index(v) for v in variables)

    def contains(self, a):
        terms = self.ring.terms(a)
        return all(any(exps[i] > 0 for i in self.indices) for exps, _ in terms)

    def reduce(self, a):
        return self.ring.substitute_zero(a, self.indices)

    def describe(self):
        return "<" + ",".join(self.variables) + ">"


class SupportIdeal(Ideal):
    """The support of a valuation, tested through the valuation itself."""

    reducible = False

    def __init__(self, valuation):
        self.valuation = valuation
        self.ring = valuation.ring

    def contains(self, a):
        from .groups import INF

        return self.valuation._eval_memo(a) is INF

    def reduce(self, a):
        return None

    def describe(self):
        return f"supp({self.valuation.name})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# quotient rings


class IntegerModRing(Ring, metaclass=_Interned):
    def __init__(self, modulus: int):
        if not _is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        self.modulus = modulus
        self.name = f"Z/{modulus}Z"
        self.is_field = True

    def zero_payload(self):
        return 0

    def int_payload(self, n):
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, x):
        if x.payload == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.el(pow(x.payload, -1, self.modulus))

    def format(self, a):
        return str(a)

    def parse_payload(self, text):
        return _parse_int(text, self.name) % self.modulus


class QuotientRing(Ring, metaclass=_Interned):
    """Generic quotient by a prime-by-construction ideal.

    Falls back to representative-plus-membership equality when the ideal
    has no canonical reduction; such rings are flagged non-canonical.
    """

    def __init__(self, base: Ring, ideal: Ideal):
        self.base = base
        self.ideal = ideal
        self.name = f"{base.name}/{ideal.describe()}"
        self.canonical_eq = ideal.reducible

    def _reduce(self, a):
        r = self.ideal.reduce(a)
        return self.base.canon(a) if r is None else r

    def zero_payload(self):
        return self._reduce(self.base.zero_payload())

    def int_payload(self, n):
        return self._reduce(self.base.int_payload(n))

    def add(self, a, b):
        return self._reduce(self.base.add(a, b))

    def neg(self, a):
        return self._reduce(self.base.neg(a))

    def mul(self, a, b):
        return self._reduce(self.base.mul(a, b))

    def eq(self, a, b):
        if self.canonical_eq:
            return a == b
        return self.ideal.contains(self.base.sub(a, b))

    def canon(self, a):
        return self._reduce(a)

    def format(self, a):
        return self.base.format(a)

    def parse_payload(self, text):
        return self._reduce(self.base.parse_payload(text))


def quotient_ring(base: Ring, ideal: Ideal):
    """Build base/ideal, normalizing recognizable isomorphisms.

    Returns (ring, project, section): project maps base elements onto the
    quotient and section picks a base representative of each class, so
    project(section(y)) == y.  The zero ideal gives back the ring itself;
    Z/pZ and variable quotients of polynomial rings collapse to concrete
    rings.
    """
    if ideal.is_zero:
        ident = lambda x: x
        return base, ident, ident
    if isinstance(ideal, PrincipalIdeal):
        target = IntegerModRing(ideal.generator)
        return (
            target,
            lambda x: target.el(x.payload % ideal.generator),
            lambda y: base.from_int(y.payload),
        )
    if isinstance(ideal, VariableIdeal):
        poly: PolynomialRing = ideal.ring
        idx = ideal.indices
        remaining = tuple(v for v in poly.variables if v not in ideal.variables)
        if not remaining:
            target, zero_exps = poly.base, (0,) * poly.nvars
            return (
                target,
                lambda x: target.el(poly.const_coef(x.payload)),
                lambda y: RingElement(poly, poly._canon_dict({zero_exps: y.payload})),
            )
        target = PolynomialRing(poly.base, remaining)
        keep = [i for i in range(poly.nvars) if i not in idx]

        def project(x):
            terms = poly.terms(poly.substitute_zero(x.payload, idx))
            dropped = {tuple(exps[i] for i in keep): c for exps, c in terms}
            return RingElement(target, target._canon_dict(dropped))

        def section(y):
            out = {}
            for exps, c in target.terms(y.payload):
                it = iter(exps)
                out[tuple(0 if i in idx else next(it) for i in range(poly.nvars))] = c
            return RingElement(poly, poly._canon_dict(out))

        return target, project, section
    generic = QuotientRing(base, ideal)
    return (
        generic,
        lambda x: generic.el(x.payload),
        lambda y: RingElement(base, y.payload),
    )


# ---------------------------------------------------------------------------
# fraction fields


#: zero and one of a univariate fraction field in integer form
_K_ZERO = ((), (1,))
_K_ONE = ((1,), (1,))


class RationalFunctionField(Ring, metaclass=_Interned):
    """Fractions of a polynomial ring over Z or Q.

    In one variable the representation is fully canonical and the payload
    is a pair (N, D) of integer coefficient tuples, lowest degree first,
    with no trailing zeros: N and D are coprime, the gcd of all their
    coefficients together is 1, and D has a positive leading coefficient;
    zero is ((), (1,)).  Arithmetic runs on the integer kernel above.  A
    pair of dense polynomial payloads (num, den) enters through
    ``from_poly_pair`` and leaves through ``poly_pair`` with no change of
    coefficient type: over Z num = N and den = D, over Q num = N/lc(D) and
    den = D/lc(D) is monic.  ``num_den`` reads (N, D) off with no gcd, as
    N/1 and D/1 over Q.  In several variables the
    payload is that pair of polynomial payloads, only the content and the
    sign of the denominator's leading coefficient are normalized (over Q
    the content is a rational number), and equality cross-multiplies.
    """

    is_field = True

    def __init__(self, poly: PolynomialRing):
        if not isinstance(poly, PolynomialRing):
            raise ValueError("expected a polynomial ring")
        if not isinstance(poly.base, (IntegerRing, RationalField)):
            raise ValueError(f"unsupported fraction base {poly.base.name}")
        self.poly = poly
        self.name = f"Quot({poly.name})"
        self._full_canonical = poly.dense
        self.canonical_eq = self._full_canonical

    def from_poly_pair(self, num, den):
        """The payload of num/den, for polynomial payloads num and den."""
        poly = self.poly
        if den == poly.zero_payload():
            raise ZeroDivisionError(f"zero denominator in {self.name}")
        if self._full_canonical:
            (n, dn), (d, dd) = poly.int_form(num), poly.int_form(den)
            if dd != 1:
                n = [c * dd for c in n]
            if dn != 1:
                d = [c * dn for c in d]
            return self._from_integer(n, d)
        if not num:
            return ((), poly.one_payload())
        cn, cd = _content(poly, num), _content(poly, den)
        if isinstance(poly.base, RationalField):
            # divide by g = gcd(numerators)/lcm(denominators) of both
            # contents, with the sign of lc(den): multiply by 1/g
            (an, ad), (bn, bd) = cn, cd
            s = -1 if den[0][1][0] < 0 else 1
            g_inv = (s * math.lcm(ad, bd), math.gcd(an, bn))
            mul = poly.base.mul
            num = tuple((e, mul(c, g_inv)) for e, c in num)
            den = tuple((e, mul(c, g_inv)) for e, c in den)
            return (num, den)
        g = math.gcd(cn, cd)
        if den[0][1] < 0:
            g = -g
        if g != 1:
            num = tuple((e, c // g) for e, c in num)
            den = tuple((e, c // g) for e, c in den)
        return (num, den)

    def poly_pair(self, a):
        """(num, den) polynomial payloads of a; in one variable the pair is
        coprime, with den monic over Q and of positive leading coefficient
        over Z."""
        if self.poly._over_q:
            n, d = a
            return _q_reduced(n, d[-1]), _q_reduced(d, d[-1])
        return a

    def num_den(self, a):
        """(num, den) polynomial payloads with a = num/den, read off the
        payload with no gcd: in one variable N and D themselves (over Q as
        N/1 and D/1), in several the stored pair.  It serves readers that
        any split of a into num/den answers alike, such as v(num) - v(den)
        for a valuation v; ``poly_pair`` gives the normalized split."""
        if self.poly._over_q:
            n, d = a
            return (n, 1), (d, 1)
        return a

    def _from_integer(self, num, den):
        """Canonical payload of num/den for dense num, den in Z[X], den nonzero."""
        if not num:
            return _K_ZERO
        g = _common_factor(num, den)
        if g:
            num, den = _uni_exquo(num, g), _uni_exquo(den, g)
        return _unit_normal(num, den)

    def zero_payload(self):
        if self._full_canonical:
            return _K_ZERO
        return ((), self.poly.one_payload())

    def int_payload(self, n):
        if self._full_canonical:
            return ((n,), (1,)) if n else _K_ZERO
        return (self.poly.int_payload(n), self.poly.one_payload())

    def add(self, a, b):
        if self._full_canonical:
            (na, da), (nb, db) = a, b
            if not na:
                return b
            if not nb:
                return a
            if da == db:
                return self._from_integer(_uni_add(na, nb), da)
            # Henrici: with g = gcd(da, db), t = na*(db/g) + nb*(da/g) and
            # g2 = gcd(t, g), the sum is (t/g2) / ((da/g)*(db/g2)) in
            # lowest terms; g = 1 needs no gcd on the sum at all
            g = _common_factor(da, db)
            if g:
                da, db_g = _uni_exquo(da, g), _uni_exquo(db, g)
            else:
                db_g = db
            t = _uni_add(_uni_mul(na, db_g), _uni_mul(nb, da))
            if not t:
                return _K_ZERO
            g2 = g and _common_factor(t, g)
            if g2:
                t, db = _uni_exquo(t, g2), _uni_exquo(db, g2)
            return _unit_normal(t, _uni_mul(da, db))
        n = self.poly.add(self.poly.mul(a[0], b[1]), self.poly.mul(b[0], a[1]))
        return self.from_poly_pair(n, self.poly.mul(a[1], b[1]))

    def neg(self, a):
        if self._full_canonical:
            return tuple(-c for c in a[0]), a[1]
        return (self.poly.neg(a[0]), a[1])

    def mul(self, a, b):
        """a*b.  In one variable a product with 1 is the other operand, and
        a monomial part, such as the lift's clearing multipliers X^k and
        1/X^k, cancels by a shift with no PRS."""
        if self._full_canonical:
            if a == _K_ONE:
                return b
            if b == _K_ONE:
                return a
            (na, da), (nb, db) = a, b
            if not na or not nb:
                return _K_ZERO
            # Henrici: cancel crosswise, na against db and nb against da;
            # the cofactor products are coprime already
            g1, g2 = _common_factor(na, db), _common_factor(nb, da)
            if g1:
                na, db = _uni_exquo(na, g1), _uni_exquo(db, g1)
            if g2:
                nb, da = _uni_exquo(nb, g2), _uni_exquo(da, g2)
            return _unit_normal(_uni_mul(na, nb), _uni_mul(da, db))
        return self.from_poly_pair(
            self.poly.mul(a[0], b[0]), self.poly.mul(a[1], b[1])
        )

    def eq(self, a, b):
        if self.canonical_eq:
            return a == b
        return self.poly.mul(a[0], b[1]) == self.poly.mul(b[0], a[1])

    def canon(self, a):
        if self._full_canonical:
            num, den = (_trimmed(p) for p in a)
            if not den:
                raise ZeroDivisionError(f"zero denominator in {self.name}")
            return self._from_integer(num, den)
        return self.from_poly_pair(self.poly.canon(a[0]), self.poly.canon(a[1]))

    def inv(self, x):
        num, den = x.payload
        if not num:
            raise ZeroDivisionError("inverse of 0")
        if not self._full_canonical:
            return self.el((den, num))
        # swapping keeps the parts coprime and the joint content 1
        if num[-1] < 0:
            num, den = tuple(-c for c in num), tuple(-c for c in den)
        return RingElement(self, (den, num))

    def frac(self, num: RingElement, den: RingElement) -> RingElement:
        if num.ring is not self.poly or den.ring is not self.poly:
            raise RingMismatchError("numerator/denominator must come from the base ring")
        return RingElement(self, self.from_poly_pair(num.payload, den.payload))

    def embed(self, x: RingElement) -> RingElement:
        if x.ring is not self.poly:
            raise RingMismatchError("can only embed base-ring elements")
        return RingElement(self, self.from_poly_pair(x.payload, self.poly.one_payload()))

    # univariate helpers ------------------------------------------------
    # They read or write the integer form (N, D) of a one-variable field,
    # where lc(D) > 0.

    def rational_payload(self, q):
        """The payload of the constant with Q payload q."""
        n, d = q
        return ((n,), (d,)) if n else _K_ZERO

    def _cross(self, a, b):
        """p = N_a*D_b and q = N_b*D_a, padded to one length:
        b - a = (q - p)/(D_a*D_b)."""
        (na, da), (nb, db) = a, b
        p, q = _uni_mul(na, db), _uni_mul(nb, da)
        n = max(len(p), len(q))
        return p + [0] * (n - len(p)), q + [0] * (n - len(q))

    def le_at_infinity(self, a, b) -> bool:
        """a(X) <= b(X) for all large X: compare the cross products from the
        top coefficient down, as lc(D_a*D_b) > 0."""
        p, q = self._cross(a, b)
        return p[::-1] <= q[::-1]

    def le_at_zero(self, a, b) -> bool:
        """a(X) <= b(X) for all small X > 0: compare the cross products from
        the bottom coefficient up, flipped when the lowest coefficient of
        D_a*D_b is negative."""
        p, q = self._cross(a, b)
        if (next(filter(None, a[1])) > 0) != (next(filter(None, b[1])) > 0):
            p, q = q, p
        return p <= q

    def limit_at_infinity(self, a):
        """lim a(X) as X -> infinity, as a Q payload; None when it is infinite."""
        num, den = a
        if len(num) < len(den):
            return _Q_ZERO
        return _q_pair(num[-1], den[-1]) if len(num) == len(den) else None

    def format(self, a):
        num, den = self.poly_pair(a)
        return f"({self.poly.format(num)})/({self.poly.format(den)})"

    def parse_payload(self, text):
        t = text.strip()
        m = re.fullmatch(r"\((.*)\)\s*/\s*\((.*)\)", t, flags=re.S)
        if m:
            num = self.poly.parse_payload(m.group(1))
            den = self.poly.parse_payload(m.group(2))
            return self.from_poly_pair(num, den)
        return self.from_poly_pair(self.poly.parse_payload(t), self.poly.one_payload())


def fraction_field(domain: Ring):
    """Fraction field together with the embedding of the domain.

    Known isomorphisms are normalized: Quot(Z) is Q and the fraction
    field of a field is the field itself.
    """
    if isinstance(domain, IntegerRing):
        return QQ, lambda x: RingElement(QQ, QQ.int_payload(x.payload))
    if domain.is_field:
        return domain, lambda x: x
    if isinstance(domain, PolynomialRing):
        field = RationalFunctionField(domain)
        return field, field.embed
    raise ValueError(f"no fraction field construction for {domain.name}")


# ---------------------------------------------------------------------------
# misc shared helpers


def poly_ring(base: Ring, *variables: str) -> PolynomialRing:
    return PolynomialRing(base, variables)

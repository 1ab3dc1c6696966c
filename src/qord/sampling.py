"""Seeded, bounded generation of ring elements for property sweeps.

Every check in this package quantifies over a SampleUniverse: a
deterministic finite multiset of ring elements.  The element list always
starts with the declared distinguished elements followed by 0, 1 and -1,
so corpus witnesses are found first and reports are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

from .rings import (
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    QuotientRing,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
    _mono_key,
    _q_pair,
    _q_reduced,
    _trimmed,
)


@dataclass(frozen=True)
class Bounds:
    coeff_height: int = 9
    max_degree: int = 3
    max_terms: int = 3
    den_height: int = 9

    def __post_init__(self):
        if self.coeff_height < 1 or self.max_terms < 1 or self.den_height < 1:
            raise ValueError("height bounds must be positive")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


def _stable_int(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def _indices(rng: random.Random, m: int):
    """An endless stream of ``rng.randrange(m)``.

    The index is drawn as CPython's ``randrange(m)`` draws it for a
    ``random.Random``: ``getrandbits(m.bit_length())``, drawn again while
    it is not below m.  So the stream, and everything sampled from it, is
    the one ``randrange`` gives.  m = 0 raises ValueError at the first
    draw, as ``randrange(0)`` does.
    """
    if not m:
        raise ValueError("no elements to draw from")
    getrandbits = rng.getrandbits
    k = m.bit_length()
    while True:
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        yield r


def draws(rng: random.Random, elems: Sequence):
    """An endless stream of draws ``elems[rng.randrange(len(elems))]``.

    The indices come from ``_indices``, so an empty ``elems`` raises
    ValueError at the first draw.
    """
    return map(elems.__getitem__, _indices(rng, len(elems)))


def randint(getrandbits, a: int, b: int) -> int:
    """``rng.randint(a, b)`` for ``getrandbits = rng.getrandbits``.

    Drawn as CPython's ``randint`` draws it for a ``random.Random``: with
    n = b - a + 1, ``getrandbits(n.bit_length())``, drawn again while it
    is not below n, plus a.  So it gives the stream ``randint`` gives and
    leaves the generator in the same state (tests/test_sampling.py pins
    both), without ``randint``'s and ``randrange``'s checks and calls.
    """
    n = b - a + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


def payload_drawer(ring: Ring, bounds: Bounds, rng: random.Random) -> Callable[[], object]:
    """A function drawing one canonical payload of ring from rng per call.

    The ring's kind is looked at once, here, and each call builds the
    payload directly: an int for Z and Z/p, the reduced pair (n, d) for Q,
    a dense or sparse polynomial payload, ``from_poly_pair`` of two
    polynomial draws for a fraction field (a zero denominator becomes 1),
    and the reduced base draw for a ``QuotientRing``.  A ring of another
    kind draws through its own ``sampler(draw_on)``, where ``draw_on(ring)``
    is this function for another ring on the same stream; residue domains
    draw so from their concrete ring or their parent.  Every integer comes from
    ``randint``, in the order of the written-out draw: a polynomial draws
    its number of terms, then for each term its exponents and its
    coefficient; a rational draws its numerator, then its denominator.
    """
    bits = rng.getrandbits
    h = bounds.coeff_height
    if isinstance(ring, IntegerRing):
        return lambda: randint(bits, -h, h)
    if isinstance(ring, RationalField):
        dh = bounds.den_height
        return lambda: _q_pair(randint(bits, -h, h), randint(bits, 1, dh))
    if isinstance(ring, IntegerModRing):
        top = ring.modulus - 1
        return lambda: randint(bits, 0, top)
    if isinstance(ring, PolynomialRing):
        return _poly_drawer(ring, bounds, rng)
    if isinstance(ring, RationalFunctionField):
        poly = _poly_drawer(ring.poly, bounds, rng)
        zero, one = ring.poly.zero_payload(), ring.poly.one_payload()

        def draw():
            num = poly()
            den = poly()
            return ring.from_poly_pair(num, one if den == zero else den)

        return draw
    if isinstance(ring, QuotientRing):
        base = payload_drawer(ring.base, bounds, rng)
        return lambda: ring.canon(base())
    return ring.sampler(lambda other: payload_drawer(other, bounds, rng))


def _poly_drawer(ring: PolynomialRing, bounds: Bounds, rng: random.Random):
    """``payload_drawer`` for a polynomial ring.  Terms with equal exponents
    add up, so a draw may have fewer terms than it drew."""
    bits = rng.getrandbits
    h, top, nterms = bounds.coeff_height, bounds.max_degree, bounds.max_terms
    if ring.dense and isinstance(ring.base, IntegerRing):

        def draw():
            n = [0] * (top + 1)
            for _ in range(randint(bits, 0, nterms)):
                e = randint(bits, 0, top)
                n[e] += randint(bits, -h, h)
            return tuple(_trimmed(n))

        return draw
    if ring.dense:  # over Q
        dh = bounds.den_height

        def draw():
            # (exponent, numerator, denominator) of each term, in draw order
            terms = [
                (randint(bits, 0, top), randint(bits, -h, h), randint(bits, 1, dh))
                for _ in range(randint(bits, 0, nterms))
            ]
            if not terms:
                return ring.zero_payload()
            den = math.lcm(*[d for _, _, d in terms])
            n = [0] * (top + 1)
            for e, a, d in terms:
                n[e] += a * (den // d)
            return _q_reduced(_trimmed(n), den)

        return draw
    base = ring.base
    coef = payload_drawer(base, bounds, rng)
    nvars = range(ring.nvars)
    if isinstance(base, (IntegerRing, RationalField)):
        # every payload is canonical: drop the zeros and sort, as
        # ``_canon_dict`` would
        add = operator.add if isinstance(base, IntegerRing) else base.add
        zero = base.zero_payload()

        def finish(d):
            terms = sorted(d.items(), key=_term_key, reverse=True)
            return tuple([t for t in terms if t[1] != zero])

    else:
        add, finish = base.add, ring._canon_dict

    def draw():
        d: dict = {}
        for _ in range(randint(bits, 0, nterms)):
            exps = tuple([randint(bits, 0, top) for _ in nvars])
            c = coef()
            d[exps] = add(d[exps], c) if exps in d else c
        return finish(d)

    return draw


def _term_key(term):
    return _mono_key(term[0])


#: tuples a plan draws first; each later chunk draws as many as the plan
#: holds, so the drawn length doubles until the plan is whole
FIRST_CHUNK = 32


class SampledTuples:
    """n sampled tuples of one arity, drawn on demand, with their sweep plan.

    The tuples are read ``arity`` elements at a time from a flat list of
    the first elements (``head``), then from a stream of the rest
    (``tail``), in chunks: FIRST_CHUNK tuples, then as many as are drawn,
    up to n.  Each chunk's tuples are keyed by the ids of their elements
    in one pass: two tuples share a key exactly when they hold the same
    objects, and the plan holds the drawn ones, so no id is reused while
    it lives.

    ``first`` walks the distinct tuples in order of first occurrence and
    draws a chunk only when it has read every distinct tuple drawn so far.
    It stops drawing at its answer, and once ``cap`` distinct tuples have
    been drawn (d**arity for a universe of d distinct elements), since no
    later draw can be new.  ``len`` is n without drawing; iterating,
    indexing, comparing, ``keys`` and ``distinct`` draw every tuple.
    """

    __slots__ = ("_head", "_tail", "_arity", "_n", "_cap", "_tuples", "_keys", "_distinct")

    def __init__(self, head: list, tail: Iterator, arity: int, n: int, cap=None):
        self._head = head
        self._tail = tail
        self._arity = arity
        self._n = n
        self._cap = cap
        self._tuples: list = []
        self._keys: list = []
        self._distinct: dict = {}

    @classmethod
    def of(cls, tuples: Sequence[tuple]) -> "SampledTuples":
        """The plan of a plain list of tuples of one arity."""
        flat = list(itertools.chain.from_iterable(tuples))
        return cls(flat, iter(()), len(tuples[0]) if tuples else 0, len(tuples))

    def _draw(self) -> bool:
        """Draw, key and dedupe the next chunk; False when all n are drawn."""
        drawn = len(self._keys)
        if drawn >= self._n:
            return False
        arity = self._arity
        start = drawn * arity
        stop = min(drawn + max(drawn, FIRST_CHUNK), self._n) * arity
        flat = self._head[start:stop]
        flat += itertools.islice(self._tail, stop - start - len(flat))
        if len(flat) < stop - start:
            raise ValueError("the plan's elements ran out before its n tuples")
        chunk = list(zip(*[iter(flat)] * arity))
        keys = list(zip(*[map(id, flat)] * arity))
        self._tuples += chunk
        self._keys += keys
        self._distinct.update(zip(keys, chunk))
        if stop == self._n * arity:  # whole: let the sources go
            self._head, self._tail = [], iter(())
        return True

    def _whole(self) -> list:
        while self._draw():
            pass
        return self._tuples

    def first(self, pred: Callable[..., object]):
        """The first distinct tuple t, in order of first occurrence, with
        pred(*t), or None; pred is called once per distinct tuple up to it."""
        values = self._distinct.values()
        seen = 0
        while True:
            for t in itertools.islice(values, seen, None):
                if pred(*t):
                    return t
            seen = len(values)
            if seen == self._cap or not self._draw():
                return None

    @property
    def keys(self) -> list:
        """The key of each tuple, in order."""
        self._whole()
        return self._keys

    @property
    def distinct(self) -> dict:
        """Each key to a tuple of its objects, in order of first occurrence."""
        self._whole()
        return self._distinct

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._whole())

    def __getitem__(self, i):
        return self._whole()[i]

    def __eq__(self, other):
        return self._whole() == other


class SampleUniverse:
    """Deterministic bounded element generator over a ring.

    The multiset is ``distinguished + [0, 1, -1] + count random draws``;
    generation depends only on (ring, seed, count, bounds, distinguished).
    The draws are payloads, from ``payload_drawer`` on a generator seeded
    by the seed and the ring's name, and each distinct payload is wrapped
    in one element: entries with equal payloads are one and the same
    object.
    """

    def __init__(
        self,
        ring: Ring,
        seed: int,
        count: int,
        bounds: Bounds = Bounds(),
        distinguished: Sequence[RingElement] = (),
    ):
        if count < 1:
            raise ValueError("count must be positive")
        for d in distinguished:
            if d.ring is not ring:
                raise ValueError(
                    f"distinguished element {d!r} is not in {ring.name}"
                )
        self.ring = ring
        self.seed = int(seed)
        self.count = count
        self.bounds = bounds
        self.distinguished = tuple(distinguished)
        self._elements: List[RingElement] | None = None
        self._forced_size = 0
        self._size = 0  # distinct objects in elements()

    def on(self, ring: Ring) -> "SampleUniverse":
        """A universe on another ring with this seed, count and bounds."""
        return SampleUniverse(ring, seed=self.seed, count=self.count, bounds=self.bounds)

    # ------------------------------------------------------------------
    def elements(self) -> List[RingElement]:
        if self._elements is None:
            forced: List[RingElement] = []
            seen = set()
            for x in (*self.distinguished, self.ring.zero(), self.ring.one(),
                      -self.ring.one()):
                key = str(x)
                if key not in seen:
                    seen.add(key)
                    forced.append(x)
            rng = random.Random(self.seed ^ _stable_int(self.ring.name))
            draw = payload_drawer(self.ring, self.bounds, rng)
            generated = [draw() for _ in range(self.count)]
            # one object per distinct payload, so that a sweep can spot a
            # repeated tuple by the identity of its elements
            interned: dict = {}
            elems = [interned.setdefault(x.payload, x) for x in forced]
            for p in generated:
                x = interned.get(p)
                if x is None:
                    x = interned[p] = RingElement(self.ring, p)
                elems.append(x)
            self._elements = elems
            self._forced_size = len(forced)
            self._size = len(interned)
        return self._elements

    @property
    def forced_size(self) -> int:
        """Length of the forced prefix of ``elements()``."""
        self.elements()
        return self._forced_size

    # ------------------------------------------------------------------
    def tuples(self, arity: int, n: int, tag: str) -> SampledTuples:
        """Deterministic n sampled tuples; forced-prefix combinations first.

        The forced block guarantees that every pair/triple of distinguished
        elements is swept before any random tuple, which pins the first
        counterexample a check reports.  After it, each slot of each tuple,
        in order, is ``elements()[rng.randrange(len(elements()))]`` (drawn
        by ``_indices``), as a test in tests/test_rings.py pins.  n < 1
        raises ValueError: a sweep over no tuples would pass vacuously.

        Nothing is drawn here: the tuples come as a ``SampledTuples`` plan
        that draws them as a sweep reads them.  Each tuple is keyed by the
        ids of its elements, which ``elements()`` holds once per payload,
        so ``report.sweep`` evaluates a repeated tuple once and stops
        drawing once it has seen every tuple of the distinct elements.
        """
        if n < 1:
            raise ValueError(f"tuple count must be positive, got {n}")
        elems = self.elements()
        forced = itertools.product(elems[: self.forced_size], repeat=arity)
        head = list(itertools.chain.from_iterable(itertools.islice(forced, n)))
        rng = random.Random(self.seed ^ _stable_int(f"{self.ring.name}|{tag}|{arity}"))
        tail = map(elems.__getitem__, _indices(rng, len(elems)))
        return SampledTuples(head, tail, arity, n, self._size ** arity)

    def singles(self, n: int, tag: str) -> List[RingElement]:
        return [t[0] for t in self.tuples(1, n, tag)]

    def pairs(self, n: int, tag: str):
        return self.tuples(2, n, tag)

    def triples(self, n: int, tag: str):
        return self.tuples(3, n, tag)

"""Seeded, bounded generation of ring elements for property sweeps.

Every check in this package quantifies over a SampleUniverse: a
deterministic finite multiset of ring elements.  The element list always
starts with the declared distinguished elements followed by 0, 1 and -1,
so corpus witnesses are found first and reports are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .rings import (
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    QuotientRing,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
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


class SampledTuples(list):
    """A list of sampled tuples that carries its sweep plan.

    ``keys[i]`` stands for the objects of ``self[i]``: ``keys[i] ==
    keys[j]`` exactly when ``self[i][k] is self[j][k]`` for every k.
    ``distinct`` maps each key to a tuple of those objects, in the order
    of the key's first occurrence.  The plan is made when the list is
    built, so the list must not be mutated after that.
    """

    __slots__ = ("keys", "distinct")

    def __init__(self, tuples, keys: list):
        super().__init__(tuples)
        self.keys = keys
        self.distinct = dict(zip(keys, self))


class SampleUniverse:
    """Deterministic bounded element generator over a ring.

    The multiset is ``distinguished + [0, 1, -1] + count random draws``;
    generation depends only on (ring, seed, count, bounds, distinguished).
    Entries with equal payloads are one and the same object.
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
        self._first: List[int] = []
        self._forced_size = 0

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
            generated = [self._draw(rng) for _ in range(self.count)]
            # one object per distinct payload, so that a sweep can spot a
            # repeated tuple by the identity of its elements
            interned: dict = {}
            self._elements = [
                interned.setdefault(x.payload, x) for x in forced + generated
            ]
            # entry i holds the same object as entry _first[i], its first
            # occurrence: tuples() keys its draws with these positions
            where: dict = {}
            self._first = [
                where.setdefault(id(x), i) for i, x in enumerate(self._elements)
            ]
            self._forced_size = len(forced)
        return self._elements

    @property
    def forced_size(self) -> int:
        """Length of the forced prefix of ``elements()``."""
        self.elements()
        return self._forced_size

    # ------------------------------------------------------------------
    def _draw(self, rng: random.Random) -> RingElement:
        return self._draw_in(self.ring, rng)

    def _draw_in(self, ring: Ring, rng: random.Random) -> RingElement:
        b = self.bounds
        if isinstance(ring, IntegerRing):
            return ring.from_int(rng.randint(-b.coeff_height, b.coeff_height))
        if isinstance(ring, RationalField):
            num = rng.randint(-b.coeff_height, b.coeff_height)
            den = rng.randint(1, b.den_height)
            return ring.el(Fraction(num, den))
        if isinstance(ring, IntegerModRing):
            return ring.el(rng.randrange(ring.modulus))
        if isinstance(ring, PolynomialRing):
            return self._draw_poly(ring, rng)
        if isinstance(ring, RationalFunctionField):
            num = self._draw_poly(ring.poly, rng)
            den = self._draw_poly(ring.poly, rng)
            if den.is_zero():
                den = ring.poly.one()
            return ring.frac(num, den)
        if isinstance(ring, QuotientRing):
            rep = self._draw_in(ring.base, rng)
            return ring.el(rep.payload)
        # residue domains and other wrappers know how to sample themselves
        sampler = getattr(ring, "sample", None)
        if sampler is not None:
            return sampler(self, rng)
        raise ValueError(f"no sampler for ring {ring.name}")

    def _draw_poly(self, ring: PolynomialRing, rng: random.Random) -> RingElement:
        b = self.bounds
        nterms = rng.randint(0, b.max_terms)
        d: dict = {}
        for _ in range(nterms):
            exps = tuple(rng.randint(0, b.max_degree) for _ in ring.variables)
            coef = self._draw_in(ring.base, rng)
            if exps in d:
                d[exps] = ring.base.add(d[exps], coef.payload)
            else:
                d[exps] = coef.payload
        return RingElement(ring, ring._canon_dict(d))

    # ------------------------------------------------------------------
    def tuples(self, arity: int, n: int, tag: str) -> SampledTuples:
        """Deterministic n sampled tuples; forced-prefix combinations first.

        The forced block guarantees that every pair/triple of distinguished
        elements is swept before any random tuple, which pins the first
        counterexample a check reports.  After it, each slot of each tuple,
        in order, is ``elements()[rng.randrange(len(elements()))]`` (drawn
        by ``_indices``), as a test in tests/test_rings.py pins.  n < 1
        raises ValueError: a sweep over no tuples would pass vacuously.

        The tuples come with their sweep plan (``SampledTuples``): each
        tuple is keyed by the first positions of its elements in
        ``elements()``, so a repeated tuple has the key of its first
        occurrence and ``report.sweep`` evaluates it once.
        """
        if n < 1:
            raise ValueError(f"tuple count must be positive, got {n}")
        elems = self.elements()
        forced = itertools.islice(
            itertools.product(range(self.forced_size), repeat=arity), n
        )
        slots = list(itertools.chain.from_iterable(forced))
        rng = random.Random(self.seed ^ _stable_int(f"{self.ring.name}|{tag}|{arity}"))
        slots += itertools.islice(_indices(rng, len(elems)), n * arity - len(slots))
        picked = map(elems.__getitem__, slots)
        keyed = map(self._first.__getitem__, slots)
        return SampledTuples(zip(*[picked] * arity), list(zip(*[keyed] * arity)))

    def singles(self, n: int, tag: str) -> List[RingElement]:
        return [t[0] for t in self.tuples(1, n, tag)]

    def pairs(self, n: int, tag: str):
        return self.tuples(2, n, tag)

    def triples(self, n: int, tag: str):
        return self.tuples(3, n, tag)

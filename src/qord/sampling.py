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
from typing import List, Sequence, Tuple

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


def draws(rng: random.Random, elems: Sequence):
    """An endless stream of draws ``elems[rng.randrange(len(elems))]``.

    The index is drawn as CPython's ``randrange(m)`` draws it for a
    ``random.Random``: ``getrandbits(m.bit_length())``, drawn again while
    it is not below m.  So the stream, and everything sampled from it, is
    the one ``randrange`` gives.  An empty ``elems`` raises ValueError at
    the first draw, as ``randrange(0)`` does.
    """
    m = len(elems)
    if not m:
        raise ValueError("no elements to draw from")
    getrandbits = rng.getrandbits
    k = m.bit_length()
    while True:
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        yield elems[r]


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
    def tuples(self, arity: int, n: int, tag: str) -> List[Tuple[RingElement, ...]]:
        """Deterministic n sampled tuples; forced-prefix combinations first.

        The forced block guarantees that every pair/triple of distinguished
        elements is swept before any random tuple, which pins the first
        counterexample a check reports.  After it, each slot of each tuple,
        in order, is ``elements()[rng.randrange(len(elements()))]`` (drawn
        by ``draws``), as a test in tests/test_rings.py pins.  n < 1 raises
        ValueError: a sweep over no tuples would pass vacuously.
        """
        if n < 1:
            raise ValueError(f"tuple count must be positive, got {n}")
        elems = self.elements()
        fsize = self.forced_size
        out: List[Tuple[RingElement, ...]] = []
        for combo in itertools.product(range(fsize), repeat=arity):
            if len(out) >= n:
                break
            out.append(tuple(elems[i] for i in combo))
        rng = random.Random(self.seed ^ _stable_int(f"{self.ring.name}|{tag}|{arity}"))
        slots = draws(rng, elems)
        out.extend(itertools.islice(zip(*[slots] * arity), n - len(out)))
        return out

    def singles(self, n: int, tag: str) -> List[RingElement]:
        return [t[0] for t in self.tuples(1, n, tag)]

    def pairs(self, n: int, tag: str):
        return self.tuples(2, n, tag)

    def triples(self, n: int, tag: str):
        return self.tuples(3, n, tag)

"""The payload-level universe draw: its integer stream and the universes
it draws, pinned by digest for every ring kind."""

import hashlib
import itertools
import random
from fractions import Fraction

from qord import corpus
from qord.rings import (
    QQ,
    ZZ,
    IntegerModRing,
    PolynomialRing,
    QuotientRing,
    SupportIdeal,
    VariableIdeal,
    fraction_field,
    poly_ring,
)
from qord.sampling import Bounds, SampleUniverse, randint


def test_randint_is_random_randint():
    ranges = [(0, 0), (1, 1), (-1, 1), (0, 1), (0, 3), (-9, 9), (1, 9), (0, 4),
              (-40, 40), (5, 2**40), (-(2**70), 2**70 + 3)]
    for seed, (a, b) in itertools.product(range(40), ranges):
        mine, ref = random.Random(seed), random.Random(seed)
        bits = mine.getrandbits
        assert [randint(bits, a, b) for _ in range(60)] == [ref.randint(a, b) for _ in range(60)]
        assert mine.getstate() == ref.getstate()


def _shipped_valuations():
    return {name: v for name, v, _ in corpus.shipped_objects()[0]}


def _rings():
    zx, qx = poly_ring(ZZ, "X"), poly_ring(QQ, "X")
    zxy, qxy = poly_ring(ZZ, "X", "Y"), poly_ring(QQ, "X", "Y")
    vals = _shipped_valuations()
    rings = {
        "Z": ZZ, "Q": QQ, "Z/5Z": IntegerModRing(5), "Z[X]": zx, "Q[X]": qx,
        "Z[X,Y]": zxy, "Q[X,Y]": qxy,
        "Quot(Q[X])": fraction_field(qx)[0], "Quot(Z[X])": fraction_field(zx)[0],
        "Quot(Z[X,Y])": fraction_field(zxy)[0],
        "Z[X,Y]/<Y>": QuotientRing(zxy, VariableIdeal(zxy, ["Y"])),
        "Z/supp(triv(2Z))": QuotientRing(ZZ, SupportIdeal(vals["trivial-evens-Z"])),
    }
    # residue domains: the first two have a concrete form, the rest none
    for name in ("padic-2-Q", "degree-extension-K", "padic-2-Z", "degree-ZX",
                 "gauss-plus-QX", "gauss-bivariate-ZXY", "composite-deg-v2",
                 "transported-v2-residue"):
        rings["Rv:" + name] = vals[name].residue_ring()
    return rings


def _pinned_form(ring, p):
    """p with each Q payload (n, d) in it as the Fraction n/d, the form the
    digests were pinned in; a residue domain hands out its parent's payloads."""
    ring = getattr(ring, "parent", ring)
    if ring is QQ:
        return Fraction(*p)
    if isinstance(ring, PolynomialRing) and ring.base is QQ and not ring.dense:
        return tuple((e, Fraction(*c)) for e, c in p)
    return p


def _digest(ring, seed, bounds=Bounds()):
    h = hashlib.sha256()
    for x in SampleUniverse(ring, seed=seed, count=150, bounds=bounds).elements():
        h.update(repr(_pinned_form(ring, x.payload)).encode() + b"\n")
    return h.hexdigest()[:16]


#: first 16 hex digits of the sha256 of the element payloads of a 150-draw
#: universe at seeds 42 and 7: a change to the draw that moves a universe
#: moves every verdict and witness swept over it
UNIVERSE_SHA256 = {
    "Z": ("08a5f1a92131d83e", "33f028261a9bcb96"),
    "Q": ("2120f2cfa53f3c22", "bcd951c236434739"),
    "Z/5Z": ("cf6033da9e72f835", "979b80bd695c4bf1"),
    "Z[X]": ("87993d8f73cd5d69", "0838c46a23ffb7f8"),
    "Q[X]": ("1b131c6ded905193", "2d65f9abfaecedfc"),
    "Z[X,Y]": ("166eea269fce2a93", "6dfa1b43ceb26643"),
    "Q[X,Y]": ("07287b9bd7e3097f", "de49fbccec2963fb"),
    "Quot(Q[X])": ("52164d385b661fb6", "0f38c7e7e5817317"),
    "Quot(Z[X])": ("a04c1ef9ec93ad29", "72b73ded88cb41fa"),
    "Quot(Z[X,Y])": ("15b16fbe0d057070", "b9ecdebbbe90feb3"),
    "Z[X,Y]/<Y>": ("45d95bd7bbf28d36", "d4d283404706c027"),
    "Z/supp(triv(2Z))": ("cb86c191b269d460", "97caf7e05e8912c0"),
    "Rv:padic-2-Q": ("3c2db4f2bda8ac9d", "cb02d768280a6660"),
    "Rv:degree-extension-K": ("2fb77d1997662a85", "388f574e23fc4a16"),
    "Rv:padic-2-Z": ("8ed081f212a3bf7a", "2b1833676c591630"),
    "Rv:degree-ZX": ("76242ad7eb15cfac", "1cb2c4cc4eae18d1"),
    "Rv:gauss-plus-QX": ("dd4566adc2f59509", "02365d4394c7a180"),
    "Rv:gauss-bivariate-ZXY": ("21d7c399e5ff2c78", "9f97986987782eba"),
    "Rv:composite-deg-v2": ("759fa444da0909d9", "8162d84aa6361fef"),
    "Rv:transported-v2-residue": ("a41cfc9c5cc9866c", "38db03057eb41589"),
}


def test_universe_payloads_are_pinned():
    rings = _rings()
    assert set(rings) == set(UNIVERSE_SHA256)
    for name, ring in rings.items():
        assert (_digest(ring, 42), _digest(ring, 7)) == UNIVERSE_SHA256[name], name
    # bounds whose ranges hold one value still draw a bit per integer
    tight = Bounds(coeff_height=1, max_degree=0, max_terms=1, den_height=1)
    assert _digest(poly_ring(ZZ, "X", "Y"), 42, tight) == "fcb5fb1bcfd63c79"
    assert _digest(poly_ring(QQ, "X"), 42, tight) == "2b45d867470f8c4e"

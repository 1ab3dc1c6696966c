"""The built-in orders compare two payloads directly; each must agree with
the sign-of-difference rule x <= y iff sign(y - x) >= 0, and none may form
y - x to get there."""

import gc
import weakref

import pytest

from qord.quasiorders import (
    QuasiOrder,
    at_zero_order,
    const_term_order,
    leading_term_order,
    natural_order,
)
from qord.rings import (
    QQ,
    ZZ,
    IntegerRing,
    PolynomialRing,
    RationalFunctionField,
    Ring,
    poly_ring,
)
from qord.sampling import SampleUniverse
from qord.valuations import padic_valuation

sympy = pytest.importorskip("sympy")
SX = sympy.Symbol("X")

ZX = poly_ring(ZZ, "X")
QX = poly_ring(QQ, "X")
ZXY = poly_ring(ZZ, "X", "Y")
K_Q = RationalFunctionField(QX)
K_Z = RationalFunctionField(ZX)


def _num_sign(x):
    """Sign of an int or of a Q payload (n, d), d > 0."""
    n = x[0] if isinstance(x, tuple) else x
    return (n > 0) - (n < 0)


def _const_sign(poly):
    return lambda p: _num_sign(poly.const_coef(p))


def _rational(c):
    """sympy's value of an int or of a Q payload (n, d)."""
    return sympy.Rational(*c) if isinstance(c, tuple) else sympy.Rational(c)


def _sympy_sign(coef):
    """The sign map of a function field that multiplies the signs of
    coef(numerator) and coef(denominator), read through ``poly_pair`` into
    sympy: ``Poly.LC`` gives the sign for all large X, and ``Poly.EC``
    (the lowest nonzero coefficient) the sign for all small X > 0."""

    def make(field):
        def sign(p):
            num, den = (
                sympy.Poly.from_dict(
                    {e: _rational(c) for e, c in field.poly.terms(part)}, SX, domain="QQ"
                )
                for part in field.poly_pair(p)
            )
            return int(sympy.sign(coef(num)) * sympy.sign(coef(den)))

        return sign

    return make


#: (ring, built-in order, sign map of the reference rule)
CASES = [
    (ZZ, natural_order, lambda r: _num_sign),
    (QQ, natural_order, lambda r: _num_sign),
    (ZX, const_term_order, _const_sign),
    (QX, const_term_order, _const_sign),
    (ZXY, const_term_order, _const_sign),
    (K_Q, leading_term_order, _sympy_sign(sympy.Poly.LC)),
    (K_Q, at_zero_order, _sympy_sign(sympy.Poly.EC)),
    (K_Z, leading_term_order, _sympy_sign(sympy.Poly.LC)),
    (K_Z, at_zero_order, _sympy_sign(sympy.Poly.EC)),
]
IDS = [f"{make.__name__}-{ring.name}" for ring, make, _ in CASES]


def _reference(ring, sign):
    return QuasiOrder(ring, lambda px, py: sign(ring.sub(py, px)) >= 0, "reference")


def _parse_all(ring, texts):
    return [ring.parse(t) for t in texts]


#: hand-made elements of the function fields: equal leading terms, equal
#: constant terms, denominators whose lowest coefficient is negative,
#: different degrees, and zero
FIELD_TEXTS = [
    "0", "1", "-1", "2", "X", "-X", "X + 1", "X + 2", "1 - X", "1 + X",
    "1 + 2*X", "X^2", "X^2 + X", "-X^2 + 1", "(1)/(X - 1)", "(1)/(X - 2)",
    "(1)/(X^2 - 1)", "(X)/(X - 1)", "(X + 1)/(X^2 - 3)", "(-1)/(X - 1)",
    "(2*X + 1)/(X^3 - 2*X^2 - 1)", "(1)/(X)", "(X^2)/(X + 1)",
]
#: and of the polynomial rings: the same constant term with other terms
POLY_TEXTS = ["0", "1", "-1", "2", "X", "-X", "X + 1", "X + 2", "1 - X",
              "1 + 2*X", "X^2 + 1", "-X^3", "2 - X^2"]


def _hand_made(ring):
    if isinstance(ring, RationalFunctionField):
        return _parse_all(ring, FIELD_TEXTS)
    if isinstance(ring, PolynomialRing):
        texts = POLY_TEXTS
        if ring.nvars == 2:
            texts = texts + ["Y", "1 + X*Y", "1 - Y", "-Y^2 + X"]
        return _parse_all(ring, texts)
    return _parse_all(ring, ["0", "1", "-1", "2", "-2", "7"] + (
        [] if isinstance(ring, IntegerRing) else ["1/2", "-1/3", "2/3"]))


@pytest.mark.parametrize("ring,make,sign", CASES, ids=IDS)
def test_direct_comparator_agrees_with_sign_of_difference(ring, make, sign):
    q, ref = make(ring), _reference(ring, sign(ring))
    hand = _hand_made(ring)
    universe = SampleUniverse(ring, seed=42, count=60)
    pairs = [(x, y) for x in hand for y in hand]
    pairs += universe.pairs(400, "direct")
    for x, y in pairs:
        assert q.le(x, y) == ref.le(x, y), (str(x), str(y))


def test_hand_made_verdicts_at_infinity_and_at_zero():
    inf, at0 = leading_term_order(K_Q), at_zero_order(K_Q)
    X, one, zero = K_Q.parse("X"), K_Q.one(), K_Q.zero()

    def le(q, a, b):
        return q.le(K_Q.parse(a), K_Q.parse(b))

    assert inf.strict(one, X) and at0.strict(X, one)
    assert le(inf, "X + 1", "X + 2") and not le(inf, "X + 2", "X + 1")
    assert le(inf, "2", "X") and not le(inf, "X", "2")
    assert not le(at0, "1", "1 - X") and le(at0, "1 - X", "1")
    assert not le(at0, "0", "-X") and le(at0, "-X", "0")
    # 1/(X - 1) is near -1 just right of 0 and positive for large X
    assert not le(at0, "0", "(1)/(X - 1)") and le(inf, "0", "(1)/(X - 1)")
    assert le(at0, "(1)/(X - 1)", "(1)/(X - 2)")
    assert inf.sim(zero, zero) and at0.sim(X, X)


def test_const_term_order_ties_on_the_constant_term():
    q = const_term_order(ZX)
    a, b = ZX.parse("1 + X"), ZX.parse("1 + 2*X")
    assert q.sim(a, b) and q.strict(ZX.parse("1 - X^2"), ZX.parse("2"))


def test_const_term_order_forms_no_difference(monkeypatch):
    universe = SampleUniverse(ZXY, seed=42, count=120)
    pairs = universe.pairs(200, "no-sub")
    q = const_term_order(ZXY)
    calls = []
    for cls in {type(ZXY), type(ZXY.base), Ring}:
        for op in ("add", "sub"):
            if op in vars(cls):
                orig = vars(cls)[op]

                def counted(self, a, b, _orig=orig, _name=f"{cls.__name__}.{op}"):
                    calls.append(_name)
                    return _orig(self, a, b)

                monkeypatch.setattr(cls, op, counted)
    for x, y in pairs:
        q.le(x, y)
    monkeypatch.undo()
    assert len(q._memo) > 100
    assert calls == []


def test_residue_ring_makes_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        v = padic_valuation(5, QQ)
        residue = v.residue_ring()
        assert v.residue_ring() is residue
        assert residue.val is v
        assert v(residue.representative(residue.one())) == v(QQ.one())
        ref = weakref.ref(v)
        del v, residue
        assert ref() is None
    finally:
        gc.enable()

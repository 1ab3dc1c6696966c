"""Quot(Q[X]) beyond the kernel: every reader of the integer payload form
against the formula it replaced, applied to the reference Q[X] pair, the
extended valuations against sympy, and the split ``num_den`` that the
extensions read against the reduced ``poly_pair`` on Quot(Z[X]) as well."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.groups import INF, value_sub
from qord.quasiorders import (
    at_zero_order,
    frac_extend_qo,
    from_valuation,
    leading_term_order,
)
from qord.rings import QQ, ZZ, RationalFunctionField, poly_ring
from qord.valuations import (
    degree_valuation,
    frac_extend_val,
    gauss_on,
    padic_valuation,
    trivial_valuation,
)

sympy = pytest.importorskip("sympy")

QX = poly_ring(QQ, "X")
ZERO = QX.zero_payload()
K = RationalFunctionField(QX)
SX = sympy.Symbol("X")


@st.composite
def qx_polys(draw):
    d = {}
    for e in range(draw(st.integers(min_value=0, max_value=4))):
        num = draw(st.integers(min_value=-12, max_value=12))
        den = draw(st.sampled_from([1, 2, 3, 4, 9]))
        d[(e,)] = Fraction(num, den)
    return QX._canon_dict(d)


@st.composite
def k_elements(draw):
    """(element, raw Q[X] numerator, raw Q[X] denominator), often with a
    common factor and a negative leading coefficient."""
    num, den, g = draw(qx_polys()), draw(qx_polys()), draw(qx_polys())
    if den == ZERO:
        den = QX.one_payload()
    if g != ZERO and draw(st.booleans()):
        num, den = QX.mul(num, g), QX.mul(den, g)
    if draw(st.booleans()):
        den = QX.neg(den)
    return K.frac(QX.el(num), QX.el(den)), num, den


NEGATIVE_LEAD = ["(-1*X)/(1)", "(-3)/(2*X)", "(X - 2)/(-1/2*X^2 + 1)", "-X^3 + 1"]


def _to_sympy(p):
    return sum((sympy.Rational(*c) * SX**e for (e,), c in QX.terms(p)), sympy.Integer(0))


def _from_sympy(poly):
    return QX._canon_dict({e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


def ref_pair(num, den):
    """The canonical Q[X] pair of num/den by sympy: coprime, monic den."""
    if num == ZERO:
        return ZERO, QX.one_payload()
    n, d = sympy.fraction(sympy.cancel(_to_sympy(num) / _to_sympy(den)))
    n, d = sympy.Poly(n, SX, domain="QQ"), sympy.Poly(d, SX, domain="QQ")
    lc = d.LC()
    return _from_sympy(n.quo_ground(lc)), _from_sympy(d.quo_ground(lc))


def _sign(x):
    """Sign of an int or of a Q payload (n, d), d > 0."""
    n = x[0] if isinstance(x, tuple) else x
    return (n > 0) - (n < 0)


def _lead(q):
    """(degree, leading coefficient) of a Q[X] payload; (-1, 0) for zero."""
    t = QX.terms(q)
    return (t[0][0][0], t[0][1]) if t else (-1, 0)


# the formulas the readers had while the payload was the Q[X] pair


def pair_sign_at_infinity(pair):
    num, den = pair
    if num == ZERO:
        return 0
    return _sign(_lead(num)[1]) * _sign(_lead(den)[1])


def pair_sign_at_zero(pair):
    def lowest_coef(q):
        best = None
        for (e,), c in QX.terms(q):
            if best is None or e < best[0]:
                best = (e, c)
        return best[1] if best else 0

    num, den = pair
    if num == ZERO:
        return 0
    return _sign(lowest_coef(num)) * _sign(lowest_coef(den))


def pair_frac_cmp(q, pa, pb):
    x, y = pa
    a, b = pb
    left = QX.mul(QX.mul(x, y), QX.mul(b, b))
    right = QX.mul(QX.mul(a, b), QX.mul(y, y))
    return q._compare_payload(left, right)


def pair_ext_value(v, pair):
    num, den = pair
    if num == ZERO:
        return INF
    return value_sub(v._eval_memo(num), v._eval_memo(den))


def pair_lc_fraction(pair):
    num, den = pair
    (dn, cn), (dd, cd) = _lead(num), _lead(den)
    if dn < dd:
        return Fraction(0)
    if dn > dd:
        raise ValueError("element is outside the valuation ring")
    return Fraction(*cn) / Fraction(*cd)


def pair_from_c(q):
    return QX._canon_dict({(0,): q}), QX.one_payload()


DEG = degree_valuation(QX)
GAUSS3 = gauss_on(padic_valuation(3, QQ), QX, (1,))
QO_DEG = from_valuation(DEG)
QO_DEG_EXT = frac_extend_qo(QO_DEG)
NU_DEG = frac_extend_val(DEG, uniformizer=QX.var("X"))
NU_GAUSS3 = frac_extend_val(GAUSS3)
LEAD = leading_term_order(K)
AT_ZERO = at_zero_order(K)


def _check_readers(x, pair):
    p = x.payload
    assert K.poly_pair(p) == pair
    assert str(x) == f"({QX.format(pair[0])})/({QX.format(pair[1])})"
    assert LEAD.le(K.zero(), x) == (pair_sign_at_infinity(pair) >= 0)
    assert AT_ZERO.le(K.zero(), x) == (pair_sign_at_zero(pair) >= 0)
    assert NU_DEG(x) == pair_ext_value(DEG, pair)
    assert NU_GAUSS3(x) == pair_ext_value(GAUSS3, pair)
    _, to_c, from_c = NU_DEG.residue_form
    try:
        want = QQ.canon(pair_lc_fraction(pair))
    except ValueError:
        with pytest.raises(ValueError):
            to_c(p)
    else:
        assert to_c(p) == want
        back = from_c(want)
        assert K.poly_pair(back) == pair_from_c(want)
        assert to_c(back) == want


def _check_inverse(x, pair):
    if pair[0] == ZERO:
        with pytest.raises(ZeroDivisionError):
            K.inv(x)
        return
    inv = K.inv(x)
    n, d = inv.payload
    assert d[-1] > 0 and all(type(c) is int for c in n + d)
    want = ref_pair(pair[1], pair[0])
    assert K.poly_pair(inv.payload) == want
    assert inv == K.frac(QX.el(pair[1]), QX.el(pair[0]))
    assert inv * x == K.one()
    _check_readers(inv, want)


@settings(max_examples=80, deadline=None)
@given(k_elements(), k_elements())
def test_readers_match_the_pair_formulas(xa, ya):
    (x, xn, xd), (y, yn, yd) = xa, ya
    px, py = ref_pair(xn, xd), ref_pair(yn, yd)
    for el, pair in ((x, px), (y, py)):
        _check_readers(el, pair)
        _check_inverse(el, pair)
    assert QO_DEG_EXT._compare_payload(x.payload, y.payload) == pair_frac_cmp(
        QO_DEG, px, py
    )
    assert QO_DEG_EXT._compare_payload(y.payload, x.payload) == pair_frac_cmp(
        QO_DEG, py, px
    )


@pytest.mark.parametrize("text", NEGATIVE_LEAD)
def test_readers_on_negative_leading_coefficients(text):
    x = K.parse(text)
    pair = ref_pair(*K.poly_pair(x.payload))
    _check_readers(x, pair)
    _check_inverse(x, pair)
    assert pair_sign_at_infinity(K.poly_pair(K.inv(x).payload)) == -1


def test_inverse_of_minus_x_is_printed_as_before():
    x = K.parse("(-1*X)/(1)")
    assert str(K.inv(x)) == "(-1)/(1*X)"
    assert K.inv(x).payload == ((-1,), (0, 1))


# ---------------------------------------------------------------------------
# oracle: the extended valuations against sympy


def _sympy_parts(num, den):
    return sympy.Poly(_to_sympy(num), SX, domain="QQ"), sympy.Poly(
        _to_sympy(den), SX, domain="QQ"
    )


def _gauss_min(poly, p, gamma):
    return min(
        sympy.multiplicity(p, c) + gamma * e for (e,), c in poly.terms() if c
    )


@settings(max_examples=60, deadline=None)
@given(k_elements())
def test_degree_extension_against_sympy(xa):
    x, num, den = xa
    if num == ZERO:
        assert NU_DEG(x) is INF
        return
    n, d = _sympy_parts(num, den)
    assert NU_DEG(x) == (-(sympy.degree(n, SX) - sympy.degree(d, SX)),)


GAUSS_EXT = {
    (p, gamma): frac_extend_val(gauss_on(padic_valuation(p, QQ), QX, (gamma,)))
    for p in (2, 3, 5)
    for gamma in (1, -1)
}


@settings(max_examples=60, deadline=None)
@given(k_elements(), st.sampled_from(sorted(GAUSS_EXT)))
def test_gauss_extension_against_sympy(xa, key):
    x, num, den = xa
    p, gamma = key
    nu = GAUSS_EXT[key]
    if num == ZERO:
        assert nu(x) is INF
        return
    n, d = _sympy_parts(num, den)
    assert nu(x) == (_gauss_min(n, p, gamma) - _gauss_min(d, p, gamma),)


@settings(max_examples=100, deadline=None)
@given(k_elements())
def test_degree_residue_map_against_sympy(xa):
    # the residue map of the degree valuation into Q: LC(N)/LC(D) on the
    # value-0 elements, 0 on I_v, and an error outside R_v
    x, num, den = xa
    _, to_c, _ = NU_DEG.residue_form
    n, d = _sympy_parts(num, den)
    if n.is_zero or n.degree() < d.degree():
        assert to_c(x.payload) == QQ.zero_payload()
    elif n.degree() == d.degree():
        lc = n.LC() / d.LC()
        assert NU_DEG(x) == (0,)
        assert to_c(x.payload) == (int(lc.p), int(lc.q))
    else:
        with pytest.raises(ValueError):
            to_c(x.payload)
        with pytest.raises(ValueError):
            NU_DEG.residue_ring().element(x)


# the X-adic valuation: gauss over the trivial base with twist +1, extended
# along the uniformizer X, is ord_X(N) - ord_X(D)
NU_XADIC = frac_extend_val(
    gauss_on(trivial_valuation(QQ), QX, (1,)), uniformizer=QX.var("X")
)


def _ord_x(poly):
    return min(e for (e,), c in poly.terms() if c)


@settings(max_examples=60, deadline=None)
@given(k_elements())
def test_x_adic_extension_against_sympy(xa):
    x, num, den = xa
    if num == ZERO:
        assert NU_XADIC(x) is INF
        return
    n, d = _sympy_parts(num, den)
    assert NU_XADIC(x) == (_ord_x(n) - _ord_x(d),)


@pytest.mark.parametrize(
    "text, want",
    [("(X^2 + X^3)/(X)", (1,)), ("(1)/(X^3 + X^5)", (-3,)), ("(1 + X)/(2 + X^4)", (0,)),
     ("0", INF)],
)
def test_x_adic_extension_examples(text, want):
    assert NU_XADIC(K.parse(text)) == want


# ---------------------------------------------------------------------------
# the split the extensions read: num_den against poly_pair


ZX = poly_ring(ZZ, "X")
KZ = RationalFunctionField(ZX)


@st.composite
def zx_polys(draw):
    coefs = draw(st.lists(st.integers(-12, 12), max_size=5))
    return ZX._canon_dict({(e,): c for e, c in enumerate(coefs) if c})


#: Gauss valuations over v_2 and over the trivial valuation, twists +-1,
#: on Z[X] and Q[X], each extended along X (needed where v is not Manis)
SPLIT_VALS = {
    (poly.name, base, gamma): gauss_on(u, poly, (gamma,))
    for poly in (ZX, QX)
    for base, u in (
        ("v_2", padic_valuation(2, poly.base)),
        ("triv", trivial_valuation(poly.base)),
    )
    for gamma in (1, -1)
}
SPLIT_EXT = {
    key: frac_extend_val(v, uniformizer=v.ring.var("X")) for key, v in SPLIT_VALS.items()
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(ZX, KZ, zx_polys), (QX, K, qx_polys)]), st.data())
def test_num_den_split_against_poly_pair(rings, data):
    poly, field, polys = rings
    num, den = data.draw(polys()), data.draw(polys())
    if den == poly.zero_payload():
        den = poly.one_payload()
    x = field.frac(poly.el(num), poly.el(den))
    n, d = field.num_den(x.payload)
    assert poly.canon(n) == n and poly.canon(d) == d
    assert field.from_poly_pair(n, d) == x.payload
    pn, pd = field.poly_pair(x.payload)
    for key, v in SPLIT_VALS.items():
        if key[0] == poly.name:
            want = INF if pn == poly.zero_payload() else value_sub(v(poly.el(pn)), v(poly.el(pd)))
            assert SPLIT_EXT[key](x) == want

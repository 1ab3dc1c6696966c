"""Z[X] and Q[X] on the dense integer kernel against sympy: arithmetic,
canonical form, printing and parsing, and the Gauss and degree valuations
read on the dense payloads over p-adic and trivial bases (with the sparse
Z[X,Y] and Q[X,Y] next to them); the sparse Z[X,Y] and Q[X,Y] kernel and
the p-adic valuations as well."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.groups import INF
from qord.rings import QQ, ZZ, PrincipalIdeal, poly_ring
from qord.valuations import (
    degree_valuation,
    gauss_on,
    padic_valuation,
    trivial_valuation,
)

sympy = pytest.importorskip("sympy")

ZX = poly_ring(ZZ, "X")
QX = poly_ring(QQ, "X")
ZXY = poly_ring(ZZ, "X", "Y")
QXY = poly_ring(QQ, "X", "Y")
SX, SY = sympy.symbols("X Y")

int_coefs = st.lists(st.integers(-40, 40), max_size=6)
rational = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
rational_coefs = st.lists(rational, max_size=6)


@st.composite
def elements(draw, ring):
    """(ring, element, sympy Poly) from one coefficient list, lowest degree
    first; the element is built from its term dict."""
    coefs = draw(int_coefs if ring is ZX else rational_coefs)
    x = ring.el(ring._canon_dict({(e,): c for e, c in enumerate(coefs) if c}))
    domain = "ZZ" if ring is ZX else "QQ"
    terms = [
        sympy.Rational(c.numerator, c.denominator) * SX**e
        for e, c in enumerate(map(Fraction, coefs))
    ]
    return ring, x, sympy.Poly(sum(terms, sympy.Integer(0)), SX, domain=domain)


rings = st.sampled_from([ZX, QX])
any_element = rings.flatmap(elements)


def _rational(c):
    """sympy's value of a coefficient: an int, a Fraction or a Q payload (n, d)."""
    return sympy.Rational(*c) if isinstance(c, tuple) else sympy.Rational(c)


def _to_sympy(ring, x):
    return sympy.Poly(
        sum(
            (_rational(c) * SX**e for (e,), c in ring.terms(x.payload)),
            sympy.Integer(0),
        ),
        SX,
        domain="ZZ" if ring is ZX else "QQ",
    )


def _reference_text(poly):
    """Highest degree first, c*X^e terms joined by ' + ', '0' for zero."""
    parts = []
    for (e,), c in poly.terms():
        if c:
            parts.append(str(c) if e == 0 else f"{c}*X" if e == 1 else f"{c}*X^{e}")
    return " + ".join(parts) or "0"


def _assert_dense(ring, p):
    """Z[X]: an int tuple without trailing zero.  Q[X]: (N, d), N such a
    tuple, d > 0 and gcd(content(N), d) = 1; zero is ((), 1)."""
    n, d = p if ring is QX else (p, 1)
    assert type(n) is tuple and all(type(c) is int for c in n) and type(d) is int
    assert not n or n[-1]
    assert d > 0 and math.gcd(d, *n) == 1


def _check(ring, x, poly):
    _assert_dense(ring, x.payload)
    assert _to_sympy(ring, x) == poly
    assert str(x) == _reference_text(poly)
    assert ring.parse(str(x)) == x and ring.parse(str(x)).payload == x.payload


@settings(max_examples=150, deadline=None)
@given(rings, st.data())
def test_kernel_against_sympy_poly(ring, data):
    _, x, px = data.draw(elements(ring))
    _, y, py = data.draw(elements(ring))
    _check(ring, x, px)
    for got, want in ((x + y, px + py), (x * y, px * py), (-x, -px), (x - y, px - py)):
        _check(ring, got, want)
    assert (x == y) == (px == py)
    assert x * y == y * x and (x + y) - y == x
    # canon reduces any scaled or padded form to the one payload
    n, d = ring.int_form(x.payload)
    k = data.draw(st.sampled_from([1, 2, -3, 6]))
    if ring is QX:
        assert ring.canon((tuple(k * c for c in n) + (0,), k * d)) == x.payload
    else:
        assert ring.canon(n + (0, 0)) == x.payload


@pytest.mark.parametrize(
    "ring, text",
    [(ZX, "0"), (QX, "0"), (QX, "1/2*X^2 + -3*X + 2/3"), (ZX, "-1*X^3 + 2"),
     (QX, "X + X + 1/2 + 1/2"), (QX, "2/4*X")],
)
def test_parse_then_print(ring, text):
    x = ring.parse(text)
    _assert_dense(ring, x.payload)
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), SX, domain="QQ")
    assert str(x) == _reference_text(poly)


# ---------------------------------------------------------------------------
# the Gauss and degree valuations on the dense payloads


GAMMAS = (1, -1, 0, 2)
GAUSS = {
    (ring.name, p, gamma): gauss_on(padic_valuation(p, ring.base), ring, (gamma,))
    for ring in (ZX, QX)
    for p in (2, 3, 5)
    for gamma in GAMMAS
}
DEGREE = {ring.name: degree_valuation(ring) for ring in (ZX, QX)}


@settings(max_examples=200, deadline=None)
@given(any_element, st.sampled_from([2, 3, 5]), st.sampled_from(GAMMAS))
def test_gauss_valuation_against_sympy(xa, p, gamma):
    ring, x, poly = xa
    v = GAUSS[ring.name, p, gamma]
    if poly.is_zero:
        assert v(x) is INF
        return
    want = min(sympy.multiplicity(p, c) + gamma * e for (e,), c in poly.terms() if c)
    assert v(x) == (want,)


@settings(max_examples=100, deadline=None)
@given(any_element)
def test_degree_valuation_against_sympy(xa):
    ring, x, poly = xa
    v = DEGREE[ring.name]
    assert v(x) == (INF if poly.is_zero else (-poly.degree(),))


# a base valuation with nonzero support: u = 0 off 3Z, infinity on it
MOD3 = gauss_on(trivial_valuation(ZZ, PrincipalIdeal(ZZ, 3)), ZX, (1,))


@settings(max_examples=150, deadline=None)
@given(elements(ZX))
def test_gauss_over_a_supported_base(xa):
    _, x, poly = xa
    kept = [e for (e,), c in poly.terms() if c % 3]
    assert MOD3(x) == ((min(kept),) if kept else INF)


@pytest.mark.parametrize(
    "text, want",
    [("3*X^2 + 6", INF), ("0", INF), ("3 + 1*X", (1,)), ("-9*X + 2*X^3", (3,)),
     ("1 + 3*X", (0,))],
)
def test_gauss_over_a_supported_base_examples(text, want):
    assert MOD3(ZX.parse(text)) == want


# a trivial base with support 0: u(c) = 0 for c != 0, so the value is the
# least gamma*e over the exponents of the terms (MOD3 above keeps the table)
TRIVIAL_GAMMAS = (-2, -1, 0, 1, 2)
TRIVIAL = {
    (ring.name, gamma): gauss_on(trivial_valuation(ring.base), ring, (gamma,))
    for ring in (ZX, QX)
    for gamma in TRIVIAL_GAMMAS
}


@settings(max_examples=150, deadline=None)
@given(any_element, st.sampled_from(TRIVIAL_GAMMAS))
def test_gauss_over_a_trivial_base_against_sympy(xa, gamma):
    ring, x, poly = xa
    v = TRIVIAL[ring.name, gamma]
    if poly.is_zero:
        assert v(x) is INF
        return
    assert v(x) == (min(gamma * e for (e,), c in poly.terms() if c),)


@pytest.mark.parametrize("ring", [ZX, QX])
@pytest.mark.parametrize(
    "text, gamma, want",
    [("2*X + X^3", -1, (-3,)), ("2*X + X^3", -2, (-6,)), ("2*X + X^3", 1, (1,)),
     ("2*X + X^3", 2, (2,)), ("X^2 + 5*X^4", 0, (0,)), ("7", -2, (0,)), ("7", 2, (0,)),
     ("0", -1, INF)],
)
def test_gauss_over_a_trivial_base_examples(ring, text, gamma, want):
    assert TRIVIAL[ring.name, gamma](ring.parse(text)) == want


# the sparse Z[X,Y]: min over monomials of v_p(c) + e_X*g_X + e_Y*g_Y
GAMMA_PAIRS = ((1, -1), (0, 2), (-1, -1), (2, 0))
GAUSS_XY = {
    (p, g): gauss_on(padic_valuation(p, ZZ), ZXY, g)
    for p in (2, 3)
    for g in GAMMA_PAIRS
}


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-40, 40),
        max_size=5,
    ),
    st.sampled_from([2, 3]),
    st.sampled_from(GAMMA_PAIRS),
)
def test_gauss_on_zxy_against_sympy(coefs, p, gammas):
    x = ZXY.el(ZXY._canon_dict({e: c for e, c in coefs.items() if c}))
    poly = sympy.Poly(
        sum((c * SX**ex * SY**ey for (ex, ey), c in coefs.items()), sympy.Integer(0)),
        SX, SY, domain="ZZ",
    )
    v = GAUSS_XY[p, gammas]
    if poly.is_zero:
        assert v(x) is INF
        return
    want = min(
        sympy.multiplicity(p, c) + sum(e * g for e, g in zip(exps, gammas))
        for exps, c in poly.terms()
    )
    assert v(x) == (want,)


# ---------------------------------------------------------------------------
# the sparse kernel: Z[X,Y] and Q[X,Y]


SPARSE_COEFS = {ZXY: st.integers(-40, 40), QXY: rational}


def _sparse_poly(ring, terms):
    return sympy.Poly(
        sum(
            (_rational(c) * SX**ex * SY**ey for (ex, ey), c in terms),
            sympy.Integer(0),
        ),
        SX, SY, domain="ZZ" if ring is ZXY else "QQ",
    )


@st.composite
def sparse_elements(draw, ring):
    """(element, sympy Poly) from one term dict, zero coefficients included."""
    coefs = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), SPARSE_COEFS[ring], max_size=5
    ))
    return ring.el(ring._canon_dict(dict(coefs))), _sparse_poly(ring, coefs.items())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZXY, QXY]), st.data())
def test_sparse_kernel_against_sympy_poly(ring, data):
    x, px = data.draw(sparse_elements(ring))
    y, py = data.draw(sparse_elements(ring))
    for got, want in ((x, px), (x + y, px + py), (x * y, px * py), (-x, -px)):
        assert _sparse_poly(ring, ring.terms(got.payload)) == want
        # canonical: no zero coefficient, largest monomial first
        assert ring._canon_dict(dict(got.payload)) == got.payload
        assert all(c != ring.base.zero_payload() for _, c in got.payload)
    assert (x == y) == (px == py)


# over a trivial base with support 0: the least e_X*g_X + e_Y*g_Y
TRIVIAL_WEIGHTS = ((1, -1), (0, 1), (1, 0), (-1, -1), (2, 0))
TRIVIAL_XY = {
    (ring.name, g): gauss_on(trivial_valuation(ring.base), ring, g)
    for ring in (ZXY, QXY)
    for g in TRIVIAL_WEIGHTS
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZXY, QXY]), st.data(), st.sampled_from(TRIVIAL_WEIGHTS))
def test_sparse_gauss_over_a_trivial_base_against_sympy(ring, data, gammas):
    x, poly = data.draw(sparse_elements(ring))
    v = TRIVIAL_XY[ring.name, gammas]
    if poly.is_zero:
        assert v(x) is INF
        return
    want = min(sum(e * g for e, g in zip(exps, gammas)) for exps, _ in poly.terms())
    assert v(x) == (want,)


# ---------------------------------------------------------------------------
# the p-adic valuations for odd primes, on Q and on Z


PADIC = {(p, ring): padic_valuation(p, ring) for p in (3, 5) for ring in (QQ, ZZ)}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.integers(0, 6),
    st.integers(-10**4, 10**4),
    st.integers(1, 10**4),
)
def test_padic_valuation_against_sympy(p, k, m, d):
    # p^k * m / d: the factor p^k lifts the value above what m draws alone
    a = p**k * m
    x, z = QQ.el(Fraction(a, d)), ZZ.from_int(a)
    if not a:
        assert PADIC[p, QQ](x) is INF and PADIC[p, ZZ](z) is INF
        return
    assert PADIC[p, QQ](x) == (sympy.multiplicity(p, sympy.Rational(a, d)),)
    assert PADIC[p, ZZ](z) == (sympy.multiplicity(p, a),)

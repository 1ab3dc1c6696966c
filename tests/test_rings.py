import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.rings import (
    QQ,
    ZZ,
    ElementSyntaxError,
    IntegerModRing,
    PolynomialRing,
    PrincipalIdeal,
    QuotientRing,
    RationalFunctionField,
    RingMismatchError,
    VariableIdeal,
    ZeroIdeal,
    _RINGS,
    _common_factor,
    _trimmed,
    _uni_add,
    _uni_exquo,
    _uni_gcd,
    _uni_mul,
    _uni_prem,
    fraction_field,
    poly_ring,
    quotient_ring,
)
from qord.sampling import Bounds, SampleUniverse, _stable_int, draws

ZX = poly_ring(ZZ, "X")
ZXY = poly_ring(ZZ, "X", "Y")
QX = poly_ring(QQ, "X")


def test_rational_arith_examples():
    a = QQ.el(Fraction(2, 3))
    b = QQ.el(Fraction(1, 6))
    assert a + b == QQ.el(Fraction(5, 6))
    assert -QQ.zero() == QQ.zero()


def test_polynomial_product_identity():
    X = ZX.var("X")
    assert (X + 1) * (X - 1) == X * X - 1


def test_ring_mismatch_raises():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(RingMismatchError):
            op(ZZ.one(), QQ.one())


def test_const_term_examples():
    X = ZX.var("X")
    f = X * X + 3 * X + 5
    assert ZX.const_coef(f.payload) == ZZ.from_int(5).payload
    Y = ZXY.var("Y")
    assert ZXY.const_coef(Y.payload) == ZZ.zero_payload()
    assert ZX.const_coef(ZX.from_int(7).payload) == ZZ.from_int(7).payload


def test_quotient_reduce_examples():
    five = PrincipalIdeal(ZZ, 5)
    assert five.reduce(ZZ.from_int(12).payload) == ZZ.from_int(2).payload
    X, Y = ZXY.var("X"), ZXY.var("Y")
    xy = VariableIdeal(ZXY, ("X", "Y"))
    f = X * X + 3 * X + 5
    assert xy.reduce(f.payload) == ZXY.from_int(5).payload
    assert xy.reduce(ZXY.zero_payload()) == ZXY.zero_payload()
    assert five.reduce(ZZ.zero_payload()) == ZZ.zero_payload()


def test_quotient_reduce_membership_consistency():
    five = PrincipalIdeal(ZZ, 5)
    U = SampleUniverse(ZZ, seed=7, count=80)
    elems = U.elements()
    for x in elems[:30]:
        for y in elems[:30]:
            same = five.reduce(x.payload) == five.reduce(y.payload)
            assert same == five.contains((x - y).payload)


def test_quotient_ring_collapses():
    ring, project, _ = quotient_ring(ZZ, PrincipalIdeal(ZZ, 5))
    assert ring.name == "Z/5Z"
    assert project(ZZ.from_int(12)).payload == 2
    ring2, project2, _ = quotient_ring(ZXY, VariableIdeal(ZXY, ("X",)))
    assert ring2.name == "Z[Y]"
    X, Y = ZXY.var("X"), ZXY.var("Y")
    img = project2(X * Y + Y + 3)
    assert str(img) == "1*Y + 3"
    ring3, _, _ = quotient_ring(ZX, VariableIdeal(ZX, ("X",)))
    assert ring3 is ZZ
    ring4, _, _ = quotient_ring(QQ, ZeroIdeal(QQ))
    assert ring4 is QQ


def test_prime_ideal_guard():
    with pytest.raises(ValueError):
        PrincipalIdeal(ZZ, 6)


def test_unreducible_ideal_falls_back_to_membership_equality():
    # a support ideal with no canonical reduction: the quotient is flagged
    # non-canonical and compares by a membership test on differences
    from qord.rings import SupportIdeal
    from qord.valuations import gauss_on, trivial_valuation

    evens = trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2))
    v = gauss_on(evens, ZX, (0,))  # support: polynomials with even coefficients
    ideal = v.support
    assert isinstance(ideal, SupportIdeal) and not ideal.reducible
    ring, project, section = quotient_ring(ZX, ideal)
    assert not ring.canonical_eq
    X = ZX.var("X")
    a = project(X + 3)
    b = project(3 * X + 1)  # differs by 2X - 2, all even
    assert a == b
    assert a != project(X)
    assert ideal.reduce((X + 3).payload) is None  # representative-only reduction
    assert a.payload == (X + 3).payload
    _assert_section_inverts(ZX, ideal, ring, project, section)


def _assert_section_inverts(base, ideal, ring, project, section):
    """project(section(y)) == y, and section(project(x)) - x lies in the ideal."""
    for y in SampleUniverse(ring, seed=3, count=40).elements():
        assert project(section(y)) == y
    for x in SampleUniverse(base, seed=3, count=40).elements():
        assert ideal.contains((section(project(x)) - x).payload)


@pytest.mark.parametrize(
    "base, ideal",
    [
        (ZZ, PrincipalIdeal(ZZ, 5)),
        (ZXY, VariableIdeal(ZXY, ("X",))),
        (ZX, VariableIdeal(ZX, ("X",))),
        (QQ, ZeroIdeal(QQ)),
        (ZX, ZeroIdeal(ZX)),
    ],
    ids=["Z/5Z", "Z[X,Y]/<X>", "Z[X]/<X>", "Q/0", "Z[X]/0"],
)
def test_quotient_ring_section_is_a_right_inverse(base, ideal):
    _assert_section_inverts(base, ideal, *quotient_ring(base, ideal))


def test_payloads_are_hashable():
    # the comparator and valuation memos key on payloads, with no fallback
    from qord.corpus import shipped_objects
    from qord.valuations import gauss_on, trivial_valuation

    valuations, quasiorders = shipped_objects()
    universes = [u for _, _, u in valuations + quasiorders]
    evens = trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2))
    ring, _, _ = quotient_ring(ZX, gauss_on(evens, ZX, (0,)).support)
    assert not ring.canonical_eq  # its elements are unhashable, its payloads not
    universes.append(SampleUniverse(ring, seed=1, count=30))
    for U in universes:
        for x in U.elements():
            hash(x.payload)


def test_equal_structure_is_one_ring_object():
    assert PolynomialRing(ZZ, ["X", "Y"]) is ZXY is poly_ring(ZZ, "X", "Y")
    assert poly_ring(QQ, "X") is not poly_ring(ZZ, "X")
    assert poly_ring(QQ, "X", "Y") is not poly_ring(QQ, "Y", "X")
    assert IntegerModRing(5) is quotient_ring(ZZ, PrincipalIdeal(ZZ, 5))[0]
    assert fraction_field(QX)[0] is RationalFunctionField(QX)
    assert quotient_ring(ZXY, VariableIdeal(ZXY, ("Y",)))[0] is ZX
    # ideals count by identity
    ideal = ZeroIdeal(ZX)
    assert QuotientRing(ZX, ideal) is QuotientRing(ZX, ideal)
    assert QuotientRing(ZX, ideal) is not QuotientRing(ZX, ZeroIdeal(ZX))


def test_ring_table_does_not_keep_rings_alive():
    import gc

    ring = poly_ring(QQ, "Unused")
    key = (PolynomialRing, QQ, ("Unused",))
    assert _RINGS[key] is ring
    del ring
    gc.collect()
    assert key not in _RINGS


def test_pid_rejects_elements_of_other_rings():
    A = poly_ring(QQ, "X")
    with pytest.raises(RingMismatchError, match=r"^Z\[X\] is not Q\[X\]$"):
        A.pid(ZX.one())
    with pytest.raises(RingMismatchError):
        IntegerModRing(3).pid(IntegerModRing(2).one())
    assert A.pid(A.var("X")) == A.pid(poly_ring(QQ, "X").parse("X"))


def test_fraction_field_constructions():
    K, embed = fraction_field(ZZ)
    assert K is QQ
    assert embed(ZZ.from_int(3)) == QQ.from_int(3)
    K2, embed2 = fraction_field(QX)
    assert isinstance(K2, RationalFunctionField)
    X = QX.var("X")
    one_over_x = K2.frac(QX.one(), X)
    assert str(one_over_x) == "(1)/(1*X)"
    assert embed2(X) * one_over_x == K2.one()


def test_fraction_normalization_canonical_over_q():
    K, _ = fraction_field(QX)
    X = QX.var("X")
    a = K.frac(X * X - 1, X - 1)
    b = K.frac(X + 1, QX.one())
    assert a.payload == b.payload  # fully canonical over Q[X]
    c = K.frac(2 * X, QX.from_int(2))
    assert c == K.frac(X, QX.one())


def test_fraction_equality_over_zx_cross_multiplies():
    K, _ = fraction_field(ZX)
    X = ZX.var("X")
    a = K.frac(X * X - 1, X - 1)
    b = K.frac(X + 1, ZX.one())
    assert a == b
    assert K.frac(2 * X, ZX.from_int(4)) == K.frac(X, ZX.from_int(2))


def test_zero_denominator_rejected():
    K, _ = fraction_field(QX)
    with pytest.raises(ZeroDivisionError):
        K.frac(QX.one(), QX.zero())


def test_multivariate_rational_fraction_field():
    QXY = poly_ring(QQ, "X", "Y")
    K, embed = fraction_field(QXY)
    X, Y = QXY.var("X"), QXY.var("Y")
    half = QXY.parse("1/2")
    a = K.frac(half * X, QXY.parse("3/2") * Y)
    b = K.frac(X, 3 * Y)
    assert a == b
    assert (a * embed(3 * Y)) == embed(X)


def test_element_parsing_round_trip():
    for ring, texts in [
        (ZZ, ["0", "-17", "5"]),
        (QQ, ["2/3", "-5", "7/2"]),
        (ZXY, ["1*X^2*Y + -3*X + 5", "0", "2*X*Y"]),
    ]:
        for t in texts:
            x = ring.parse(t)
            assert ring.parse(str(x)) == x


def test_every_shipped_element_reparses():
    # parse(format(x)) == x on every universe of the shipped catalogue, the
    # residue domains of its valuations, Z/5Z, Quot(Z[X]) and Z[X] modulo
    # the support of a Gauss valuation, a QuotientRing kept as a quotient
    from qord.corpus import shipped_objects
    from qord.residues import residue_universe
    from qord.valuations import gauss_on, trivial_valuation

    valuations, quasiorders = shipped_objects()
    universes = [u for _, _, u in valuations + quasiorders]
    universes += [residue_universe(v, u, count=40) for _, v, u in valuations]
    mod2 = gauss_on(trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2)), ZX, (1,))
    universes += [SampleUniverse(IntegerModRing(5), seed=42, count=40),
                  SampleUniverse(RationalFunctionField(ZX), seed=42, count=150),
                  SampleUniverse(quotient_ring(ZX, mod2.support)[0], seed=42, count=60)]
    kinds = set()
    for universe in universes:
        ring = universe.ring
        kinds.add(type(ring).__name__)
        for x in universe.elements():
            assert ring.parse(str(x)) == x, (ring.name, str(x))
    assert kinds == {"IntegerRing", "RationalField", "PolynomialRing", "IntegerModRing",
                     "RationalFunctionField", "ResidueDomainRing", "QuotientRing"}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6))
def test_integer_mod_ring_matches_ints_mod_p(p, a, b):
    R = IntegerModRing(p)
    x, y = R.from_int(a), R.from_int(b)
    assert (x + y).payload == (a + b) % p
    assert (x * y).payload == (a * b) % p
    assert (-x).payload == -a % p
    assert x == R.from_int(a + 7 * p) and (x == y) == ((a - b) % p == 0)
    if a % p:
        # the inverse by search over the residues, not by pow(a, -1, p)
        assert R.inv(x).payload == next(c for c in range(p) if a * c % p == 1)
    else:
        with pytest.raises(ZeroDivisionError):
            R.inv(x)


def test_parse_rejects_garbage():
    with pytest.raises(ElementSyntaxError):
        ZZ.parse("two")
    with pytest.raises(ElementSyntaxError):
        ZXY.parse("1*Q^2")


def test_sample_universe_forced_and_deterministic():
    U = SampleUniverse(QQ, seed=42, count=10, bounds=Bounds(coeff_height=5))
    elems = U.elements()
    strs = {str(x) for x in elems}
    assert {"0", "1", "-1"} <= strs
    U2 = SampleUniverse(QQ, seed=42, count=10, bounds=Bounds(coeff_height=5))
    assert [str(x) for x in U2.elements()] == [str(x) for x in elems]


def test_sample_universe_bounds():
    U = SampleUniverse(
        ZX, seed=3, count=50, bounds=Bounds(coeff_height=3, max_degree=2)
    )
    for f in U.elements():
        for (e,), c in ZX.terms(f.payload):
            assert e <= 2
            assert abs(c) <= 3 * 3  # coefficients may merge across draws


def _randrange_tuples(U, arity, n, tag):
    """SampleUniverse.tuples as written with one rng.randrange per slot."""
    elems = U.elements()
    out = list(itertools.islice(
        itertools.product(elems[:U.forced_size], repeat=arity), n
    ))
    rng = random.Random(U.seed ^ _stable_int(f"{U.ring.name}|{tag}|{arity}"))
    while len(out) < n:
        out.append(tuple(elems[rng.randrange(len(elems))] for _ in range(arity)))
    return out


@pytest.mark.parametrize("count", [5, 6, 13, 29])  # 8, 9, 16 and 32 elements
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sample_tuples_draw_as_randrange(arity, count):
    U = SampleUniverse(ZZ, seed=11, count=count)
    size = len(U.elements())
    assert size == U.forced_size + count
    for n in (2, U.forced_size ** arity, 300):
        got = U.tuples(arity, n, "pin")
        assert got == _randrange_tuples(U, arity, n, "pin")
        assert len(got) == n and {len(t) for t in got} == {arity}


def test_draws_is_randrange():
    for m in range(1, 70):
        a, b = random.Random(m), random.Random(m)
        got = list(itertools.islice(draws(a, range(m)), 50))
        assert got == [b.randrange(m) for _ in range(50)]
        assert a.getstate() == b.getstate()
    with pytest.raises(ValueError):
        next(draws(random.Random(0), []))


def _plan_universes():
    from qord.valuations import padic_valuation

    yield SampleUniverse(padic_valuation(2, ZZ).residue_ring(), seed=42, count=250)
    yield SampleUniverse(ZX, seed=42, count=250)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sample_tuples_plan_keys_the_objects(arity):
    for U in _plan_universes():
        elems = U.elements()
        assert len({id(x) for x in elems}) < len(elems)  # repeated entries
        got = U.tuples(arity, 400, "plan")
        assert got == _randrange_tuples(U, arity, 400, "plan")
        ids = [tuple(map(id, t)) for t in got]
        # keys[i] == keys[j] exactly when got[i] and got[j] hold the same objects
        assert len(got.keys) == len(got)
        assert len(set(got.keys)) == len(set(ids)) == len(set(zip(got.keys, ids)))
        assert len(set(ids)) < len(ids)
        first = {}
        for k, t in zip(got.keys, got):
            first.setdefault(k, t)
        assert list(got.distinct) == list(first)
        for k, t in got.distinct.items():
            assert all(a is b for a, b in zip(t, first[k]))


def test_distinguished_elements_lead():
    X = ZX.var("X")
    U = SampleUniverse(ZX, seed=1, count=5, distinguished=(X + 1, X))
    elems = U.elements()
    assert str(elems[0]) == "1*X + 1"
    assert str(elems[1]) == "1*X"
    assert str(elems[2]) == "0"


# ---------------------------------------------------------------------------
# property tests

small_ints = st.integers(min_value=-30, max_value=30)


@st.composite
def zxy_elements(draw):
    nterms = draw(st.integers(min_value=0, max_value=4))
    d = {}
    for _ in range(nterms):
        exps = (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        c = draw(small_ints)
        d[exps] = d.get(exps, 0) + c
    return ZXY.el(ZXY._canon_dict(d))


@settings(max_examples=60, deadline=None)
@given(zxy_elements(), zxy_elements(), zxy_elements())
def test_ring_axioms_sampled(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(zxy_elements())
def test_normalization_idempotent(a):
    assert ZXY.canon(a.payload) == a.payload
    assert ZXY.parse(str(a)) == a


@settings(max_examples=40, deadline=None)
@given(zxy_elements(), zxy_elements())
def test_fraction_normalize_idempotent(num, den):
    K = RationalFunctionField(ZXY)
    if den == ZXY.zero():
        den = ZXY.one()
    x = K.el((num.payload, den.payload))
    assert K.canon(x.payload) == x.payload
    assert K.parse(str(x)) == x


@st.composite
def qx_payloads(draw):
    d = {}
    for e in range(draw(st.integers(min_value=0, max_value=5))):
        num = draw(small_ints)
        den = draw(st.integers(min_value=1, max_value=6))
        d[(e,)] = Fraction(num, den)
    return QX._canon_dict(d)


# Euclid over Q on Fraction coefficients, in the sparse form of
# ``PolynomialRing.terms``: the reference that the integer kernel of
# Quot(Q[X]) must match payload for payload


def _fraction_terms(p):
    """``QX.terms(p)`` with each Q payload (n, d) read as a Fraction."""
    return tuple((e, Fraction(*c)) for e, c in QX.terms(p))


def _ref_divmod(a, b):
    """Univariate division with remainder over Q."""
    db = b[0][0][0]
    inv = 1 / b[0][1]
    tail = [(e - db, c) for (e,), c in b[1:]]
    r = [0] * (a[0][0][0] + 1 if a else 0)
    for (e,), c in a:
        r[e] = c
    q = []
    for d in range(len(r) - 1, db - 1, -1):
        if r[d]:
            f = r[d] * inv
            q.append(((d - db,), f))
            for off, c in tail:
                r[d + off] -= f * c
    rem = tuple(((e,), r[e]) for e in range(min(db, len(r)) - 1, -1, -1) if r[e])
    return tuple(q), rem


def _ref_gcd(a, b):
    """Monic gcd of univariate polynomials over Q."""
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, r
    if not a:
        return a
    inv = 1 / a[0][1]
    return tuple((e, c * inv) for e, c in a)


def _ref_normalize(num, den):
    """Canonical Q[X] pair of num/den: coprime, monic denominator."""
    num, den = _fraction_terms(num), _fraction_terms(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return QX.zero_payload(), QX.one_payload()
    g = _ref_gcd(num, den)
    if g[0][0] != (0,):
        num, _ = _ref_divmod(num, g)
        den, _ = _ref_divmod(den, g)
    inv = 1 / den[0][1]
    return tuple(QX._canon_dict({e: c * inv for e, c in p}) for p in (num, den))


def _ref_ops(a, b):
    mul = QX.mul
    return {
        "add": _ref_normalize(QX.add(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1])),
        "sub": _ref_normalize(QX.add(mul(a[0], b[1]), mul(QX.neg(b[0]), a[1])), mul(a[1], b[1])),
        "mul": _ref_normalize(mul(a[0], b[0]), mul(a[1], b[1])),
    }


@st.composite
def raw_k_payloads(draw):
    """(num, den) over Q[X], often sharing a factor, not yet normalized."""
    num, den, g = draw(qx_payloads()), draw(qx_payloads()), draw(qx_payloads())
    if den == QX.zero_payload():
        den = QX.one_payload()
    if draw(st.booleans()) and g != QX.zero_payload():
        num, den = QX.mul(num, g), QX.mul(den, g)
    return num, den


def _ints(p):
    return list(QX.int_form(p)[0])


def _rational(p):
    """Dense integer p in the sparse form over Q."""
    return _fraction_terms(QX._canon_dict({(e,): Fraction(c) for e, c in enumerate(p)}))


def _scaled(p, c):
    return tuple((e, x * c) for e, x in p)


def _int_pair(num, den):
    """Integer polynomials N, D with N/D = num/den in Q[X]."""
    (n1, d1), (n2, d2) = QX.int_form(num), QX.int_form(den)
    return [c * d2 for c in n1], [c * d1 for c in n2]


def _assert_qx_form(p):
    """p is a dense Q[X] payload: (N, d), N without trailing zero, d > 0 and
    gcd(content(N), d) = 1."""
    n, d = p
    assert type(n) is tuple and type(d) is int and all(type(c) is int for c in n)
    assert d > 0 and (not n or n[-1]) and math.gcd(d, *n) == 1


@settings(max_examples=80, deadline=None)
@given(qx_payloads(), qx_payloads())
def test_univariate_integer_division(a, b):
    a, b = _ints(a), _ints(b) or [1]
    # exact division: q*b == a whenever b divides a
    assert _uni_exquo(_uni_mul(a, b), b) == a
    if len(b) > 1:
        r = _uni_prem(a, b)
        assert len(r) < len(b)  # lower degree than b
        # c*a - q*b for a nonzero integer c: a multiple of a mod b over Q
        _, ref = _ref_divmod(_rational(a), _rational(b))
        assert bool(r) == bool(ref)
        if r:
            assert _scaled(_rational(r), ref[0][1]) == _scaled(ref, r[-1])
    if a and len(b) > 1:
        g = _uni_gcd(a, b)
        assert _uni_mul(_uni_exquo(a, g), g) == a
        assert _uni_mul(_uni_exquo(b, g), g) == b


def _assert_int_form(p):
    """p is a Quot(Q[X]) payload: int tuples without trailing zeros, coprime
    in Q[X], joint content 1, positive leading denominator coefficient."""
    n, d = p
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0 and (not n or n[-1])
    assert math.gcd(*n, *d) == 1
    if n:
        assert _ref_gcd(_rational(n), _rational(d)) == _fraction_terms(QX.one_payload())
    else:
        assert d == (1,)


def _k_format(pair):
    return f"({QX.format(pair[0])})/({QX.format(pair[1])})"


@settings(max_examples=80, deadline=None)
@given(raw_k_payloads(), raw_k_payloads(), st.sampled_from([1, -1, 3, -6]))
def test_fraction_kernel_matches_reference(x, y, scale):
    K = RationalFunctionField(QX)
    a, b = K.from_poly_pair(*x), K.from_poly_pair(*y)
    for p, raw in ((a, x), (b, y)):
        _assert_int_form(p)
        assert K.poly_pair(p) == _ref_normalize(*raw)
        assert K.canon(p) == p
        # canon normalizes any integer pair, scaled or not
        n, d = _int_pair(*raw)
        assert K.canon(tuple(tuple(scale * c for c in q) + (0,) for q in (n, d))) == p
    for op, ref in _ref_ops(K.poly_pair(a), K.poly_pair(b)).items():
        got = getattr(K, op)(a, b)
        _assert_int_form(got)
        assert K.poly_pair(got) == ref, op
        for q in K.poly_pair(got):
            _assert_qx_form(q)
        assert K.format(got) == _k_format(ref)
        assert K.parse(K.format(got)).payload == got


@settings(max_examples=40, deadline=None)
@given(raw_k_payloads(), raw_k_payloads())
def test_fraction_kernel_matches_sympy_cancel(x, y):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    K = RationalFunctionField(QX)

    def to_sympy(p):
        return sum(
            (sympy.Rational(*c) * X**e for (e,), c in QX.terms(p)),
            sympy.Integer(0),
        )

    def canonical(expr):
        n, d = sympy.fraction(sympy.cancel(expr))
        n, d = sympy.Poly(n, X, domain="QQ"), sympy.Poly(d, X, domain="QQ")
        lc = d.LC()
        return tuple(
            QX._canon_dict({e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
            for p in (n.quo_ground(lc), d.quo_ground(lc))
        )

    a, b = K.from_poly_pair(*x), K.from_poly_pair(*y)
    qa, qb = K.poly_pair(a), K.poly_pair(b)
    sa = to_sympy(qa[0]) / to_sympy(qa[1])
    sb = to_sympy(qb[0]) / to_sympy(qb[1])
    assert qa == canonical(to_sympy(x[0]) / to_sympy(x[1]))
    for got, expr in ((K.add(a, b), sa + sb), (K.sub(a, b), sa - sb), (K.mul(a, b), sa * sb)):
        _assert_int_form(got)
        assert K.poly_pair(got) == canonical(expr)


@settings(max_examples=60, deadline=None)
@given(qx_payloads(), qx_payloads(), qx_payloads())
def test_fraction_normalize_over_q_cancels_common_factors(num, den, g):
    K = RationalFunctionField(QX)
    if den == QX.zero_payload():
        den = QX.one_payload()
    if g == QX.zero_payload():
        g = QX.one_payload()
    p = K.from_poly_pair(num, den)
    n, d = K.poly_pair(p)
    assert QX.mul(n, den) == QX.mul(num, d)
    assert _fraction_terms(d)[0][1] == 1
    one = _fraction_terms(QX.one_payload())
    assert _ref_gcd(_fraction_terms(n), _fraction_terms(d)) == one
    assert K.from_poly_pair(QX.mul(num, g), QX.mul(den, g)) == p


@st.composite
def raw_zx_pairs(draw):
    """(num, den) over Z[X], often sharing a factor, not yet normalized."""
    num, den, g = (
        ZX._canon_dict({(e,): draw(small_ints) for e in range(draw(st.integers(0, 4)))})
        for _ in range(3)
    )
    den = den or ZX.one_payload()
    if draw(st.booleans()) and g:
        num, den = ZX.mul(num, g), ZX.mul(den, g)
    return num, den


@settings(max_examples=60, deadline=None)
@given(raw_zx_pairs(), raw_zx_pairs())
def test_zx_fraction_kernel_matches_sympy_cancel(x, y):
    # Quot(Z[X]) runs on the integer kernel: N/D cancelled, joint content 1,
    # lc(D) > 0, read back as int-coefficient Z[X] payloads
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    K = RationalFunctionField(ZX)
    assert K.canonical_eq

    def to_sympy(p):
        return sum((c * X**e for (e,), c in ZX.terms(p)), sympy.Integer(0))

    def canonical(expr):
        n, d = (sympy.Poly(p, X, domain="QQ") for p in sympy.fraction(sympy.cancel(expr)))
        terms = [
            [((e,), Fraction(int(c.p), int(c.q))) for (e,), c in p.terms() if c] for p in (n, d)
        ]
        scale = math.lcm(*(c.denominator for t in terms for _, c in t))
        ints = [[(e, int(c * scale)) for e, c in t] for t in terms]
        g = math.gcd(*(c for t in ints for _, c in t))
        g = -g if ints[1][0][1] < 0 else g
        return tuple(ZX._canon_dict({e: c // g for e, c in t}) for t in ints)

    a, b = K.from_poly_pair(*x), K.from_poly_pair(*y)
    sa, sb = to_sympy(x[0]) / to_sympy(x[1]), to_sympy(y[0]) / to_sympy(y[1])
    assert K.from_poly_pair(*(ZX.mul(p, ZX.int_payload(-3)) for p in x)) == a
    for got, expr in (
        (a, sa), (b, sb), (K.add(a, b), sa + sb), (K.sub(a, b), sa - sb), (K.mul(a, b), sa * sb)
    ):
        pair = K.poly_pair(got)
        assert pair == canonical(expr)
        assert all(type(c) is int for q in pair for c in q)
        assert K.from_poly_pair(*pair) == got
        el = K.el(got)
        back = K.parse(str(el))
        assert back.payload == got and back == el and hash(back) == hash(el)


# Henrici's add and mul split the gcd of a result by the denominators'
# shared factor; operands drawn at random almost never share one, so these
# are built to: a/(g*d1) with c/(k*g*d2), a sum that cancels the part g2 of
# g = g1*g2, products whose parts cancel crosswise, and zero sums


def _sympy_int_pair(sympy, expr, X):
    """The canonical integer pair (N, D) of the rational function expr,
    from sympy.cancel: coprime, joint content 1, lc(D) > 0."""
    parts = [
        [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p, X, domain="QQ").all_coeffs())]
        for p in sympy.fraction(sympy.cancel(expr))
    ]
    scale = math.lcm(*(c.denominator for p in parts for c in p))
    n, d = ([int(c * scale) for c in p] for p in parts)
    g = math.gcd(*n, *d)
    g = -g if d[-1] < 0 else g
    return tuple(_trimmed([c // g for c in n])), tuple(c // g for c in d)


def _sympy_frac(sympy, pair, X):
    """The rational function N/D of an integer pair (N, D)."""
    n, d = (sum((c * X**i for i, c in enumerate(p)), sympy.Integer(0)) for p in pair)
    return n / d


int_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(_trimmed).filter(bool)
factors = st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(_trimmed).filter(
    lambda p: len(p) > 1
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_henrici_kernel_on_shared_factors_matches_sympy_cancel(data):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    K = RationalFunctionField(data.draw(st.sampled_from([QX, ZX])))
    g1, g2, p, q = (data.draw(factors) for _ in range(4))
    a, c, e, d1, d2, d3, r1, r2 = (data.draw(int_polys) for _ in range(8))
    k = data.draw(st.sampled_from([1, 2, -3, 6]))
    g = _uni_mul(g1, g2)

    def frac(num, den):
        return K.canon((tuple(num), tuple(den)))

    x = frac(a, _uni_mul(g, d1))
    y = frac(c, [k * v for v in _uni_mul(g, d2)])
    # x + z = e/(g1*d3): the sum keeps g1 of g and cancels g2
    ed = _uni_mul(g1, d3)
    gd1 = _uni_mul(g, d1)
    z = frac(_uni_add(_uni_mul(e, gd1), [-v for v in _uni_mul(a, ed)]), _uni_mul(ed, gd1))
    # p and q cancel crosswise in u*w
    u = frac(_uni_mul(p, r1), _uni_mul(q, [k]))
    w = frac(_uni_mul(q, r2), _uni_mul(p, d1))

    cases = [(x, y), (x, z), (y, z), (x, K.neg(x)), (u, w), (w, u), (x, w)]
    for l, r in cases:
        sl, sr = _sympy_frac(sympy, l, X), _sympy_frac(sympy, r, X)
        for got, expr in ((K.add(l, r), sl + sr), (K.sub(l, r), sl - sr), (K.mul(l, r), sl * sr)):
            _assert_int_form(got)
            assert got == _sympy_int_pair(sympy, expr, X), (l, r, got)


@pytest.mark.parametrize("poly", [QX, ZX], ids=["QX", "ZX"])
def test_henrici_kernel_examples(poly):
    K = RationalFunctionField(poly)

    def el(text):
        return K.parse(text).payload

    cases = [
        # g = X is shared; the sum 2X/(X*(X^2 - 1)) cancels it
        (K.add, "(1)/(X^2 - X)", "(1)/(X^2 + X)", ((2,), (-1, 0, 1))),
        (K.mul, "(X + 1)/(X)", "(X^2)/(X^2 + 2*X + 1)", ((0, 1), (1, 1))),
        (K.add, "(X)/(X + 1)", "(-X)/(X + 1)", ((), (1,))),
        (K.sub, "(1)/(X^2 - 1)", "(1)/(X^2 - 1)", ((), (1,))),
        # non-primitive denominators
        (K.add, "(1)/(2*X + 2)", "(1)/(X + 1)", ((3,), (2, 2))),
        (K.add, "(1)/(2*X + 2)", "(1)/(2*X + 2)", ((1,), (1, 1))),
        (K.mul, "(2*X)/(3)", "(3)/(4*X^2 + 4*X)", ((1,), (2, 2))),
    ]
    for op, x, y, want in cases:
        got = op(el(x), el(y))
        _assert_int_form(got)
        assert got == want, (op.__name__, x, y, got)


# The Baer-Krull lift through the degree valuation clears a value with X^k,
# 1/X^k or 1, and the kernel cancels a monomial operand by a shift, with no
# PRS.  Polynomials drawn at random are seldom monomials, so these tests
# draw c*X^k with partners whose ord_X lies below, at and above k.


@st.composite
def monomials(draw):
    """c*X^k as dense integers, c in {1, -1, 2, 3, -6} and k <= 4."""
    return [0] * draw(st.integers(0, 4)) + [draw(st.sampled_from([1, -1, 2, 3, -6]))]


@st.composite
def partners(draw, k):
    """A polynomial X^j * q with q(0) != 0 and j among k-2 .. k+2 (j >= 0):
    its ord_X is j."""
    j = max(0, k + draw(st.integers(-2, 2)))
    q = [draw(st.sampled_from([1, -1, 2, -3, 5]))] + draw(st.lists(st.integers(-5, 5), max_size=3))
    return [0] * j + _trimmed(q)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_common_factor_of_a_monomial_matches_the_prs_gcd(data):
    m = data.draw(monomials())
    p = data.draw(partners(len(m) - 1))
    ref = list(_uni_gcd(m, p))
    want = [ref, [-c for c in ref]] if len(ref) > 1 else [None]
    for a, b in ((m, p), (p, m), (tuple(m), tuple(p))):
        g = _common_factor(a, b)
        assert (g if g is None else list(g)) in want, (a, b, g)
        for f in (a, b) if g else ():
            assert _uni_mul(_uni_exquo(f, g), g) == list(f)
    # the quotient by the monic X^k is a shift
    xk = [0] * (len(m) - 1) + [1]
    assert list(_uni_exquo(_uni_mul(p, xk), xk)) == p
    assert list(_uni_exquo(tuple(_uni_mul(p, m)), m)) == p


@pytest.mark.parametrize("poly", [QX, ZX], ids=["QX", "ZX"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fraction_kernel_on_monomials_matches_sympy_cancel(poly, data):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    K = RationalFunctionField(poly)
    m = data.draw(monomials())
    k = len(m) - 1
    y = K.canon((tuple(data.draw(partners(k))), tuple(data.draw(partners(k)))))
    one = K.one().payload
    sy = _sympy_frac(sympy, y, X)
    for x in (K.canon((tuple(m), (1,))), K.canon(((1,), tuple(m))), one):
        sx = _sympy_frac(sympy, x, X)
        cases = [
            (K.add(x, y), K.add(y, x), sx + sy),
            (K.sub(x, y), None, sx - sy),
            (K.sub(y, x), None, sy - sx),
            (K.mul(x, y), K.mul(y, x), sx * sy),
        ]
        for got, swapped, expr in cases:
            _assert_int_form(got)
            assert got == _sympy_int_pair(sympy, expr, X), (x, y, got)
            assert swapped in (None, got)


def test_clearing_multipliers_run_no_prs_step(monkeypatch):
    # every multiplier the lift of roundtrip-deg-plus clears with is X^k,
    # 1/X^k or 1; a product with one of them runs no PRS step
    from qord import rings
    from qord.baerkrull import default_basis, gamma_data
    from qord.corpus import get_instance
    from qord.dsl import Check, SessionContext, bind_check, execute_statement, parse_session

    inst = get_instance("roundtrip-deg-plus")
    ctx = SessionContext()
    for stmt in parse_session(inst.session).statements:
        if isinstance(stmt, Check):
            break
        assert execute_statement(ctx, stmt, inst.label_prefix) is None
    universe = bind_check(ctx, stmt, inst.label_prefix).universe(ctx)
    nu = ctx.env["nu"]
    K, basis = nu.ring, default_basis(nu)
    elems = universe.elements()
    multipliers = {gamma_data(nu, x, x, basis)[1].payload for x in elems if x != 0}
    kinds = set()
    for n, d in multipliers:
        kinds.add((len(n) > 1) - (len(d) > 1))
        assert {n, d} <= {(1,), (0,) * (len(n) + len(d) - 2) + (1,)}, (n, d)
    assert kinds == {-1, 0, 1}

    steps = []
    prem = rings._uni_prem
    monkeypatch.setattr(rings, "_uni_prem", lambda a, b: steps.append((a, b)) or prem(a, b))
    payloads = [x.payload for x in elems]
    for m in multipliers:
        m_inv = K.inv(K.el(m)).payload
        for a in payloads:
            am = K.mul(a, m)
            assert K.mul(m, a) == am and K.mul(am, m_inv) == a
    assert steps == []
    one = K.one().payload
    for a in payloads:
        assert a == one or K.mul(a, one) is a and K.mul(one, a) is a


@st.composite
def two_var_fractions(draw, poly):
    """An element of Quot(poly) for poly in two variables, as num/den with
    den nonzero and, half the time, a common factor left in."""

    def draw_poly():
        coeffs = st.fractions(-6, 6, max_denominator=3) if poly.base is QQ else small_ints
        exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
        terms = draw(st.dictionaries(exps, coeffs, max_size=3))
        return poly._canon_dict({e: poly.base.canon(c) for e, c in terms.items()})

    num, den, g = draw_poly(), draw_poly(), draw_poly()
    den = den or poly.one_payload()
    if g and draw(st.booleans()):
        num, den = poly.mul(num, g), poly.mul(den, g)
    return RationalFunctionField(poly).frac(poly.el(num), poly.el(den))


@pytest.mark.parametrize("base", [ZZ, QQ], ids=["ZXY", "QXY"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_two_variable_fraction_field_matches_sympy_cancel(base, data):
    # Quot(Z[X,Y]) and Quot(Q[X,Y]) keep un-cancelled pairs and compare by
    # cross-multiplying, so each result is checked as a rational function
    sympy = pytest.importorskip("sympy")
    poly = poly_ring(base, "X", "Y")
    K = RationalFunctionField(poly)
    assert not K.canonical_eq
    syms = sympy.symbols("X Y")

    def to_sympy(x):
        num, den = (
            sum(
                (
                    (sympy.Rational(*c) if base is QQ else c) * syms[0] ** i * syms[1] ** j
                    for (i, j), c in poly.terms(p)
                ),
                sympy.Integer(0),
            )
            for p in x.payload
        )
        return num / den

    def same(x, expr):
        return sympy.cancel(to_sympy(x) - expr) == 0

    a, b = (data.draw(two_var_fractions(poly)) for _ in range(2))
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb) and same(a - b, sa - sb) and same(a * b, sa * sb)
    assert same(-a, -sa)
    assert (a == b) == (sympy.cancel(sa - sb) == 0)
    assert a - a == K.zero() and a + K.zero() == a
    assert same(K.from_int(-3), -3) and a * K.from_int(2) == a + a
    for x in (a, b, a * b):
        assert K.parse(str(x)) == x
    if sa == 0:
        with pytest.raises(ZeroDivisionError):
            K.inv(a)
    else:
        assert same(K.inv(a), 1 / sa) and K.inv(a) * a == K.one()

import re
from fractions import Fraction

import pytest

from qord.quasiorders import (
    ORDER,
    PROPER,
    QuasiOrder,
    at_zero_order,
    check_derived_lemmas,
    check_qo_axioms,
    classify_qo,
    const_term_order,
    frac_extend_qo,
    from_valuation,
    leading_term_order,
    natural_order,
    transport_qo,
)
from qord.report import FAIL, PASS, PreconditionError, result
from qord.rings import (
    QQ,
    ZZ,
    PolynomialRing,
    RingMismatchError,
    ZeroIdeal,
    fraction_field,
    poly_ring,
)
from qord.sampling import SampleUniverse
from qord.valuations import (
    degree_valuation,
    frac_extend_val,
    gauss_on,
    padic_valuation,
)

QX = poly_ring(QQ, "X")
ZX = poly_ring(ZZ, "X")

v2 = padic_valuation(2, QQ)
qv2 = from_valuation(v2)
leq_q = natural_order(QQ)
leq_z = natural_order(ZZ)
f0_zx = const_term_order(ZX)


def U(ring, seed=42, count=250, distinguished=()):
    return SampleUniverse(ring, seed=seed, count=count, distinguished=distinguished)


# ---------------------------------------------------------------------------
# comparators


def test_le_memo_agrees_on_one_interned_ring():
    # equal structure gives one ring object, with one payload-id table
    A = PolynomialRing(QQ, ["X"])
    assert A is poly_ring(QQ, "X")
    uA = U(A, seed=1, count=40).elements()
    uB = U(A, seed=2, count=40).elements()
    # a first comparator hands out ids in uB's order before the others look
    qB = const_term_order(A)
    for x in uB:
        for y in uB:
            qB.le(x, y)
    zero = A.zero()
    for q in (const_term_order(A), from_valuation(degree_valuation(A))):
        ref = q._compare_payload
        for x in uA + uB:
            for y in uB + uA:
                assert q.le(x, y) == bool(ref(x.payload, y.payload)), (q, x, y)
                # a transient, whose address CPython soon hands out again
                d = x - y
                assert q.le(d, zero) == bool(ref(d.payload, zero.payload)), (q, d)
        message = rf"^{re.escape(q.name)} compares elements of Q\[X\]$"
        for x, y in ((ZX.one(), A.one()), (A.one(), ZX.one())):
            with pytest.raises(RingMismatchError, match=message):
                q.le(x, y)


def test_le_refuses_an_element_of_another_ring_with_a_cached_id():
    # x's payload id is cached by its own ring's table first, so q.le must
    # test the rings before it reads an element's cached id
    x = ZX.var("X")
    assert f0_zx.le(x, x) and x._id is not None
    for q in (const_term_order(QX), natural_order(QQ)):
        message = rf"^{re.escape(q.name)} compares elements of {re.escape(q.ring.name)}$"
        y = q.ring.one()
        q.le(y, y)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(RingMismatchError, match=message):
                q.le(a, b)


def test_qcmp_valuation_example():
    # v2(4) = 2, v2(2) = 1: larger value sits lower, so 4 is below 2
    assert qv2.strict(QQ.from_int(4), QQ.from_int(2))
    assert qv2.sim(QQ.from_int(7), QQ.from_int(7))


def test_qcmp_const_term_order():
    X = ZX.var("X")
    assert f0_zx.sim(X, ZX.zero())
    assert f0_zx.strict(ZX.zero(), X + 1)


def test_from_valuation_basics():
    zero = QQ.zero()
    for x in U(QQ).elements()[:50]:
        assert qv2.le(zero, x)
    assert qv2.sim(QQ.from_int(3), QQ.from_int(5))
    # coefficient-minimum order: w(p) = 1 > 0 = w(X^2), and larger values
    # sit lower, so 0 <= p <= X^2 with p strictly below
    vp = padic_valuation(2, QQ)
    w = gauss_on(vp, QX, (0,))
    qw = from_valuation(w)
    X = QX.var("X")
    p = QX.from_int(2)
    assert qw.strict(p, X * X)
    assert qw.le(QX.zero(), p) and qw.le(p, X * X)
    assert not qw.le(X * X, p)


def test_sign_orders():
    assert leq_z.strict(-ZZ.one(), ZZ.zero())
    assert leq_z.strict(ZZ.zero(), ZZ.one())
    X = ZX.var("X")
    assert f0_zx.le(ZX.zero(), X + 1)
    K, _ = fraction_field(QX)
    qinf = leading_term_order(K)
    Xf = K.frac(QX.var("X"), QX.one())
    for n in range(-5, 6):
        assert qinf.strict(K.from_int(n), Xf)


def test_support_membership():
    assert qv2.sim(QQ.zero(), QQ.zero())
    assert not qv2.sim(QQ.from_int(6), QQ.zero())
    X = ZX.var("X")
    assert f0_zx.sim(X, ZX.zero())
    assert not f0_zx.sim(ZX.one(), ZX.zero())


def test_classification():
    assert classify_qo(qv2) == PROPER
    assert classify_qo(leq_q) == ORDER
    broken = QuasiOrder(QQ, lambda a, b: True, "indiscrete")
    with pytest.raises(PreconditionError):
        classify_qo(broken)


def test_classification_errors_name_their_witness():
    indiscrete = QuasiOrder(QQ, lambda a, b: True, "indiscrete")
    with pytest.raises(PreconditionError, match=r"^indiscrete has -1 ~ 0; its support") as e:
        classify_qo(indiscrete)
    assert e.value.witness == ("-1",)
    empty = QuasiOrder(QQ, lambda a, b: False, "empty")
    with pytest.raises(PreconditionError, match=r"^empty is not total on \(0, -1\)$") as e:
        classify_qo(empty)
    assert e.value.witness == ("0", "-1")


# ---------------------------------------------------------------------------
# axioms


@pytest.mark.parametrize(
    "make,ring,dist",
    [
        (lambda: qv2, QQ, ()),
        (lambda: leq_q, QQ, ()),
        (lambda: leq_z, ZZ, ()),
        (lambda: f0_zx, ZX, ()),
        (lambda: from_valuation(gauss_on(padic_valuation(2, QQ), QX, (0,))), QX, ()),
        (lambda: const_term_order(poly_ring(ZZ, "X", "Y")), None, ()),
    ],
)
def test_axiom_suites_pass(make, ring, dist):
    q = make()
    universe = U(q.ring, distinguished=dist)
    results = check_qo_axioms(q, universe, samples=250)
    bad = [r for r in results if r.status != PASS]
    assert not bad, bad


@pytest.mark.parametrize("samples", [0, -5])
def test_no_vacuous_pass_from_a_nonpositive_sample_count(samples):
    U = SampleUniverse(QQ, 1, 10)
    with pytest.raises(ValueError, match="tuple count must be positive"):
        check_qo_axioms(natural_order(QQ), U, samples=samples)
    for arity in (1, 2, 3):
        with pytest.raises(ValueError, match="tuple count must be positive"):
            U.tuples(arity, samples, "t")
    assert len(U.tuples(2, 1, "t")) == 1


def test_planted_sign_fault_detected():
    q = QuasiOrder(
        ZZ, lambda x, y: -_sgn(y - x) >= 0, "flipped", support_ideal=ZeroIdeal(ZZ)
    )
    results = check_qo_axioms(q, U(ZZ), samples=100)
    qr1 = [r for r in results if r.name.endswith(".QR1")][0]
    assert qr1.status == "fail"


def _sgn(n):
    return (n > 0) - (n < 0)


def test_derived_lemmas():
    results = check_derived_lemmas(qv2, U(QQ), samples=250)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]
    bm = [r for r in results if r.name.endswith(".sum-below-max")][0]
    assert bm.samples_used > 0  # proper case: the bound is actually swept

    results = check_derived_lemmas(leq_q, U(QQ), samples=250)
    assert all(r.status == PASS for r in results)
    bm = [r for r in results if r.name.endswith(".sum-below-max")][0]
    assert bm.samples_used == 0 and "gated" in bm.detail

    results = check_derived_lemmas(f0_zx, U(ZX), samples=200)
    assert all(r.status == PASS for r in results)


def _ref_class_symmetric(q, universe, samples, label):
    """The reference for the class-symmetric lemma: the quadratic scan that
    looks for x's class members among all samples, one sim at a time."""
    zero = q.ring.zero()
    singles = universe.singles(samples, f"dl:{label}:1")
    witness = None
    checked = 0
    for x in singles[: max(20, len(singles) // 10)]:
        has_extra = any(q.sim(y, x) and not q.sim(y - x, zero) for y in singles)
        if not has_extra:
            continue
        checked += 1
        for z in singles:
            if q.sim(z, x) and not q.sim(-z, x):
                witness = (str(x), str(z))
                break
        if witness:
            break
    return result(
        f"{label}.class-symmetric",
        witness is None,
        witness,
        len(singles),
        detail=f"{checked} classes with extra members",
    )


def _class_symmetric(q, universe, samples, label):
    (r,) = [
        r for r in check_derived_lemmas(q, universe, samples, label)
        if r.name == f"{label}.class-symmetric"
    ]
    return r


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("samples", [50, 500])
def test_class_symmetric_matches_reference_on_shipped_orders(seed, samples):
    from qord.corpus import shipped_objects

    for name, q, u in shipped_objects()[1]:
        universe = SampleUniverse(
            u.ring, seed=seed, count=u.count, bounds=u.bounds,
            distinguished=u.distinguished,
        )
        got = _class_symmetric(q, universe, samples, name)
        assert got == _ref_class_symmetric(q, universe, samples, name), name


def test_class_symmetric_finds_a_class_not_closed_under_negation():
    # a total preorder on Z by key: {1, 2} is one class, every other
    # integer is alone; 2 - 1 = 1 is not ~ 0, and -1 is not ~ 1
    def key(n):
        return 100 if n in (1, 2) else n

    q = QuasiOrder(ZZ, lambda a, b: key(a) <= key(b), "key-Z")
    universe = U(ZZ)
    got = _class_symmetric(q, universe, 250, "key-Z")
    assert got.status == FAIL
    assert got.witness == ("1", "1")
    assert got.detail == "1 classes with extra members"
    assert got == _ref_class_symmetric(q, universe, 250, "key-Z")


def test_class_symmetric_survives_a_non_transitive_comparator():
    # a <= b iff a//2 <= b//2 + 1: total, with a tolerance, not transitive;
    # the sorted classes need not be ~-classes, but a witness is still real
    q = QuasiOrder(ZZ, lambda a, b: a // 2 <= b // 2 + 1, "tolerance-Z")
    got = _class_symmetric(q, U(ZZ), 250, "tolerance-Z")
    assert got.witness is not None
    x, z = (ZZ.parse(w) for w in got.witness)
    assert q.sim(z, x) and not q.sim(-z, x)
    axioms = check_qo_axioms(q, U(ZZ), samples=250, label="tolerance-Z")
    (transitive,) = [r for r in axioms if r.name == "tolerance-Z.transitive"]
    assert transitive.status == FAIL


# ---------------------------------------------------------------------------
# fraction extension


def test_frac_extend_example():
    ext = frac_extend_qo(leq_z)
    assert ext.ring is QQ
    # 1/2 against 2/3 cross-multiplies to 18 <= 24
    assert ext.le(QQ.el(Fraction(1, 2)), QQ.el(Fraction(2, 3)))
    assert not ext.le(QQ.el(Fraction(2, 3)), QQ.el(Fraction(1, 2)))
    for n in range(-6, 7):
        for m in range(-6, 7):
            assert ext.le(QQ.from_int(n), QQ.from_int(m)) == (n <= m)


def test_frac_extend_matches_valuation_extension():
    # Z -> Q, and Z[X] -> Quot(Z[X]) on the univariate integer kernel
    for v, uniformizer in (
        (padic_valuation(2, ZZ), None),
        (degree_valuation(ZX), ZX.var("X")),
    ):
        ext_qo = frac_extend_qo(from_valuation(v))
        direct = from_valuation(frac_extend_val(v, uniformizer=uniformizer))
        assert ext_qo.ring is direct.ring
        for x, y in U(direct.ring, seed=9, count=150).pairs(400, "cmp"):
            assert ext_qo.le(x, y) == direct.le(x, y)


def test_frac_extend_classification_invariant():
    assert classify_qo(frac_extend_qo(leq_z)) == ORDER
    assert classify_qo(frac_extend_qo(from_valuation(padic_valuation(2, ZZ)))) == PROPER


def test_frac_extended_order_passes_axioms():
    K, _ = fraction_field(QX)
    q = leading_term_order(K)
    results = check_qo_axioms(q, U(K, count=150), samples=200)
    assert all(r.status == PASS for r in results)
    q0 = at_zero_order(K)
    results = check_qo_axioms(q0, U(K, count=150), samples=200)
    assert all(r.status == PASS for r in results)


def test_transport_to_residue():
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    R = nu.residue_ring()
    q = transport_qo(natural_order(QQ), R)
    assert transport_qo(q, R) is q
    with pytest.raises(RingMismatchError):
        transport_qo(natural_order(ZZ), R)
    two = R.element(nu.ring.from_int(2))
    three = R.element(nu.ring.from_int(3))
    assert q.strict(two, three)
    results = check_qo_axioms(q, U(R, count=150), samples=200)
    assert all(r.status == PASS for r in results)


def test_valuation_preimage_reverses_order():
    # for Manis w and gamma <= delta, preimage(delta) <= preimage(gamma)
    for g in range(-4, 5):
        for d in range(g, 5):
            assert qv2.le(v2.preimage((d,)), v2.preimage((g,)))


def test_sim_iff_equal_values():
    universe = U(QQ, seed=3, count=200)
    for x, y in universe.pairs(300, "simvals"):
        assert qv2.sim(x, y) == (v2(x) == v2(y))


def test_qo_axioms_multiply_each_operand_pair_once():
    # QR2 and the support-ideal sweep form x*y of the pairs, QR3 and QR5
    # x*z and y*z of the triples; each distinct operand pair costs one mul
    R = poly_ring(ZZ, "X", "Y")
    universe = SampleUniverse(R, seed=42, count=150)
    distinct = {(id(x), id(y)) for x, y in universe.pairs(200, "qo:t:2")}
    for x, y, z in universe.triples(200, "qo:t:3"):
        distinct |= {(id(x), id(z)), (id(y), id(z))}
    calls = 0
    mul = R.mul

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    R.mul = counted
    results = check_qo_axioms(const_term_order(R), universe, samples=200, label="t")
    assert all(r.status == PASS for r in results)
    assert 0 < calls <= len(distinct)

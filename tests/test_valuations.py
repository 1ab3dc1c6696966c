import gc
import os
import re
import weakref
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.groups import INF, TRIVIAL_GROUP, Z_GROUP, value_le, value_lt
from qord.report import PASS, PreconditionError
from qord.rings import (
    QQ,
    ZZ,
    IntegerModRing,
    PrincipalIdeal,
    RingMismatchError,
    VariableIdeal,
    ZeroIdeal,
    fraction_field,
    poly_ring,
)
from qord.sampling import SampleUniverse
from qord.valuations import (
    Valuation,
    check_val_axioms,
    coarsening_check,
    composite_valuation,
    degree_valuation,
    equivalent_check,
    frac_extend_val,
    gauss_on,
    in_iv,
    in_rv,
    in_uv,
    padic_valuation,
    quotient_val,
    transport_to_residue,
    trivial_valuation,
)

QX = poly_ring(QQ, "X")
ZX = poly_ring(ZZ, "X")
ZXY = poly_ring(ZZ, "X", "Y")


# ---------------------------------------------------------------------------
# independent oracle: full trial-division factorization, then read exponents


def factorize(n: int) -> dict:
    assert n != 0
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_vp(x: Fraction, p: int):
    if x == 0:
        return INF
    num = factorize(x.numerator).get(p, 0) if abs(x.numerator) != 1 else 0
    den = factorize(x.denominator).get(p, 0) if x.denominator != 1 else 0
    return (num - den,)


v2 = padic_valuation(2, QQ)
v3 = padic_valuation(3, QQ)
v2z = padic_valuation(2, ZZ)


def test_padic_matches_oracle():
    assert v2(QQ.from_int(12)) == oracle_vp(Fraction(12), 2) == (2,)
    for num in range(-20, 21):
        for den in (1, 2, 3, 8, 9):
            x = Fraction(num, den)
            if x == 0:
                assert v2(QQ.el(x)) is INF
            else:
                assert v2(QQ.el(x)) == oracle_vp(x, 2)


PADIC_Q = {p: padic_valuation(p, QQ) for p in (2, 3, 5, 7)}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(PADIC_Q)),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
def test_padic_on_q_pairs_matches_oracle(p, q):
    # on the reduced pair (n, d): v_p against trial division, and the
    # residue map into F_p against n * d^-1 mod p on R_v
    v = PADIC_Q[p]
    x = QQ.el(q)
    assert v(x) == oracle_vp(q, p)
    _, to_c, from_c = v.residue_form
    if q.denominator % p:
        assert to_c(x.payload) == q.numerator * pow(q.denominator, -1, p) % p
        c = to_c(x.payload)
        assert from_c(c) == QQ.from_int(c).payload
        assert v.residue_ring().el(x.payload) == v.residue_ring().from_int(c)


def test_padic_axiom_values():
    assert v2(QQ.zero()) is INF
    assert v2(QQ.one()) == (0,)
    assert v2z(ZZ.from_int(0)) is INF


def test_classify_position():
    half, zero, three, four = QQ.el(Fraction(1, 2)), QQ.zero(), QQ.from_int(3), QQ.from_int(4)
    assert not in_rv(v2, half)
    assert v2(zero) is INF and in_iv(v2, zero) and not in_uv(v2, zero)
    assert in_uv(v2, three) and not in_iv(v2, three)
    assert in_iv(v2, four) and not in_uv(v2, four)
    assert all(in_rv(v2, x) for x in (zero, three, four))


# ---------------------------------------------------------------------------
# gauss extensions: the worked polynomial examples


def exp1_valuations():
    vp = padic_valuation(2, QQ)
    v = gauss_on(vp, QX, (1,))   # twist by +1
    w = gauss_on(vp, QX, (0,))   # coefficient minimum
    return v, w


def test_exp1_values_exact():
    v, w = exp1_valuations()
    X = QX.var("X")
    p = QX.from_int(2)
    assert w(X * X) == (0,)
    assert w(p) == (1,)
    assert v(p) == (1,)
    assert v(X * X) == (2,)
    assert v.manis and w.manis


def test_exp2_bivariate_gauss():
    u = trivial_valuation(ZZ)
    v = gauss_on(u, ZXY, (1, -1))
    X, Y = ZXY.var("X"), ZXY.var("Y")
    assert v(Y) == (-1,)
    assert v(X * X * Y) == (1,)
    assert v.manis
    assert v.preimage((3,)) == X ** 3
    assert v.preimage((-2,)) == Y ** 2


def test_degree_valuation_not_manis():
    v = degree_valuation(ZX)
    X = ZX.var("X")
    assert v(X + 1) == (-1,)
    assert v(ZX.one()) == (0,)
    assert v(ZX.from_int(-7)) == (0,)
    assert not v.manis


def test_trivial_valuation_on_evens():
    v = trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2))
    assert v(ZZ.from_int(2)) is INF
    assert v(ZZ.from_int(3)) == ()
    assert v.manis and not v.nontrivial


# ---------------------------------------------------------------------------
# preimages


def test_preimage_examples():
    assert v2.preimage((-3,)) == QQ.el(Fraction(1, 8))
    assert v2.preimage((0,)) == QQ.one()
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    got = nu.preimage((1,))
    assert nu(got) == (1,)  # eval re-check: 1/X has value 1
    assert str(got) == "(1)/(1*X)"


def test_preimage_grid_round_trip():
    for k in range(-6, 7):
        assert v2(v2.preimage((k,))) == (k,)


def test_preimage_requires_manis():
    with pytest.raises(PreconditionError):
        v2z.preimage((1,))


# ---------------------------------------------------------------------------
# fraction-field extension


def test_frac_extend_padic():
    nu = frac_extend_val(v2z)
    assert nu.ring is QQ
    assert nu(QQ.el(Fraction(1, 2))) == (-1,) == oracle_vp(Fraction(1, 2), 2)
    assert nu(QQ.from_int(5)) == (0,)
    assert nu.manis and nu.local


def test_frac_extend_degree():
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    K = nu.ring
    X = QX.var("X")
    one_over_x = K.frac(QX.one(), X)
    assert nu(one_over_x) == (1,)
    assert nu(K.frac(QX.from_int(5), QX.one())) == (0,)
    # well-definedness: representative independence on cross-multiplied pairs
    a = K.frac(X * X - 1, X - 1)
    b = K.frac(X + 1, QX.one())
    assert a == b and nu(a) == nu(b)


def test_extensions_read_the_fraction_with_one_memo(monkeypatch):
    # nu = -deg on the differences the lift of roundtrip-deg-plus compares:
    # nu splits each fraction with no gcd (no poly_pair), the trivial base
    # is never called, and nu's memo is the only one that fills
    from qord.corpus import get_instance
    from qord.dsl import Check, SessionContext, bind_check, execute_statement, parse_session
    from qord.rings import RationalFunctionField

    inst = get_instance("roundtrip-deg-plus")
    ctx = SessionContext()
    for stmt in parse_session(inst.session).statements:
        if isinstance(stmt, Check):
            break
        execute_statement(ctx, stmt, inst.label_prefix)
    elems = bind_check(ctx, stmt, inst.label_prefix).universe(ctx).elements()
    vdeg = degree_valuation(QX)
    nu = frac_extend_val(vdeg, uniformizer=QX.var("X"))
    diffs = [y - x for x in elems for y in elems]
    assert diffs and diffs[0].ring is nu.ring

    calls = []
    pair = RationalFunctionField.poly_pair
    monkeypatch.setattr(
        RationalFunctionField, "poly_pair",
        lambda self, a: calls.append("poly_pair") or pair(self, a),
    )
    u = vdeg.provenance.base
    base_ev = u._eval_payload
    monkeypatch.setattr(u, "_eval_payload", lambda p: calls.append("base") or base_ev(p))
    before = len(vdeg._memo)
    values = [nu(t) for t in diffs]
    assert calls == [] and len(vdeg._memo) == before
    assert len(nu._memo) > 1 and {INF, (0,), (-1,)} <= set(values)

    # a base that needs the integer table: the table is u's only memo
    v2q = padic_valuation(2, QQ)
    v = gauss_on(v2q, QX, (1,))
    sample = SampleUniverse(QX, seed=42, count=200).elements()
    assert {v(x) for x in sample} - {INF} and not v2q._memo


def test_frac_extend_preimage_through_a_manis_passage():
    # the Gauss twist (1, -1) of the trivial valuation on Z[X,Y] is Manis,
    # so its extension to Quot(Z[X,Y]) embeds the ring's own preimages
    nu = frac_extend_val(gauss_on(trivial_valuation(ZZ), ZXY, (1, -1)))
    K = nu.ring
    X, Y = ZXY.var("X"), ZXY.var("Y")
    for k in range(-3, 4):
        want = X**k if k >= 0 else Y ** (-k)
        x = nu.preimage((k,))
        assert x == K.frac(want, ZXY.one()) and nu(x) == (k,)


def test_frac_extend_needs_witness():
    with pytest.raises(ValueError):
        frac_extend_val(degree_valuation(QX))


@pytest.mark.parametrize(
    "make, uniformizer",
    [
        (lambda: padic_valuation(2, ZZ), None),
        (lambda: trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2)), None),
        (lambda: degree_valuation(ZX), ZX.var("X")),
    ],
    ids=["v_2 on Z", "triv(2Z) on Z", "-deg on Z[X]"],
)
def test_field_passage_embeds_into_the_extension(make, uniformizer):
    v = make()
    nu = frac_extend_val(v, uniformizer)
    to_field = nu.provenance.to_field
    for x in SampleUniverse(v.ring, seed=5, count=60).elements():
        assert to_field(x).ring is nu.ring
        if v(x) is not INF:
            assert nu(to_field(x)) == v(x)


def test_quotient_keeps_the_residue_form():
    # Q[X]/<X> is Q: the residue form of triv(<X>) is carried to Q, so the
    # residue field of the extension still has canonical representatives
    nu = frac_extend_val(trivial_valuation(QX, VariableIdeal(QX, ("X",))))
    R = nu.residue_ring()
    assert nu.ring is QQ and R.concrete_ring is QQ
    assert R.element(QQ.el(Fraction(3, 2))) == R.el(Fraction(3, 2))
    assert str(R.el(Fraction(6, 4))) == "3/2"


# ---------------------------------------------------------------------------
# composite and quotient valuations


def deg_ext():
    return frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))


def test_composite_hand_value():
    nu = deg_ext()
    K = nu.ring
    X = QX.var("X")
    one_over_x = K.frac(QX.one(), X)
    w = composite_valuation(nu, padic_valuation(2, QQ), [one_over_x])
    pX = K.frac(QX.from_int(2) * X, QX.one())
    assert w(pX) == (-1, 1)
    assert w(K.one()) == (0, 0)
    assert w(K.zero()) is INF
    assert w.manis
    assert w(w.preimage((2, -3))) == (2, -3)


def test_composite_first_coordinate_is_base():
    nu = deg_ext()
    K = nu.ring
    w = composite_valuation(nu, padic_valuation(2, QQ), [K.frac(QX.one(), QX.var("X"))])
    U = SampleUniverse(K, seed=5, count=60)
    for x in U.elements():
        wx, nx = w(x), nu(x)
        if nx is INF:
            assert wx is INF
        else:
            assert wx[:1] == nx


def test_quotient_val_of_composite_agrees_with_upper():
    nu = deg_ext()
    K = nu.ring
    u = padic_valuation(2, QQ)
    w = composite_valuation(nu, u, [K.frac(QX.one(), QX.var("X"))])
    U = SampleUniverse(K, seed=11, count=120)
    wv = quotient_val(w, nu, U)
    R = nu.residue_ring()
    UR = SampleUniverse(R, seed=13, count=150)
    ut = transport_to_residue(u, R)
    for xbar in UR.elements():
        assert wv(xbar) == ut(xbar)
    assert transport_to_residue(ut, R) is ut
    with pytest.raises(RingMismatchError):
        transport_to_residue(padic_valuation(2, ZZ), R)
    assert wv.manis == w.manis  # Manis passes to the quotient


def test_quotient_val_self_is_trivial():
    nu = deg_ext()
    U = SampleUniverse(nu.ring, seed=3, count=50)
    t = quotient_val(nu, nu, U)
    assert t.group is TRIVIAL_GROUP or t.group.rank == 0
    R = nu.residue_ring()
    xbar = R.element(nu.ring.from_int(7))
    assert t(xbar) == ()
    assert t(R.zero()) is INF


def test_quotient_val_over_trivial_base_is_w():
    K = QQ
    triv = trivial_valuation(K, ZeroIdeal(K))
    U = SampleUniverse(K, seed=9, count=80)
    wv = quotient_val(v2, triv, U)
    R = triv.residue_ring()
    for x in U.elements():
        assert wv(R.element(x)) == v2(x)


def test_quotient_val_preimage_through_the_residue_element():
    # v_2 over the trivial valuation on Q: the generic branch lifts the
    # preimage 2^k of w into the residue ring through its element()
    triv = trivial_valuation(QQ)
    wv = quotient_val(v2, triv, SampleUniverse(QQ, seed=9, count=80))
    R = triv.residue_ring()
    for k in range(-3, 4):
        x = wv.preimage((k,))
        assert x.ring is R and x == R.element(QQ.el(Fraction(2) ** k))
        assert wv(x) == (k,)


def test_quotient_val_reads_manis_off_the_supports(monkeypatch):
    # the generic branch is Manis when w is and the two supports are one
    # ideal by their defining data: both zero, or one prime generator even
    # on two distinct objects; no sample decides it
    plans = []
    tuples = SampleUniverse.tuples

    def counted(self, arity, n, tag):
        plans.append((arity, tag))
        return tuples(self, arity, n, tag)

    monkeypatch.setattr(SampleUniverse, "tuples", counted)
    triv = trivial_valuation(QQ)
    assert quotient_val(v2, triv, SampleUniverse(QQ, seed=9, count=80)).manis
    # the one plan drawn is the precondition's pairs
    assert plans == [(2, f"quotient_val(v_2,{triv.name})")]
    w, v = (trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2)) for _ in range(2))
    assert w is not v and w.support is not v.support
    assert quotient_val(w, v, SampleUniverse(ZZ, seed=9, count=80)).manis
    # a support known only through its valuation has no structural rule,
    # so the flag is False, though no sample could tell it from {0}
    opaque = Valuation(QQ, v2.group, v2._eval_payload, "v2?", manis=True,
                       preimage_fn=v2.preimage)
    assert not quotient_val(opaque, triv, SampleUniverse(QQ, seed=9, count=80)).manis


def test_quotient_val_precondition_failure():
    # the degree twist is not compatible with the coefficient minimum
    v, w = exp1_valuations()
    X = QX.var("X")
    U = SampleUniverse(
        QX, seed=42, count=60, distinguished=(QX.from_int(2), X * X)
    )
    with pytest.raises(PreconditionError):
        quotient_val(w, v, U)


def test_well_definedness_on_residue_representatives():
    nu = deg_ext()
    K = nu.ring
    u = padic_valuation(2, QQ)
    w = composite_valuation(nu, u, [K.frac(QX.one(), QX.var("X"))])
    U = SampleUniverse(K, seed=11, count=80)
    wv = quotient_val(w, nu, U)
    R = nu.residue_ring()
    X = QX.var("X")
    UR = SampleUniverse(R, seed=13, count=100)
    one_over_x = K.frac(QX.one(), X)
    for a in UR.elements():
        shifted = R.el(K.add(a.payload, one_over_x.payload))  # perturb by I_v
        assert R.eq(a.payload, shifted.payload)
        assert wv(a) == wv(shifted)


# ---------------------------------------------------------------------------
# axiom suites


def universe_for(v, seed=42, count=300, distinguished=()):
    return SampleUniverse(v.ring, seed=seed, count=count, distinguished=distinguished)


@pytest.mark.parametrize(
    "makev",
    [
        lambda: v2,
        lambda: v3,
        lambda: v2z,
        lambda: trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2)),
        lambda: degree_valuation(ZX),
        lambda: exp1_valuations()[0],
        lambda: exp1_valuations()[1],
        lambda: gauss_on(trivial_valuation(ZZ), ZXY, (1, -1)),
        lambda: deg_ext(),
        lambda: composite_valuation(
            deg_ext(),
            padic_valuation(2, QQ),
            [fraction_field(QX)[0].frac(QX.one(), QX.var("X"))],
        ),
    ],
)
def test_val_axioms_pass(makev):
    v = makev()
    results = check_val_axioms(v, universe_for(v), samples=300)
    bad = [r for r in results if r.status != PASS]
    assert not bad, bad


def test_val_axioms_planted_fault():
    broken = Valuation(
        QQ,
        Z_GROUP,
        lambda x: (1,) if x == QQ.one_payload() else ((0,) if x != QQ.zero_payload() else INF),
        "broken",
        support=ZeroIdeal(QQ),
    )
    results = check_val_axioms(broken, universe_for(broken), samples=100)
    v2_result = [r for r in results if r.name.endswith(".V2")][0]
    assert v2_result.status == "fail"


def test_valmin_example():
    x, y = QQ.from_int(4), QQ.from_int(3)
    assert v2(x + y) == (0,)
    assert v2(x + y) == min(v2(x), v2(y))


# ---------------------------------------------------------------------------
# coarsening and equivalence


def is_coarsening_entry(v, w, U, samples=500):
    """coarsening_check's verdict entry: both containments on the samples."""
    results = coarsening_check(v, w, U, samples=samples)
    return [r for r in results if r.name.endswith(".is-coarsening")][0]


def test_coarsening_counterexample_gauss_twists():
    v, w = exp1_valuations()
    X = QX.var("X")
    U = SampleUniverse(QX, seed=4, count=100, distinguished=(X,))
    assert is_coarsening_entry(v, w, U).status == "fail"
    results = coarsening_check(v, w, U, samples=200)
    verdict = [r for r in results if r.name.endswith(".is-coarsening")][0]
    assert verdict.status == "fail"
    iv = [r for r in results if r.name.endswith(".Iv-in-Iw")][0]
    assert iv.status == "fail" and iv.witness == ("1*X",)


def test_trivial_is_coarsening_of_everything_with_zero_support():
    triv = trivial_valuation(QQ, ZeroIdeal(QQ))
    U = SampleUniverse(QQ, seed=4, count=150)
    assert is_coarsening_entry(triv, v2, U).status == PASS


def test_deg_coarsens_composite():
    nu = deg_ext()
    K = nu.ring
    w = composite_valuation(nu, padic_valuation(2, QQ), [K.frac(QX.one(), QX.var("X"))])
    U = SampleUniverse(K, seed=6, count=150)
    results = coarsening_check(nu, w, U, samples=300)
    assert all(r.status == PASS for r in results), [r for r in results if r.status != PASS]


def test_equivalence_checks():
    U = SampleUniverse(QQ, seed=8, count=200)
    res = equivalent_check(v2, v2, U, samples=300)
    assert all(r.status == PASS for r in res)
    res = equivalent_check(v2, v3, U, samples=300)
    verdict = [r for r in res if r.name.endswith(".equivalent")][0]
    assert verdict.status == "fail"
    doubled = Valuation(
        QQ,
        v2.group,
        lambda p: INF if p == QQ.zero_payload() else (2 * v2(QQ.el(p))[0],),
        "2*v_2",
    )
    res = equivalent_check(v2, doubled, U, samples=300)
    assert all(r.status == PASS for r in res)


def test_constructors_declare_every_attribute():
    from qord.baerkrull import default_basis
    from qord.corpus import shipped_objects

    plain = set(vars(Valuation(QQ, Z_GROUP, lambda p: INF, "plain")))
    v2z_ext = frac_extend_val(padic_valuation(2, ZZ))
    default_basis(v2z_ext)
    valuations = [v for _, v, _ in shipped_objects()[0]] + [v2z_ext]
    for v in valuations:
        assert set(vars(v)) == plain, v.name


def test_fraction_extensions_carry_concrete_residue_fields():
    assert frac_extend_val(padic_valuation(2, ZZ)).residue_ring().concrete_ring.name == "Z/2Z"
    assert deg_ext().residue_ring().concrete_ring is QQ


@pytest.mark.parametrize(
    "make, units",
    [
        (lambda: v2, ["1", "3", "1/3", "-5/7"]),
        (deg_ext, ["(2*X + 1)/(X - 3)", "(-1/2*X^2)/(X^2 + X)", "3", "(X + 1)/(X)"]),
    ],
    ids=["v2-on-Q", "degree-on-Quot(Q[X])"],
)
def test_residue_field_inverse(make, units):
    # Rv(v_2 on Q) is F_2 and Rv of the degree extension is Q
    v = make()
    R = v.residue_ring()
    assert R.is_field
    for text in units:
        x = R.element(v.ring.parse(text))
        assert x * R.inv(x) == R.one(), text
    with pytest.raises(ZeroDivisionError):
        R.inv(R.zero())


def test_residue_inverse_needs_a_local_valuation():
    R = v2z.residue_ring()
    assert not R.is_field
    with pytest.raises(NotImplementedError):
        R.inv(R.one())


def test_residue_payloads_are_canonical_fixed_points(monkeypatch):
    # ResidueDomainRing.format prints a payload without re-canonicalizing
    # it, and without a concrete form add, neg and mul return the parent's
    # result as it is; that is sound only while every payload the ring hands
    # out is a fixed point of canon (the parent's canon, without a form)
    from qord import corpus
    from qord.residues import residue_universe

    cases = [(v, u) for _, v, u in corpus.shipped_objects()[0]]
    monkeypatch.setattr(
        corpus, "table_conditions", lambda v, q, u, samples, label: cases.append((v, u))
    )
    # one CPU, so that every instance runs, and appends, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    corpus.table_reports()
    monkeypatch.undo()
    with_form = 0
    for v, u in cases:
        residue = v.residue_ring()
        with_form += residue.canonical_eq
        elems = residue_universe(v, u, count=40).elements()
        payloads = [residue.zero_payload(), residue.one_payload()]
        payloads += [residue.int_payload(n) for n in range(-3, 4)]
        payloads += [x.payload for x in elems]
        for x in elems[:12]:
            payloads.append(residue.neg(x.payload))
            for y in elems[:12]:
                payloads += [residue.add(x.payload, y.payload),
                             residue.mul(x.payload, y.payload)]
        payloads += [residue.parse(residue.format(p)).payload for p in payloads]
        for p in payloads:
            assert repr(residue.canon(p)) == repr(p), (v.name, p)
    # the shipped valuations and the table instances, 9 of them with a form
    assert (len(cases), with_form) == (22, 9)


def test_residue_forms_give_canonical_payloads():
    # ResidueDomainRing.sampler hands out _from_c of a concrete draw without
    # canonicalizing it again: that is sound only while canon fixes _from_c
    from qord.corpus import shipped_objects

    forms = []
    for name, v, _ in shipped_objects()[0]:
        residue = v.residue_ring()
        conc = residue.concrete_ring
        if conc is None:
            continue
        forms.append(conc.name)
        for c in SampleUniverse(conc, seed=3, count=200).elements():
            p = residue._from_c(c.payload)
            assert repr(residue.canon(p)) == repr(p), (name, c)
        drawn = SampleUniverse(residue, seed=3, count=200).elements()
        assert all(repr(residue.canon(x.payload)) == repr(x.payload) for x in drawn)
    assert sorted(forms) == ["Q", "Z/2Z", "Z/2Z", "Z/2Z", "Z/3Z"]


@pytest.mark.parametrize(
    "make",
    [lambda: padic_valuation(3, ZZ), lambda: padic_valuation(3, QQ), deg_ext],
    ids=["v3-on-Z", "v3-on-Q", "degree-on-Quot(Q[X])"],
)
def test_residue_eq_is_the_valuation_rule_on_representatives(make):
    # eq(a, b) is v(a - b) > 0 for any representatives in R_v, not only for
    # the canonical payloads the ring hands out: the Baer-Krull lift hands
    # the residue comparator cleared products of the parent ring
    v = make()
    R = v.residue_ring()
    assert R.canonical_eq
    zero = v.group.zero()
    reps = [x.payload for x in SampleUniverse(v.ring, seed=5, count=60).elements()
            if value_le(zero, v(x))]
    payloads = reps + [R.canon(p) for p in reps]
    apart = 0
    for a in payloads:
        for b in payloads:
            want = value_lt(zero, v._eval_memo(v.ring.sub(a, b)))
            assert R.eq(a, b) == want, (a, b)
            apart += want and a != b
    assert apart > 0  # some equal classes have different payloads


def test_one_passage_per_valuation_and_uniformizer():
    v = degree_valuation(QX)
    nu = frac_extend_val(v, uniformizer=QX.var("X"))
    assert frac_extend_val(v, uniformizer=QX.parse("X")) is nu
    assert nu.residue_ring() is frac_extend_val(v, QX.var("X")).residue_ring()
    assert frac_extend_val(v2z) is frac_extend_val(v2z)
    # rings tied to a valuation are one per valuation, other rings one per
    # structure
    assert v2.residue_ring() is v2.residue_ring()
    assert v2.residue_ring().concrete_ring is IntegerModRing(2)


@contextmanager
def no_cycle_collector():
    """Run the block with the cycle collector off: whatever it frees, it
    frees by reference counting alone."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_a_dropped_passage_and_its_basis_are_freed_by_reference_counting():
    from qord.baerkrull import EtaVector, LiftData, default_basis, lift
    from qord.quasiorders import from_valuation

    with no_cycle_collector():
        v = padic_valuation(2, ZZ)
        nu = frac_extend_val(v)
        basis = default_basis(nu)
        residue = nu.residue_ring()
        lifted = lift(LiftData(basis, EtaVector((1,)),
                               from_valuation(trivial_valuation(residue))))
        # fill the memos of v, nu, the basis and the lift
        elems = SampleUniverse(QQ, seed=5, count=30).elements()
        assert any(lifted.le(x, y) for x in elems for y in elems)
        alive = [weakref.ref(obj) for obj in (v, nu, basis)]
        del v, nu, basis, residue, lifted
        assert [ref() for ref in alive] == [None, None, None]


def test_a_held_residue_ring_keeps_its_passage():
    with no_cycle_collector():
        v = padic_valuation(2, ZZ)
        residue = frac_extend_val(v).residue_ring()
        assert frac_extend_val(v) is residue.val
        # and v alone keeps no passage alive
        dropped = weakref.ref(frac_extend_val(v, ZZ.from_int(2)))
        assert dropped() is None


def test_residue_rings_of_one_name_do_not_mix():
    RZ = trivial_valuation(ZZ).residue_ring()
    RQ = trivial_valuation(QQ).residue_ring()
    assert RZ.name == RQ.name == "Rv(triv({0}))"
    message = r"Rv\(triv\(\{0\}\)\) over Q with Rv\(triv\(\{0\}\)\) over Z$"
    with pytest.raises(RingMismatchError, match=message):
        RZ.one() + RQ.el(Fraction(1, 2))
    assert RZ.one() != RQ.one()
    with pytest.raises(RingMismatchError, match=r"over Q is not .* over Z$"):
        RZ.pid(RQ.one())
    # like-named residue rings over one parent are told apart by their forms
    w3, w2 = padic_valuation(3, QQ), padic_valuation(2, QQ)
    w3.name = w2.name = "v"
    with pytest.raises(RingMismatchError, match=r"over Q \(Z/3Z\) with .* over Q \(Z/2Z\)$"):
        w2.residue_ring().one() + w3.residue_ring().one()
    with pytest.raises(RingMismatchError, match=r"on Rv\(v\) over Q \(Z/2Z\), not Rv\(v\) over Q \(Z/3Z\)$"):
        trivial_valuation(w2.residue_ring())(w3.residue_ring().one())


def test_residue_rings_of_one_full_name_do_not_mix():
    # two valuations with one name, parent and form: the messages number them
    a, b = trivial_valuation(QQ), trivial_valuation(QQ)
    a.name = b.name = "v"
    A, B = a.residue_ring(), b.residue_ring()
    assert A.full_name == B.full_name and A.serial != B.serial
    with pytest.raises(RingMismatchError) as err:
        A.one() + B.one()
    got = re.fullmatch(r"cannot combine element of (.*) with (.*)", str(err.value))
    assert got and got[1] != got[2]
    assert got[1] == f"Rv(v) over Q #{B.serial}" and got[2] == f"Rv(v) over Q #{A.serial}"
    with pytest.raises(RingMismatchError, match=rf"over Q #{B.serial} is not .* over Q #{A.serial}$"):
        A.pid(B.one())
    assert A.one() != B.one()

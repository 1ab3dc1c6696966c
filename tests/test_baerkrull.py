from fractions import Fraction

import pytest

from qord import baerkrull
from qord.baerkrull import (
    BasisData,
    EtaVector,
    LiftData,
    bk3_lift,
    default_basis,
    extract_eta,
    gamma_data,
    lift,
    lift_properties_check,
    mu_restrict,
    psi,
    reconstruct_check,
    roundtrip_check,
)
from qord.groups import INF
from qord.quasiorders import (
    ORDER,
    PROPER,
    check_qo_axioms,
    classify_qo,
    from_valuation,
    leading_term_order,
    natural_order,
    transport_qo,
)
from qord.report import EXIT_OK, INCONCLUSIVE, PASS, PreconditionError, Report
from qord.rings import QQ, ZZ, poly_ring
from qord.sampling import SampleUniverse
from qord.valuations import (
    ZeroIdeal,
    composite_valuation,
    degree_valuation,
    frac_extend_val,
    padic_valuation,
    quotient_val,
    transport_to_residue,
    trivial_valuation,
)

QX = poly_ring(QQ, "X")
ZX = poly_ring(ZZ, "X")

v2 = padic_valuation(2, QQ)


def deg_ext():
    return frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))


def trivial_residue_qo(v):
    R = v.residue_ring()
    return from_valuation(trivial_valuation(R, ZeroIdeal(R)))


def rational_residue_order(nu):
    return transport_qo(natural_order(QQ), nu.residue_ring())


def v2_residue_qo(nu):
    return from_valuation(transport_to_residue(padic_valuation(2, QQ), nu.residue_ring()))


def UQ(count=250, dist=()):
    return SampleUniverse(QQ, seed=42, count=count, distinguished=dist)


def UK(nu, count=200, dist=()):
    return SampleUniverse(nu.ring, seed=42, count=count, distinguished=dist)


# ---------------------------------------------------------------------------
# gamma data


def test_gamma_data_half_case():
    basis = default_basis(v2)
    x, y = QQ.el(Fraction(1, 2)), QQ.from_int(4)
    dec, m, a = gamma_data(v2, x, y, basis)
    assert dec.gamma == (1,)
    assert dec.index_set == frozenset({0}) and dec.delta == (0,)
    assert m == QQ.from_int(2) and a == QQ.one()
    assert v2(x * m) == (0,)  # lands among the units
    assert v2(y * m) == (3,)  # lands inside the valuation ideal


def test_gamma_data_trivial_case():
    dec, m, a = gamma_data(v2, QQ.one(), QQ.one())
    assert dec.gamma == (0,) and dec.index_set == frozenset() and m == QQ.one()


def test_gamma_data_gamma_five():
    x, y = QQ.el(Fraction(1, 32)), QQ.one()
    dec, m, a = gamma_data(v2, x, y)
    assert dec.gamma == (5,)
    assert dec.index_set == frozenset({0}) and dec.delta == (2,)
    assert a == QQ.from_int(4) and m == QQ.from_int(32)
    assert v2(x * m) == (0,)


def test_gamma_data_is_one_clearing_per_gamma_on_the_basis():
    # values with the same gamma share one clearing, which is the basis's
    basis = default_basis(v2)
    first = gamma_data(v2, QQ.el(Fraction(1, 8)), QQ.one(), basis)
    again = gamma_data(v2, QQ.from_int(3), QQ.el(Fraction(5, 8)), basis)
    assert again is first and basis.clearing((3,)) is first
    assert basis.clearing((4,)) is not first


def test_gamma_data_drops_infinite_summand():
    dec, m, a = gamma_data(v2, QQ.zero(), QQ.el(Fraction(1, 8)))
    assert dec.gamma == (3,)
    with pytest.raises(PreconditionError):
        gamma_data(v2, QQ.zero(), QQ.zero())


# ---------------------------------------------------------------------------
# the lift on (Q, v2)


def test_lift_v2_trivial_residue_matches_valuation_qo():
    data = LiftData(default_basis(v2), EtaVector((1,)), trivial_residue_qo(v2))
    lifted = lift(data)
    direct = from_valuation(v2)
    for x, y in UQ().pairs(600, "cmp"):
        assert lifted.le(x, y) == direct.le(x, y)
    assert classify_qo(lifted) == PROPER


def test_lift_data_rejects_negative_eta_for_proper_residue():
    with pytest.raises(PreconditionError):
        LiftData(default_basis(v2), EtaVector((-1,)), trivial_residue_qo(v2))


# ---------------------------------------------------------------------------
# the lift on (Quot(Q[X]), deg)


def test_lift_deg_plus_is_positive_infinite_order():
    nu = deg_ext()
    K = nu.ring
    data = LiftData(default_basis(nu), EtaVector((1,)), rational_residue_order(nu))
    lifted = lift(data)
    assert classify_qo(lifted) == ORDER
    X = K.frac(QX.var("X"), QX.one())
    one_over_x = K.frac(QX.one(), QX.var("X"))
    assert lifted.strict(K.zero(), one_over_x)
    for n in range(0, 8):
        q = K.frac(QX.parse(f"{n}/7"), QX.one())
        if q != K.zero():
            assert lifted.strict(one_over_x, q)
        assert lifted.strict(K.from_int(n), X)
    # agrees with the leading-coefficient order everywhere sampled
    direct = leading_term_order(K)
    for x, y in UK(nu).pairs(500, "cmp"):
        assert lifted.le(x, y) == direct.le(x, y)


def test_lift_deg_minus_makes_x_negative_infinite():
    nu = deg_ext()
    K = nu.ring
    data = LiftData(default_basis(nu), EtaVector((-1,)), rational_residue_order(nu))
    lifted = lift(data)
    assert classify_qo(lifted) == ORDER
    X = K.frac(QX.var("X"), QX.one())
    for n in range(0, 9):
        assert lifted.strict(X, K.from_int(-n))


def test_lift_deg_v2_residue_agrees_with_composite():
    nu = deg_ext()
    K = nu.ring
    data = LiftData(default_basis(nu), EtaVector((1,)), v2_residue_qo(nu))
    lifted = lift(data)
    assert classify_qo(lifted) == PROPER
    w = composite_valuation(nu, padic_valuation(2, QQ), [nu.preimage((1,))])
    direct = from_valuation(w)
    for x, y in UK(nu).pairs(500, "cmp"):
        assert lifted.le(x, y) == direct.le(x, y)


# ---------------------------------------------------------------------------
# eta extraction and psi


def test_extract_eta():
    assert extract_eta(from_valuation(v2), default_basis(v2)) == EtaVector((1,))
    nu = deg_ext()
    K = nu.ring
    qplus = leading_term_order(K)
    assert extract_eta(qplus, default_basis(nu)) == EtaVector((1,))
    minus = lift(
        LiftData(default_basis(nu), EtaVector((-1,)), rational_residue_order(nu))
    )
    assert extract_eta(minus, default_basis(nu)) == EtaVector((-1,))


def test_basis_data_validates_values():
    with pytest.raises(ValueError):
        BasisData(v2, (QQ.one(),))  # v2(1) = 0 is not the basis vector 1


def test_extract_eta_rejects_support_violation():
    from qord.quasiorders import QuasiOrder

    glue = QuasiOrder(QQ, lambda a, b: True, "glue")  # 2 ~ 0 here
    with pytest.raises(PreconditionError):
        extract_eta(glue, default_basis(v2))


def test_psi_of_v2_qo():
    data = psi(from_valuation(v2), default_basis(v2), UQ(), samples=300)
    assert data.eta == EtaVector((1,))
    R = v2.residue_ring()
    rq = data.residue_qo
    one = R.element(QQ.one())
    zero = R.zero()
    assert rq.strict(zero, one)
    triv = trivial_residue_qo(v2)
    assert rq.le(one, zero) == triv.le(one, zero)
    assert classify_qo(rq) == PROPER


def test_psi_requires_compatibility():
    nu = deg_ext()
    from qord.quasiorders import at_zero_order

    q = at_zero_order(nu.ring)
    U = UK(nu, dist=(nu.ring.frac(QX.one(), QX.var("X")),))
    with pytest.raises(PreconditionError):
        psi(q, default_basis(nu), U, samples=300)


# ---------------------------------------------------------------------------
# round trips (the acceptance instances)


def lift_instances():
    nu = deg_ext()
    return [
        (
            "q-v2-triv",
            LiftData(default_basis(v2), EtaVector((1,)), trivial_residue_qo(v2)),
            UQ(),
        ),
        (
            "deg-plus-ratorder",
            LiftData(default_basis(nu), EtaVector((1,)), rational_residue_order(nu)),
            UK(nu),
        ),
        (
            "deg-minus-ratorder",
            LiftData(default_basis(nu), EtaVector((-1,)), rational_residue_order(nu)),
            UK(nu),
        ),
        (
            "deg-plus-v2",
            LiftData(default_basis(nu), EtaVector((1,)), v2_residue_qo(nu)),
            UK(nu),
        ),
    ]


@pytest.mark.parametrize("name,data,universe", lift_instances())
def test_roundtrips(name, data, universe):
    results = roundtrip_check(data, universe, samples=500, label=name)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


@pytest.mark.parametrize("name,data,universe", lift_instances())
def test_reconstruct(name, data, universe):
    q = lift(data)
    results = reconstruct_check(q, data.basis, universe, samples=500, label=name)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


@pytest.mark.parametrize("name,data,universe", lift_instances())
def test_lift_properties(name, data, universe):
    results = lift_properties_check(data, universe, samples=300, label=name)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


def test_lift_well_defined_under_preimage_change():
    # a is only determined up to its value: multiplying the witness by a
    # unit must not change any verdict
    tweaked = padic_valuation(2, QQ)
    base = tweaked._preimage_fn
    tweaked._preimage_fn = lambda g: QQ.el(Fraction(3)) * base(g)
    data = LiftData(
        BasisData(tweaked, (QQ.el(Fraction(6)),)),  # v(6) = 1 as well
        EtaVector((1,)),
        trivial_residue_qo(tweaked),
    )
    lifted = lift(data)
    reference = lift(
        LiftData(default_basis(v2), EtaVector((1,)), trivial_residue_qo(v2))
    )
    for x, y in UQ().pairs(500, "wd"):
        assert lifted.le(x, y) == reference.le(x, y)


def test_lift_reduces_to_residue_comparison_on_units():
    # x among the units, y in the valuation ring: the plain residue compare
    nu = deg_ext()
    K = nu.ring
    data = LiftData(default_basis(nu), EtaVector((1,)), rational_residue_order(nu))
    lifted = lift(data)
    rq = data.residue_qo
    R = nu.residue_ring()
    universe = UK(nu)
    zero = nu.group.zero()
    n = 0
    for x, y in universe.pairs(400, "easy"):
        if nu(x) == zero and nu(y) is not INF and not (zero > nu(y)):
            from qord.groups import value_le

            if not value_le(zero, nu(y)):
                continue
            n += 1
            assert lifted.le(x, y) == rq.le(R.element(x), R.element(y))
    assert n > 10


def test_injectivity_at_sample_scale():
    nu = deg_ext()
    plus = lift(LiftData(default_basis(nu), EtaVector((1,)), rational_residue_order(nu)))
    minus = lift(LiftData(default_basis(nu), EtaVector((-1,)), rational_residue_order(nu)))
    vqo = lift(LiftData(default_basis(nu), EtaVector((1,)), v2_residue_qo(nu)))
    pairs = UK(nu).pairs(400, "inj")
    assert any(plus.le(x, y) != minus.le(x, y) for x, y in pairs)
    assert any(plus.le(x, y) != vqo.le(x, y) for x, y in pairs)


def test_gamma_data_two_index_branch():
    # rank-2 composite: gamma = (3,-1) decomposes with both indices odd
    nu = deg_ext()
    K = nu.ring
    w = composite_valuation(nu, padic_valuation(2, QQ), [nu.preimage((1,))])
    x = K.from_int(2) * K.frac(QX.var("X") ** 3, QX.one())  # w(x) = (-3, 1)
    assert w(x) == (-3, 1)
    dec, m, a = gamma_data(w, x, K.one())
    assert dec.gamma == (3, -1)
    assert dec.index_set == frozenset({0, 1}) and dec.delta == (1, -1)
    assert w(a) == (1, -1)
    assert w(m) == dec.gamma  # pi_0 * pi_1 * a^2 clears exactly
    assert w(x * m) == (0, 0)
    assert w(K.one() * m) == (3, -1)


def test_lift_over_rank_two_composite_matches_its_quasiorder():
    # exercises the empty, singleton and two-element decomposition branches
    nu = deg_ext()
    K = nu.ring
    w = composite_valuation(nu, padic_valuation(2, QQ), [nu.preimage((1,))])
    R = w.residue_ring()
    rtriv = from_valuation(trivial_valuation(R, ZeroIdeal(R)))
    data = LiftData(default_basis(w), EtaVector((1, 1)), rtriv)
    lifted = lift(data)
    direct = from_valuation(w)
    x = K.from_int(2) * K.frac(QX.var("X") ** 3, QX.one())
    U = SampleUniverse(K, seed=42, count=150, distinguished=(x,))
    for a, b in U.pairs(600, "rank2"):
        assert lifted.le(a, b) == direct.le(a, b)
    results = roundtrip_check(data, U, samples=300, label="rank2")
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


def test_preimage_reverses_order_in_rank_two_group():
    nu = deg_ext()
    w = composite_valuation(nu, padic_valuation(2, QQ), [nu.preimage((1,))])
    qw = from_valuation(w)
    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for g in grid:
        for d in grid:
            if g <= d:  # lexicographic comparison matches the group order
                assert qw.le(w.preimage(d), w.preimage(g))


def test_manis_flag_descends_to_quotient():
    nu = deg_ext()
    w = composite_valuation(nu, padic_valuation(2, QQ), [nu.preimage((1,))])
    U = UK(nu)
    wv = quotient_val(w, nu, U)
    assert wv.manis == w.manis
    for g in [(-2,), (0,), (3,)]:
        assert wv(wv.preimage(g)) == g


# ---------------------------------------------------------------------------
# general valuations and special* restriction


def test_bk3_on_integers_matches_padic_qo():
    v2z = padic_valuation(2, ZZ)
    UZ = SampleUniverse(ZZ, seed=42, count=250)
    restricted, lifted, checks = bk3_lift(
        v2z, (1,), trivial_residue_qo(frac_extend_val(v2z)), UZ, samples=300
    )
    assert all(c.status == PASS for c in checks)
    direct = from_valuation(v2z)
    for x, y in UZ.pairs(500, "cmp"):
        assert restricted.le(x, y) == direct.le(x, y)


def test_bk3_levels_that_disagree_are_inconclusive(monkeypatch):
    # verdicts sampled on Z and on Q: a disagreement is not a failure
    v2z = padic_valuation(2, ZZ)
    verdicts = iter([True, False])  # on Z, then on Q
    monkeypatch.setattr(baerkrull, "compatible", lambda *args: next(verdicts))
    _, _, [agree] = bk3_lift(
        v2z, (1,), trivial_residue_qo(frac_extend_val(v2z)),
        SampleUniverse(ZZ, seed=42, count=100), samples=100,
    )
    assert agree.name == "bk3.compat-levels-agree"
    assert agree.status == INCONCLUSIVE and agree.detail == "R:True K:False"
    assert Report(seed=42, checks=[agree]).exit_code() == EXIT_OK


def test_bk3_on_zx_degree_gives_an_order():
    vdeg = degree_valuation(ZX)
    UZX = SampleUniverse(ZX, seed=42, count=200)
    restricted, lifted, checks = bk3_lift(
        vdeg,
        (1,),
        natural_order(QQ),
        UZX,
        samples=300,
        uniformizer=ZX.var("X"),
    )
    assert all(c.status == PASS for c in checks)
    assert classify_qo(restricted) == ORDER
    results = check_qo_axioms(restricted, UZX, samples=300)
    assert all(r.status == PASS for r in results)
    X = ZX.var("X")
    for n in range(0, 9):
        assert restricted.strict(ZX.from_int(n), X)


def test_bk3_restriction_idempotent():
    v2z = padic_valuation(2, ZZ)
    UZ = SampleUniverse(ZZ, seed=42, count=200)
    restricted, _, _ = bk3_lift(
        v2z, (1,), trivial_residue_qo(frac_extend_val(v2z)), UZ, samples=200
    )

    def restrict_again(q):
        from qord.quasiorders import QuasiOrder

        return QuasiOrder(q.ring, q._compare_payload, q.name + "'")

    again = restrict_again(restricted)
    for x, y in UZ.pairs(300, "idem"):
        assert again.le(x, y) == restricted.le(x, y)


def test_mu_restrict_padic_identity():
    v3z = padic_valuation(3, ZZ)
    nu = frac_extend_val(v3z)
    knu_order = from_valuation(trivial_valuation(nu.residue_ring(), ZeroIdeal(nu.residue_ring())))
    restricted = mu_restrict(knu_order, v3z)
    rv = v3z.residue_ring()
    one = rv.element(ZZ.one())
    two = rv.element(ZZ.from_int(2))
    zero = rv.zero()
    assert restricted.strict(zero, one)
    assert restricted.sim(one, two) or restricted.le(one, two) or restricted.le(two, one)


def test_mu_restrict_degree_gives_rational_order():
    vdeg = degree_valuation(ZX)
    nu = frac_extend_val(vdeg, uniformizer=ZX.var("X"))
    q = transport_qo(natural_order(QQ), nu.residue_ring())
    restricted = mu_restrict(q, vdeg, uniformizer=ZX.var("X"))
    rv = vdeg.residue_ring()
    a = rv.element(ZX.from_int(2))
    b = rv.element(ZX.from_int(3))
    assert restricted.strict(a, b)
    assert restricted.strict(rv.zero(), rv.element(ZX.one()))

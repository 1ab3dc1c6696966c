import os
from dataclasses import replace

import pytest

from qord import corpus, residues, sampling
from qord.groups import value_le, value_lt
from qord.quasiorders import (
    ORDER,
    classify_qo,
    const_term_order,
    from_valuation,
    leading_term_order,
    at_zero_order,
    natural_order,
)
from qord.report import EXIT_OK, FAIL, HARD, INCONCLUSIVE, PASS, PreconditionError, Report
from qord.residues import (
    CompatReport,
    associated_qofield,
    implication_table,
    is_compatible,
    is_convex,
    iv_prec_one,
    rank_check,
    residue_qo,
    residue_rule,
    residue_rule_report,
    residue_universe,
    special_star_check,
    table_blank_cells,
    table_conditions,
    theorem_compat_report,
)
from qord.rings import (
    QQ,
    ZZ,
    PrincipalIdeal,
    VariableIdeal,
    poly_ring,
)
from qord.sampling import SampleUniverse
from qord.valuations import (
    composite_valuation,
    degree_valuation,
    frac_extend_val,
    gauss_on,
    in_iv,
    in_rv,
    padic_valuation,
    quotient_val,
    trivial_valuation,
)

QX = poly_ring(QQ, "X")
ZX = poly_ring(ZZ, "X")
ZXY = poly_ring(ZZ, "X", "Y")


# ---------------------------------------------------------------------------
# instance builders (shared with the corpus)


def inst_nomanis1():
    v = degree_valuation(ZX)
    q = const_term_order(ZX)
    X = ZX.var("X")
    U = SampleUniverse(ZX, seed=42, count=300, distinguished=(X + 1, X))
    return v, q, U


def inst_exp1():
    vp = padic_valuation(2, QQ)
    v = gauss_on(vp, QX, (1,))
    w = gauss_on(vp, QX, (0,))
    q = from_valuation(w)
    X = QX.var("X")
    dist = (
        QX.from_int(2),
        X,
        X * X,
        QX.parse("1/2"),
        QX.parse("1/2*X"),
        QX.parse("1/2*X^2"),
    )
    U = SampleUniverse(QX, seed=42, count=300, distinguished=dist)
    return v, w, q, U


def inst_exp2():
    u = trivial_valuation(ZZ)
    v = gauss_on(u, ZXY, (1, -1))
    q = const_term_order(ZXY)
    X, Y = ZXY.var("X"), ZXY.var("Y")
    U = SampleUniverse(ZXY, seed=42, count=300, distinguished=(Y, X * Y))
    return v, q, U


def inst_remark_order():
    v = trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2))
    q = natural_order(ZZ)
    U = SampleUniverse(ZZ, seed=42, count=300, distinguished=(ZZ.from_int(2),))
    return v, q, U


def deg_ext():
    return frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))


def v2_composite(nu=None):
    nu = nu or deg_ext()
    K = nu.ring
    return composite_valuation(
        nu, padic_valuation(2, QQ), [K.frac(QX.one(), QX.var("X"))]
    )


# ---------------------------------------------------------------------------
# convexity


def test_exp2_iv_not_convex_witness_Y():
    v, q, U = inst_exp2()
    res = is_convex(lambda x: in_iv(v, x), q, U, samples=400, label="exp2.Iv")
    assert res.status == FAIL
    assert res.witness == ("1*Y", "0")  # 0 <= Y <= 0 yet Y is not in I_v


def test_remark_order_convexities():
    v, q, U = inst_remark_order()
    rv = is_convex(lambda x: in_rv(v, x), q, U, samples=300, label="rv")
    assert rv.status == PASS
    iv = is_convex(lambda x: in_iv(v, x), q, U, samples=300, label="iv")
    assert iv.status == FAIL
    # 0 <= 1 <= 2 with 2 in the support but 1 outside
    assert iv.witness == ("1", "2")


def test_is_convex_sweeps_its_drawn_pairs_in_one_plan(monkeypatch):
    v, q, U = inst_remark_order()
    plans = []
    init = sampling.SampledTuples.__init__

    def counted(plan, *args, **kwargs):
        plans.append(plan)
        init(plan, *args, **kwargs)

    monkeypatch.setattr(sampling.SampledTuples, "__init__", counted)
    for member in (lambda x: in_rv(v, x), lambda x: in_iv(v, x)):
        plans.clear()
        is_convex(member, q, U, samples=300, label="one-plan")
        assert len(plans) == 1


def test_whole_ring_convex():
    _, q, U = inst_remark_order()
    res = is_convex(lambda x: True, q, U, samples=200, label="all")
    assert res.status == PASS


def test_is_convex_rejects_asymmetric_set():
    _, q, U = inst_remark_order()
    positives = lambda x: q.le(q.ring.zero(), x)
    with pytest.raises(PreconditionError):
        is_convex(positives, q, U, samples=100, label="asym", require_symmetric=True)


# ---------------------------------------------------------------------------
# compatibility


def test_self_compatibility():
    v2 = padic_valuation(2, QQ)
    U = SampleUniverse(QQ, seed=42, count=300)
    assert is_compatible(v2, from_valuation(v2), U, samples=400).status == PASS


def test_exp1_incompatibility_witness():
    v, w, q, U = inst_exp1()
    res = is_compatible(v, q, U, samples=400)
    assert res.status == FAIL
    assert res.witness == ("2", "1*X^2")


def test_nomanis1_incompatibility_witness():
    v, q, U = inst_nomanis1()
    res = is_compatible(v, q, U, samples=400)
    assert res.status == FAIL
    assert res.witness == ("1*X + 1", "1")


# ---------------------------------------------------------------------------
# residue quasi-order


def test_residue_qo_of_leading_order_is_rational_order():
    nu = deg_ext()
    K = nu.ring
    q = leading_term_order(K)
    rq = residue_qo(q, nu)
    R = nu.residue_ring()
    two = R.element(K.from_int(2))
    three = R.element(K.from_int(3))
    assert rq.strict(two, three)
    shifted = R.el(K.add(K.from_int(2).payload, K.frac(QX.one(), QX.var("X")).payload))
    assert rq.sim(R.element(K.from_int(2)), shifted)


def test_residue_rule_report_passes_for_compatible_pair():
    v2 = padic_valuation(2, QQ)
    U = SampleUniverse(QQ, seed=42, count=250)
    results = residue_rule_report(from_valuation(v2), v2, U, samples=300)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


def test_residue_rule_fails_for_exp1():
    v, w, q, U = inst_exp1()
    results = residue_rule_report(q, v, U, samples=400)
    assert any(r.status != PASS for r in results)


def test_residue_rule_fails_for_exp2_support():
    v, q, U = inst_exp2()
    results = residue_rule_report(q, v, U, samples=400)
    bad = [r for r in results if r.status != PASS]
    assert bad
    support = [r for r in results if r.name.endswith(".support-zero")]
    assert support and support[0].status == FAIL
    assert support[0].witness == ("1*X*Y",)


# ---------------------------------------------------------------------------
# table conditions per instance


def _flag_dict(rep):
    return {f"c{i}": rep.flag(i) for i in range(1, 6)}


def test_table_conditions_nomanis1():
    v, q, U = inst_nomanis1()
    rep = table_conditions(v, q, U, samples=400)
    assert _flag_dict(rep) == {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": True,
        "c5": True,
    }
    assert rep.witnesses["c1"] == ("1*X + 1", "1")
    assert rep.witnesses["c2"] == ("1*X", "0")
    assert rep.witnesses["c3"] == ("1*X", "0")


def test_table_conditions_exp1():
    v, w, q, U = inst_exp1()
    rep = table_conditions(v, q, U, samples=400)
    # the printed claim I_v < 1 is refuted by X: v(X) = 1 but w(X) = 0
    assert _flag_dict(rep) == {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": False,
        "c5": False,
    }
    assert rep.witnesses["c1"] == ("2", "1*X^2")
    assert rep.witnesses["c4"] == ("1*X",)


def test_table_conditions_exp1_swapped_roles():
    v, w, q_of_w, U = inst_exp1()
    q_of_v = from_valuation(v)
    rep = table_conditions(w, q_of_v, U, samples=400)
    assert _flag_dict(rep) == {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": True,
        "c5": False,
    }


def test_table_conditions_exp2():
    v, q, U = inst_exp2()
    rep = table_conditions(v, q, U, samples=400)
    assert _flag_dict(rep) == {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": True,
        "c5": False,
    }
    assert rep.witnesses["c3"] == ("1*Y", "0")


def test_table_conditions_remark_order():
    v, q, U = inst_remark_order()
    rep = table_conditions(v, q, U, samples=400)
    assert _flag_dict(rep) == {
        "c1": False,
        "c2": True,
        "c3": False,
        "c4": False,
        "c5": False,
    }


def test_table_conditions_compat_instance():
    v2 = padic_valuation(2, QQ)
    U = SampleUniverse(QQ, seed=42, count=250)
    rep = table_conditions(v2, from_valuation(v2), U, samples=300)
    assert all(_flag_dict(rep).values())


# ---------------------------------------------------------------------------
# the implication matrix over hand-built reports


def _flags(c1, c2, c3, c4, c5):
    return CompatReport(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)


def test_implication_table_validation():
    reports = {
        "nomanis-1": _flags(False, False, False, True, True),
        "nomanis-2": _flags(False, True, False, False, False),
        "exp1": _flags(False, False, False, False, False),
        "exp1-swapped": _flags(False, False, False, True, False),
        "exp2": _flags(False, False, False, True, False),
        "remark-391-order": _flags(False, True, False, False, False),
        "remark-391-pqo": _flags(False, True, False, False, False),
        "interp-table": _flags(False, False, True, True, True),
        "compat-v2": _flags(True, True, True, True, True),
    }
    checks, witnesses = implication_table(reports)
    assert all(c.status == PASS for c in checks), [c for c in checks if c.status != PASS]
    assert len(table_blank_cells()) == 13
    for cell in table_blank_cells():
        assert witnesses[cell], f"blank cell {cell} lacks a witness"


def test_implication_table_detects_checkmark_violation():
    reports = {"bogus": _flags(True, False, True, True, True)}
    checks, _ = implication_table(reports)
    bad = [c for c in checks if c.name == "table.1=>2"]
    assert bad[0].status == HARD


# ---------------------------------------------------------------------------
# the Manis equivalence theorem


def test_theorem_report_compatible_instance():
    v2 = padic_valuation(2, QQ)
    U = SampleUniverse(QQ, seed=42, count=250)
    results = theorem_compat_report(v2, from_valuation(v2), U, samples=300)
    assert all(r.status == PASS for r in results), [
        r for r in results if r.status != PASS
    ]


def test_theorem_report_exp1_consistent_all_false():
    v, w, q, U = inst_exp1()
    results = theorem_compat_report(v, q, U, samples=400)
    eq = [r for r in results if r.name.endswith(".equivalence")][0]
    assert eq.status == PASS


def test_theorem_report_trivial_gate():
    v, q, U = inst_remark_order()
    results = theorem_compat_report(v, q, U, samples=300)
    eq = [r for r in results if r.name.endswith(".equivalence")][0]
    assert eq.status == PASS and "trivial" in eq.detail


def test_theorem_report_requires_manis():
    v, q, U = inst_nomanis1()
    with pytest.raises(PreconditionError):
        theorem_compat_report(v, q, U)


# ---------------------------------------------------------------------------
# local criterion


def test_iv_prec_one_padic():
    v2 = frac_extend_val(padic_valuation(2, ZZ))
    U = SampleUniverse(QQ, seed=42, count=250)
    results = iv_prec_one(v2, from_valuation(v2), U, samples=300)
    assert all(r.status == PASS for r in results)


def test_iv_prec_one_leading_order():
    nu = deg_ext()
    q = leading_term_order(nu.ring)
    U = SampleUniverse(nu.ring, seed=42, count=200)
    results = iv_prec_one(nu, q, U, samples=300)
    assert all(r.status == PASS for r in results)
    both = [r for r in results if r.name.endswith(".Iv-below-1")][0]
    assert both.status == PASS


def test_iv_prec_one_incompatible_order():
    nu = deg_ext()
    K = nu.ring
    q = at_zero_order(K)
    one_over_x = K.frac(QX.one(), QX.var("X"))
    U = SampleUniverse(K, seed=42, count=200, distinguished=(one_over_x,))
    results = iv_prec_one(nu, q, U, samples=300)
    below = [r for r in results if r.name.endswith(".Iv-below-1")][0]
    compat = [r for r in results if ".compatible" in r.name][0]
    eq = [r for r in results if r.name.endswith(".equivalence")][0]
    assert below.status == FAIL and below.witness == ("(1)/(1*X)",)
    assert compat.status == FAIL
    assert eq.status == PASS  # both sides false: the biconditional holds


def test_iv_prec_one_needs_local_manis():
    v2z = padic_valuation(2, ZZ)
    U = SampleUniverse(ZZ, seed=42, count=100)
    with pytest.raises(PreconditionError):
        iv_prec_one(v2z, natural_order(ZZ), U)


# ---------------------------------------------------------------------------
# special*


def test_special_star_padic_on_z():
    v = padic_valuation(3, ZZ)
    U = SampleUniverse(ZZ, seed=42, count=250)
    results = special_star_check(v, U, samples=300)
    assert results[0].status == PASS


def test_special_star_degree_on_zx():
    v = degree_valuation(ZX)
    X = ZX.var("X")
    U = SampleUniverse(ZX, seed=42, count=250, distinguished=(X,))
    results = special_star_check(v, U, samples=200)
    assert results[0].status == PASS


def test_special_star_manis_always_passes():
    nu = deg_ext()
    U = SampleUniverse(nu.ring, seed=42, count=150)
    results = special_star_check(nu, U, samples=150)
    assert results[0].status == PASS
    v2 = padic_valuation(2, QQ)
    U2 = SampleUniverse(QQ, seed=42, count=200)
    assert special_star_check(v2, U2, samples=200)[0].status == PASS
    # nonzero support: a fraction over R/supp(v) is split by poly_pair there
    # and lifted to R by the quotient section
    for ring, ideal in (
        (ZZ, PrincipalIdeal(ZZ, 5)),
        (ZX, VariableIdeal(ZX, ["X"])),
        (QX, VariableIdeal(QX, ["X"])),
        (ZXY, VariableIdeal(ZXY, ["Y"])),
    ):
        U3 = SampleUniverse(ring, seed=42, count=60)
        (got,) = special_star_check(trivial_valuation(ring, ideal), U3, samples=60)
        assert got.status == PASS and got.samples_used > 0, (ring.name, got)


def test_special_star_search_that_runs_out_is_inconclusive():
    # the Gauss extension of v_2 to Z[X] is not Manis, so each residue is
    # hunted among sampled multipliers; the witness is the first element
    # left unrepresented, and samples_used counts every element of
    # nonnegative value, repeats included
    v = gauss_on(padic_valuation(2, ZZ), ZX, (1,))
    (got,) = special_star_check(v, SampleUniverse(ZX, seed=42, count=60), samples=100)
    assert got.status == INCONCLUSIVE and got.samples_used == 49
    assert got.detail == "no representation found within the sampled multipliers"
    assert got.witness == ("(5*X^2 + -6)/(6*X^3 + 5*X^2 + 3*X)",)


def test_special_star_manis_pair_outside_the_class_fails(monkeypatch):
    # a Manis v must represent every residue by its preimage pair; a pair
    # in another residue class is a mismatch, witnessed by (xi, a, b)
    monkeypatch.setattr(
        residues, "_representation_candidates", lambda v, num, den, mult: [(num + den, den)]
    )
    v2 = padic_valuation(2, QQ)
    (got,) = special_star_check(v2, SampleUniverse(QQ, seed=42, count=50), samples=50)
    assert got.status == FAIL and got.detail == "residue mismatch"
    assert got.witness == ("1", "2", "1") and got.samples_used == 1


# ---------------------------------------------------------------------------
# rank


def test_rank_archimedean_order_is_zero():
    q = natural_order(QQ)
    cands = [frac_extend_val(padic_valuation(p, ZZ)) for p in (2, 3, 5)]
    U = SampleUniverse(QQ, seed=42, count=250)
    n, chain, checks = rank_check(q, cands, U, samples=400)
    assert n == 0 and chain == []
    assert all(c.status == PASS for c in checks)


def test_rank_padic_is_one():
    # a second 2-adic valuation is another object, equivalent to v2: the
    # two are mutual coarsenings and count once
    v2, twin = padic_valuation(2, QQ), padic_valuation(2, QQ)
    assert twin is not v2
    v3 = padic_valuation(3, QQ)
    q = from_valuation(v2)
    U = SampleUniverse(QQ, seed=42, count=250)
    for candidates in ([v2, v3], [v2, twin, v3]):
        n, chain, checks = rank_check(q, candidates, U, samples=400)
        assert n == 1 and chain[0] is v2


def test_rank_sweeps_each_ordered_pair_once(monkeypatch):
    # rank(L, nu, w): two survivors, so two coarsening sweeps, and the
    # dedupe, the chain and the order are all read from them
    calls = []
    sweep = residues.sweep

    def counted(name, *args, **kwargs):
        if name.startswith("is_coarsening("):
            calls.append(name)
        return sweep(name, *args, **kwargs)

    monkeypatch.setattr(residues, "sweep", counted)
    report = corpus.run_instance(corpus.get_instance("rank-qx"))
    assert report["rank-qx::rank(L,nu,w,expect=2).length"].detail == "rank 2: nu < w"
    assert sorted(calls) == ["is_coarsening(nu,w)", "is_coarsening(w,nu)"]


def test_rank_composite_is_two():
    nu = deg_ext()
    w = v2_composite(nu)
    q = from_valuation(w)
    U = SampleUniverse(nu.ring, seed=42, count=200)
    n, chain, checks = rank_check(q, [nu, w], U, samples=300)
    assert n == 2
    assert chain[0] is nu and chain[1] is w
    assert all(c.status == PASS for c in checks)


def test_rank_of_leading_order_is_one():
    # no order tolerates the 2-adic refinement: the residue field of the
    # composite is F2, so only the degree valuation survives
    nu = deg_ext()
    w = v2_composite(nu)
    q = leading_term_order(nu.ring)
    U = SampleUniverse(
        nu.ring,
        seed=42,
        count=200,
        distinguished=(nu.ring.from_int(2), nu.ring.from_int(4)),
    )
    n, chain, _ = rank_check(q, [nu, w], U, samples=300)
    assert n == 1 and chain[0] is nu


# ---------------------------------------------------------------------------
# associated quasi-ordered field


def test_associated_field_of_constant_term_order():
    q = const_term_order(ZX)
    U = SampleUniverse(ZX, seed=42, count=200)
    K, ext, checks = associated_qofield(q, U, samples=300)
    assert K is QQ
    assert classify_qo(ext) == ORDER
    # residues compare by constant sign, so the extension is the rational order
    leq = natural_order(QQ)
    UQ = SampleUniverse(QQ, seed=7, count=200)
    for x, y in UQ.pairs(300, "cmp"):
        assert ext.le(x, y) == leq.le(x, y)


def test_associated_field_of_integer_order():
    q = natural_order(ZZ)
    U = SampleUniverse(ZZ, seed=42, count=200)
    K, ext, checks = associated_qofield(q, U, samples=300)
    assert K is QQ and classify_qo(ext) == ORDER


def test_convexity_lemma_sign_stability():
    # whenever I_v is convex: units never collapse onto ideal elements,
    # and adding an ideal element never flips the sign of a unit
    v2 = frac_extend_val(padic_valuation(2, ZZ))
    q = from_valuation(v2)
    U = SampleUniverse(QQ, seed=11, count=250)
    zero = QQ.zero()
    units = [x for x in U.elements() if v2(x) == (0,)]
    ideal = [c for c in U.elements() if in_iv(v2, c)]
    assert units and ideal
    for u in units[:40]:
        for c in ideal[:20]:
            assert not q.sim(u, c)
            if q.strict(zero, u):
                assert q.strict(zero, u + c)
            if q.strict(u, zero):
                assert q.strict(u + c, zero)


def test_residue_qo_agrees_with_quotient_valuation_qo():
    # the residue of a proper quasi-order is the quasi-order of the
    # quotient valuation
    nu = deg_ext()
    K = nu.ring
    w = v2_composite(nu)
    qw = from_valuation(w)
    U = SampleUniverse(K, seed=13, count=200)
    wv = quotient_val(w, nu, U)
    left = residue_qo(qw, nu)
    right = from_valuation(wv)
    RU = residue_universe(nu, U)
    for a, b in RU.pairs(400, "agree"):
        assert left.le(a, b) == right.le(a, b)


def test_associated_field_of_padic_matches_extension():
    v2z = padic_valuation(2, ZZ)
    q = from_valuation(v2z)
    U = SampleUniverse(ZZ, seed=42, count=200)
    K, ext, checks = associated_qofield(q, U, samples=300, v=v2z)
    assert K is QQ
    nu = frac_extend_val(v2z)
    direct = from_valuation(nu)
    UQ = SampleUniverse(QQ, seed=9, count=200)
    for x, y in UQ.pairs(300, "cmp"):
        assert ext.le(x, y) == direct.le(x, y)
    assert all(c.status == PASS for c in checks)
    # each sampled judgement is an entry: q's support, v's support against
    # it, compatibility on Z and on Q, then the comparison of the levels
    assert [c.name for c in checks] == [
        "qofield.support-agree",
        "qofield.samesupp",
        "compat(v_2,qo(v_2))",
        "compat(v_2~,qo(v_2)~)",
        "qofield.compat-levels-agree",
    ]


def test_associated_field_refuses_a_valuation_of_another_support():
    # -deg on Z[X] has support {0}, the constant-term order has <X>: a
    # zero support on v is checked against q's like any other
    q = const_term_order(ZX)
    U = SampleUniverse(ZX, seed=42, count=200)
    with pytest.raises(PreconditionError, match="valuation support differs") as info:
        associated_qofield(q, U, samples=300, v=degree_valuation(ZX))
    # the samesupp sweep's witness: in <X>, but not in the support {0} of v
    assert info.value.witness == ("6*X",)


def test_compat_levels_that_disagree_are_inconclusive(monkeypatch):
    # the levels' verdicts are sampled on different universes, so levels
    # that disagree are inconclusive: the agreement entry is neither a
    # failure nor exit 4, and each level's own entry keeps its verdict
    v2z = padic_valuation(2, ZZ)
    verdicts = iter([PASS, FAIL])  # on R = R/supp, then on the field Q
    compat = residues.is_compatible
    monkeypatch.setattr(
        residues, "is_compatible",
        lambda *args: replace(compat(*args), status=next(verdicts)),
    )
    _, _, checks = associated_qofield(
        from_valuation(v2z), SampleUniverse(ZZ, seed=42, count=100), samples=100, v=v2z
    )
    *_, on_r, on_k, agree = checks
    assert (on_r.status, on_k.status) == (PASS, FAIL)
    assert agree.name == "qofield.compat-levels-agree"
    assert agree.status == INCONCLUSIVE and agree.detail == "R:True K:False"
    assert Report(seed=42, checks=[agree]).exit_code() == EXIT_OK


def test_compat_levels_are_swept_once_each(monkeypatch):
    # a zero support makes R/supp the ring itself, so v_2 on Z has two
    # levels, Z and Q (reached through the p-adic uniformizer 2), each
    # swept once; v_2 on Q has one, which compares nothing and cannot pass
    swept = []
    compat = residues.is_compatible
    monkeypatch.setattr(
        residues, "is_compatible", lambda v, *a: swept.append(v.ring) or compat(v, *a)
    )
    v2z, v2q = padic_valuation(2, ZZ), padic_valuation(2, QQ)
    _, _, checks = associated_qofield(
        from_valuation(v2z), SampleUniverse(ZZ, seed=42, count=100), samples=100, v=v2z
    )
    assert swept == [ZZ, QQ]
    assert checks[-1].status == PASS and checks[-1].detail == "R:True K:True"
    swept.clear()
    _, _, checks = associated_qofield(
        from_valuation(v2q), SampleUniverse(QQ, seed=42, count=100), samples=100, v=v2q
    )
    assert swept == [QQ]
    agree = checks[-1]
    assert agree.status == INCONCLUSIVE
    assert agree.detail == "R:True (one level only, nothing compared)"


def shipped_residue_rules(monkeypatch):
    """(name, q, v, universe) behind every shipped residue rule: the table
    instances, residue-qo-v2, and residue_qo(lift, v) of the four roundtrips."""
    cases = []
    monkeypatch.setattr(
        corpus,
        "table_conditions",
        lambda v, q, U, samples, label: cases.append((label, q, v, U)),
    )
    # one CPU, so that every instance runs, and appends, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    corpus.table_reports()
    monkeypatch.undo()
    vals, qos = ({n: (x, U) for n, x, U in group} for group in corpus.shipped_objects())
    v2q, nu = vals["padic-2-Q"][0], vals["degree-extension-K"][0]
    cases.append(("residue-qo-v2", from_valuation(v2q), v2q, vals["padic-2-Q"][1]))
    for name, v in (("lift-v2-trivial", v2q), ("lift-deg-plus", nu),
                    ("lift-deg-minus", nu), ("lift-deg-v2", nu)):
        cases.append((name, qos[name][0], v, qos[name][1]))
    assert len(cases) == sum(inst.table for inst in corpus.CORPUS) + 5
    return cases


def test_residue_rule_matches_v_first_reference(monkeypatch):
    # the rule asks q first; the reference values x - y first, as the rule
    # is stated: x <= y on Rv iff v(x - y) > 0 or x <= y under q
    cases = shipped_residue_rules(monkeypatch)
    v_decided = 0
    for name, q, v, U in cases:
        ring, zero = v.ring, v.group.zero()

        def reference(px, py):
            if value_lt(zero, v(ring.el(ring.sub(px, py)))):
                return True
            return q._compare_payload(px, py)

        rule = residue_rule(q, v)
        rv = {id(x): x for x in U.elements() if value_le(zero, v(x))}
        iv = [c.payload for c in rv.values() if value_lt(zero, v(c))][:4]
        pairs = [(x, y) for x, y in U.pairs(150, "rule") if id(x) in rv and id(y) in rv]
        assert pairs, name
        for x, y in pairs:
            px, py = x.payload, y.payload
            for a, b in [(px, py)] + [(ring.add(px, c), py) for c in iv] + [
                (px, ring.add(py, c)) for c in iv
            ]:
                want = reference(a, b)
                assert rule(a, b) == want, (name, str(x), str(y))
                v_decided += want and not q._compare_payload(a, b)
    # pairs that only the v branch puts in order are met
    assert v_decided > 0

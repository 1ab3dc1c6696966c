"""The acceptance gate: one test per criterion, each printing a verdict line.

Criterion 2 carries a known-unattainable clause: the claim that every
element of the valuation ideal of the +1 Gauss twist sits strictly below
1 in the 0-twist quasi-order is refuted exactly, with witness X (value 1
under the twist, coefficient minimum 0).  That clause is asserted as
stated and marked strict-xfail; the honest computed outcome has its own
green test right below it.
"""

import hashlib
import time

import pytest

from qord.baerkrull import (
    EtaVector,
    LiftData,
    default_basis,
    lift,
    reconstruct_check,
    roundtrip_check,
)
from qord.corpus import (
    get_instance,
    implication_matrix,
    run_corpus,
    run_instance,
    shipped_objects,
)
from qord.quasiorders import (
    check_derived_lemmas,
    check_qo_axioms,
    from_valuation,
    natural_order,
    transport_qo,
)
from qord.report import PASS, Report, render_json
from qord.residues import rank_check, table_blank_cells
from qord.rings import QQ, ZeroIdeal, poly_ring
from qord.sampling import SampleUniverse
from qord.valuations import (
    check_val_axioms,
    composite_valuation,
    degree_valuation,
    frac_extend_val,
    padic_valuation,
    quotient_val,
    transport_to_residue,
    trivial_valuation,
)

QX = poly_ring(QQ, "X")


def _line(num: int, desc: str, ok: bool) -> bool:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {desc}")
    return ok


def _entry(report, name):
    e = report.find(name)
    assert e is not None, f"missing report entry {name}"
    return e


# ---------------------------------------------------------------------------


def test_criterion_1_nomanis_1():
    t0 = time.perf_counter()
    report = run_instance(get_instance("nomanis-1"))
    elapsed = time.perf_counter() - t0

    ok = _entry(report, 'nomanis-1::val_value(v,"1*X + 1","-1")').status == PASS
    ok &= _entry(report, 'nomanis-1::val_value(v,"1","0")').status == PASS
    iv = _entry(report, 'nomanis-1::convex(v,q,set="iv")')
    rv = _entry(report, 'nomanis-1::convex(v,q,set="rv")')
    ok &= iv.status == "fail" and iv.witness == ("1*X", "0")
    ok &= rv.status == "fail" and rv.witness == ("1*X", "0")
    compat = _entry(report, "nomanis-1::compat(v,q)")
    ok &= compat.status == "fail" and compat.witness == ("1*X + 1", "1")
    ok &= elapsed < 1.0
    assert _line(
        1,
        f"nomanis-1 exact values and witnesses ({elapsed:.2f}s)",
        ok,
    )


def _exp1_report():
    t0 = time.perf_counter()
    report = run_instance(get_instance("exp1"))
    return report, time.perf_counter() - t0


def test_criterion_2_exp1_values_and_witness():
    report, elapsed = _exp1_report()
    ok = all(
        _entry(report, f"exp1::{name}").status == PASS
        for name in (
            'val_value(w,"1*X^2","0")',
            'val_value(w,"2","1")',
            'val_value(v,"2","1")',
            'val_value(v,"1*X^2","2")',
        )
    )
    compat = _entry(report, "exp1::compat(v,qw)")
    ok &= compat.status == "fail" and compat.witness == ("2", "1*X^2")
    ok &= elapsed < 5.0
    assert _line(2, f"exp1 exact values and incompatibility witness ({elapsed:.2f}s)", ok)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated clause 'Iv of the +1 twist sits below 1 in the 0-twist"
        " quasi-order' is refuted exactly: X has twisted value 1 but"
        " coefficient minimum 0, so X is equivalent to 1, not below it;"
        " the sweep reports the witness"
    ),
)
def test_criterion_2_iv_below_one_as_stated():
    report, _ = _exp1_report()
    entry = _entry(report, "exp1::table_conditions(v,qw).Iv-below-1")
    assert _line(2, "exp1 Iv-below-1 passes on >= 500 samples (as stated)",
                 entry.status == PASS)


def test_criterion_2_iv_below_one_honest_outcome():
    report, _ = _exp1_report()
    entry = _entry(report, "exp1::table_conditions(v,qw).Iv-below-1")
    ok = entry.status == "fail" and entry.witness == ("1*X",)
    assert _line(2, "exp1 Iv-below-1 honestly fails with witness X", ok)


def test_criterion_3_exp2():
    t0 = time.perf_counter()
    report = run_instance(get_instance("exp2"))
    elapsed = time.perf_counter() - t0
    ok = _entry(report, 'exp2::val_value(v,"1*Y","-1")').status == PASS
    below = _entry(report, "exp2::table_conditions(v,q).Iv-below-1")
    ok &= below.status == PASS and below.samples_used >= 1
    iv = _entry(report, 'exp2::convex(v,q,set="iv")')
    ok &= iv.status == "fail" and iv.witness == ("1*Y", "0")
    ok &= elapsed < 5.0
    assert _line(3, f"exp2 value, Iv<1 sweep, convexity witness Y ({elapsed:.2f}s)", ok)


def test_criterion_4_implication_table():
    checks, witnesses, reports = implication_matrix(seed=42, samples=500)
    ok = all(c.status == PASS for c in checks)
    ok &= all(witnesses[cell] for cell in table_blank_cells())
    assert _line(
        4,
        "implication matrix reproduced: checkmarks violation-free,"
        " all 13 blank cells witnessed",
        ok,
    )


def test_criterion_5_theorem_equivalence_across_manis_instances():
    report = run_corpus()
    entries = [
        c
        for c in report.checks
        if "compat_equivalence(" in c.name and c.name.endswith(".equivalence")
    ]
    names = {c.name.split("::")[0] for c in entries}
    ok = names >= {
        "exp1",
        "exp1-swapped",
        "exp2",
        "remark-391-order",
        "remark-391-pqo",
        "compat-v2",
    }
    ok &= all(c.status == PASS for c in entries)
    assert _line(
        5,
        f"conditions (1)(2)(3) agree (and (4) when nontrivial) on"
        f" {len(entries)} Manis instances",
        ok,
    )


#: sha256 of the JSON report of the criterion-6 sweep: the shipped objects
#: on their shipped (seed-42) universes, 1000 tuples per check, so that the
#: random tuples past each forced block are pinned too.
CRITERION_6_SHA256 = "51706856e5056e4f49bdbabae2e64d8a94be846d8d0b0ca272781498908332cf"


def test_criterion_6_axiom_suites():
    t0 = time.perf_counter()
    valuations, quasiorders = shipped_objects()
    results = []
    for name, v, U in valuations:
        results += check_val_axioms(v, U, samples=1000, label=name)
    for name, q, U in quasiorders:
        results += check_qo_axioms(q, U, samples=1000, label=name)
        results += check_derived_lemmas(q, U, samples=1000, label=name)
    elapsed = time.perf_counter() - t0
    failures = [r for r in results if r.status != PASS]
    ok = not failures and elapsed < 60.0
    assert _line(
        6,
        f"{len(valuations)} valuations (V1-V4+min) and {len(quasiorders)}"
        f" quasi-orders (QR1-QR5 + 9 lemmas) at 1000 tuples, {elapsed:.1f}s",
        ok,
    ), failures[:3]
    digest = hashlib.sha256(render_json(Report(seed=42, checks=results))).hexdigest()
    assert digest == CRITERION_6_SHA256, (
        f"criterion-6 sweep hashes to {digest}, pinned {CRITERION_6_SHA256}"
    )


#: sha256 of the JSON report of the criterion-6 sweep at seed 42, 50 tuples
#: per check (the `axiom-sweep` benchmark workload).
AXIOM_SWEEP_SHA256_SEED_42 = "05d040fb76863567eaf54d71c05be3fec2db8664775285b4be10bad1370ac822"


def test_axiom_sweep_digest():
    # the path through the Gauss and extended valuations; universes are
    # rebuilt at the seed, as the benchmark does
    def reseed(U):
        return SampleUniverse(
            U.ring, seed=42, count=U.count, bounds=U.bounds, distinguished=U.distinguished
        )

    valuations, quasiorders = shipped_objects()
    valuations = [(n, v, reseed(U)) for n, v, U in valuations]
    quasiorders = [(n, q, reseed(U)) for n, q, U in quasiorders]
    for _, _, U in valuations + quasiorders:
        U.elements()
    results = []
    for name, v, U in valuations:
        results += check_val_axioms(v, U, samples=50, label=name)
    for name, q, U in quasiorders:
        results += check_qo_axioms(q, U, samples=50, label=name)
        results += check_derived_lemmas(q, U, samples=50, label=name)
    assert len(results) == 343
    assert [r.name for r in results if r.status != PASS] == []
    digest = hashlib.sha256(render_json(Report(seed=42, checks=results))).hexdigest()
    assert digest == AXIOM_SWEEP_SHA256_SEED_42, (
        f"axiom sweep at seed 42 hashes to {digest}, pinned {AXIOM_SWEEP_SHA256_SEED_42}"
    )


def _lift_instances():
    v2 = padic_valuation(2, QQ)
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    rtriv = from_valuation(
        trivial_valuation(v2.residue_ring(), ZeroIdeal(v2.residue_ring()))
    )
    ratorder = transport_qo(natural_order(QQ), nu.residue_ring())
    v2res = from_valuation(
        transport_to_residue(padic_valuation(2, QQ), nu.residue_ring())
    )
    UQ = SampleUniverse(QQ, seed=42, count=200)
    UK = SampleUniverse(nu.ring, seed=42, count=150)
    return [
        ("Q-v2-plus-trivial", LiftData(default_basis(v2), EtaVector((1,)), rtriv), UQ),
        ("K-deg-plus-order", LiftData(default_basis(nu), EtaVector((1,)), ratorder), UK),
        ("K-deg-minus-order", LiftData(default_basis(nu), EtaVector((-1,)), ratorder), UK),
        ("K-deg-plus-v2", LiftData(default_basis(nu), EtaVector((1,)), v2res), UK),
    ]


def test_criterion_7_roundtrips():
    ok = True
    for name, data, universe in _lift_instances():
        rt = roundtrip_check(data, universe, samples=500, label=name)
        ok &= all(r.status == PASS for r in rt)
        q = lift(data)
        rc = reconstruct_check(q, data.basis, universe, samples=500, label=name)
        ok &= all(r.status == PASS for r in rc)
    assert _line(
        7, "four lift instances round-trip at 500 pairs with zero disagreements", ok
    )


def test_criterion_8_composite_quotient_consistency():
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    K = nu.ring
    u2 = transport_to_residue(padic_valuation(2, QQ), nu.residue_ring())
    w = composite_valuation(nu, u2, [nu.preimage((1,))])
    UK = SampleUniverse(K, seed=42, count=200)
    wv = quotient_val(w, nu, UK)
    UR = SampleUniverse(nu.residue_ring(), seed=42, count=250)
    ok = True
    n = 0
    for xbar in UR.singles(500, "c8"):
        n += 1
        if wv(xbar) != u2(xbar):
            ok = False
            break
    ok &= n >= 500
    lifted = lift(LiftData(default_basis(nu), EtaVector((1,)), from_valuation(u2)))
    direct = from_valuation(w)
    pairs = UK.pairs(500, "c8-pairs")
    ok &= all(lifted.le(x, y) == direct.le(x, y) for x, y in pairs)
    ok &= len(pairs) >= 500
    assert _line(
        8,
        "quotient of the composite equals the 2-adic residue valuation;"
        " the proper lift equals the composite quasi-order (500 samples each)",
        ok,
    )


def test_criterion_9_rank_values():
    UQ = SampleUniverse(QQ, seed=42, count=250)
    q_order = natural_order(QQ)
    cands = [padic_valuation(p, QQ) for p in (2, 3, 5)]
    n0, chain0, checks0 = rank_check(q_order, cands, UQ, samples=500)
    ok = n0 == 0 and all(c.status == PASS for c in checks0)

    v2, v3 = cands[0], cands[1]
    n1, chain1, checks1 = rank_check(from_valuation(v2), [v2, v3], UQ, samples=500)
    ok &= n1 == 1 and chain1[0] is v2 and all(c.status == PASS for c in checks1)

    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    u2 = transport_to_residue(padic_valuation(2, QQ), nu.residue_ring())
    w = composite_valuation(nu, u2, [nu.preimage((1,))])
    lifted = lift(LiftData(default_basis(nu), EtaVector((1,)), from_valuation(u2)))
    UK = SampleUniverse(nu.ring, seed=42, count=200)
    n2, chain2, checks2 = rank_check(lifted, [nu, w], UK, samples=500)
    ok &= n2 == 2 and chain2[0] is nu and chain2[1] is w
    ok &= all(c.status == PASS for c in checks2)
    assert _line(
        9,
        "rank 0 for the archimedean order, 1 for the 2-adic quasi-order,"
        " 2 with chain degree < composite for the lifted proper quasi-order",
        ok,
    )


#: sha256 of `qord corpus run all --format json` at seeds 42 and 7.
CORPUS_JSON_SHA256_SEED_42 = "51847844a9ca7eecd2a7ef537c80eb5b953ec81a62dec6b3000a2ae45ee68384"
CORPUS_JSON_SHA256_SEED_7 = "5298a033424f9bbb6e9d3604db8e7277b6dfd279dfa3779873c8278fc49d8047"


def test_criterion_10_corpus_determinism():
    rep1 = run_corpus(seed=42)
    rep2 = run_corpus(seed=42)
    b1, b2 = render_json(rep1), render_json(rep2)
    ok = b1 == b2 and len(b1) > 0
    assert _line(10, f"full corpus twice at seed 42: byte-identical JSON ({len(b1)} bytes)", ok)
    digest = hashlib.sha256(b1).hexdigest()
    assert digest == CORPUS_JSON_SHA256_SEED_42, (
        f"corpus JSON at seed 42 hashes to {digest}, pinned "
        f"{CORPUS_JSON_SHA256_SEED_42}: the digest moves only with an audited, "
        "explained byte change (tools/pin_goldens.py, a CHANGES.md entry, a new pin)"
    )


def test_corpus_json_digest_at_a_second_seed():
    # sample streams are seeded from ring names, so a second seed guards them
    digest = hashlib.sha256(render_json(run_corpus(seed=7))).hexdigest()
    assert digest == CORPUS_JSON_SHA256_SEED_7, (
        f"corpus JSON at seed 7 hashes to {digest}, pinned "
        f"{CORPUS_JSON_SHA256_SEED_7}: the digest moves only with an audited, "
        "explained byte change (tools/pin_goldens.py, a CHANGES.md entry, a new pin)"
    )

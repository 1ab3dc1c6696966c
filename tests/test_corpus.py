import dataclasses
import gc
import hashlib

import pytest

from qord import cli, corpus
from qord.corpus import (
    CORPUS,
    corpus_exit_code,
    corpus_instances,
    diff_golden,
    get_instance,
    golden_fragment,
    implication_matrix,
    render_matrix,
    run_corpus,
    run_instance,
    shipped_objects,
    table_reports,
)
from qord.report import EXIT_PRECONDITION, PASS, CheckResult, PreconditionError, Report
from qord.residues import table_blank_cells


EXPECTED_NAMES = {
    "nomanis-1",
    "nomanis-2",
    "exp1",
    "exp1-swapped",
    "exp2",
    "remark-391-order",
    "remark-391-pqo",
    "interp-table",
    "compat-v2",
    "special-star-1",
    "special-star-2",
    "roundtrip-q-v2",
    "roundtrip-deg-plus",
    "roundtrip-deg-minus",
    "roundtrip-deg-v2",
    "quotient-consistency",
    "rank-q-order",
    "rank-q-v2",
    "rank-qx",
    "archimedean-demo",
}


def test_every_example_appears_exactly_once():
    names = [inst.name for inst in corpus_instances()]
    assert len(names) == len(set(names))
    assert set(names) == EXPECTED_NAMES


def test_every_instance_has_a_golden():
    for inst in CORPUS:
        golden = golden_fragment(inst)
        assert golden is not None, inst.name
        assert golden["version"] == 1
        assert golden["checks"]


def test_interpretation_marks():
    assert golden_fragment(get_instance("interp-table")).get("interpretation")
    assert golden_fragment(get_instance("exp1-swapped")).get("interpretation")
    assert not golden_fragment(get_instance("exp1")).get("interpretation")


def test_nomanis_1_golden_content():
    golden = golden_fragment(get_instance("nomanis-1"))["checks"]
    assert golden["compat(v,q)"]["witness"] == ["1*X + 1", "1"]
    assert golden['convex(v,q,set="iv")']["status"] == "fail"
    assert golden['convex(v,q,set="rv")']["status"] == "fail"
    assert golden["table_conditions(v,q).flags"]["detail"] == "c1=F c2=F c3=F c4=T c5=T"


def test_exp2_golden_content():
    golden = golden_fragment(get_instance("exp2"))["checks"]
    assert golden['val_value(v,"1*Y","-1")']["status"] == "pass"
    assert golden['convex(v,q,set="iv")']["witness"] == ["1*Y", "0"]
    assert golden["table_conditions(v,q).Iv-below-1"]["status"] == "pass"


def test_remark_391_order_golden_content():
    golden = golden_fragment(get_instance("remark-391-order"))["checks"]
    assert golden['convex(v,q,set="rv")']["status"] == "pass"
    assert golden['convex(v,q,set="iv")']["status"] == "fail"


def test_run_single_instance_matches_golden():
    inst = get_instance("nomanis-2")
    report = run_instance(inst)
    assert diff_golden(report, inst) == []


def test_exp1_run_has_pinned_witness():
    report = run_instance(get_instance("exp1"))
    entry = report["exp1::compat(v,qw)"]
    assert entry.status == "fail" and entry.witness == ("2", "1*X^2")


def test_run_corpus_all_matches_goldens():
    report = run_corpus()
    mismatches = [
        c
        for c in report.checks
        if c.name.endswith("::golden-match") and c.status != PASS
    ]
    assert mismatches == []
    assert corpus_exit_code(report) == 0


def test_diff_golden_reports_every_mismatch(monkeypatch):
    inst = get_instance("exp1")
    report = Report(seed=42, checks=[
        CheckResult(name="exp1::a", status="fail"),
        CheckResult(name="exp1::b", status="fail", witness=("2",)),
        CheckResult(name="exp1::c", status="pass", detail="y"),
        CheckResult(name="exp1::d", status="pass"),
    ])
    doctored = {
        "version": 0,
        "checks": {
            "a": {"status": "pass"},
            "b": {"status": "fail", "witness": ["1"]},
            "c": {"status": "pass", "detail": "x"},
            "d": {"status": "pass"},
            "gone": {"status": "pass"},
        },
    }
    monkeypatch.setattr(corpus, "golden_fragment", lambda _: doctored)
    assert diff_golden(report, inst) == [
        "exp1: golden version mismatch",
        "exp1::a: status fail != pass",
        "exp1::b: witness ['2'] != ['1']",
        "exp1::c: detail 'y' != 'x'",
        "exp1::gone: missing from report",
    ]
    monkeypatch.setattr(corpus, "golden_fragment", lambda _: None)
    assert diff_golden(report, inst) == ["exp1: golden fragment missing"]


def test_table_blank_cells_all_witnessed():
    checks, witnesses, reports = implication_matrix(samples=400)
    assert all(c.status == PASS for c in checks), [
        c for c in checks if c.status != PASS
    ]
    for cell in table_blank_cells():
        assert witnesses[cell], f"blank cell {cell} lacks a corpus witness"
    text = render_matrix(checks, witnesses, reports)
    assert "MISSING" not in text and "!!" not in text


def test_table_flags_are_seed_stable():
    # the flags are mathematical facts; forced distinguished elements make
    # their detection independent of the random tail
    from qord.corpus import table_reports

    def flags(seed):
        reports = table_reports(seed=seed, samples=300)
        return {n: [r.flag(i) for i in range(1, 6)] for n, r in reports.items()}

    assert flags(42) == flags(7)


@pytest.mark.parametrize("seed", [42, 7])
def test_table_reports_equal_full_instance_runs(seed):
    # the table runs only each instance's table_conditions check; skipping
    # the other checks must not change its flags or any of its sweeps
    reports = table_reports(seed=seed, samples=300)
    assert sorted(reports) == sorted(inst.name for inst in CORPUS if inst.table)
    for name, rep in reports.items():
        full = run_instance(get_instance(name), seed=seed, samples=300)
        flags = [c for c in full.checks if c.name.endswith(".flags")]
        assert [c.detail for c in flags] == [rep.format_flags()], name
        for c in rep.checks:
            got = full[c.name]
            assert (got.status, got.witness, got.samples_used) == (
                c.status, c.witness, c.samples_used
            ), c.name


_BROKEN_TABLE_SESSIONS = {
    "no table_conditions": "let v = padic(2) on Z\nlet q = natural_order() on Z\n"
                           "check compat(v, q)\n",
    "two table_conditions": "let v = padic(2) on Z\nlet q = natural_order() on Z\n"
                            "check table_conditions(v, q)\ncheck table_conditions(v, q)\n",
    "halting let": "let u = padic(2) on Q\nlet v = gauss(u, 1) on poly(Q, X)\n"
                   "let w = gauss(u, 0) on poly(Q, X)\nlet bad = quotient_val(w, v)\n"
                   "let q = qo(w)\ncheck table_conditions(w, q)\n",
    "check precondition": "check table_conditions(1, 2)\n",
}


@pytest.mark.parametrize("case", sorted(_BROKEN_TABLE_SESSIONS))
def test_table_instance_without_flags_is_an_error(case, monkeypatch, capsys):
    # a table instance that yields no flags would shrink the corpus that the
    # checkmark cells are validated against, so it must not be dropped
    bad = dataclasses.replace(
        get_instance("nomanis-2"), name="broken", session=_BROKEN_TABLE_SESSIONS[case]
    )
    monkeypatch.setattr(corpus, "CORPUS", CORPUS + (bad,))
    with pytest.raises(PreconditionError, match="table instance broken"):
        table_reports(samples=60)
    assert cli.main(["table", "--samples", "60"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("table error: table instance broken")


#: sha256 of the `qord table --seed 42` text.
TABLE_TEXT_SHA256_SEED_42 = "257f932ec0e07b4589f6264b2e1863a186be1c4ae983948bf80407a0aad9de3e"


def test_table_text_digest_is_pinned(capsys):
    assert cli.main(["table", "--seed", "42"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == TABLE_TEXT_SHA256_SEED_42, (
        f"`qord table --seed 42` text hashes to {digest}, pinned "
        f"{TABLE_TEXT_SHA256_SEED_42}: the digest moves only with an audited, "
        "explained byte change (a CHANGES.md entry and a new pin)"
    )


#: sha256 of the `qord table --format json --seed 42` bytes.
TABLE_JSON_SHA256_SEED_42 = "bdabd164f97b2ae64405a15d96b50d19d5dcc9ae5ca28a3a83a62e193406fe4e"


def test_table_json_digest_is_pinned(capsysbinary):
    assert cli.main(["table", "--format", "json", "--seed", "42"]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == TABLE_JSON_SHA256_SEED_42, (
        f"`qord table --format json --seed 42` hashes to {digest}, pinned "
        f"{TABLE_JSON_SHA256_SEED_42}: the digest moves only with an audited, "
        "explained byte change (a CHANGES.md entry and a new pin)"
    )


def test_shipped_objects_shape():
    valuations, quasiorders = shipped_objects()
    assert len(valuations) >= 12 and len(quasiorders) >= 12
    for name, v, U in valuations:
        assert v.ring is U.ring, name
    for name, q, U in quasiorders:
        assert q.ring is U.ring, name


def test_corpus_runs_leave_no_qord_object_to_the_cycle_collector():
    # every valuation, passage, basis and lift of a run is freed by
    # reference counting; DEBUG_SAVEALL keeps whatever the collector finds
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in ("roundtrip-deg-plus", "roundtrip-q-v2", "rank-qx"):
            run_instance(get_instance(name))
        gc.collect()
        found = sorted({type(obj).__qualname__ for obj in gc.garbage
                        if type(obj).__module__.startswith("qord")})
        assert found == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()

import json
import os
import subprocess
import sys
from pathlib import Path

from qord.cli import main
from qord.corpus import corpus_exit_code
from qord.report import (
    EXIT_FAIL,
    EXIT_HARD,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    HARD,
    CheckResult,
    Report,
)


def test_run_session_file(tmp_path, capsys):
    f = tmp_path / "session.qord"
    f.write_text("let v = padic(2) on Q\ncheck val_axioms(v) samples(count=100, seed=1)\n")
    assert main(["run", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 7 checks passed" in out


def test_run_json_format(tmp_path, capsys):
    f = tmp_path / "session.qord"
    f.write_text("let v = padic(2) on Q\ncheck val_axioms(v)\n")
    assert main(["run", str(f), "--format", "json", "--samples", "100"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1 and doc["seed"] == 42
    assert all(c["elapsed_ms"] == 0 for c in doc["checks"])


def test_run_failing_session_exits_1(tmp_path, capsys):
    f = tmp_path / "s.qord"
    f.write_text(
        'let u = trivial() on Z\n'
        "let v = gauss(u, -1) on poly(Z, X)\n"
        "let q = const_term_order() on poly(Z, X)\n"
        "check compat(v, q)\n"
    )
    assert main(["run", str(f)]) == EXIT_FAIL


def test_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.qord"
    f.write_text("let = !!\n")
    assert main(["run", str(f)]) == EXIT_USAGE
    assert main(["run", str(tmp_path / "missing.qord")]) == EXIT_USAGE


def test_undecodable_session_file_exits_2(tmp_path, capsys):
    f = tmp_path / "latin.qord"
    f.write_bytes(b"\xff\xfe let u = trivial() on Q\n")
    assert main(["run", str(f)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {f}:") and "Traceback" not in err


def test_precondition_halt_exits_3(tmp_path, capsys):
    f = tmp_path / "halt.qord"
    f.write_text(
        "let u = padic(2) on Q\n"
        "let v = gauss(u, 1) on poly(Q, X)\n"
        "let w = gauss(u, 0) on poly(Q, X)\n"
        "let bad = quotient_val(w, v)\n"
    )
    assert main(["run", str(f)]) == EXIT_PRECONDITION


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nomanis-1" in out and "archimedean-demo" in out


def test_corpus_run_single(capsys):
    assert main(["corpus", "run", "special-star-1"]) == EXIT_OK
    assert main(["corpus", "run", "no-such-instance"]) == EXIT_USAGE


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def qord(*args):
        return subprocess.run(
            [sys.executable, "-m", "qord", *args], env=env, capture_output=True, timeout=60
        ).returncode

    assert qord("corpus", "list") == EXIT_OK
    assert qord("table", "--samples", "0") == EXIT_USAGE


def test_table_command(capsys):
    assert main(["table", "--samples", "300"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "implication matrix" in out and "MISSING" not in out


def test_exit_code_mapping():
    r = Report(seed=1)
    assert r.exit_code() == EXIT_OK
    r.checks.append(CheckResult(name="x", status="fail"))
    assert r.exit_code() == EXIT_FAIL
    r.checks.append(CheckResult(name="y", status=HARD))
    assert r.exit_code() == EXIT_HARD
    r2 = Report(seed=1, halted=True)
    assert r2.exit_code() == EXIT_PRECONDITION
    # a corpus run fails on golden mismatches only, not on content failures
    content_fail, hard = r.checks
    golden_fail = CheckResult(name="exp1::golden-match", status="fail")
    cases = [
        ([content_fail], False, EXIT_OK),
        ([golden_fail], False, EXIT_FAIL),
        ([golden_fail], True, EXIT_PRECONDITION),
        ([golden_fail, hard], True, EXIT_HARD),
    ]
    for checks, halted, code in cases:
        assert corpus_exit_code(Report(seed=1, checks=checks, halted=halted)) == code


def test_non_positive_sample_counts_exit_2(tmp_path, capsys):
    f = tmp_path / "s.qord"
    f.write_text("let v = padic(2) on Q\nlet q = qo(v)\ncheck compat(v, q)\n")
    assert main(["run", str(f), "--samples", "0"]) == EXIT_USAGE
    assert main(["corpus", "run", "exp1", "--samples", "-5"]) == EXIT_USAGE
    assert main(["table", "--samples", "0"]) == EXIT_USAGE
    capsys.readouterr()
    f.write_text("let v = padic(2) on Q\nlet q = qo(v)\ncheck compat(v, q) samples(count=0)\n")
    assert main(["run", str(f)]) == EXIT_USAGE
    assert "sample count must be at least 1" in capsys.readouterr().err
    for params, message in (
        ("universe=0", "universe size must be at least 1"),
        ("universe=-3", "universe size must be at least 1"),
        ("cout=5", "unexpected keyword 'cout'"),
    ):
        f.write_text(f"let v = padic(2) on Q\nlet q = qo(v)\ncheck compat(v, q) samples({params})\n")
        assert main(["run", str(f)]) == EXIT_USAGE, params
        assert message in capsys.readouterr().err


def test_wrong_check_arity_exits_2(tmp_path, capsys):
    f = tmp_path / "s.qord"
    for check, message in (
        ("compat(v)", "compat takes 2 positional argument(s), got 1"),
        ("compat(v, q, q)", "compat takes 2 positional argument(s), got 3"),
        ("compat(v, q, bogus=1)", "compat got unexpected keyword 'bogus'"),
        ("rank()", "rank takes at least 1 positional argument(s), got 0"),
        ("roundtrip(v, eta=[1], residue=q, sign=[1])", "unexpected keyword 'sign'"),
        ("compat(q, v)", "a valuation expected, got QuasiOrder (line 3, column 14)"),
        ("val_axioms(q)", "a valuation expected, got QuasiOrder"),
        ("rank(q, q)", "a valuation expected, got QuasiOrder (line 3, column 15)"),
        ('val_value(v, 3, "1")', "an element literal expected, got int"),
        ("classify(q, expect=1)", "a string expected, got int"),
        ("unbounded_above(q, 5)", "an element literal expected, got int"),
        ('roundtrip(v, eta="x", residue=q)', "a list of integers expected, got str"),
    ):
        f.write_text(f"let v = padic(2) on Q\nlet q = qo(v)\ncheck {check}\n")
        assert main(["run", str(f)]) == EXIT_USAGE, check
        assert message in capsys.readouterr().err


def test_mismatched_let_halts_exits_3(tmp_path, capsys):
    f = tmp_path / "s.qord"
    for session in (
        # RingMismatchError: the base valuation lives on Q, the ring is Z[X]
        "let u = padic(2) on Q\nlet v = gauss(u, 1) on poly(Z, X)\n",
        # GroupMismatchError: the Gauss extension of a rank-2 composite
        "let u = trivial() on Q\n"
        "let vdeg = gauss(u, -1) on poly(Q, X)\n"
        'let nu = frac_extend(vdeg, uniformizer="1*X")\n'
        "let u2 = padic(2) on residue(nu)\n"
        "let w = composite(nu, u2)\n"
        "let g = gauss(w, 1) on poly(frac(poly(Q, X)), Y)\n",
    ):
        f.write_text(session)
        assert main(["run", str(f)]) == EXIT_PRECONDITION, session
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "execution halted" in captured.out


def test_disagreeing_sampled_verdicts_are_inconclusive(tmp_path, capsys):
    # at 20 samples compat passes while the residue rule and I_v < 1 fail
    # (a witness for v_5 against qo(v_3) lies outside the sample); such a
    # disagreement is a sampling gap, not a broken invariant, so not exit 4
    f = tmp_path / "gap.qord"
    f.write_text(
        "let v = padic(5) on Q\n"
        "let w = padic(3) on Q\n"
        "let q = qo(w)\n"
        "check compat_equivalence(v, q) samples(count=20)\n"
        "check iv_prec_one(v, q) samples(count=20)\n"
    )
    assert main(["run", str(f), "--format", "json"]) == EXIT_FAIL
    checks = json.loads(capsys.readouterr().out)["checks"]
    equivalences = [c for c in checks if c["name"].endswith(".equivalence")]
    assert [c["status"] for c in equivalences] == ["inconclusive", "inconclusive"]
    assert equivalences[1]["witness"] == ["Iv-below-1=False", "compatible=True"]
    assert main(["run", str(f)]) == EXIT_FAIL
    assert capsys.readouterr().out.count("[the sampled verdicts disagree") == 2


def test_unknown_choice_value_exits_2(tmp_path, capsys):
    f = tmp_path / "s.qord"
    for check, message in (
        ('classify(q, expect="orderr")',
         'one of "order", "proper", "proper-quasi-order" expected, got "orderr"'),
        ('convex(v, q, set="xv")', 'one of "iv", "rv" expected, got "xv" (line 3, column 24)'),
        ('convex(v, q, set="Iv")', 'one of "iv", "rv" expected, got "Iv"'),
    ):
        f.write_text(f"let v = padic(2) on Q\nlet q = qo(v)\ncheck {check}\n")
        assert main(["run", str(f)]) == EXIT_USAGE, check
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err


def test_every_accepted_choice_value_can_pass(tmp_path, capsys):
    f = tmp_path / "s.qord"
    f.write_text(
        "let v = padic(2) on Q\n"
        "let q = qo(v)\n"
        "let n = natural_order() on Q\n"
        'check classify(n, expect="order")\n'
        'check classify(q, expect="proper")\n'
        'check classify(q, expect="proper-quasi-order")\n'
        'check convex(v, q, set="iv") samples(count=50)\n'
        'check convex(v, q, set="rv") samples(count=50)\n'
    )
    assert main(["run", str(f)]) == EXIT_OK
    assert "all 5 checks passed" in capsys.readouterr().out


def test_unbounded_above_detail_only_on_a_pass(tmp_path, capsys):
    f = tmp_path / "s.qord"
    f.write_text(
        "let q = natural_order() on Q\n"
        'check unbounded_above(q, "1/2") samples(count=20)\n'
    )
    assert main(["run", str(f)]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "witness: 1" in out and "exceeds" not in out
    # the detail of a pass is kept
    f.write_text(
        "let L = leading_term_order() on frac(poly(Q, X))\n"
        'check unbounded_above(L, "(1*X)/(1)") samples(count=20)\n'
    )
    assert main(["run", str(f)]) == EXIT_OK
    assert "exceeds all sampled integers up to 10^6]" in capsys.readouterr().out

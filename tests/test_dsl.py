import random
import re
from pathlib import Path

import pytest

from qord import dsl
from qord.cli import main
from qord.corpus import CORPUS, run_instance
from qord.dsl import (
    Check,
    DslError,
    Let,
    SessionContext,
    node_text,
    parse_session,
    run_session,
    run_text,
)
from qord.report import parse_json, render_json, render_text
from qord.rings import poly_ring
from qord.sampling import SampleUniverse


def test_smallest_program_parses():
    ast = parse_session("let v = padic(2) on Q")
    assert len(ast.statements) == 1
    stmt = ast.statements[0]
    assert isinstance(stmt, Let) and stmt.name == "v"
    assert node_text(stmt.expr) == "padic(2)"


def test_gauss_binding_parses():
    ast = parse_session("let w = gauss(v, 0) on poly(Q, X)")
    stmt = ast.statements[0]
    assert node_text(stmt.expr) == "gauss(v,0)"
    assert node_text(stmt.on) == "poly(Q,X)"


def test_check_directive_parses():
    ast = parse_session("check compat(v, qo) samples(count=500, seed=7)")
    stmt = ast.statements[0]
    assert isinstance(stmt, Check)
    assert stmt.params == (("count", 500), ("seed", 7))


def test_comments_and_blank_lines():
    ast = parse_session("# nothing here\n\nlet v = padic(3) on Q  # trailing\n")
    assert len(ast.statements) == 1


def test_parser_totality_fuzz():
    rng = random.Random(1234)
    alphabet = 'abcXYZ01 ()[]",=#\n\t!$%&*'
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            parse_session(text)
        except DslError as e:
            assert e.line >= 1 and e.col >= 1
        # anything else raised would fail the test


def test_error_positions():
    with pytest.raises(DslError) as e:
        parse_session("let v = ")
    assert "line" in str(e.value)
    with pytest.raises(DslError):
        run_text("let v = frobnicate(2) on Q")
    with pytest.raises(DslError):
        run_text("let v = padic(2, 3) on Q")  # arity
    with pytest.raises(DslError):
        run_text("check compat(v, q)")  # unbound names
    with pytest.raises(DslError):
        run_text("let v = padic(2) on Q\ncheck frobnify(v)")
    with pytest.raises(DslError) as e:
        run_text("let v = padic(2) on Q\n\n\ncheck roundtrip(v, eta=[1])")  # no residue=
    assert "lift needs residue" in e.value.message
    assert (e.value.line, e.value.col) == (4, 7)


def test_empty_session():
    report = run_text("")
    assert report.checks == [] and report.exit_code() == 0


SESSION = """
let v = padic(2) on Q
let q = qo(v)
check compat(v, q) samples(count=200, seed=5)
check qo_axioms(q) samples(count=150, seed=5)
"""


def test_session_runs_green():
    report = run_text(SESSION)
    assert report.all_ok and report.exit_code() == 0
    assert report["compat(v,q)"].status == "pass"


def test_json_determinism_and_round_trip():
    r1 = run_text(SESSION)
    r2 = run_text(SESSION)
    b1, b2 = render_json(r1), render_json(r2)
    assert b1 == b2
    back = parse_json(b1)
    assert [c.name for c in back.checks] == [c.name for c in r1.checks]
    assert [c.status for c in back.checks] == [c.status for c in r1.checks]
    assert render_json(back) == b1


def test_text_rendering_summary():
    text = render_text(run_text(SESSION))
    assert "all" in text and "checks passed" in text


FAILING = """
pin "1*X + 1", "1*X" on poly(Z, X)
let u = trivial() on Z
let v = gauss(u, -1) on poly(Z, X)
let q = const_term_order() on poly(Z, X)
check compat(v, q) samples(count=300, seed=42)
"""


def test_witness_replay():
    report = run_text(FAILING)
    entry = report["compat(v,q)"]
    assert entry.status == "fail"
    ZX = poly_ring(__import__("qord.rings", fromlist=["ZZ"]).ZZ, "X")
    y = ZX.parse(entry.witness[0])
    z = ZX.parse(entry.witness[1])
    # replay the compatibility condition on the reported pair
    from qord.quasiorders import const_term_order
    from qord.valuations import gauss_on, trivial_valuation
    from qord.groups import value_le
    from qord.rings import ZZ

    v = gauss_on(trivial_valuation(ZZ), ZX, (-1,))
    q = const_term_order(ZX)
    assert q.le(ZX.zero(), y) and q.le(y, z)
    assert not value_le(v(z), v(y))  # the failure reproduces exactly


def test_val_agree_fail_carries_the_element_and_both_values():
    report = run_text("""
let v = padic(2) on Q
let w = padic(3) on Q
check val_agree(v, w)
check val_agree(w, v) samples(count=300, seed=5)
check val_agree(v, v)
""")
    got = [(c.name, c.status, c.witness, c.samples_used) for c in report.checks]
    assert got == [
        ("val_agree(v,w)", "fail", ("-2/3", "1", "-1"), 500),
        ("val_agree(w,v)", "fail", ("-3/8", "1", "-3"), 300),
        ("val_agree(v,v)", "pass", None, 500),
    ]


def test_let_precondition_failure_halts():
    text = """
let u = padic(2) on Q
let v = gauss(u, 1) on poly(Q, X)
let w = gauss(u, 0) on poly(Q, X)
let bad = quotient_val(w, v)
check val_axioms(bad)
"""
    report = run_text(text)
    assert report.halted
    assert report.exit_code() == 3
    assert report.checks[-1].name == "let bad"


def test_check_precondition_becomes_entry():
    text = """
let u = trivial() on Z
let v = gauss(u, -1) on poly(Z, X)
let q = const_term_order() on poly(Z, X)
check compat_equivalence(v, q)
"""
    report = run_text(text)
    entry = report["compat_equivalence(v,q)"]
    assert entry.status == "fail" and "precondition" in entry.detail
    assert not report.halted and report.exit_code() == 1


def test_pin_statement_orders_universe():
    ctx_text = """
pin "7/2" on Q
let v = padic(2) on Q
check val_axioms(v) samples(count=50, seed=3)
"""
    report = run_text(ctx_text)
    assert report.all_ok


def test_show_statement():
    report = run_text("let v = padic(2) on Q\nshow v")
    assert report["show(v)"].status == "pass"


def test_type_confused_check_is_a_session_error():
    with pytest.raises(DslError, match="a valuation expected, got QuasiOrder") as e:
        run_text(
            "let v = padic(2) on Q\nlet q = qo(v)\ncheck rank(q, q) samples(count=50, seed=1)"
        )
    assert (e.value.line, e.value.col) == (3, 15)


def test_wrong_ring_element_literal_in_check_is_a_session_error():
    with pytest.raises(DslError, match="bad element literal '1\\*X' for Q") as e:
        run_text('let v = padic(2) on Q\ncheck val_value(v, "1*X", "0")')
    assert (e.value.line, e.value.col) == (2, 20)


def test_session_shares_one_universe_per_ring_seed_size_and_pins(monkeypatch):
    seen = []
    universe = SessionContext.universe

    def recording(ctx, ring, seed, count):
        seen.append(universe(ctx, ring, seed, count))
        return seen[-1]

    monkeypatch.setattr(SessionContext, "universe", recording)
    report = run_text(
        """
let v = padic(2) on Z
let q = natural_order() on Z
check compat(v, q)
check convex(v, q, set="rv")
pin "3" on Z
check compat(v, q)
check convex(v, q, set="rv")
check compat(v, q) samples(seed=7)
check compat(v, q) samples(universe=60)
""",
        samples=60,
    )
    assert len(report.checks) == 6 and len(seen) == 6
    assert seen[0] is seen[1]
    assert seen[2] is seen[3]
    assert len({id(u) for u in seen}) == 4  # the pin, the seed and the size
    assert [u.distinguished for u in seen[:3]] == [(), (), (seen[2].ring.parse("3"),)]


def test_pins_stay_on_their_ring_when_a_name_is_rebound():
    # both residue rings are named Rv(v); the F_3 pin must not reach F_2
    report = run_text(
        """
let v = padic(3) on Q
pin "2" on residue(v)
let v = padic(2) on Q
let t = trivial() on residue(v)
check val_axioms(t) samples(count=20, seed=42)
"""
    )
    assert len(report.checks) == 7
    assert [c.status for c in report.checks] == ["pass"] * 7, render_text(report)


def test_a_second_let_of_one_object_is_an_alias():
    # frac_extend is memoized per valuation and frac_extend_qo on a field
    # returns its argument, so these lets bind objects that are already bound
    ctx = SessionContext()
    for stmt in parse_session(
        """
let v = padic(2) on Z
let a = frac_extend(v)
let b = frac_extend(v)
let w = v
let q = natural_order() on Q
let q2 = frac_extend_qo(q)
"""
    ).statements:
        assert dsl.execute_statement(ctx, stmt, "") is None
    env = ctx.env
    assert env["a"] is env["b"] and env["w"] is env["v"] and env["q2"] is env["q"]
    assert env["a"].name == "a"
    assert env["a"].residue_ring().name == "Rv(a)"
    assert env["v"].name == "v"
    assert env["q"].name == "q"


def test_shared_universes_keep_corpus_bytes(monkeypatch):
    shared = [render_json(run_instance(inst, samples=60)) for inst in CORPUS]

    def fresh(ctx, ring, seed, count):
        return SampleUniverse(
            ring, seed=seed, count=count, distinguished=tuple(ctx.pins.get(ring, ()))
        )

    monkeypatch.setattr(SessionContext, "universe", fresh)
    for inst, expected in zip(CORPUS, shared):
        assert render_json(run_instance(inst, samples=60)) == expected, inst.name


_FUZZ_PRELUDE = """
let ZX = poly(Z, X)
let QX = poly(Q, X)
let K = frac(poly(Q, X))
let vz = padic(2) on Z
let vq = padic(3) on Q
let t = trivial() on Z
let vzx = gauss(t, -1) on ZX
let u = padic(2) on Q
let vqx = gauss(u, 1) on QX
let tq = trivial() on Q
let vdeg = gauss(tq, -1) on QX
let nu = frac_extend(vdeg, uniformizer="1*X")
let qz = natural_order() on Z
let qq = qo(vq)
let qzx = const_term_order() on ZX
let qqx = qo(vqx)
let qk = leading_term_order() on K
let rq = natural_order() on residue(nu)
"""

_FUZZ_POOL = {
    dsl.RING: ["Z", "Q", "ZX", "QX", "K", "residue(nu)"],
    dsl.IDEAL: ["zero()", "principal(2)", "vars(X)"],
    dsl.VAL: ["vz", "vq", "vzx", "vqx", "nu", "padic(5)"],
    dsl.QO: ["qz", "qq", "qzx", "qqx", "qk", "rq"],
    dsl.INT: ["-1", "0", "1", "2", "3"],
    dsl.STR: ['"iv"', '"rv"', '"order"', '"proper"', '"inf"', '"1"'],
    dsl.NAME: ["X", "Y"],
    dsl.ELEM: ['"0"', '"1"', '"1/2"', '"1*X + 1"', '"(1*X)/(1)"'],
    dsl.INTS: ["[1]", "[-1]", "[1, -1]"],
    dsl.ELEMS: ['["2"]', '["1*X"]'],
}


def _fuzz_call(rng, name, signature):
    """A call whose arguments are drawn by kind; about one in ten is drawn
    from a wrong kind."""

    def draw(kind):
        if rng.random() < 0.1:
            kind = rng.choice(sorted(_FUZZ_POOL))
        return rng.choice(_FUZZ_POOL[kind])

    kinds = list(signature.args)
    if signature.rest is not None:
        extra = rng.randrange(3)
        if signature.most is not None:
            extra = min(extra, signature.most - len(kinds))
        kinds += [signature.rest] * extra
    parts = [draw(kind) for kind in kinds]
    parts += [f"{k}={draw(kind)}" for k, kind in signature.kw if rng.random() < 0.7]
    return f"{name}({', '.join(parts)})"


def _fuzz_session(rng):
    lines = [_FUZZ_PRELUDE]
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            name = rng.choice(sorted(dsl.CONSTRUCTORS))
            on = rng.choice(_FUZZ_POOL[dsl.RING] + [None])
            call = _fuzz_call(rng, name, dsl.CONSTRUCTORS[name][1])
            lines.append(f"let x{i} = {call}" + (f" on {on}" if on else ""))
        else:
            name = rng.choice(sorted(dsl.CHECKS))
            lines.append(f"check {_fuzz_call(rng, name, dsl.CHECKS[name][1])} samples(count=20)")
    return "\n".join(lines) + "\n"


def test_session_fuzz(tmp_path, capsys):
    # a wrongly typed argument is a DslError, a domain error is a report
    # entry, and nothing else escapes or is reported as a content failure
    rng = random.Random(2024)
    f = tmp_path / "s.qord"
    for i in range(300):
        text = _fuzz_session(rng)
        try:
            report = run_session(parse_session(text), samples=20)
        except DslError:
            pass
        else:
            for c in report.checks:
                assert "object has no attribute" not in (c.detail or ""), text
        if i % 15 == 0:
            f.write_text(text)
            assert main(["run", str(f), "--samples", "20"]) in (0, 1, 2, 3, 4), text
            capsys.readouterr()


def test_readme_lists_every_constructor_and_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    grammar = readme[readme.index("\nRings:"):]
    constructors_text, _, checks_text = grammar.partition("\nChecks:")
    checks_text = checks_text.split("\n\n")[0]
    spans = lambda text: re.findall(r"`([^`]*)`", text)
    constructors = {name for s in spans(constructors_text) for name in re.findall(r"(\w+)\(", s)}
    checks = {re.match(r"\w+", s).group() for s in spans(checks_text)}
    assert constructors == set(dsl.CONSTRUCTORS)
    assert checks == set(dsl.CHECKS)

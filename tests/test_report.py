import ast
import operator
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import qord
from qord.report import FAIL, HARD, INCONCLUSIVE, PASS, once, result, sweep, witnessed
from qord.rings import ZZ
from qord.sampling import FIRST_CHUNK, SampleUniverse, _stable_int, payload_drawer


def test_sweep_witness_is_first_failure_and_stops_there():
    tuples = [(1, 2), (3, 4), (5, 6), (7, 8)]
    seen = []

    def fails(x, y):
        seen.append((x, y))
        return x > 2

    r = sweep("s", tuples, fails)
    assert r.status == FAIL and r.name == "s"
    assert r.witness == ("3", "4")
    assert seen == [(1, 2), (3, 4)]
    assert r.samples_used == len(tuples)


def test_sweep_pass_has_no_witness_and_counts_every_tuple():
    r = sweep("s", [(1,), (2,), (3,)], lambda x: False)
    assert r.status == PASS and r.witness is None
    assert r.samples_used == 3


def test_sweep_given_counts_hypothesis_hits_up_to_the_witness():
    tuples = [(x,) for x in range(10)]
    seen = []

    def fails(x):
        seen.append(x)
        return x == 6

    r = sweep("s", tuples, fails, given=lambda x: x % 2 == 0)
    assert r.status == FAIL and r.witness == ("6",)
    assert seen == [0, 2, 4, 6]  # fails never runs off the hypothesis
    assert r.samples_used == 4

    r = sweep("s", tuples, lambda x: False, given=lambda x: x % 2 == 0)
    assert r.status == PASS and r.samples_used == 5


def test_result_drops_the_witness_on_a_pass():
    assert result("r", True, ("x",), 1).witness is None
    r = result("r", False, ("x",), 1, detail="why")
    assert r.status == FAIL and r.witness == ("x",) and r.detail == "why"


@pytest.mark.parametrize("otherwise", [FAIL, INCONCLUSIVE, HARD])
def test_result_names_the_outcome_of_a_claim_that_did_not_hold(otherwise):
    held = result("r", True, ("x",), 3, "d", otherwise=otherwise)
    assert (held.status, held.witness, held.samples_used, held.detail) == (PASS, None, 3, "d")
    broke = result("r", False, ("x", 2), 3, "d", otherwise=otherwise)
    assert (broke.status, broke.witness, broke.samples_used) == (otherwise, ("x", "2"), 3)


def test_witnessed_passes_with_the_instances_found_and_fails_on_none():
    r = witnessed("e", ["a", "b"], 5, "found")
    assert (r.status, r.witness, r.samples_used, r.detail) == (PASS, ("a", "b"), 5, "found")
    r = witnessed("e", [], 5)
    assert (r.status, r.witness) == (FAIL, None)


def test_only_report_builds_a_check_result():
    # every entry goes through the helpers of qord.report, so a field that
    # every entry needs is added in that one module
    builders = []
    for path in sorted(Path(qord.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if "CheckResult" in (getattr(f, "id", None), getattr(f, "attr", None)):
                    builders.append(f"{path.name}:{node.lineno}")
    assert builders == []


#: top-level names that nothing in the package calls, each with its reason
ENTRY_POINTS = {
    "run_text": "runs a session from text: the DSL's entry for scripts and tests",
    "parse_json": "reads a rendered JSON report back",
    "shipped_objects": "the corpus's named valuations and quasi-orders, for exploration",
    "bk3_lift": "the ring-level lift through the fraction field; no DSL check yet",
    "mu_restrict": "restricts a lifted quasi-order to the ring; no DSL check yet",
    "associated_qofield": "quotient by the support, then extend; no DSL check yet",
}


def _references(tree) -> Counter:
    """How often each name is read in tree, as a Name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_top_level_name_is_used_in_the_package():
    # a function or class that no other code of qord reaches is dead or an
    # entry point; imports, its own definition and __init__.py do not count
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(qord.__file__).parent.glob("*.py"))
    }
    used = sum((_references(tree) for name, tree in trees.items()
                if name != "__init__.py"), Counter())
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ENTRY_POINTS
        and used[node.name] == _references(node)[node.name]
    ]
    assert unused == []


def _brute_sweep(tuples, fails, given=None):
    """(witness, samples_used) of the plain loop that evaluates every tuple."""
    hits = 0
    for t in tuples:
        if given is None or given(*t):
            hits += 1
            if fails(*t):
                return t, len(tuples) if given is None else hits
    return None, hits


def test_sweep_evaluates_each_distinct_tuple_once():
    xs = [Fraction(k) for k in range(4)]
    twin = Fraction(3)  # equal to xs[3] but another object, so not a repeat
    xs.append(twin)
    rng = random.Random(5)
    tuples = [(rng.choice(xs), rng.choice(xs)) for _ in range(60)]

    def is_witness(x, y):
        return x is xs[1] and y is twin

    def given(x, y):
        return x != 2

    def keys(part):
        return [tuple(map(id, t)) for t in part]

    cut = keys(tuples).index((id(xs[1]), id(twin)))
    before, after = keys(tuples[:cut]), keys(tuples[cut + 1:])
    assert len(set(before)) < len(before) and len(set(after)) < len(after)
    assert set(before) & set(after)  # repeats on both sides of the witness

    for g in (None, given):
        calls = Counter()

        def fails(x, y):
            calls[id(x), id(y)] += 1
            return is_witness(x, y)

        r = sweep("s", tuples, fails, given=g)
        witness, n = _brute_sweep(tuples, is_witness, g)
        assert witness is tuples[cut]
        assert r.status == FAIL and r.witness == (str(xs[1]), str(twin))
        assert r.samples_used == n
        assert set(calls.values()) == {1}
        assert set(calls) == {k for k, t in zip(keys(tuples), tuples[: cut + 1])
                              if g is None or g(*t)}

        r = sweep("s", tuples, lambda x, y: False, given=g)
        assert r.status == PASS
        assert r.samples_used == _brute_sweep(tuples, lambda x, y: False, g)[1]


def _planned_pair_lists():
    """Functions that each plan one sampled pair list afresh, undrawn."""
    from qord.rings import poly_ring
    from qord.valuations import padic_valuation

    residue = SampleUniverse(padic_valuation(2, ZZ).residue_ring(), seed=42, count=250)
    yield lambda: residue.pairs(300, "plan")
    zx = SampleUniverse(poly_ring(ZZ, "X"), seed=42, count=60)
    yield lambda: zx.pairs(500, "plan")


def _drawn(plan) -> int:
    """How many of the plan's tuples have been drawn."""
    return len(plan._keys)


def test_planned_sweep_matches_the_plain_loop():
    def given(x, y):
        return str(x) <= str(y)

    def keys(t):
        return tuple(map(id, t))

    for plan in _planned_pair_lists():
        pairs = list(plan())
        assert len(set(map(keys, pairs))) < len(pairs)  # repeated tuples
        for tuples in (plan, pairs, [(y, x) for x, y in pairs]):
            listed = pairs if tuples is plan else tuples
            for g in (None, given):
                firsts = list({keys(t): t for t in listed if g is None or g(*t)}.values())
                assert len(firsts) >= 3
                position = {}  # key -> position of its first occurrence
                for i, t in enumerate(listed):
                    position.setdefault(keys(t), i)
                # the first distinct tuple that only a later chunk draws
                later = [i for i, t in enumerate(firsts) if position[keys(t)] >= FIRST_CHUNK]
                for cut in (None, 0, *later[:1], len(firsts) // 2, len(firsts) - 1):
                    target = None if cut is None else firsts[cut]
                    seen = []

                    def is_witness(x, y):
                        return target is not None and x is target[0] and y is target[1]

                    def fails(x, y):
                        seen.append((x, y))
                        return is_witness(x, y)

                    swept = plan() if tuples is plan else tuples
                    r = sweep("s", swept, fails, given=g)
                    witness, n = _brute_sweep(listed, is_witness, g)
                    assert (r.status == PASS) == (witness is None)
                    assert r.samples_used == n
                    if witness is not None:
                        assert r.witness == tuple(map(str, witness))
                        assert seen[-1][0] is witness[0] and seen[-1][1] is witness[1]
                    # fails runs once per distinct tuple it reaches, in order
                    reached = firsts if cut is None else firsts[: cut + 1]
                    assert list(map(keys, seen)) == list(map(keys, reached))
                    if swept is not tuples and g is None and witness is not None:
                        # drawn up to the chunk that holds the witness
                        p = position[keys(witness)]
                        assert p < _drawn(swept) <= max(FIRST_CHUNK, 2 * (p + 1))


def test_forced_prefix_refutation_draws_only_its_first_chunk():
    universe = SampleUniverse(ZZ, seed=42, count=150, distinguished=(ZZ.from_int(2),))
    two, zero = universe.elements()[0], universe.elements()[1]
    plan = universe.pairs(500, "refute")
    seen = []

    def fails(x, y):
        seen.append((x, y))
        return x is two and y is zero

    r = sweep("s", plan, fails)
    assert r.status == FAIL and r.witness == ("2", "0") and r.samples_used == 500
    assert len(seen) == 2  # (2, 2), then (2, 0)
    assert _drawn(plan) <= FIRST_CHUNK
    assert r == sweep("s", list(universe.pairs(500, "refute")), fails)


def test_saturated_sweep_stops_drawing_once_every_tuple_is_seen():
    from qord.valuations import padic_valuation

    # Rv(v_2 on Z) is F_2: its 250 draws are 2 distinct elements, so a pair
    # list of any length holds at most 4 distinct pairs
    universe = SampleUniverse(padic_valuation(2, ZZ).residue_ring(), seed=42, count=250)
    assert len(set(map(id, universe.elements()))) == 2
    for n in (FIRST_CHUNK + 1, 500):
        plan = universe.pairs(n, "saturate")
        seen = []
        r = sweep("s", plan, lambda x, y: seen.append((x, y)))
        assert r.status == PASS and r.samples_used == n
        assert len(seen) == len(set(seen)) == 4
        assert _drawn(plan) == FIRST_CHUNK
        # a later read draws the rest, from where the sweep stopped
        assert plan == list(universe.pairs(n, "saturate"))
        assert _drawn(plan) == len(plan) == n


def test_universe_elements_share_one_object_per_payload():
    u = SampleUniverse(ZZ, seed=42, count=150, distinguished=(ZZ.from_int(2),))
    elems = u.elements()
    by_payload = {}
    for x in elems:
        assert by_payload.setdefault(x.payload, x) is x
    # the draws and their order are those of the generator
    rng = random.Random(u.seed ^ _stable_int(ZZ.name))
    draw = payload_drawer(ZZ, u.bounds, rng)
    drawn = [draw() for _ in range(u.count)]
    assert [x.payload for x in elems] == [2, 0, 1, -1] + drawn
    assert u.forced_size == 4


def test_once_forms_each_operand_pair_once():
    calls = []

    def op(x, y):
        calls.append((x, y))
        return x + y

    f = once(op)
    a, b = ZZ.from_int(2), ZZ.from_int(3)
    first = f(a, b)
    assert f(a, b) is first and f(b, a) == first
    assert calls == [(a, b), (b, a)]


def test_once_cannot_alias_a_reused_id():
    # transient operands: without the table keeping them alive, a later
    # operand would take a dead one's id and get its stale sum
    f = once(operator.add)
    one = ZZ.one()
    got = [f(ZZ.from_int(i), one).payload for i in range(2000)]
    assert got == [i + 1 for i in range(2000)]

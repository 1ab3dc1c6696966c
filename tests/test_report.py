from qord.report import FAIL, PASS, result, sweep


def test_sweep_witness_is_first_failure_and_stops_there():
    tuples = [(1, 2), (3, 4), (5, 6), (7, 8)]
    seen = []

    def fails(x, y):
        seen.append((x, y))
        return x > 2

    r = sweep("s", tuples, fails, seed=9)
    assert r.status == FAIL and r.name == "s" and r.seed == 9
    assert r.witness == ("3", "4")
    assert seen == [(1, 2), (3, 4)]
    assert r.samples_used == len(tuples)


def test_sweep_pass_has_no_witness_and_counts_every_tuple():
    r = sweep("s", [(1,), (2,), (3,)], lambda x: False, seed=0)
    assert r.status == PASS and r.witness is None
    assert r.samples_used == 3


def test_sweep_given_counts_hypothesis_hits_up_to_the_witness():
    tuples = [(x,) for x in range(10)]
    seen = []

    def fails(x):
        seen.append(x)
        return x == 6

    r = sweep("s", tuples, fails, seed=0, given=lambda x: x % 2 == 0)
    assert r.status == FAIL and r.witness == ("6",)
    assert seen == [0, 2, 4, 6]  # fails never runs off the hypothesis
    assert r.samples_used == 4

    r = sweep("s", tuples, lambda x: False, seed=0, given=lambda x: x % 2 == 0)
    assert r.status == PASS and r.samples_used == 5


def test_result_drops_the_witness_on_a_pass():
    assert result("r", True, ("x",), 1, 0).witness is None
    r = result("r", False, ("x",), 1, 0, detail="why")
    assert r.status == FAIL and r.witness == ("x",) and r.detail == "why"

"""Deterministic work counters of a seed-42 corpus run, each pinned with an
upper bound: a change that makes the sweeps do more work fails here, with
none of the noise of wall time.

The bounds are the counts at the time they were pinned.  A change that
lowers a count lowers its bound, and says so in CHANGES.md.
"""

from collections import Counter

from qord import rings
from qord.corpus import CORPUS, run_instance
from qord.quasiorders import QuasiOrder
from qord.sampling import SampledTuples

BOUNDS = {
    "QuasiOrder.le calls": 239_791,
    "comparator calls on le memo misses": 66_846,
    "sweep predicate evaluations in SampledTuples.first": 111_711,
    "rings._uni_prem calls": 2_345,
    "tuples drawn by SampledTuples plans": 85_134,
}


def test_seed_42_corpus_work_stays_within_its_pins(monkeypatch):
    counts = Counter()
    le, first, prem = QuasiOrder.le, SampledTuples.first, rings._uni_prem
    draw = SampledTuples._draw

    def counted_le(self, x, y):
        memo = self._memo
        size = len(memo)
        out = le(self, x, y)
        counts["QuasiOrder.le calls"] += 1
        counts["comparator calls on le memo misses"] += len(memo) - size
        return out

    def counted_first(self, pred):
        def counted_pred(*t):
            counts["sweep predicate evaluations in SampledTuples.first"] += 1
            return pred(*t)

        return first(self, counted_pred)

    def counted_prem(a, b):
        counts["rings._uni_prem calls"] += 1
        return prem(a, b)

    def counted_draw(self):
        drawn = len(self._keys)
        more = draw(self)
        counts["tuples drawn by SampledTuples plans"] += len(self._keys) - drawn
        return more

    monkeypatch.setattr(QuasiOrder, "le", counted_le)
    monkeypatch.setattr(SampledTuples, "first", counted_first)
    monkeypatch.setattr(rings, "_uni_prem", counted_prem)
    monkeypatch.setattr(SampledTuples, "_draw", counted_draw)
    # in this process, so that the counting wrappers see all of the work
    for inst in CORPUS:
        run_instance(inst, seed=42)
    over = {name: (counts[name], bound) for name, bound in BOUNDS.items()
            if counts[name] > bound}
    assert over == {}, f"counts above their pins (count, bound): {over}"
    assert all(counts[name] > 0 for name in BOUNDS), counts

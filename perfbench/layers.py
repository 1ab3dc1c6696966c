"""Per-layer metrics of one traced pass.

A ``Tracer`` runs the workload's calls under cProfile and aggregates the
profile by qord module (the layers) and by function: call counts, self
time and the cumulative time of public calls.  It also wraps two public
calls from outside: ``SampleUniverse.tuples``, to count the tuples drawn
and how many were distinct, and ``corpus.run_instance``, to time each
corpus instance; and it keeps every valuation and quasi-order built, so
that memo misses are counted as the growth of their memos.  Build the
Tracer before the inputs, so that it sees the objects set-up builds.
After the pass, ``ring_probes`` times ring arithmetic on seeded operand
pairs from the workload's universes and checks every result.

The private names read here (ring kinds, ``_uni_gcd``, ``_eval_memo``,
the ``_memo`` dicts) count as 0 when a later version of qord renames or
removes them, so the trace keeps running and the change shows in the
numbers.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path

RING_KINDS = (
    "IntegerRing",
    "RationalField",
    "PolynomialRing",
    "RationalFunctionField",
    "QuotientRing",
    "IntegerModRing",
    "ResidueDomainRing",
)
RING_OPS = ("add", "mul", "eq", "canon")
#: microbenchmark ring -> shipped object whose universe supplies the operands
PROBE_RINGS = {
    "Z": "natural-Z",
    "Q": "natural-Q",
    "QX": "qo-gauss-zero",
    "ZXY": "const-term-ZXY",
    "K": "leading-term-K",
    "resK": "transported-v2-residue",
}
PROBE_PAIRS = 300
PROBE_REPEATS = 3


def _key(fn):
    """cProfile's key for a Python function, or None."""
    code = getattr(fn, "__code__", None)
    return code and (code.co_filename, code.co_firstlineno, code.co_name)


class Timer:
    """Context manager timing the workload's calls with perf_counter."""

    t0 = t1 = elapsed = 0.0

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.elapsed = self.t1 - self.t0


class Tracer(Timer):
    """A Timer that also profiles, with the counting hooks installed."""

    def __init__(self):
        from qord import corpus, quasiorders, rings, sampling, valuations

        self.profile = cProfile.Profile()
        self.draws = []
        self.instance_s = defaultdict(float)
        self.memo_owners = {quasiorders.QuasiOrder: [], valuations.Valuation: []}
        for cls, owners in self.memo_owners.items():
            cls.__init__ = _recording(cls.__init__, owners)
        # each ring kind gets its own copy of add/mul/eq/canon, renamed so
        # that cProfile counts inherited methods per kind
        self.ring_ops = {}
        for kind in RING_KINDS:
            cls = getattr(rings, kind, None) or getattr(valuations, kind, None)
            for op in RING_OPS:
                fn = getattr(cls, op, None)
                if isinstance(fn, types.FunctionType):
                    code = fn.__code__.replace(co_name=f"{kind}.{op}")
                    clone = types.FunctionType(
                        code, fn.__globals__, code.co_name, fn.__defaults__, fn.__closure__
                    )
                    setattr(cls, op, clone)
                    self.ring_ops[kind, op] = clone

        self.tuples = tuples = sampling.SampleUniverse.tuples

        def counted_tuples(universe, *args, **kwargs):
            out = tuples(universe, *args, **kwargs)
            self.draws.append(out)
            return out

        sampling.SampleUniverse.tuples = counted_tuples

        run_instance = corpus.run_instance

        def timed_run_instance(inst, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_instance(inst, *args, **kwargs)
            finally:
                self.instance_s[inst.name] += time.perf_counter() - t0

        corpus.run_instance = timed_run_instance

    def _memo_sizes(self):
        return {
            cls: sum(len(getattr(obj, "_memo", ())) for obj in owners)
            for cls, owners in self.memo_owners.items()
        }

    def __enter__(self):
        self.draws.clear()
        self.instance_s.clear()
        self._memo_base = self._memo_sizes()
        self.profile.enable()
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.profile.disable()

    # ------------------------------------------------------------------
    def metrics(self):
        """(per-layer metrics, workload-scoped timers) of the traced pass."""
        import qord
        from qord import baerkrull, corpus, groups, quasiorders, residues, rings
        from qord import sampling, valuations

        stats = pstats.Stats(self.profile).stats
        src = Path(qord.__file__).resolve().parent
        self_s = defaultdict(float)
        fraction_allocs = 0
        for (filename, _, name), (_, nc, tt, _, _) in stats.items():
            path = Path(filename)
            if path.parent == src:
                self_s[path.stem] += tt
            elif path.name == "fractions.py":
                self_s["fractions"] += tt
                fraction_allocs += nc if name == "__new__" else 0

        def calls(fn):
            key = _key(fn)
            return stats[key][1] if key in stats else 0

        def cum_s(fn):
            key = _key(fn)
            return stats[key][3] if key in stats else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        sizes = self._memo_sizes()
        misses = {cls: sizes[cls] - self._memo_base[cls] for cls in sizes}

        out = {}
        for kind in RING_KINDS:
            for op in RING_OPS:
                out[f"rings.{kind}.{op}.calls"] = calls(self.ring_ops.get((kind, op)))
        out["rings.fraction_allocs"] = fraction_allocs
        out["rings.normalize.calls"] = calls(getattr(rings, "_uni_gcd", None))
        out["rings.self_s"] = self_s["rings"] + self_s["fractions"]

        le = quasiorders.QuasiOrder.le
        out["quasiorders.le.calls"] = calls(le)
        out["quasiorders.compare.calls"] = misses[quasiorders.QuasiOrder]
        out["quasiorders.memo_hit_ratio"] = 1 - ratio(
            out["quasiorders.compare.calls"], out["quasiorders.le.calls"]
        )
        out["quasiorders.self_s"] = self_s["quasiorders"]
        out["quasiorders.check_qo_axioms_s"] = cum_s(quasiorders.check_qo_axioms)
        out["quasiorders.check_derived_lemmas_s"] = cum_s(quasiorders.check_derived_lemmas)

        ev = getattr(valuations.Valuation, "_eval_memo", None)
        out["valuations.eval.calls"] = calls(ev)
        out["valuations.memo_hit_ratio"] = 1 - ratio(
            misses[valuations.Valuation], calls(ev)
        )
        out["valuations.self_s"] = self_s["valuations"]
        out["valuations.check_val_axioms_s"] = cum_s(valuations.check_val_axioms)

        drawn = sum(len(d) for d in self.draws)
        out["sampling.elements_s"] = cum_s(sampling.SampleUniverse.elements)
        out["sampling.tuples_s"] = cum_s(self.tuples)
        out["sampling.tuples_drawn"] = drawn
        out["sampling.distinct_ratio"] = ratio(sum(map(_distinct, self.draws)), drawn)

        out["groups.value_cmp.calls"] = calls(groups.value_cmp)
        out["groups.self_s"] = self_s["groups"]
        out["residues.self_s"] = self_s["residues"]

        scoped = {
            "residues.table_conditions_s": cum_s(residues.table_conditions),
            "residues.compat_s": cum_s(residues.is_compatible),
            "baerkrull.roundtrip_check_s": cum_s(baerkrull.roundtrip_check),
            "baerkrull.reconstruct_check_s": cum_s(baerkrull.reconstruct_check),
            "corpus.golden_diff_ms": cum_s(corpus.diff_golden) * 1e3,
        }
        for name, seconds in sorted(self.instance_s.items()):
            scoped[f"corpus.{name}.wall_s"] = seconds
        return out, scoped


def _recording(init, owners):
    def __init__(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        owners.append(obj)

    return __init__


def _distinct(draw) -> int:
    try:
        return len({tuple(x.payload for x in t) for t in draw})
    except TypeError:  # an unhashable payload: fall back to the printed form
        return len({tuple(str(x) for x in t) for t in draw})


# ---------------------------------------------------------------------------
# untraced probes, run after the pass


def render_json_ms(report) -> float:
    """Median time to render the pass's verdicts as a JSON report."""
    from qord.report import render_json

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        render_json(report)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _check_ring_results(ring, op, pairs, results) -> int:
    """Failed checks among the timed results of one op."""

    def reparses(p):
        return ring.eq(ring.parse(ring.format(p)).payload, p)

    failed = 0
    for (a, b), r in zip(pairs, results):
        if op == "add":
            ok = ring.eq(ring.sub(r, b), a) and reparses(r)
        elif op == "mul":
            ok = ring.eq(r, ring.mul(b, a)) and reparses(r)
        else:
            ok = r == ring.eq(b, a) and reparses(a)
        failed += not ok
    return failed


def ring_probes(universes):
    """µs per add/mul/eq on seeded pairs, with (attempted, failed) checks.

    ``universes`` maps each PROBE_RINGS label to a sample universe.
    """
    out = {}
    attempted = failed = 0
    for label, universe in universes.items():
        ring = universe.ring
        pairs = [
            (a.payload, b.payload)
            for a, b in universe.pairs(PROBE_PAIRS, "perfbench-ring-probe")
        ]
        for op in ("add", "mul", "eq"):
            fn = getattr(ring, op)
            per_op = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                results = [fn(a, b) for a, b in pairs]
                per_op.append((time.perf_counter() - t0) / len(pairs) * 1e6)
                attempted += len(pairs)
                failed += _check_ring_results(ring, op, pairs, results)
            out[f"rings.{label}.{op}_us"] = statistics.median(per_op)
    return out, attempted, failed

"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SAMPLES [--trace | --setup-only]

SAMPLES is the number of tuples per check in the axiom sweep.

The process sets up (imports qord from ``src`` and builds the inputs),
runs one timed pass of the workload, checks every verdict against its
known answer and prints one JSON object on its last stdout line.  Set-up
and pass are timed under a speed.Probe, which scales both times to the
reference speed.  With ``--setup-only`` the process stops after set-up.
With ``--trace`` the pass runs under cProfile instead, unscaled, and the
object also carries the per-layer metrics (see layers.py).  run.py
starts this script once per pass so that set-up time, memos and peak
memory are those of a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import layers
import speed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("corpus", "table", "axiom-sweep")
CORPUS_INSTANCES = 20


class Inputs:
    """What set-up builds: the parsed corpus sessions and the shipped
    valuations and quasi-orders, each with a universe rebuilt at the seed."""

    def __init__(self, seed: int):
        self.t0 = t0 = time.perf_counter()
        import qord  # noqa: F401  (import time is part of set-up)
        from qord.corpus import CORPUS, shipped_objects
        from qord.dsl import parse_session
        from qord.sampling import SampleUniverse

        t1 = time.perf_counter()
        self.sessions = [parse_session(inst.session) for inst in CORPUS]
        self.parse_s = time.perf_counter() - t1

        def reseed(universe):
            return SampleUniverse(
                universe.ring,
                seed=seed,
                count=universe.count,
                bounds=universe.bounds,
                distinguished=universe.distinguished,
            )

        valuations, quasiorders = shipped_objects()
        self.valuations = [(n, v, reseed(u)) for n, v, u in valuations]
        self.quasiorders = [(n, q, reseed(u)) for n, q, u in quasiorders]
        for _, _, universe in self.valuations + self.quasiorders:
            universe.elements()
        self.t1 = time.perf_counter()
        self.setup_s = self.t1 - t0

    def universe(self, name: str):
        for n, _, universe in self.valuations + self.quasiorders:
            if n == name:
                return universe
        raise KeyError(f"no shipped object named {name!r}")


# ---------------------------------------------------------------------------
# workload passes: each times only its qord calls, inside ``timed``, and
# returns (verdicts, report, digest)
#   verdicts: one bool per known answer, True when the answer matched
#   report:   the pass's verdicts as a qord Report, for the JSON render probe
#   digest:   sha256 of the output, which must repeat for the same seed


def corpus_pass(inputs: Inputs, seed: int, samples: int, timed):
    from qord import cli
    from qord.report import PASS, parse_json

    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = out
    try:
        with timed:
            code = cli.main(
                ["corpus", "run", "all", "--format", "json", "--seed", str(seed)]
            )
            out.flush()
    finally:
        sys.stdout = saved
    data = buf.getvalue()
    out.detach()
    report = parse_json(data)
    golden = {
        c.name: c.status == PASS
        for c in report.checks
        if c.name.endswith("::golden-match")
    }
    verdicts = list(golden.values())
    verdicts += [False] * (CORPUS_INSTANCES - len(golden))
    verdicts.append(code == 0)
    return verdicts, report, hashlib.sha256(data).hexdigest()


def table_pass(inputs: Inputs, seed: int, samples: int, timed):
    from qord.corpus import implication_matrix, render_matrix
    from qord.report import PASS, Report
    from qord.residues import TABLE_CHECKMARKS

    with timed:
        checks, witnesses, reports = implication_matrix(seed=seed, samples=500)
        text = render_matrix(checks, witnesses, reports)
    verdicts = []
    for i in range(1, 6):
        for j in range(1, 6):
            if i == j:
                continue
            if (i, j) in TABLE_CHECKMARKS:
                mine = [c for c in checks if c.name == f"table.{i}=>{j}"]
                verdicts.append(bool(mine) and all(c.status == PASS for c in mine))
            else:
                verdicts.append(bool(witnesses.get((i, j))))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return verdicts, Report(seed=seed, checks=list(checks)), digest


def axiom_pass(inputs: Inputs, seed: int, samples: int, timed):
    from qord.quasiorders import check_derived_lemmas, check_qo_axioms
    from qord.report import PASS, Report, render_json
    from qord.valuations import check_val_axioms

    results = []
    with timed:
        for name, v, universe in inputs.valuations:
            results += check_val_axioms(v, universe, samples=samples, label=name)
        for name, q, universe in inputs.quasiorders:
            results += check_qo_axioms(q, universe, samples=samples, label=name)
            results += check_derived_lemmas(q, universe, samples=samples, label=name)
    verdicts = [r.status == PASS for r in results]
    report = Report(seed=seed, checks=results)
    return verdicts, report, hashlib.sha256(render_json(report)).hexdigest()


PASSES = {"corpus": corpus_pass, "table": table_pass, "axiom-sweep": axiom_pass}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("samples", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        # the Tracer hooks qord before set-up builds the inputs
        result = run(args, None, layers.Tracer())
    else:
        probe = speed.Probe().start()
        try:
            result = run(args, probe, layers.Timer())
        finally:
            probe.stop()
    print(json.dumps(result, sort_keys=True))
    return 0


def run(args, probe, timed) -> dict:
    """Set up and, unless --setup-only, run one pass; the result object.

    Untraced, ``setup_s`` and ``wall_s`` are scaled to the reference speed
    by ``probe`` (see speed.py), and ``raw_setup_s`` and ``raw_wall_s`` are
    the plain perf_counter times.
    """
    inputs = Inputs(args.seed)
    result = {"setup_s": inputs.setup_s, "raw_setup_s": inputs.setup_s}
    if probe:
        setup = probe.window(inputs.t0, inputs.t1)
        result.update(setup_s=setup["scaled_s"], setup_slowdown=setup["slowdown"])
    if args.setup_only:
        return result
    if not args.trace and args.workload != "axiom-sweep":
        # only the axiom sweep uses the shipped objects; drop them so
        # they do not count towards the other workloads' peak memory
        inputs.valuations = inputs.quasiorders = []
    verdicts, report, digest = PASSES[args.workload](
        inputs, args.seed, args.samples, timed
    )
    result.update(
        wall_s=timed.elapsed,
        raw_wall_s=timed.elapsed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(verdicts),
        failed=verdicts.count(False),
        digest=digest,
        seed=args.seed,
    )
    if probe:
        wall = probe.window(timed.t0, timed.t1)
        result.update(wall_s=wall["scaled_s"], slowdown=wall["slowdown"])
    else:
        metrics, result["scoped"] = timed.metrics()
        metrics["dsl.parse_ms"] = inputs.parse_s * 1e3
        metrics["report.render_json_ms"] = layers.render_json_ms(report)
        probes, attempted, failed = layers.ring_probes(
            {label: inputs.universe(name) for label, name in layers.PROBE_RINGS.items()}
        )
        metrics.update(probes)
        result["layers"] = metrics
        result["probe_attempted"], result["probe_failed"] = attempted, failed
    return result


if __name__ == "__main__":
    sys.exit(main())

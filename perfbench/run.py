"""The qord benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload corpus --seed 42 --seconds 30 --trace 0

Workloads: ``corpus`` (``qord corpus run all --format json`` through
``cli.main``), ``table`` (``implication_matrix`` + ``render_matrix``) and
``axiom-sweep`` (the criterion-6 sweep over the shipped valuations and
quasi-orders, at ``--samples`` tuples per check).  One caller runs one
pass at a time, each in a fresh process (worker.py), and checks every
verdict against its known answer.

``--trace 0`` runs MIN_PASSES passes, and more while the next one fits in
``--seconds``, and reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  Each pass has its own input seed derived from
``--seed`` (``--seed + k * SEED_STRIDE``), so that a run's median spans
several sample universes: one universe can move a pass's time by 10-20%.
Set-up is timed in every pass and in set-up-only processes until there
are MIN_SETUPS set-ups.  ``wall_s`` and
``setup_s`` are scaled to the reference speed by the host-speed probe of
speed.py, because this host's speed moves by 20% and more from one
minute to the next; the unscaled medians are printed as ``raw_wall_s``
and ``raw_setup_s``, with the measured ``slowdown``.

``--trace 1`` runs one untraced pass and two cProfile passes at the same
seed; the three must give byte-identical output.  It reports the
per-layer metrics, checks that every count repeats exactly, and prints
the tracing overhead (traced over raw wall time).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) entries of
BENCHMARK.json.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "table", "axiom-sweep")
MIN_PASSES = 3
MIN_SETUPS = 9
#: input seeds of an untraced run: --seed, --seed + SEED_STRIDE, ...
SEED_STRIDE = 1_000_000
CHILD_TIMEOUT_S = 170
CRITERION6_SAMPLES = 1000
CRITERION6_GATE_S = 60.0


class BenchError(Exception):
    pass


def unit(name: str) -> str:
    for suffix, u in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    if name == "slowdown":
        return "x"
    return "ratio" if name.endswith("_ratio") else "count"


def run_pass(workload: str, seed: int, samples: int, *flags: str) -> dict:
    """One pass in a fresh worker process; its result object."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(samples)]
    cmd += flags
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s: {cmd}") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {cmd}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> str:
    lo, hi = min(values), max(values)
    return f"median {statistics.median(values):.4g}, range {lo:.4g}-{hi:.4g}, n={len(values)}"


def verdicts(passes) -> tuple[int, int]:
    """(attempted, failed) over the passes' known answers, plus one check
    per pass that repeats an input seed: its output bytes must equal those
    of the first pass at that seed."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = {}
    for p in passes:
        if p["seed"] in first:
            attempted += 1
            failed += p["digest"] != first[p["seed"]]
        else:
            first[p["seed"]] = p["digest"]
    return attempted, failed


def untraced(args) -> tuple[dict, int, int]:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= args.seconds
    ):
        seed = args.seed + len(passes) * SEED_STRIDE
        passes.append(run_pass(args.workload, seed, args.samples))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(args.workload, args.seed, args.samples, "--setup-only")["setup_s"])
    attempted, failed = verdicts(passes)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, one fresh process each,"
          f" input seeds {[p['seed'] for p in passes]}; {len(setups)} set-ups;"
          f" times scaled to the reference speed (speed.py)")
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "raw_setup_s": [p["raw_setup_s"] for p in passes],
        "slowdown": [p["slowdown"] for p in passes],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    for name, v in values.items():
        print(f"  {name:<20} {metrics[name]:.4f} {unit(name):<5} ({spread(v)})")
    print(f"  {'verdict_error_rate':<20} {failed / attempted:.4f}       ({failed}/{attempted})")
    if args.workload == "axiom-sweep" and args.samples == CRITERION6_SAMPLES:
        margin = CRITERION6_GATE_S - metrics["raw_wall_s"]
        print(f"  criterion-6 margin   {margin:.1f} s of raw_wall_s against the"
              f" {CRITERION6_GATE_S:.0f} s gate")
    return metrics, attempted, failed


def is_count(name: str) -> bool:
    return unit(name) in ("count", "ratio")


def traced(args) -> tuple[dict, int, int]:
    plain = run_pass(args.workload, args.seed, args.samples)
    runs = [run_pass(args.workload, args.seed, args.samples, "--trace") for _ in range(2)]
    attempted, failed = verdicts([plain] + runs)
    attempted += sum(r["probe_attempted"] for r in runs)
    failed += sum(r["probe_failed"] for r in runs)

    first, second = (r["layers"] for r in runs)
    metrics = {}
    for name in sorted(first):
        if is_count(name):
            attempted += 1
            if second.get(name) != first[name]:
                failed += 1
                print(f"  count differs between traced runs: {name} {first[name]} != {second.get(name)}")
            metrics[name] = first[name]
        else:
            metrics[name] = (first[name] + second[name]) / 2

    overhead = statistics.mean(r["wall_s"] for r in runs) / plain["raw_wall_s"]
    print(f"{args.workload} seed {args.seed}: traced twice under cProfile")
    print(f"  tracing overhead     {overhead:.2f}x  (traced wall_s / untraced wall_s"
          f" = {statistics.mean(r['wall_s'] for r in runs):.3f} / {plain['raw_wall_s']:.3f})")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<44} {value:.6g} {unit(name)}")
    print("  workload-scoped timers (layers this workload calls):")
    for name in sorted(runs[0]["scoped"]):
        value = statistics.mean(r["scoped"].get(name, 0.0) for r in runs)
        if value:
            print(f"  {name:<44} {value:.6g} {unit(name)}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--samples",
        type=int,
        default=50,
        help="tuples per check in axiom-sweep (criterion 6 uses 1000)",
    )
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "qord" / "__init__.py").is_file():
            raise BenchError(f"no qord sources under {ROOT / 'src'}")
        measured, attempted, failed = (traced if args.trace else untraced)(args)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {}
        for m in wanted:
            if m["name"] not in measured:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

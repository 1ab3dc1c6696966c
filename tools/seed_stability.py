#!/usr/bin/env python3
"""Check that every corpus verdict and table flag is the same at every seed.

    python3 tools/seed_stability.py [SEED ...]

Runs ``run_corpus`` and ``implication_matrix`` at each seed (default
1-20, 42 and 7), prints each entry whose status is not the same at every
seed, one line per entry with its status at each seed, and exits 1 if
there is any such flip, 0 otherwise.  The entries are the corpus
report's, the table's ``table.{i}=>{j}`` and ``table.{i}-x->{j}`` checks,
and one ``<instance>::table-flags`` per table instance whose status is
its ``format_flags()`` string, so a flag that flips counts even where
the instance's ``.flags`` entry keeps its status.  A check's samples
follow the seed, so a flip is a sampled verdict that a different sample
would change: a PASS that can turn into a FAIL was never proved.  An
entry missing at a seed counts as a flip.  The full corpus and the table
at 22 seeds take about 12 s on 2 vCPUs.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qord.corpus import implication_matrix, run_corpus

DEFAULT_SEEDS = [*range(1, 21), 42, 7]


def statuses(seed: int) -> dict:
    found = {c.name: c.status for c in run_corpus(seed=seed).checks}
    checks, _, reports = implication_matrix(seed=seed)
    found.update((c.name, c.status) for c in checks)
    found.update((f"{name}::table-flags", rep.format_flags()) for name, rep in reports.items())
    return found


def flips(by_seed: dict) -> dict:
    """Entry name -> {seed: status} for every entry whose status differs."""
    names = dict.fromkeys(name for found in by_seed.values() for name in found)
    out = {}
    for name in names:
        seen = {seed: found.get(name, "missing") for seed, found in by_seed.items()}
        if len(set(seen.values())) > 1:
            out[name] = seen
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        seeds = [int(a) for a in argv] or DEFAULT_SEEDS
    except ValueError:
        print("usage: seed_stability.py [SEED ...]", file=sys.stderr)
        return 2
    by_seed = {seed: statuses(seed) for seed in seeds}
    found = flips(by_seed)
    for name, seen in found.items():
        print(f"FLIP {name}: " + ", ".join(f"{s}={st}" for s, st in seen.items()))
    entries = len({name for got in by_seed.values() for name in got})
    print(f"{entries} entries at {len(seeds)} seeds: {len(found)} flip(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

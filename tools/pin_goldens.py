#!/usr/bin/env python3
"""Regenerate the corpus golden fragments from a live run.

Each fragment in src/qord/corpus_data names the report entries its
instance pins, and this tool re-pins exactly those: an entry with a
"detail" key pins status and detail, any other entry pins status and
witness.  Only the anchored facts are pinned: condition flags, named
witnesses and the handful of exact values each instance is about.

To pin a new entry, add its name (without the "<instance>::" prefix) to
the fragment's "checks" as ``{}``, or as ``{"detail": ""}`` to pin its
detail, and run this tool.  A new instance needs a fragment with an
empty "checks" to be pinned at all.  Run from the repo root after an
intentional behavior change, then audit the diff before committing.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qord.corpus import CORPUS, GOLDEN_VERSION, golden_fragment, run_instance


def main():
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "qord" / "corpus_data"
    for inst in CORPUS:
        fragment = golden_fragment(inst)
        if fragment is None:
            print(f"SKIP {inst.name}: no golden fragment")
            continue
        report = run_instance(inst)
        golden = {"version": GOLDEN_VERSION, "checks": {}}
        if inst.interpretation:
            golden["interpretation"] = True
        for name, old in fragment["checks"].items():
            entry = report.find(inst.label_prefix + name)
            if entry is None:
                print(f"MISSING {inst.label_prefix}{name}: old pin kept")
                golden["checks"][name] = old
                continue
            pinned = golden["checks"][name] = {"status": entry.status}
            if "detail" in old:
                pinned["detail"] = entry.detail
            elif entry.witness is not None:
                pinned["witness"] = list(entry.witness)
        path = out_dir / f"{inst.name}.json"
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"pinned {path.name}: {len(golden['checks'])} entries")


if __name__ == "__main__":
    main()

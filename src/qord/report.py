"""Check results and deterministic report rendering.

Every report entry is built here: by ``result``, whose ``otherwise`` names
the kind of claim, by ``witnessed`` for an existential claim, or by
``sweep``, which ends in ``result``.  So the verdict policy, and any field
an entry gains, is decided in this one module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional, Tuple

from .sampling import SampledTuples

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
HARD = "hard-inconsistency"


class PreconditionError(Exception):
    """A check or constructor precondition failed on a concrete witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

_STATUSES = (PASS, FAIL, INCONCLUSIVE, HARD)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_HARD = 4


@dataclass
class CheckResult:
    name: str
    status: str
    witness: Optional[Tuple[str, ...]] = None
    samples_used: int = 0
    elapsed_ms: float = 0.0
    detail: Optional[str] = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.witness is not None:
            self.witness = tuple(str(w) for w in self.witness)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, INCONCLUSIVE)


def result(name, ok, witness, n, detail=None, *, otherwise=FAIL) -> CheckResult:
    """A claim that held (PASS) or did not (``otherwise``); the witness is
    kept only when it did not.

    ``otherwise`` names the kind of claim:
    FAIL, a claim refuted by its witness;
    INCONCLUSIVE, sampled verdicts that disagree or a bounded search that
    ran out, since a sampled pass proves nothing;
    HARD, a guaranteed invariant that broke.
    """
    return CheckResult(
        name=name,
        status=PASS if ok else otherwise,
        witness=None if ok else witness,
        samples_used=n,
        detail=detail,
    )


def witnessed(name, instances, n, detail=None) -> CheckResult:
    """An existential claim: PASS carrying the instances found as its
    witness, or FAIL when there are none."""
    return CheckResult(
        name=name,
        status=PASS if instances else FAIL,
        witness=tuple(instances) or None,
        samples_used=n,
        detail=detail,
    )


def sweep(name, tuples, fails, *, given=None) -> CheckResult:
    """Sweep a universal claim over a list of tuples, stopping at the first
    tuple t with fails(*t); that tuple is the witness and no later tuple is
    evaluated.

    samples_used is len(tuples).  With given, fails is evaluated only on
    the tuples meeting that hypothesis, and samples_used counts those, up
    to and including the witness.

    The sweep follows the list's plan (``sampling.SampledTuples``, which
    ``SampleUniverse.tuples`` returns and a plain list gets here): it
    keys each tuple by the ids of its elements and evaluates each
    distinct tuple once, in the order of first occurrence.  So both
    predicates must be pure: a repeat cannot fail, or the sweep would have
    stopped at its first occurrence, and it counts as a hypothesis hit
    exactly when that first occurrence did.  Without given, the plan is
    drawn only as far as the witness, or until every distinct tuple of its
    universe has been seen; with given, it is drawn whole, so that the hits
    are counted with their repeats.
    """
    if not isinstance(tuples, SampledTuples):
        tuples = SampledTuples.of(tuples)
    if given is None:
        witness = tuples.first(fails)
        return result(name, witness is None, witness, len(tuples))
    keys = tuples.keys
    met = {}  # key -> whether its tuple meets given
    witness = None
    for key, t in tuples.distinct.items():
        met[key] = hit = bool(given(*t))
        if hit and fails(*t):
            witness = t
            break
    # the hits with their repeats, up to the witness's first position
    stop = len(keys) if witness is None else keys.index(key) + 1
    n = sum(map(met.__getitem__, islice(keys, stop)))
    return result(name, witness is None, witness, n)


def once(op):
    """op memoized on the operand objects: op(x, y) is formed once per (x, y).

    For the sweeps of one check call, which form the same product or sum
    of the same sampled elements again and again; op must be pure.  Each
    entry keeps x and y alive, so no id is reused while the table lives;
    build a fresh one per check call, never a table that outlives it.
    """
    table = {}  # (id(x), id(y)) -> (x, y, op(x, y))

    def f(x, y):
        key = id(x), id(y)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = x, y, op(x, y)
        return hit[2]

    return f


@dataclass
class Report:
    seed: int
    checks: List[CheckResult] = field(default_factory=list)
    halted: bool = False

    def extend(self, results):
        self.checks.extend(results)

    def find(self, name: str) -> Optional[CheckResult]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def __getitem__(self, name: str) -> CheckResult:
        c = self.find(name)
        if c is None:
            raise KeyError(name)
        return c

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def exit_code(self) -> int:
        if any(c.status == HARD for c in self.checks):
            return EXIT_HARD
        if self.halted:
            return EXIT_PRECONDITION
        if any(c.status == FAIL for c in self.checks):
            return EXIT_FAIL
        return EXIT_OK


def render_json(report: Report) -> bytes:
    """Canonical JSON: stable keys, no volatile fields.

    elapsed_ms is serialized as 0 so that identical (session, seed) runs
    produce byte-identical output; wall-clock timings stay in the text
    rendering.
    """
    checks = []
    for c in report.checks:
        entry = {
            "name": c.name,
            "status": c.status,
            "samples_used": c.samples_used,
            "elapsed_ms": 0,
        }
        if c.witness is not None:
            entry["witness"] = list(c.witness)
        checks.append(entry)
    doc = {"version": 1, "seed": report.seed, "checks": checks}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def parse_json(data: bytes) -> Report:
    doc = json.loads(data.decode())
    report = Report(seed=doc["seed"])
    for entry in doc["checks"]:
        report.checks.append(
            CheckResult(
                name=entry["name"],
                status=entry["status"],
                witness=tuple(entry["witness"]) if "witness" in entry else None,
                samples_used=entry["samples_used"],
                elapsed_ms=entry.get("elapsed_ms", 0),
            )
        )
    return report


def render_text(report: Report) -> str:
    lines = []
    width = max((len(c.name) for c in report.checks), default=4)
    for c in report.checks:
        line = f"{c.name:<{width}}  {c.status:>18}  n={c.samples_used:<6} {c.elapsed_ms:8.1f}ms"
        if c.witness:
            line += "  witness: " + ", ".join(c.witness)
        if c.detail:
            line += f"  [{c.detail}]"
        lines.append(line)
    n = len(report.checks)
    if report.all_ok and not report.halted:
        lines.append(f"all {n} checks passed")
    else:
        bad = sum(1 for c in report.checks if not c.ok)
        lines.append(f"{bad} of {n} checks failed")
        if report.halted:
            lines.append("execution halted by a precondition violation")
    return "\n".join(lines) + "\n"

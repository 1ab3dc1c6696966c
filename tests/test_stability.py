"""A verdict must not depend on a check's label or on the seed.

A check's label seeds its tuple stream, so renaming a check is a
metamorphic relation: a PASS that turns into an exact FAIL under another
label was a false PASS all along.
"""

from functools import lru_cache

import pytest

from qord.corpus import get_instance, run_instance, shipped_objects
from qord.residues import in_iv, in_rv, is_compatible, is_convex

#: alternate labels each catalogue check runs under
LABELS = [f"relabel-{k}" for k in range(10)]


@lru_cache(maxsize=None)
def _catalogue_statuses():
    """check -> the set of statuses it took under LABELS, for the
    compatibility and both convexities of every catalogue (v, q) pair that
    shares a ring, swept on the valuation's universe at 500 samples."""
    valuations, quasiorders = shipped_objects()
    statuses = {}
    for vname, v, universe in valuations:
        for qname, q, _ in quasiorders:
            if v.ring is not q.ring:
                continue
            checks = {
                "compat": lambda label: is_compatible(v, q, universe, 500, label=label),
                "Rv-convex": lambda label: is_convex(
                    lambda x: in_rv(v, x), q, universe, 500, label=label
                ),
                "Iv-convex": lambda label: is_convex(
                    lambda x: in_iv(v, x), q, universe, 500, label=label
                ),
            }
            for check, run in checks.items():
                statuses[vname, qname, check] = {
                    run(f"{vname}~{qname}.{check}.{label}").status for label in LABELS
                }
    return statuses


#: the catalogue pairs whose sampled verdicts are known to flip
KNOWN_FLIPS = {
    ("composite-deg-v2", q) for q in ("leading-term-K", "lift-deg-plus", "lift-deg-minus")
}


def _flips():
    return sorted(key for key, seen in _catalogue_statuses().items() if len(seen) > 1)


def test_label_flips_stay_within_the_known_pairs():
    assert len(_catalogue_statuses()) == 3 * 25
    assert [key for key in _flips() if key[:2] not in KNOWN_FLIPS] == []


@pytest.mark.xfail(
    strict=True,
    reason="sampled false PASSes: composite-deg-v2 against leading-term-K,"
    " lift-deg-plus and lift-deg-minus flips between PASS and FAIL with the"
    " check's label (ROADMAP items 1, 13 and 17)",
)
def test_catalogue_verdicts_do_not_depend_on_the_label():
    assert _flips() == []


#: corpus instances with sampled sweeps, cheap enough to run at three seeds
STABLE = ["nomanis-1", "nomanis-2", "remark-391-order", "compat-v2", "roundtrip-q-v2"]


def test_corpus_statuses_do_not_depend_on_the_seed():
    for name in STABLE:
        inst = get_instance(name)
        runs = [
            {c.name: c.status for c in run_instance(inst, seed=seed).checks}
            for seed in (42, 7, 12345)
        ]
        assert runs[0], name
        assert runs[1] == runs[0] and runs[2] == runs[0], name


def _seed_stability_tool():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "seed_stability.py"
    spec = importlib.util.spec_from_file_location("seed_stability", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_seed_stability_tool_reports_each_flip():
    tool = _seed_stability_tool()
    by_seed = {
        1: {"a": "pass", "b": "fail", "c": "pass"},
        2: {"a": "pass", "b": "pass"},
    }
    assert tool.flips(by_seed) == {
        "b": {1: "fail", 2: "pass"},
        "c": {1: "pass", 2: "missing"},
    }
    assert tool.flips({1: by_seed[1], 2: dict(by_seed[1])}) == {}


def test_seed_stability_tool_compares_the_table_flags():
    # a .flags entry carries its flags in detail, not in its status, so
    # the tool compares each table instance's flag string itself
    found = _seed_stability_tool().statuses(42)
    assert found["interp-table::table-flags"] == "c1=F c2=F c3=T c4=T c5=T"
    assert found["table.1=>2"] == "pass"
    assert found["exp1::golden-match"] == "pass"

"""run_corpus and table_reports share their instances with forked helpers:
the same bytes as a one-process run, no process left behind, and one
process whenever a profiler, a tracer, one CPU, no fork or one instance
rules the fork out."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import test_corpus
from qord import corpus
from qord.corpus import (
    CORPUS,
    diff_golden,
    get_instance,
    implication_matrix,
    render_matrix,
    run_corpus,
    run_instance,
    table_reports,
)
from qord.report import Report, render_json, result

#: sha256 of `qord corpus run all --format json --seed 42` (see test_acceptance)
CORPUS_JSON_SHA256_SEED_42 = "51847844a9ca7eecd2a7ef537c80eb5b953ec81a62dec6b3000a2ae45ee68384"

#: cheap instances for the tests that only need a few
FEW = ["nomanis-2", "remark-391-order", "special-star-1", "rank-q-v2"]


def _in_process(names, seed=42) -> Report:
    """run_corpus's report, built one instance at a time in this process."""
    combined = Report(seed=seed)
    for name in names:
        inst = get_instance(name)
        rep = run_instance(inst, seed=seed)
        mismatches = diff_golden(rep, inst)
        combined.checks.extend(rep.checks)
        detail = "interpretation" if inst.interpretation else None
        combined.checks.append(
            result(f"{name}::golden-match", not mismatches, mismatches, len(rep.checks), detail)
        )
        combined.halted = combined.halted or rep.halted
    return combined


def _entries(report):
    return [(c.name, c.status, c.witness, c.samples_used, c.detail) for c in report.checks]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, and a count of the forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("seed", [42, 7, 12345])
def test_shared_run_equals_in_process_runs(seed, two_cpus):
    names = [inst.name for inst in CORPUS]
    got = run_corpus(seed=seed)
    assert two_cpus, "the run did not fork"
    want = _in_process(names, seed)
    assert render_json(got) == render_json(want)
    assert _entries(got) == _entries(want) and got.halted == want.halted
    _assert_no_child_left()


def test_fresh_process_json_digest():
    # the path users and the benchmark take: a new interpreter, all CPUs
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "qord", "corpus", "run", "all", "--format", "json",
         "--seed", "42"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == CORPUS_JSON_SHA256_SEED_42


class Boom(Exception):
    pass


def test_an_instance_error_reaches_the_caller_and_no_child_is_left(two_cpus, monkeypatch):
    real = corpus.run_instance

    def failing(inst, **kwargs):
        if inst.name == "remark-391-order":
            raise Boom(inst.name)
        return real(inst, **kwargs)

    monkeypatch.setattr(corpus, "run_instance", failing)
    with pytest.raises(Boom):
        run_corpus(FEW)
    assert two_cpus
    _assert_no_child_left()


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_what_a_helper_does_not_deliver_runs_again_here(fault, two_cpus, monkeypatch):
    # every instance fails in the helper, none here: the bytes do not move
    real, parent = corpus.run_instance, os.getpid()

    def helper_fails(inst, **kwargs):
        if os.getpid() != parent:
            if fault == "dies":
                os._exit(3)
            raise Boom(inst.name)
        time.sleep(0.05)  # so that the helper pulls an instance too
        return real(inst, **kwargs)

    monkeypatch.setattr(corpus, "run_instance", helper_fails)
    got = run_corpus(FEW)
    assert two_cpus
    assert render_json(got) == render_json(_in_process(FEW))
    _assert_no_child_left()


def _forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("run_corpus forked")

    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", no_fork)


def _profiled(monkeypatch):
    sys.setprofile(lambda *args: None)


def _traced(monkeypatch):
    sys.settrace(lambda *args: None)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _no_affinity_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _second_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    return lambda: (stop.set(), thread.join(timeout=10))


@pytest.mark.parametrize(
    "setting", [_profiled, _traced, _one_cpu, _no_affinity_one_cpu, _no_fork, _second_thread],
    ids=["profiler", "tracer", "one-cpu", "cpu-count-one", "no-fork", "second-thread"],
)
def test_the_run_stays_in_one_process(setting, monkeypatch):
    _forbid_fork(monkeypatch)
    profile, trace = sys.getprofile(), sys.gettrace()
    undo = setting(monkeypatch)
    try:
        got = run_corpus(FEW)
    finally:
        sys.setprofile(profile)
        sys.settrace(trace)
        if undo:
            undo()
    assert render_json(got) == render_json(_in_process(FEW))


def test_more_helpers_than_cores_run_each_instance_once(monkeypatch, tmp_path):
    # six processes on however many cores: every index is pulled by exactly
    # one process and delivered, so nothing runs twice and the bytes hold
    real = corpus.run_instance
    log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(inst, **kwargs):
        os.write(log, f"{inst.name}\n".encode())
        return real(inst, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    monkeypatch.setattr(corpus, "run_instance", logged)
    try:
        got = run_corpus(seed=42)
    finally:
        os.close(log)
    assert hashlib.sha256(render_json(got)).hexdigest() == CORPUS_JSON_SHA256_SEED_42
    runs = (tmp_path / "runs").read_text().split()
    assert sorted(runs) == sorted(inst.name for inst in CORPUS)
    _assert_no_child_left()


def test_one_instance_stays_in_one_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _forbid_fork(monkeypatch)
    assert render_json(run_corpus(["exp1"])) == render_json(_in_process(["exp1"]))


# ---------------------------------------------------------------------------
# the table instances


def _table_entries(reports):
    return {
        name: (rep.format_flags(), rep.witnesses, _entries(rep))
        for name, rep in reports.items()
    }


@pytest.mark.parametrize("seed", [42, 7])
def test_shared_table_equals_in_process_runs(seed, two_cpus):
    got = table_reports(seed=seed)
    assert two_cpus, "the table did not fork"
    want = {inst.name: corpus._table_report(inst, seed, 500) for inst in CORPUS if inst.table}
    assert list(got) == list(want)
    assert _table_entries(got) == _table_entries(want)
    _assert_no_child_left()


def test_fresh_process_table_digest():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "qord", "table", "--seed", "42"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == test_corpus.TABLE_TEXT_SHA256_SEED_42


def _caller_waits(monkeypatch, fault=None):
    """Each table instance waits in this process, so that the helper pulls
    some; with ``fault``, each one the helper pulls raises or kills it."""
    real, parent = corpus._table_report, os.getpid()

    def table_report(inst, seed, samples):
        if os.getpid() == parent:
            time.sleep(0.05)
        elif fault == "dies":
            os._exit(3)
        elif fault == "raises":
            raise Boom(inst.name)
        return real(inst, seed, samples)

    monkeypatch.setattr(corpus, "_table_report", table_report)
    return real


@pytest.mark.parametrize("fault", ["raises", "dies"])
def test_what_a_helper_does_not_deliver_runs_again_here_for_the_table(
    fault, two_cpus, monkeypatch
):
    real = _caller_waits(monkeypatch, fault)
    got = table_reports(seed=42)
    assert two_cpus, "the table did not fork"
    want = {inst.name: real(inst, 42, 500) for inst in CORPUS if inst.table}
    assert _table_entries(got) == _table_entries(want)
    _assert_no_child_left()


@pytest.mark.parametrize("case", sorted(test_corpus._BROKEN_TABLE_SESSIONS))
def test_a_table_instance_without_flags_is_an_error_beside_a_helper(
    case, two_cpus, monkeypatch, capsys
):
    # the helper most likely runs the broken instance; its PreconditionError
    # is raised again by the caller's rerun
    _caller_waits(monkeypatch)
    test_corpus.test_table_instance_without_flags_is_an_error(case, monkeypatch, capsys)
    assert two_cpus, "the table did not fork"
    _assert_no_child_left()


@pytest.mark.parametrize("setting", [_profiled, _one_cpu], ids=["profiler", "one-cpu"])
def test_the_table_stays_in_one_process(setting, monkeypatch):
    _forbid_fork(monkeypatch)
    profile = sys.getprofile()
    setting(monkeypatch)
    try:
        text = render_matrix(*implication_matrix(seed=42))
    finally:
        sys.setprofile(profile)
    assert hashlib.sha256(text.encode()).hexdigest() == test_corpus.TABLE_TEXT_SHA256_SEED_42

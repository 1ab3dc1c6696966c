"""Built-in named instances with golden expected reports.

Each instance is a DSL session encoding one worked example: the
non-Manis counterexamples, the two Gauss-twist examples, the trivial
valuation on the even integers (both the ordered and the proper variant),
the special* examples, the lift round-trips, the rank computations, and
the non-Archimedean order demo.  Golden fragments pin the anchored facts
(condition flags and named witnesses) and are diffed on every run.
"""

from __future__ import annotations

import io
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .dsl import (
    Check, DslError, SessionContext, bind_check, execute_statement, parse_session, run_session
)
from .report import FAIL, PASS, PreconditionError, Report, result
from .residues import CompatReport, implication_table, table_blank_cells, table_conditions

GOLDEN_VERSION = 1


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    description: str
    session: str
    table: bool = False
    interpretation: bool = False

    @property
    def label_prefix(self) -> str:  # check labels seed the tuple streams
        return f"{self.name}::"


CORPUS: Tuple[CorpusInstance, ...] = (
    CorpusInstance(
        "nomanis-1",
        "degree valuation against the constant-term order on Z[X]: the"
        " residue conditions hold while compatibility and both convexities fail",
        """
pin "1*X + 1", "1*X" on poly(Z, X)
let u = trivial() on Z
let v = gauss(u, -1) on poly(Z, X)
let q = const_term_order() on poly(Z, X)
check val_value(v, "1*X + 1", "-1")
check val_value(v, "1", "0")
check compat(v, q)
check convex(v, q, set="iv")
check convex(v, q, set="rv")
check table_conditions(v, q)
check val_axioms(v)
check qo_axioms(q)
check derived_lemmas(q)
""",
        table=True,
    ),
    CorpusInstance(
        "nomanis-2",
        "2-adic valuation on Z against the usual order: only the valuation"
        " ring is convex",
        """
pin "2", "4" on Z
let v = padic(2) on Z
let q = natural_order() on Z
check compat(v, q)
check convex(v, q, set="rv")
check convex(v, q, set="iv")
check table_conditions(v, q)
check val_axioms(v)
check qo_axioms(q)
check derived_lemmas(q)
""",
        table=True,
    ),
    CorpusInstance(
        "exp1",
        "two Gauss twists of the 2-adic valuation on Q[X]; the +1 twist is"
        " incompatible with the order of the 0 twist",
        """
pin "2", "1*X", "1*X^2", "1/2", "1/2*X", "1/2*X^2" on poly(Q, X)
let u = padic(2) on Q
let v = gauss(u, 1) on poly(Q, X)
let w = gauss(u, 0) on poly(Q, X)
let qw = qo(w)
check val_value(w, "1*X^2", "0")
check val_value(w, "2", "1")
check val_value(v, "2", "1")
check val_value(v, "1*X^2", "2")
check compat(v, qw)
check table_conditions(v, qw)
check compat_equivalence(v, qw)
check val_axioms(v)
check val_axioms(w)
check qo_axioms(qw)
check derived_lemmas(qw)
""",
        table=True,
    ),
    CorpusInstance(
        "exp1-swapped",
        "the same pair of Gauss twists with the roles exchanged: the"
        " coefficient-minimum valuation against the +1-twist quasi-order;"
        " realizes 'values below 1 without compatibility' for a proper"
        " quasi-order",
        """
pin "2", "1*X", "1*X^2", "1/2", "1/2*X", "1/2*X^2" on poly(Q, X)
let u = padic(2) on Q
let v = gauss(u, 1) on poly(Q, X)
let w = gauss(u, 0) on poly(Q, X)
let qv = qo(v)
check table_conditions(w, qv)
check compat_equivalence(w, qv)
check qo_axioms(qv)
""",
        table=True,
        interpretation=True,
    ),
    CorpusInstance(
        "exp2",
        "bivariate Gauss extension of the trivial valuation, twisted by"
        " (+1, -1), against the constant-term order on Z[X,Y]",
        """
pin "1*Y", "1*X*Y" on poly(Z, X, Y)
let u = trivial() on Z
let v = gauss(u, 1, -1) on poly(Z, X, Y)
let q = const_term_order() on poly(Z, X, Y)
check val_value(v, "1*Y", "-1")
check val_value(v, "1*X^2*Y", "1")
check compat(v, q)
check convex(v, q, set="iv")
check table_conditions(v, q)
check compat_equivalence(v, q)
check val_axioms(v)
check qo_axioms(q)
""",
        table=True,
    ),
    CorpusInstance(
        "remark-391-order",
        "trivial valuation sending the even integers to infinity, against"
        " the usual order of Z: the valuation ring is convex, the ideal is not",
        """
pin "2" on Z
let v = trivial(principal(2)) on Z
let q = natural_order() on Z
check convex(v, q, set="rv")
check convex(v, q, set="iv")
check compat(v, q)
check table_conditions(v, q)
check compat_equivalence(v, q)
check val_axioms(v)
check qo_axioms(q)
check derived_lemmas(q)
""",
        table=True,
    ),
    CorpusInstance(
        "remark-391-pqo",
        "the same trivial valuation against the 3-adic quasi-order on Z",
        """
pin "2", "3" on Z
let v = trivial(principal(2)) on Z
let w = padic(3) on Z
let q = qo(w)
check convex(v, q, set="rv")
check table_conditions(v, q)
check compat_equivalence(v, q)
check qo_axioms(q)
check derived_lemmas(q)
""",
        table=True,
    ),
    CorpusInstance(
        "interp-table",
        "the degree valuation on Z[X] against the quasi-order of the"
        " +1-twisted 2-adic Gauss extension; encodes the convex-ideal-"
        "without-convex-ring separation under the one reading that parses",
        """
pin "1*X", "2" on poly(Z, X)
let u = trivial() on Z
let v = gauss(u, -1) on poly(Z, X)
let u2 = padic(2) on Z
let w = gauss(u2, 1) on poly(Z, X)
let q = qo(w)
check table_conditions(v, q)
check compat(v, q)
check qo_axioms(q)
check val_axioms(w)
""",
        table=True,
        interpretation=True,
    ),
    CorpusInstance(
        "compat-v2",
        "the 2-adic valuation on Q with its own quasi-order: every"
        " condition holds",
        """
let v = padic(2) on Q
let q = qo(v)
check compat(v, q)
check table_conditions(v, q)
check compat_equivalence(v, q)
check classify(q, expect="proper")
check val_axioms(v)
check qo_axioms(q)
check derived_lemmas(q)
""",
        table=True,
    ),
    CorpusInstance(
        "special-star-1",
        "the p-adic valuation on Z is special*: Quot(Rv) and the residue"
        " field of the extension are both the prime field",
        """
let v = padic(2) on Z
check special_star(v)
check val_axioms(v)
""",
    ),
    CorpusInstance(
        "special-star-2",
        "the degree valuation on Z[X] is special*: both residue fields"
        " are the rationals",
        """
pin "1*X" on poly(Z, X)
let u = trivial() on Z
let v = gauss(u, -1) on poly(Z, X)
check special_star(v)
""",
    ),
    CorpusInstance(
        "roundtrip-q-v2",
        "lift of the trivial residue quasi-order through the 2-adic"
        " valuation reproduces the 2-adic quasi-order",
        """
let v = padic(2) on Q
let rv = residue(v)
let rtriv = trivial() on rv
let rq = qo(rtriv)
check roundtrip(v, eta=[1], residue=rq)
check lift_props(v, eta=[1], residue=rq)
let L = lift(v, eta=[1], residue=rq)
let qv = qo(v)
check qo_agree(L, qv)
check reconstruct(qv, v)
""",
    ),
    CorpusInstance(
        "roundtrip-deg-plus",
        "lift of the rational order through the degree valuation with"
        " sign +1: the variable becomes positive infinite",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let rq = natural_order() on residue(nu)
check roundtrip(nu, eta=[1], residue=rq)
check lift_props(nu, eta=[1], residue=rq)
let L = lift(nu, eta=[1], residue=rq)
let qinf = leading_term_order() on frac(poly(Q, X))
check qo_agree(L, qinf)
check reconstruct(qinf, nu)
check classify(L, expect="order")
""",
    ),
    CorpusInstance(
        "roundtrip-deg-minus",
        "the same lift with sign -1: the variable becomes negative infinite",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let rq = natural_order() on residue(nu)
check roundtrip(nu, eta=[-1], residue=rq)
let L = lift(nu, eta=[-1], residue=rq)
check reconstruct(L, nu)
check classify(L, expect="order")
check qo_axioms(L)
""",
    ),
    CorpusInstance(
        "roundtrip-deg-v2",
        "lift of the 2-adic residue quasi-order through the degree"
        " valuation agrees with the rank-2 composite",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let u2 = padic(2) on residue(nu)
let rq = qo(u2)
check roundtrip(nu, eta=[1], residue=rq)
let L = lift(nu, eta=[1], residue=rq)
let w = composite(nu, u2)
let qw = qo(w)
check qo_agree(L, qw)
check reconstruct(qw, nu)
check classify(L, expect="proper")
""",
    ),
    CorpusInstance(
        "quotient-consistency",
        "the quotient of the composite by the degree valuation is the"
        " 2-adic valuation on the residue field",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let u2 = padic(2) on residue(nu)
let w = composite(nu, u2)
let wv = quotient_val(w, nu)
check val_agree(wv, u2)
check val_axioms(wv)
check coarsening(nu, w)
""",
    ),
    CorpusInstance(
        "rank-q-order",
        "the archimedean order of Q admits no compatible nontrivial"
        " valuation: rank 0",
        """
let q = natural_order() on Q
let v2 = padic(2) on Q
let v3 = padic(3) on Q
let v5 = padic(5) on Q
check rank(q, v2, v3, v5, expect=0)
""",
    ),
    CorpusInstance(
        "rank-q-v2",
        "the 2-adic quasi-order of Q has rank 1 over the candidates"
        " {2-adic, 3-adic}",
        """
let v2 = padic(2) on Q
let v3 = padic(3) on Q
let q = qo(v2)
check rank(q, v2, v3, expect=1)
""",
    ),
    CorpusInstance(
        "rank-qx",
        "the lifted proper quasi-order over the degree valuation with"
        " 2-adic residue structure has rank 2: degree below the composite",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let u2 = padic(2) on residue(nu)
let rq = qo(u2)
let L = lift(nu, eta=[1], residue=rq)
let w = composite(nu, u2)
check rank(L, nu, w, expect=2)
""",
    ),
    CorpusInstance(
        "archimedean-demo",
        "a nontrivial Manis valuation with real residue field lifts to a"
        " non-Archimedean order: the variable exceeds every sampled integer",
        """
let u = trivial() on Q
let vdeg = gauss(u, -1) on poly(Q, X)
let nu = frac_extend(vdeg, uniformizer="1*X")
let rq = natural_order() on residue(nu)
let L = lift(nu, eta=[1], residue=rq)
check classify(L, expect="order")
check unbounded_above(L, "(1*X)/(1)")
""",
    ),
)


def corpus_instances() -> List[CorpusInstance]:
    return list(CORPUS)


def get_instance(name: str) -> CorpusInstance:
    for inst in CORPUS:
        if inst.name == name:
            return inst
    raise KeyError(f"no corpus instance named {name!r}")


def run_instance(inst: CorpusInstance, seed: int = 42, samples: int = 500) -> Report:
    ast = parse_session(inst.session)
    return run_session(ast, seed=seed, samples=samples, label_prefix=inst.label_prefix)


# ---------------------------------------------------------------------------
# golden fragments


def golden_fragment(inst: CorpusInstance) -> Optional[dict]:
    try:
        path = resources.files("qord").joinpath(f"corpus_data/{inst.name}.json")
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def diff_golden(report: Report, inst: CorpusInstance) -> List[str]:
    """Mismatches between a run and the instance's golden fragment."""
    golden = golden_fragment(inst)
    if golden is None:
        return [f"{inst.name}: golden fragment missing"]
    out = []
    if golden.get("version") != GOLDEN_VERSION:
        out.append(f"{inst.name}: golden version mismatch")
    for name, expected in golden.get("checks", {}).items():
        full = inst.label_prefix + name
        got = report.find(full)
        if got is None:
            out.append(f"{full}: missing from report")
            continue
        if got.status != expected["status"]:
            out.append(f"{full}: status {got.status} != {expected['status']}")
        if "witness" in expected and list(got.witness or ()) != expected["witness"]:
            out.append(
                f"{full}: witness {list(got.witness or ())} != {expected['witness']}"
            )
        if "detail" in expected and got.detail != expected["detail"]:
            out.append(f"{full}: detail {got.detail!r} != {expected['detail']!r}")
    return out


#: bytes per index in _run_shared's work queue
_RECORD = 4


def run_corpus(
    selection: Optional[List[str]] = None, seed: int = 42, samples: int = 500
) -> Report:
    """Run instances and diff each against its golden fragment.

    The instances run on every usable CPU (see ``_in_order``).  The
    combined report is built in selection order, so its JSON is
    byte-identical to a one-process run.
    """
    insts = [get_instance(name) for name in selection or [inst.name for inst in CORPUS]]

    def run(i: int):
        rep = run_instance(insts[i], seed=seed, samples=samples)
        return rep.checks, diff_golden(rep, insts[i]), rep.halted

    combined = Report(seed=seed)
    for inst, (checks, mismatches, halted) in zip(insts, _in_order(run, len(insts))):
        combined.checks.extend(checks)
        detail = "interpretation" if inst.interpretation else None
        combined.checks.append(
            result(f"{inst.name}::golden-match", not mismatches, mismatches, len(checks), detail)
        )
        combined.halted = combined.halted or halted
    return combined


def _in_order(run, n: int) -> list:
    """``[run(i) for i in range(n)]``, on every usable CPU.

    This process and one forked helper per further CPU (at most one
    process per index) pull indices from one queue, and the helpers send
    their results back pickled.  The run stays in this process when there
    is one usable CPU, no ``os.fork``, one index, a profiler or tracer
    attached (a profile cannot follow a fork), or a second thread running
    (a fork copies only the calling thread).  Memory is per process: each
    helper starts as a copy of this one.  An index whose helper delivered
    nothing runs again here, in index order, so a bug raises here as the
    caller's exception.  No helper outlives the call.
    """
    helpers = _helper_count(n)
    done = _run_shared(run, n, helpers) if helpers else {}
    return [done[i] if i in done else run(i) for i in range(n)]


def _helper_count(instances: int) -> int:
    """Forked helpers for a run of ``instances``: usable CPUs less one."""
    if instances < 2 or not hasattr(os, "fork"):
        return 0
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return 0
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 0  # a fork copies no other thread, so a lock one holds stays held
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, instances) - 1


def _run_shared(run, n: int, helpers: int) -> dict:
    """``run(i)`` for each i < n by index, from this process and ``helpers``
    forked ones that pull from one queue; a helper's index is missing when
    the helper delivered no record for it."""
    import pickle
    import signal

    queue, fill = os.pipe()
    try:
        os.write(fill, b"".join(i.to_bytes(_RECORD, "little") for i in range(n)))
    finally:
        os.close(fill)

    def pull():
        while record := os.read(queue, _RECORD):
            yield int.from_bytes(record, "little")

    done, children, delivered = {}, [], False
    try:
        for _ in range(helpers):
            back, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the others pull the rest
                os.close(back)
                os.close(send)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(back)
                    with os.fdopen(send, "wb") as out:
                        for i in pull():
                            pickle.dump((i, run(i)), out)
                            out.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(send)
            children.append((pid, os.fdopen(back, "rb")))
        for i in pull():
            done[i] = run(i)
        for _, back in children:
            records = io.BytesIO(back.read())  # to EOF, before waitpid
            try:
                while True:
                    i, record = pickle.load(records)
                    done[i] = record
            except (EOFError, pickle.UnpicklingError):
                pass
        delivered = True
    finally:
        os.close(queue)
        for pid, back in children:
            back.close()
            if not delivered:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return done


def corpus_exit_code(report: Report) -> int:
    """Exit semantics for corpus runs: golden agreement is the verdict.

    Content entries inside counterexample instances fail by design; only
    golden mismatches, halts and hard inconsistencies count against the run.
    """
    from .report import EXIT_FAIL, EXIT_HARD, EXIT_OK, EXIT_PRECONDITION, HARD

    if any(c.status == HARD for c in report.checks):
        return EXIT_HARD
    if report.halted:
        return EXIT_PRECONDITION
    if any(
        c.name.endswith("::golden-match") and c.status == FAIL for c in report.checks
    ):
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# the implication matrix across the table corpus


def shipped_objects():
    """Every valuation and quasi-order constructor exercised by the corpus,
    instantiated once, each with a matching sample universe.

    Returns (valuations, quasiorders): lists of (name, object, universe).
    """
    from .quasiorders import (
        at_zero_order,
        const_term_order,
        frac_extend_qo,
        from_valuation,
        leading_term_order,
        natural_order,
        transport_qo,
    )
    from .baerkrull import EtaVector, LiftData, default_basis, lift
    from .residues import residue_qo, residue_universe
    from .rings import QQ, ZZ, PrincipalIdeal, ZeroIdeal, poly_ring
    from .sampling import SampleUniverse
    from .valuations import (
        composite_valuation,
        degree_valuation,
        frac_extend_val,
        gauss_on,
        padic_valuation,
        quotient_val,
        transport_to_residue,
        trivial_valuation,
    )

    QX = poly_ring(QQ, "X")
    ZX = poly_ring(ZZ, "X")
    ZXY = poly_ring(ZZ, "X", "Y")

    def U(ring, count=150, dist=()):
        return SampleUniverse(ring, seed=42, count=count, distinguished=dist)

    v2q = padic_valuation(2, QQ)
    v3q = padic_valuation(3, QQ)
    v2z = padic_valuation(2, ZZ)
    triv_evens = trivial_valuation(ZZ, PrincipalIdeal(ZZ, 2))
    deg_zx = degree_valuation(ZX)
    g1 = gauss_on(v2q, QX, (1,))
    g0 = gauss_on(v2q, QX, (0,))
    g2 = gauss_on(trivial_valuation(ZZ), ZXY, (1, -1))
    nu = frac_extend_val(degree_valuation(QX), uniformizer=QX.var("X"))
    K = nu.ring
    u2r = transport_to_residue(padic_valuation(2, QQ), nu.residue_ring())
    comp = composite_valuation(nu, u2r, [nu.preimage((1,))])
    wv = quotient_val(comp, nu, U(K))
    rtriv = trivial_valuation(v2q.residue_ring(), ZeroIdeal(v2q.residue_ring()))

    valuations = [
        ("padic-2-Q", v2q, U(QQ)),
        ("padic-3-Q", v3q, U(QQ)),
        ("padic-2-Z", v2z, U(ZZ)),
        ("trivial-evens-Z", triv_evens, U(ZZ)),
        ("degree-ZX", deg_zx, U(ZX)),
        ("gauss-plus-QX", g1, U(QX)),
        ("gauss-zero-QX", g0, U(QX)),
        ("gauss-bivariate-ZXY", g2, U(ZXY)),
        ("degree-extension-K", nu, U(K)),
        ("composite-deg-v2", comp, U(K)),
        ("quotient-comp-by-deg", wv, residue_universe(nu, U(K))),
        ("trivial-residue-F2", rtriv, residue_universe(v2q, U(QQ))),
        ("transported-v2-residue", u2r, residue_universe(nu, U(K))),
    ]

    lift_v2 = lift(
        LiftData(default_basis(v2q), EtaVector((1,)), from_valuation(rtriv))
    )
    ratorder = transport_qo(natural_order(QQ), nu.residue_ring())
    lift_plus = lift(LiftData(default_basis(nu), EtaVector((1,)), ratorder))
    lift_minus = lift(LiftData(default_basis(nu), EtaVector((-1,)), ratorder))
    lift_pqo = lift(LiftData(default_basis(nu), EtaVector((1,)), from_valuation(u2r)))

    quasiorders = [
        ("natural-Z", natural_order(ZZ), U(ZZ)),
        ("natural-Q", natural_order(QQ), U(QQ)),
        ("const-term-ZX", const_term_order(ZX), U(ZX)),
        ("const-term-ZXY", const_term_order(ZXY), U(ZXY)),
        ("qo-v2-Q", from_valuation(v2q), U(QQ)),
        ("qo-gauss-zero", from_valuation(g0), U(QX)),
        ("leading-term-K", leading_term_order(K), U(K)),
        ("at-zero-K", at_zero_order(K), U(K)),
        ("frac-extended-natural", frac_extend_qo(natural_order(ZZ)), U(QQ)),
        ("residue-qo-v2", residue_qo(from_valuation(v2q), v2q),
         residue_universe(v2q, U(QQ))),
        ("lift-v2-trivial", lift_v2, U(QQ)),
        ("lift-deg-plus", lift_plus, U(K, count=120)),
        ("lift-deg-minus", lift_minus, U(K, count=120)),
        ("lift-deg-v2", lift_pqo, U(K, count=120)),
    ]
    return valuations, quasiorders


def _table_report(inst: CorpusInstance, seed: int, samples: int) -> CompatReport:
    """Flags from the instance's one table_conditions check.  The let, pin and
    show statements run through run_session's executor and binder, so the check
    sees run_instance's label, seed and universe; other checks are skipped."""
    ctx, found = SessionContext(seed=seed, samples=samples), []
    for stmt in parse_session(inst.session).statements:
        if not isinstance(stmt, Check):
            entry = execute_statement(ctx, stmt, inst.label_prefix)
            if entry is not None and entry.status == FAIL:
                raise PreconditionError(
                    f"table instance {inst.name} halted: {entry.detail}", entry.witness
                )
        elif stmt.call.name == "table_conditions":
            try:
                b = bind_check(ctx, stmt, inst.label_prefix)
                found.append(
                    table_conditions(*b.args, b.universe(ctx), samples=b.n, label=b.label)
                )
            except DslError as e:
                raise PreconditionError(f"table instance {inst.name}: {e}") from e
            except PreconditionError as e:
                raise PreconditionError(f"table instance {inst.name}: {e}", e.witness) from e
    if len(found) != 1:
        raise PreconditionError(
            f"table instance {inst.name} has {len(found)} table_conditions checks, not 1"
        )
    return found[0]


def table_reports(seed: int = 42, samples: int = 500) -> Dict[str, CompatReport]:
    """Flags of every table instance, in ``CORPUS`` order; PreconditionError
    if one has none.

    The instances run on every usable CPU, as ``run_corpus``'s do (see
    ``_in_order``): on N CPUs in min(N, 9) processes, each helper sending
    back one ``CompatReport`` per instance it ran, and in one process under
    a profiler or tracer, on one CPU, without ``os.fork`` or beside a second
    thread.  The reports are the same as a one-process run's.
    """
    insts = [inst for inst in CORPUS if inst.table]
    reports = _in_order(lambda i: _table_report(insts[i], seed, samples), len(insts))
    return {inst.name: rep for inst, rep in zip(insts, reports)}


def implication_matrix(seed: int = 42, samples: int = 500):
    """(checks, witnesses, flags-per-instance) for the printed matrix.

    The flags come from ``table_reports``, on every usable CPU; the matrix
    is built here from them in ``CORPUS`` order, so its text and JSON are
    byte-identical to a one-process run."""
    reports = table_reports(seed=seed, samples=samples)
    checks, witnesses = implication_table(reports)
    return checks, witnesses, reports


def render_matrix(checks, witnesses, reports) -> str:
    from .residues import TABLE_CHECKMARKS

    lines = ["implication matrix: rows imply columns"]
    header = "      " + "".join(f"({j})   " for j in range(1, 6))
    lines.append(header)
    for i in range(1, 6):
        row = [f"({i})   "]
        for j in range(1, 6):
            if i == j:
                cell = "  -  "
            elif (i, j) in TABLE_CHECKMARKS:
                ok = all(
                    c.status == PASS for c in checks if c.name == f"table.{i}=>{j}"
                )
                cell = " ok  " if ok else " !!  "
            else:
                cell = "  .  " if witnesses.get((i, j)) else " ??  "
            row.append(cell + " ")
        lines.append("".join(row))
    lines.append("")
    lines.append("conditions: (1) compatible  (2) Rv convex  (3) Iv convex"
                 "  (4) Iv < 1  (5) residue quasi-order")
    lines.append("")
    lines.append("instance flags:")
    for name in sorted(reports):
        lines.append(f"  {name:<22} {reports[name].format_flags()}")
    lines.append("")
    lines.append("blank-cell witnesses:")
    for (i, j) in table_blank_cells():
        names = witnesses.get((i, j), [])
        lines.append(f"  ({i}) without ({j}): " + (", ".join(names) or "MISSING"))
    return "\n".join(lines) + "\n"

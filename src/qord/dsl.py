"""A small declarative session language for building instances and running
checks.

Statements are keyword-led; a session is a straight-line script:

    let u = trivial() on Z
    let v = gauss(u, -1) on poly(Z, X)
    let q = const_term_order() on poly(Z, X)
    pin "1*X + 1", "1*X" on poly(Z, X)
    check compat(v, q) samples(count=500, seed=42)
    show v

Element literals are double-quoted strings in the canonical element
syntax of the ring at hand.  Every check runs against a seeded sample
universe and appends its results to the session report.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .baerkrull import (
    BasisData,
    EtaVector,
    LiftData,
    default_basis,
    lift,
    lift_properties_check,
    reconstruct_check,
    roundtrip_check,
)
from .groups import INF, GroupMismatchError, format_value
from .quasiorders import (
    PROPER,
    QuasiOrder,
    at_zero_order,
    check_derived_lemmas,
    check_qo_axioms,
    classify_qo,
    const_term_order,
    frac_extend_qo,
    from_valuation,
    leading_term_order,
    natural_order,
    transport_qo,
)
from .report import FAIL, PASS, CheckResult, PreconditionError, Report, result, sweep
from .residues import (
    is_compatible,
    is_convex,
    iv_prec_one,
    rank_check,
    residue_qo,
    special_star_check,
    table_conditions,
    theorem_compat_report,
)
from .rings import (
    QQ,
    ZZ,
    ElementSyntaxError,
    Ideal,
    IntegerRing,
    PolynomialRing,
    PrincipalIdeal,
    RationalField,
    RationalFunctionField,
    Ring,
    RingElement,
    RingMismatchError,
    VariableIdeal,
    ZeroIdeal,
    fraction_field,
    poly_ring,
)
from .sampling import SampleUniverse
from .valuations import (
    ResidueDomainRing,
    Valuation,
    check_val_axioms,
    coarsening_check,
    composite_valuation,
    equivalent_check,
    frac_extend_val,
    gauss_on,
    in_iv,
    in_rv,
    padic_valuation,
    quotient_val,
    transport_to_residue,
    trivial_valuation,
)


class DslError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # ident, int, string, sym
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<int>-?\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym>[()\[\],=])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Ref:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class IntLit:
    value: int
    line: int
    col: int


@dataclass(frozen=True)
class StrLit:
    value: str
    line: int
    col: int


@dataclass(frozen=True)
class ListLit:
    items: tuple
    line: int
    col: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    kwargs: tuple  # of (name, node)
    line: int
    col: int


@dataclass(frozen=True)
class Let:
    name: str
    expr: object
    on: Optional[object]
    line: int
    col: int


@dataclass(frozen=True)
class Check:
    call: Call
    params: tuple  # of (name, int)
    line: int
    col: int


@dataclass(frozen=True)
class Show:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class Pin:
    literals: tuple
    on: object
    line: int
    col: int


@dataclass(frozen=True)
class SessionAst:
    statements: tuple


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind=None, text=None) -> Token:
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("sym", "", 1, 1)
            raise DslError("unexpected end of session", last.line, last.col)
        if kind and t.kind != kind:
            raise DslError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        if text and t.text != text:
            raise DslError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def parse_session(self) -> SessionAst:
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_stmt())
        return SessionAst(tuple(stmts))

    def parse_stmt(self):
        t = self.peek()
        if t.kind != "ident":
            raise DslError(f"expected a statement, found {t.text!r}", t.line, t.col)
        if t.text == "let":
            return self.parse_let()
        if t.text == "check":
            return self.parse_check()
        if t.text == "show":
            self.take()
            name = self.take("ident")
            return Show(name.text, name.line, name.col)
        if t.text == "pin":
            return self.parse_pin()
        raise DslError(f"unknown statement {t.text!r}", t.line, t.col)

    def parse_let(self) -> Let:
        kw = self.take("ident", "let")
        name = self.take("ident").text
        self.take("sym", "=")
        expr = self.parse_expr()
        on = None
        if self.at("on"):
            self.take()
            on = self.parse_expr()
        return Let(name, expr, on, kw.line, kw.col)

    def parse_check(self) -> Check:
        kw = self.take("ident", "check")
        name = self.take("ident")
        call = self.parse_call(name)
        params = []
        if self.at("samples"):
            self.take()
            self.take("sym", "(")
            while not self.at(")"):
                pname = self.take("ident").text
                self.take("sym", "=")
                pval = self.take("int")
                params.append((pname, int(pval.text)))
                if self.at(","):
                    self.take()
            self.take("sym", ")")
        return Check(call, tuple(params), kw.line, kw.col)

    def parse_pin(self) -> Pin:
        kw = self.take("ident", "pin")
        lits = [self.take("string")]
        while self.at(","):
            self.take()
            lits.append(self.take("string"))
        self.take("ident", "on")
        on = self.parse_expr()
        return Pin(
            tuple(_unquote(t.text) for t in lits), on, kw.line, kw.col
        )

    def parse_expr(self):
        t = self.peek()
        if t is None:
            raise DslError("expected an expression", 0, 0)
        if t.kind == "int":
            self.take()
            return IntLit(int(t.text), t.line, t.col)
        if t.kind == "string":
            self.take()
            return StrLit(_unquote(t.text), t.line, t.col)
        if t.text == "[":
            self.take()
            items = []
            while not self.at("]"):
                items.append(self.parse_expr())
                if self.at(","):
                    self.take()
            self.take("sym", "]")
            return ListLit(tuple(items), t.line, t.col)
        if t.kind == "ident":
            self.take()
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
                return self.parse_call(t)
            return Ref(t.text, t.line, t.col)
        raise DslError(f"unexpected token {t.text!r}", t.line, t.col)

    def parse_call(self, name: Token) -> Call:
        self.take("sym", "(")
        args = []
        kwargs = []
        while not self.at(")"):
            t = self.peek()
            if (
                t.kind == "ident"
                and self.i + 1 < len(self.tokens)
                and self.tokens[self.i + 1].text == "="
            ):
                self.take()
                self.take("sym", "=")
                kwargs.append((t.text, self.parse_expr()))
            else:
                args.append(self.parse_expr())
            if self.at(","):
                self.take()
        self.take("sym", ")")
        return Call(name.text, tuple(args), tuple(kwargs), name.line, name.col)


def _unquote(s: str) -> str:
    return s[1:-1].replace('\\"', '"')


def parse_session(text: str) -> SessionAst:
    return _Parser(tokenize(text)).parse_session()


def node_text(node) -> str:
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, StrLit):
        return f'"{node.value}"'
    if isinstance(node, ListLit):
        return "[" + ",".join(node_text(n) for n in node.items) + "]"
    if isinstance(node, Call):
        parts = [node_text(a) for a in node.args]
        parts += [f"{k}={node_text(v)}" for k, v in node.kwargs]
        return f"{node.name}({','.join(parts)})"
    return "?"


# ---------------------------------------------------------------------------
# execution context


@dataclass
class SessionContext:
    seed: int = 42
    samples: int = 500
    env: Dict[str, object] = field(default_factory=dict)
    pins: Dict[Ring, List[RingElement]] = field(default_factory=dict)
    universes: Dict[tuple, SampleUniverse] = field(default_factory=dict)

    def __post_init__(self):
        self.env.setdefault("Z", ZZ)
        self.env.setdefault("Q", QQ)

    def lookup(self, ref: Ref):
        if ref.name not in self.env:
            raise DslError(f"unknown name {ref.name!r}", ref.line, ref.col)
        return self.env[ref.name]

    def pin(self, ring: Ring, elements: Sequence[RingElement]):
        bucket = self.pins.setdefault(ring, [])
        for x in elements:
            if str(x) not in map(str, bucket):
                bucket.append(x)

    def universe(self, ring: Ring, seed: int, count: int) -> SampleUniverse:
        """The session's one universe for (ring, seed, count, pins); a universe
        is a pure function of them.  The cached universe holds the pins, so
        their ids in the key cannot be reused."""
        pins = tuple(self.pins.get(ring, ()))
        key = (ring, seed, count, tuple(map(id, pins)))
        if key not in self.universes:
            self.universes[key] = SampleUniverse(ring, seed, count, distinguished=pins)
        return self.universes[key]


def _parse_element(ring: Ring, text: str, node) -> RingElement:
    try:
        return ring.parse(text)
    except (ElementSyntaxError, ValueError, ZeroDivisionError) as e:
        raise DslError(f"bad element literal {text!r} for {ring.name}: {e}",
                       node.line, node.col)


# ---------------------------------------------------------------------------
# signatures

# Argument kinds.  Each reads as the noun of the error for a wrong argument.
RING, IDEAL, VAL, QO = "a ring", "an ideal", "a valuation", "a quasi-order"
INT, STR, NAME = "an integer", "a string", "a bare name"
ELEM, INTS, ELEMS = "an element literal", "a list of integers", "a list of element literals"

_TYPES = {RING: Ring, IDEAL: Ideal, VAL: Valuation, QO: QuasiOrder, INT: int, STR: str,
          ELEM: str}
_ITEM_TYPES = {INTS: int, ELEMS: str}


class OneOf(str):
    """The kind of a string argument from a fixed set of words.  It equals
    STR, so it binds and type-checks as a string; the binder then rejects
    any other word."""

    def __new__(cls, *words: str):
        kind = super().__new__(cls, STR)
        kind.words = words
        return kind


@dataclass(frozen=True)
class Signature:
    """The argument kinds of a constructor or check: one per required
    positional argument, `rest` for any further positional arguments (at most
    `most` positional arguments in all), and one per allowed keyword."""

    args: Tuple[str, ...]
    rest: Optional[str] = None
    most: Optional[int] = None
    kw: Tuple[Tuple[str, str], ...] = ()


def sig(*args: str, rest: Optional[str] = None, most: Optional[int] = None,
        **kw: str) -> Signature:
    """A Signature with the keyword kinds given as keyword arguments."""
    return Signature(args, rest, most, tuple(kw.items()))


def _bind(ctx: SessionContext, node: Call, signature: Signature, on=None):
    """Evaluate a call's arguments against its signature: (args, kwargs).
    Element literals are parsed in the ring of the first valuation argument,
    or else of the first quasi-order argument.  An ideal argument lives on the
    call's 'on' ring."""
    got, need = len(node.args), len(signature.args)
    most = need if signature.rest is None else signature.most
    if got < need or (most is not None and got > most):
        bound = need if got < need else most
        qualifier = "" if signature.rest is None else "at least " if got < need else "at most "
        raise DslError(f"{node.name} takes {qualifier}{bound} positional argument(s), "
                       f"got {got}", node.line, node.col)
    kinds = dict(signature.kw)
    for k, _ in node.kwargs:
        if k not in kinds:
            raise DslError(f"{node.name} got unexpected keyword {k!r}", node.line, node.col)
    slots = [(signature.args[i] if i < need else signature.rest, a)
             for i, a in enumerate(node.args)]
    slots += [(kinds[k], a) for k, a in node.kwargs]
    values = [_arg(ctx, kind, a, on) for kind, a in slots]
    subjects = [x for x in values if isinstance(x, Valuation)]
    subjects += [x for x in values if isinstance(x, QuasiOrder)]
    for i, (kind, a) in enumerate(slots):
        if kind == ELEM:
            values[i] = _parse_element(subjects[0].ring, values[i], a)
        elif kind == ELEMS:
            values[i] = [_parse_element(subjects[0].ring, t, a) for t in values[i]]
    return values[:got], {k: x for (k, _), x in zip(node.kwargs, values[got:])}


def _arg(ctx: SessionContext, kind: str, node, on):
    if kind == NAME:
        if not isinstance(node, Ref):
            raise DslError(f"{kind} expected, got {node_text(node)}", node.line, node.col)
        return node.name
    value = _eval(ctx, node, on if kind == IDEAL else None)
    if kind in _ITEM_TYPES:
        ok = isinstance(value, list) and all(isinstance(x, _ITEM_TYPES[kind]) for x in value)
    else:
        ok = isinstance(value, _TYPES[kind])
    if not ok:
        raise DslError(f"{kind} expected, got {type(value).__name__}", node.line, node.col)
    if isinstance(kind, OneOf) and value not in kind.words:
        words = ", ".join(f'"{w}"' for w in kind.words)
        raise DslError(f"one of {words} expected, got {node_text(node)}", node.line, node.col)
    return value


# ---------------------------------------------------------------------------
# constructors


def _eval(ctx: SessionContext, node, on: Optional[Ring] = None):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, StrLit):
        return node.value
    if isinstance(node, ListLit):
        return [_eval(ctx, item, on) for item in node.items]
    if isinstance(node, Ref):
        return ctx.lookup(node)
    if isinstance(node, Call):
        if node.name not in CONSTRUCTORS:
            raise DslError(f"unknown constructor {node.name!r}", node.line, node.col)
        build, signature = CONSTRUCTORS[node.name]
        args, kw = _bind(ctx, node, signature, on)
        return build(ctx, node, on, *args, **kw)
    raise DslError("bad expression", getattr(node, "line", 0), getattr(node, "col", 0))


def _need_on(node: Call, on) -> Ring:
    if on is None:
        raise DslError(f"{node.name} needs an 'on <ring>' clause", node.line, node.col)
    return on


def _plain(f: Callable) -> Callable:
    """A constructor that neither reads the session nor the 'on' ring."""
    return lambda ctx, node, on, *args, **kw: f(*args, **kw)


def _on(f: Callable) -> Callable:
    """A constructor whose first argument is the 'on' ring."""
    return lambda ctx, node, on, *args: f(_need_on(node, on), *args)


def _c_padic(ctx, node: Call, on, p):
    ring = on or QQ
    if isinstance(ring, ResidueDomainRing):
        if ring.concrete_ring is None or ring.concrete_ring is not QQ:
            raise DslError(
                f"padic needs a residue domain isomorphic to Q, got {ring.name}",
                node.line,
                node.col,
            )
        return transport_to_residue(padic_valuation(p, QQ), ring)
    return padic_valuation(p, ring)


def _c_gauss(ctx, node: Call, on, u, *gammas):
    ring = _need_on(node, on)
    if not isinstance(ring, PolynomialRing):
        raise DslError("gauss lives on a polynomial ring", node.line, node.col)
    return gauss_on(u, ring, list(gammas))


def _c_composite(ctx, node: Call, on, v, u, section=None):
    sections = [section] if section is not None else [v.preimage(b) for b in v.group.basis]
    return composite_valuation(v, u, sections)


def _c_quotient_val(ctx, node: Call, on, w, v):
    U = ctx.universe(w.ring, ctx.seed, ctx.samples)
    return quotient_val(w, v, U, samples=min(ctx.samples, 300))


def _c_natural_order(ctx, node: Call, on):
    ring = _need_on(node, on)
    if isinstance(ring, ResidueDomainRing):
        if ring.concrete_ring is None:
            raise DslError(
                f"{node.name} needs a concrete residue form on {ring.name}",
                node.line,
                node.col,
            )
        return transport_qo(natural_order(ring.concrete_ring), ring)
    if not isinstance(ring, (IntegerRing, RationalField)):
        raise DslError(f"{node.name} does not live on {ring.name}", node.line, node.col)
    return natural_order(ring)


def _living_on(ring_type, factory, where):
    def build(ctx, node: Call, on):
        if not isinstance(_need_on(node, on), ring_type):
            raise DslError(f"{node.name} lives on {where}", node.line, node.col)
        return factory(on)
    return build


def _basis(v: Valuation, pis=None, signs=None) -> BasisData:
    if pis is None:
        return default_basis(v)
    return BasisData(v, pis, basis_signs=tuple(signs) if signs else None)


def _lift_data(node: Call, v, eta=None, residue=None, pis=None, signs=None) -> LiftData:
    if residue is None:
        raise DslError("lift needs residue=<quasi-order>", node.line, node.col)
    if eta is None:
        raise DslError("lift needs eta=[+-1,...]", node.line, node.col)
    return LiftData(
        _basis(v, pis, signs),
        EtaVector(tuple(eta)),
        transport_qo(residue, v.residue_ring()),
    )


_LIFT_KW = dict(eta=INTS, residue=QO, pis=ELEMS, signs=INTS)

#: name -> (builder, signature).  A builder is called as
#: builder(ctx, call, on, *args, **kwargs) with the bound arguments.
CONSTRUCTORS: Dict[str, Tuple[Callable, Signature]] = {
    "poly": (_plain(poly_ring), sig(RING, NAME, rest=NAME)),
    "frac": (_plain(lambda base: fraction_field(base)[0]), sig(RING)),
    "residue": (_plain(lambda v: v.residue_ring()), sig(VAL)),
    "zero": (_on(ZeroIdeal), sig()),
    "principal": (_on(PrincipalIdeal), sig(INT)),
    "vars": (_on(lambda ring, *names: VariableIdeal(ring, names)), sig(rest=NAME)),
    "padic": (_c_padic, sig(INT)),
    "trivial": (_on(trivial_valuation), sig(rest=IDEAL, most=1)),
    "gauss": (_c_gauss, sig(VAL, INT, rest=INT)),
    "frac_extend": (_plain(frac_extend_val), sig(VAL, uniformizer=ELEM)),
    "composite": (_c_composite, sig(VAL, VAL, section=ELEM)),
    "quotient_val": (_c_quotient_val, sig(VAL, VAL)),
    "qo": (_plain(from_valuation), sig(VAL)),
    "natural_order": (_c_natural_order, sig()),
    "const_term_order": (
        _living_on(PolynomialRing, const_term_order, "a polynomial ring"), sig()
    ),
    "leading_term_order": (
        _living_on(RationalFunctionField, leading_term_order, "a fraction field"), sig()
    ),
    "at_zero_order": (
        _living_on(RationalFunctionField, at_zero_order, "a fraction field"), sig()
    ),
    "frac_extend_qo": (_plain(frac_extend_qo), sig(QO)),
    "residue_qo": (_plain(residue_qo), sig(QO, VAL)),
    "lift": (
        lambda ctx, node, on, v, **kw: lift(_lift_data(node, v, **kw)), sig(VAL, **_LIFT_KW)
    ),
}


# ---------------------------------------------------------------------------
# checks
#
# A runner is called as runner(call, label, universe, n, *args, **kwargs) with
# the bound arguments and returns the check's results.


def _lib(check: Callable) -> Callable:
    """The runner of a library check check(*args, universe, samples=, label=)."""

    def run(call, label, U, n, *args):
        out = check(*args, U, samples=n, label=label)
        return out if isinstance(out, list) else [out]

    return run


def _ck_classify(call, label, U, n, q, expect=None):
    kind = classify_qo(q)
    ok = expect is None or kind == {"proper": PROPER}.get(expect, expect)
    return [result(label, ok, (kind,), 1, detail=kind)]


def _ck_convex(call, label, U, n, v, q, set="iv"):
    within = in_iv if set == "iv" else in_rv
    return [is_convex(lambda x: within(v, x), q, U, samples=n, label=label)]


def _ck_table(call, label, U, n, v, q):
    rep = table_conditions(v, q, U, samples=n, label=label)
    return rep.checks + [result(f"{label}.flags", True, None, n, rep.format_flags())]


def _ck_rank(call, label, U, n, q, *candidates, expect=None):
    _, _, checks = rank_check(q, list(candidates), U, samples=n, label=label, expect=expect)
    return checks


def _ck_roundtrip(call, label, U, n, v, **kw):
    return roundtrip_check(_lift_data(call, v, **kw), U, samples=n, label=label)


def _ck_lift_props(call, label, U, n, v, **kw):
    return lift_properties_check(_lift_data(call, v, **kw), U, samples=n, label=label)


def _ck_reconstruct(call, label, U, n, q, v, pis=None, signs=None):
    return reconstruct_check(q, _basis(v, pis, signs), U, samples=n, label=label)


def _ck_val_value(call, label, U, n, v, x, want_text):
    got = v(x)
    if want_text == "inf":
        ok = got is INF
    else:
        want = tuple(int(t) for t in re.findall(r"-?\d+", want_text))
        ok = got is not INF and got == want
    detail = f"{v.name}({x}) = {format_value(got)}"
    return [result(label, ok, (str(x), format_value(got)), 1, detail=detail)]


def _ck_val_agree(call, label, U, n, v, w):
    singles = U.singles(n, label)
    # the witness carries both values, so this is not a plain sweep
    x = next((x for x in singles if v(x) != w(x)), None)
    witness = None if x is None else (x, format_value(v(x)), format_value(w(x)))
    return [result(label, x is None, witness, len(singles))]


def _ck_qo_agree(call, label, U, n, q1, q2):
    return [sweep(label, U.pairs(n, label), lambda x, y: q1.le(x, y) != q2.le(x, y))]


def _ck_unbounded_above(call, label, U, n, q, x):
    import random as _random

    rng = _random.Random(U.seed ^ 0xA5C3)
    ns = [1, 2, 3, 5, 10, 100, 1000, 10 ** 6]
    while len(ns) < n:
        ns.append(rng.randint(1, 10 ** 6))
    r = sweep(label, [(k,) for k in ns], lambda k: not q.strict(q.ring.from_int(k), x))
    if r.status == PASS:
        r.detail = f"{x} exceeds all sampled integers up to 10^6"
    return [r]


#: name -> (runner, signature).  Every check's first argument is its subject,
#: a valuation or a quasi-order, whose ring its sample universe is drawn from.
CHECKS: Dict[str, Tuple[Callable, Signature]] = {
    "val_axioms": (_lib(check_val_axioms), sig(VAL)),
    "qo_axioms": (_lib(check_qo_axioms), sig(QO)),
    "derived_lemmas": (_lib(check_derived_lemmas), sig(QO)),
    "classify": (_ck_classify, sig(QO, expect=OneOf("order", "proper", PROPER))),
    "compat": (_lib(is_compatible), sig(VAL, QO)),
    "convex": (_ck_convex, sig(VAL, QO, set=OneOf("iv", "rv"))),
    "table_conditions": (_ck_table, sig(VAL, QO)),
    "compat_equivalence": (_lib(theorem_compat_report), sig(VAL, QO)),
    "iv_prec_one": (_lib(iv_prec_one), sig(VAL, QO)),
    "special_star": (_lib(special_star_check), sig(VAL)),
    "coarsening": (_lib(coarsening_check), sig(VAL, VAL)),
    "equivalent": (_lib(equivalent_check), sig(VAL, VAL)),
    "rank": (_ck_rank, sig(QO, rest=VAL, expect=INT)),
    "roundtrip": (_ck_roundtrip, sig(VAL, **_LIFT_KW)),
    "lift_props": (_ck_lift_props, sig(VAL, **_LIFT_KW)),
    "reconstruct": (_ck_reconstruct, sig(QO, VAL, pis=ELEMS, signs=INTS)),
    "val_value": (_ck_val_value, sig(VAL, ELEM, STR)),
    "val_agree": (_ck_val_agree, sig(VAL, VAL)),
    "qo_agree": (_ck_qo_agree, sig(QO, QO)),
    "unbounded_above": (_ck_unbounded_above, sig(QO, ELEM)),
}


# ---------------------------------------------------------------------------
# runner


def run_session(
    ast: SessionAst,
    seed: int = 42,
    samples: int = 500,
    label_prefix: str = "",
) -> Report:
    ctx = SessionContext(seed=seed, samples=samples)
    report = Report(seed=seed)
    for stmt in ast.statements:
        if isinstance(stmt, Check):
            report.extend(_run_check(ctx, stmt, label_prefix))
        elif (entry := execute_statement(ctx, stmt, label_prefix)) is not None:
            report.checks.append(entry)
            if entry.status == FAIL:
                report.halted = True
                return report
    return report


def execute_statement(ctx: SessionContext, stmt, label_prefix: str) -> Optional[CheckResult]:
    """Run a let, pin or show statement.  Returns its report entry, if any:
    a show's PASS, or the FAIL of a failed let, which halts the session."""
    if isinstance(stmt, Let):
        try:
            on = None
            if stmt.on is not None:
                on = _eval(ctx, stmt.on)
                if not isinstance(on, Ring):
                    raise DslError("the 'on' clause must name a ring", stmt.line, stmt.col)
            value = _eval(ctx, stmt.expr, on)
            # an object keeps the name of its first let; a later one is an alias
            if isinstance(value, (Valuation, QuasiOrder)) and not any(
                value is bound for bound in ctx.env.values()
            ):
                value.name = stmt.name
            ctx.env[stmt.name] = value
        except (PreconditionError, ValueError, ZeroDivisionError, RingMismatchError,
                GroupMismatchError) as e:
            witness = e.witness if isinstance(e, PreconditionError) else None
            return result(f"{label_prefix}let {stmt.name}", False, witness, 0, detail=str(e))
    elif isinstance(stmt, Pin):
        ring = _eval(ctx, stmt.on)
        if not isinstance(ring, Ring):
            raise DslError("pin needs a ring after 'on'", stmt.line, stmt.col)
        ctx.pin(ring, [_parse_element(ring, t, stmt) for t in stmt.literals])
    elif isinstance(stmt, Show):
        value = ctx.lookup(Ref(stmt.name, stmt.line, stmt.col))
        return result(f"{label_prefix}show({stmt.name})", True, None, 0, detail=repr(value))
    else:
        raise DslError("unknown statement", 0, 0)
    return None


@dataclass(frozen=True)
class BoundCheck:
    """A check resolved against its session: runner, label, arguments,
    seed, count and universe size."""

    runner: Callable
    label: str
    args: list
    kw: dict
    seed: int
    n: int
    size: int

    def universe(self, ctx: SessionContext) -> SampleUniverse:
        return ctx.universe(self.args[0].ring, self.seed, self.size)


def bind_check(ctx: SessionContext, stmt: Check, label_prefix: str) -> BoundCheck:
    call = stmt.call
    if call.name not in CHECKS:
        raise DslError(f"unknown check {call.name!r}", call.line, call.col)
    runner, signature = CHECKS[call.name]
    args, kw = _bind(ctx, call, signature)
    params = dict(stmt.params)
    for key in params:
        if key not in ("count", "seed", "universe"):
            raise DslError(f"samples got unexpected keyword {key!r}", stmt.line, stmt.col)
    seed = params.get("seed", ctx.seed)
    n = params.get("count", ctx.samples)
    if n < 1:
        raise DslError(f"sample count must be at least 1, got {n}", stmt.line, stmt.col)
    size = params.get("universe", max(50, n // 2))
    if size < 1:
        raise DslError(f"universe size must be at least 1, got {size}", stmt.line, stmt.col)
    return BoundCheck(runner, label_prefix + node_text(call), args, kw, seed, n, size)


def _run_check(ctx: SessionContext, stmt: Check, label_prefix: str) -> List[CheckResult]:
    b = bind_check(ctx, stmt, label_prefix)
    try:
        universe = b.universe(ctx)
        start = time.perf_counter()
        results = b.runner(stmt.call, b.label, universe, b.n, *b.args, **b.kw)
        elapsed = (time.perf_counter() - start) * 1000.0
        for r in results:
            r.elapsed_ms = elapsed / max(len(results), 1)
        return results
    except PreconditionError as e:
        witness, detail = e.witness, f"precondition: {e}"
    except (RingMismatchError, ValueError, ZeroDivisionError) as e:
        witness, detail = None, f"check error: {e}"
    return [result(b.label, False, witness, 0, detail=detail)]


def run_text(text: str, seed: int = 42, samples: int = 500) -> Report:
    return run_session(parse_session(text), seed=seed, samples=samples)

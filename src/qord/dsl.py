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
from .groups import INF, format_value
from .quasiorders import (
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
from .report import FAIL, CheckResult, PreconditionError, Report, result, sweep
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
    PolynomialRing,
    PrincipalIdeal,
    RationalFunctionField,
    Ring,
    RingElement,
    RingMismatchError,
    VariableIdeal,
    ZeroIdeal,
    fraction_field,
    poly_ring,
)
from .sampling import Bounds, SampleUniverse
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
    bounds: Bounds = field(default_factory=Bounds)
    env: Dict[str, object] = field(default_factory=dict)
    pins: Dict[str, List[RingElement]] = field(default_factory=dict)
    universes: Dict[tuple, SampleUniverse] = field(default_factory=dict)

    def __post_init__(self):
        self.env.setdefault("Z", ZZ)
        self.env.setdefault("Q", QQ)

    def lookup(self, ref: Ref):
        if ref.name not in self.env:
            raise DslError(f"unknown name {ref.name!r}", ref.line, ref.col)
        return self.env[ref.name]

    def pin(self, ring: Ring, elements: Sequence[RingElement]):
        bucket = self.pins.setdefault(ring.key, [])
        seen = {str(x) for x in bucket}
        for x in elements:
            if str(x) not in seen:
                bucket.append(x)
                seen.add(str(x))

    def universe(self, ring: Ring, seed: int, count: int) -> SampleUniverse:
        """The session's one universe for (ring, seed, count, pins); a universe
        is a pure function of them.  The cached universe holds the ring and
        the pins, so their ids in the key cannot be reused."""
        pins = tuple(self.pins.get(ring.key, ()))
        key = (id(ring), seed, count, tuple(map(id, pins)))
        if key not in self.universes:
            self.universes[key] = SampleUniverse(
                ring, seed=seed, count=count, bounds=self.bounds, distinguished=pins
            )
        return self.universes[key]


def _expect(value, types, what, node):
    if not isinstance(value, types):
        raise DslError(
            f"{what} expected, got {type(value).__name__}", node.line, node.col
        )
    return value


def _parse_element(ring: Ring, text: str, node) -> RingElement:
    try:
        return ring.parse(text)
    except (ElementSyntaxError, ValueError, ZeroDivisionError) as e:
        raise DslError(f"bad element literal {text!r} for {ring.name}: {e}",
                       node.line, node.col)


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
        builder = CONSTRUCTORS.get(node.name)
        if builder is None:
            raise DslError(f"unknown constructor {node.name!r}", node.line, node.col)
        return builder(ctx, node, on)
    raise DslError("bad expression", getattr(node, "line", 0), getattr(node, "col", 0))


def _arity(node: Call, n_args: int, kw_allowed=(), at_least: bool = False):
    got = len(node.args)
    if got < n_args or (got > n_args and not at_least):
        raise DslError(
            f"{node.name} takes {'at least ' if at_least else ''}{n_args} "
            f"positional argument(s), got {got}",
            node.line,
            node.col,
        )
    for k, _ in node.kwargs:
        if k not in kw_allowed:
            raise DslError(f"{node.name} got unexpected keyword {k!r}", node.line, node.col)


def _kwargs(ctx: SessionContext, node: Call, on=None) -> dict:
    return {k: _eval(ctx, v, on) for k, v in node.kwargs}


def _need_on(node: Call, on) -> Ring:
    if on is None:
        raise DslError(f"{node.name} needs an 'on <ring>' clause", node.line, node.col)
    return on


def _c_poly(ctx, node: Call, on):
    if len(node.args) < 2:
        raise DslError("poly(base, vars...) needs a base and variables", node.line, node.col)
    base = _expect(_eval(ctx, node.args[0]), Ring, "a ring", node)
    names = []
    for arg in node.args[1:]:
        if not isinstance(arg, Ref):
            raise DslError("poly variables must be bare names", node.line, node.col)
        names.append(arg.name)
    return poly_ring(base, *names)


def _c_frac(ctx, node: Call, on):
    _arity(node, 1)
    base = _expect(_eval(ctx, node.args[0]), Ring, "a ring", node)
    return fraction_field(base)[0]


def _c_residue(ctx, node: Call, on):
    _arity(node, 1)
    v = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    return v.residue_ring()


def _c_zero_ideal(ctx, node: Call, on):
    _arity(node, 0)
    return ZeroIdeal(_need_on(node, on))


def _c_principal(ctx, node: Call, on):
    _arity(node, 1)
    g = _expect(_eval(ctx, node.args[0]), int, "an integer", node)
    return PrincipalIdeal(_need_on(node, on), g)


def _c_vars_ideal(ctx, node: Call, on):
    ring = _need_on(node, on)
    names = []
    for arg in node.args:
        if not isinstance(arg, Ref):
            raise DslError("vars(...) takes bare variable names", node.line, node.col)
        names.append(arg.name)
    return VariableIdeal(ring, names)


def _c_padic(ctx, node: Call, on):
    _arity(node, 1)
    p = _expect(_eval(ctx, node.args[0]), int, "a prime", node)
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


def _c_trivial(ctx, node: Call, on):
    ring = _need_on(node, on)
    if len(node.args) > 1:
        raise DslError("trivial([support]) takes at most one argument", node.line, node.col)
    support = None
    if node.args:
        support = _expect(_eval(ctx, node.args[0], ring), Ideal, "an ideal", node)
    return trivial_valuation(ring, support)


def _c_gauss(ctx, node: Call, on):
    if len(node.args) < 2:
        raise DslError("gauss(u, gammas...) needs a base valuation and twists", node.line, node.col)
    ring = _need_on(node, on)
    if not isinstance(ring, PolynomialRing):
        raise DslError("gauss lives on a polynomial ring", node.line, node.col)
    u = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    gammas = [_expect(_eval(ctx, a), int, "an integer twist", node) for a in node.args[1:]]
    return gauss_on(u, ring, gammas)


def _c_frac_extend(ctx, node: Call, on):
    _arity(node, 1, kw_allowed=("uniformizer",))
    v = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    kw = _kwargs(ctx, node)
    t = None
    if "uniformizer" in kw:
        t = _parse_element(v.ring, kw["uniformizer"], node)
    return frac_extend_val(v, uniformizer=t)


def _c_composite(ctx, node: Call, on):
    _arity(node, 2, kw_allowed=("section",))
    v = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    u = _expect(_eval(ctx, node.args[1]), Valuation, "a valuation", node)
    kw = _kwargs(ctx, node)
    if "section" in kw:
        sections = [_parse_element(v.ring, kw["section"], node)]
    else:
        sections = [v.preimage(b) for b in v.group.basis]
    return composite_valuation(v, u, sections)


def _c_quotient_val(ctx, node: Call, on):
    _arity(node, 2)
    w = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    v = _expect(_eval(ctx, node.args[1]), Valuation, "a valuation", node)
    U = ctx.universe(w.ring, ctx.seed, ctx.samples)
    return quotient_val(w, v, U, samples=min(ctx.samples, 300))


def _c_qo(ctx, node: Call, on):
    _arity(node, 1)
    v = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    return from_valuation(v)


def _transportable(ctx, node, on, factory, ring_check):
    ring = _need_on(node, on)
    if isinstance(ring, ResidueDomainRing):
        if ring.concrete_ring is None:
            raise DslError(
                f"{node.name} needs a concrete residue form on {ring.name}",
                node.line,
                node.col,
            )
        return transport_qo(factory(ring.concrete_ring), ring)
    if not ring_check(ring):
        raise DslError(f"{node.name} does not live on {ring.name}", node.line, node.col)
    return factory(ring)


def _c_natural_order(ctx, node: Call, on):
    _arity(node, 0)
    return _transportable(
        ctx, node, on, natural_order, lambda r: r is ZZ or r is QQ or r.kind in ("integers", "rationals")
    )


def _c_const_term_order(ctx, node: Call, on):
    _arity(node, 0)
    ring = _need_on(node, on)
    if not isinstance(ring, PolynomialRing):
        raise DslError("const_term_order lives on a polynomial ring", node.line, node.col)
    return const_term_order(ring)


def _c_leading_term_order(ctx, node: Call, on):
    _arity(node, 0)
    ring = _need_on(node, on)
    if not isinstance(ring, RationalFunctionField):
        raise DslError("leading_term_order lives on a fraction field", node.line, node.col)
    return leading_term_order(ring)


def _c_at_zero_order(ctx, node: Call, on):
    _arity(node, 0)
    ring = _need_on(node, on)
    if not isinstance(ring, RationalFunctionField):
        raise DslError("at_zero_order lives on a fraction field", node.line, node.col)
    return at_zero_order(ring)


def _c_frac_extend_qo(ctx, node: Call, on):
    _arity(node, 1)
    q = _expect(_eval(ctx, node.args[0]), QuasiOrder, "a quasi-order", node)
    return frac_extend_qo(q)


def _c_residue_qo(ctx, node: Call, on):
    _arity(node, 2)
    q = _expect(_eval(ctx, node.args[0]), QuasiOrder, "a quasi-order", node)
    v = _expect(_eval(ctx, node.args[1]), Valuation, "a valuation", node)
    return residue_qo(q, v)


def _lift_data(node: Call, v, kw) -> LiftData:
    rq = kw.get("residue")
    if not isinstance(rq, QuasiOrder):
        raise DslError("lift needs residue=<quasi-order>", node.line, node.col)
    eta = kw.get("eta")
    if not isinstance(eta, list) or not all(isinstance(s, int) for s in eta):
        raise DslError("lift needs eta=[+-1,...]", node.line, node.col)
    if "pis" in kw:
        pis = [_parse_element(v.ring, t, node) for t in kw["pis"]]
        signs = kw.get("signs")
        basis = BasisData(v, pis, basis_signs=tuple(signs) if signs else None)
    else:
        basis = default_basis(v)
    if rq.ring.key != v.residue_ring().key and isinstance(
        v.residue_ring(), ResidueDomainRing
    ):
        residue = v.residue_ring()
        if residue.concrete_ring is not None and rq.ring.key == residue.concrete_ring.key:
            rq = transport_qo(rq, residue)
    return LiftData(basis, EtaVector(tuple(eta)), rq)


_LIFT_KW = ("eta", "residue", "pis", "signs")


def _c_lift(ctx, node: Call, on):
    _arity(node, 1, kw_allowed=_LIFT_KW)
    v = _expect(_eval(ctx, node.args[0]), Valuation, "a valuation", node)
    kw = _kwargs(ctx, node)
    return lift(_lift_data(node, v, kw))


CONSTRUCTORS: Dict[str, Callable] = {
    "poly": _c_poly,
    "frac": _c_frac,
    "residue": _c_residue,
    "zero": _c_zero_ideal,
    "principal": _c_principal,
    "vars": _c_vars_ideal,
    "padic": _c_padic,
    "trivial": _c_trivial,
    "gauss": _c_gauss,
    "frac_extend": _c_frac_extend,
    "composite": _c_composite,
    "quotient_val": _c_quotient_val,
    "qo": _c_qo,
    "natural_order": _c_natural_order,
    "const_term_order": _c_const_term_order,
    "leading_term_order": _c_leading_term_order,
    "at_zero_order": _c_at_zero_order,
    "frac_extend_qo": _c_frac_extend_qo,
    "residue_qo": _c_residue_qo,
    "lift": _c_lift,
}


# ---------------------------------------------------------------------------
# checks


def _subject_ring(args) -> Ring:
    for a in args:
        if isinstance(a, (Valuation, QuasiOrder)):
            return a.ring
        if isinstance(a, Ring):
            return a
    raise PreconditionError("check has no subject carrying a ring")


def _ck_val_axioms(call, label, args, kw, U, n):
    (v,) = args
    return check_val_axioms(v, U, samples=n, label=label)


def _ck_qo_axioms(call, label, args, kw, U, n):
    (q,) = args
    return check_qo_axioms(q, U, samples=n, label=label)


def _ck_derived(call, label, args, kw, U, n):
    (q,) = args
    return check_derived_lemmas(q, U, samples=n, label=label)


def _ck_classify(call, label, args, kw, U, n):
    (q,) = args
    kind = classify_qo(q)
    expect = kw.get("expect")
    ok = expect is None or kind == {"order": "order", "proper": "proper-quasi-order"}.get(
        expect, expect
    )
    return [result(label, ok, (kind,), 1, U.seed, detail=kind)]


def _ck_compat(call, label, args, kw, U, n):
    v, q = args
    return [is_compatible(v, q, U, samples=n, label=label)]


def _ck_convex(call, label, args, kw, U, n):
    v, q = args
    which = kw.get("set", "iv")
    if which == "iv":
        member = lambda x: in_iv(v, x)
    elif which == "rv":
        member = lambda x: in_rv(v, x)
    else:
        raise PreconditionError(f"convex: unknown set {which!r}")
    return [is_convex(member, q, U, samples=n, label=label)]


def _ck_table(call, label, args, kw, U, n):
    v, q = args
    rep = table_conditions(v, q, U, samples=n, label=label)
    return rep.checks + [result(f"{label}.flags", True, None, n, U.seed, rep.format_flags())]


def _ck_compat_equivalence(call, label, args, kw, U, n):
    v, q = args
    return theorem_compat_report(v, q, U, samples=n, label=label)


def _ck_iv1(call, label, args, kw, U, n):
    v, q = args
    return iv_prec_one(v, q, U, samples=n, label=label)


def _ck_special_star(call, label, args, kw, U, n):
    (v,) = args
    return special_star_check(v, U, samples=n, label=label)


def _ck_coarsening(call, label, args, kw, U, n):
    v, w = args
    return coarsening_check(v, w, U, samples=n, label=label)


def _ck_equivalent(call, label, args, kw, U, n):
    v, w = args
    return equivalent_check(v, w, U, samples=n, label=label)


def _ck_rank(call, label, args, kw, U, n):
    q = args[0]
    if not isinstance(q, QuasiOrder):
        raise PreconditionError("rank wants a quasi-order first")
    cands = list(args[1:])
    for v in cands:
        if not isinstance(v, Valuation):
            raise PreconditionError(f"rank candidates must be valuations, got {v!r}")
    _, _, checks = rank_check(q, cands, U, samples=n, label=label, expect=kw.get("expect"))
    return checks


def _ck_roundtrip(call, label, args, kw, U, n):
    (v,) = args
    data = _lift_data(call, v, kw)
    return roundtrip_check(data, U, samples=n, label=label)


def _ck_lift_props(call, label, args, kw, U, n):
    (v,) = args
    data = _lift_data(call, v, kw)
    return lift_properties_check(data, U, samples=n, label=label)


def _ck_reconstruct(call, label, args, kw, U, n):
    q, v = args
    if "pis" in kw:
        pis = [v.ring.parse(t) for t in kw["pis"]]
        signs = kw.get("signs")
        basis = BasisData(v, pis, basis_signs=tuple(signs) if signs else None)
    else:
        basis = default_basis(v)
    return reconstruct_check(q, basis, U, samples=n, label=label)


def _ck_val_value(call, label, args, kw, U, n):
    v = args[0]
    x = v.ring.parse(args[1])
    got = v(x)
    want_text = args[2]
    if want_text == "inf":
        ok = got is INF
    else:
        want = tuple(int(t) for t in re.findall(r"-?\d+", want_text))
        ok = got is not INF and got == want
    detail = f"{v.name}({x}) = {format_value(got)}"
    return [result(label, ok, (str(x), format_value(got)), 1, U.seed, detail=detail)]


def _ck_val_agree(call, label, args, kw, U, n):
    v, w = args
    singles = U.singles(n, label)
    # the witness carries both values, so this is not a plain sweep
    x = next((x for x in singles if v(x) != w(x)), None)
    witness = None if x is None else (x, format_value(v(x)), format_value(w(x)))
    return [result(label, x is None, witness, len(singles), U.seed)]


def _ck_qo_agree(call, label, args, kw, U, n):
    q1, q2 = args
    return [sweep(label, U.pairs(n, label), lambda x, y: q1.le(x, y) != q2.le(x, y), U.seed)]


def _ck_unbounded_above(call, label, args, kw, U, n):
    q = args[0]
    x = q.ring.parse(args[1])
    import random as _random

    rng = _random.Random(U.seed ^ 0xA5C3)
    ns = [1, 2, 3, 5, 10, 100, 1000, 10 ** 6]
    while len(ns) < n:
        ns.append(rng.randint(1, 10 ** 6))
    return [
        sweep(
            label,
            [(k,) for k in ns],
            lambda k: not q.strict(q.ring.from_int(k), x),
            U.seed,
            detail=f"{x} exceeds all sampled integers up to 10^6",
        )
    ]


#: name -> (runner, positional argument count, allowed keywords).  rank
#: takes a quasi-order and then any number of candidate valuations.
CHECKS: Dict[str, Tuple[Callable, int, Tuple[str, ...]]] = {
    "val_axioms": (_ck_val_axioms, 1, ()),
    "qo_axioms": (_ck_qo_axioms, 1, ()),
    "derived_lemmas": (_ck_derived, 1, ()),
    "classify": (_ck_classify, 1, ("expect",)),
    "compat": (_ck_compat, 2, ()),
    "convex": (_ck_convex, 2, ("set",)),
    "table_conditions": (_ck_table, 2, ()),
    "compat_equivalence": (_ck_compat_equivalence, 2, ()),
    "iv_prec_one": (_ck_iv1, 2, ()),
    "special_star": (_ck_special_star, 1, ()),
    "coarsening": (_ck_coarsening, 2, ()),
    "equivalent": (_ck_equivalent, 2, ()),
    "rank": (_ck_rank, 1, ("expect",)),
    "roundtrip": (_ck_roundtrip, 1, _LIFT_KW),
    "lift_props": (_ck_lift_props, 1, _LIFT_KW),
    "reconstruct": (_ck_reconstruct, 2, ("pis", "signs")),
    "val_value": (_ck_val_value, 3, ()),
    "val_agree": (_ck_val_agree, 2, ()),
    "qo_agree": (_ck_qo_agree, 2, ()),
    "unbounded_above": (_ck_unbounded_above, 2, ()),
}


# ---------------------------------------------------------------------------
# runner


def run_session(
    ast: SessionAst,
    seed: int = 42,
    samples: int = 500,
    bounds: Optional[Bounds] = None,
    label_prefix: str = "",
) -> Report:
    ctx = SessionContext(seed=seed, samples=samples, bounds=bounds or Bounds())
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
            if isinstance(value, (Valuation, QuasiOrder)):
                value.name = stmt.name
            ctx.env[stmt.name] = value
        except (PreconditionError, ValueError, ZeroDivisionError) as e:
            witness = getattr(e, "witness", None)
            return result(f"{label_prefix}let {stmt.name}", False, witness, 0, ctx.seed,
                          detail=str(e))
    elif isinstance(stmt, Pin):
        ring = _eval(ctx, stmt.on)
        if not isinstance(ring, Ring):
            raise DslError("pin needs a ring after 'on'", stmt.line, stmt.col)
        ctx.pin(ring, [_parse_element(ring, t, stmt) for t in stmt.literals])
    elif isinstance(stmt, Show):
        value = ctx.lookup(Ref(stmt.name, stmt.line, stmt.col))
        return result(f"{label_prefix}show({stmt.name})", True, None, 0, ctx.seed,
                      detail=repr(value))
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
        return ctx.universe(_subject_ring(self.args), self.seed, self.size)


def bind_check(ctx: SessionContext, stmt: Check, label_prefix: str) -> BoundCheck:
    call = stmt.call
    spec = CHECKS.get(call.name)
    if spec is None:
        raise DslError(f"unknown check {call.name!r}", call.line, call.col)
    runner, n_args, kw_allowed = spec
    _arity(call, n_args, kw_allowed, at_least=call.name == "rank")
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
    args = [_eval(ctx, a) for a in call.args]
    return BoundCheck(
        runner, label_prefix + node_text(call), args, _kwargs(ctx, call), seed, n, size
    )


def _run_check(ctx: SessionContext, stmt: Check, label_prefix: str) -> List[CheckResult]:
    b = bind_check(ctx, stmt, label_prefix)
    try:
        universe = b.universe(ctx)
        start = time.perf_counter()
        results = b.runner(stmt.call, b.label, b.args, b.kw, universe, b.n)
        elapsed = (time.perf_counter() - start) * 1000.0
        for r in results:
            r.elapsed_ms = elapsed / max(len(results), 1)
        return results
    except PreconditionError as e:
        witness, detail = e.witness, f"precondition: {e}"
    except (RingMismatchError, ElementSyntaxError, ValueError, ZeroDivisionError,
            AttributeError, TypeError) as e:
        witness, detail = None, f"check error: {e}"
    return [result(b.label, False, witness, 0, b.seed, detail=detail)]


def run_text(text: str, seed: int = 42, samples: int = 500) -> Report:
    return run_session(parse_session(text), seed=seed, samples=samples)

"""Lifting quasi-orders through a Manis valuation.

Fix a Manis valuation v, elements pi_i whose values represent an F2-basis
of the value group mod doubles, a sign vector eta, and a quasi-order with
support {0} on the residue class domain.  The lift compares x and y by
clearing values: gamma = max(-v(x), -v(y)) decomposes as a basis part plus
an even part 2*v(a); multiplying both sides by prod(pi_i)*a^2 lands them
in the valuation ring, where the residue quasi-order decides (with the
roles of x and y swapped when the eta-signs multiply to -1).

The round-trip maps: psi sends a v-compatible quasi-order to its sign
vector and residue quasi-order; the lift inverts psi on the admissible
set (orders with any signs, proper quasi-orders with constant +1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .groups import (
    INF,
    GammaDecomposition,
    ValueGroup,
    mod2_decompose,
    value_cmp,
    value_lt,
    value_neg,
)
from .quasiorders import ORDER, PROPER, QuasiOrder, classify_qo, pullback, transport_qo
from .report import INCONCLUSIVE, PASS, CheckResult, PreconditionError, result, sweep
from .residues import is_compatible, residue_qo, residue_universe
from .rings import RingElement, RingMismatchError
from .sampling import SampleUniverse
from .valuations import (
    Valuation,
    field_embedding,
    frac_extend_val,
    in_rv,
)


@dataclass(frozen=True)
class BasisData:
    """pi_i in the ring with v(pi_i) equal to the i-th chosen basis vector.

    basis_signs picks sign_i * e_i as the representative of the i-th
    F2-basis class; a -1 sign lets rings without positively-valued
    elements (like -deg) still carry a basis.  ``clearing(gamma)`` is
    memoized per gamma on the basis; the table holds ring elements only,
    so it makes no cycle with v.
    """

    valuation: Valuation
    pis: Tuple[RingElement, ...]
    group: ValueGroup

    def __init__(self, valuation: Valuation, pis: Sequence[RingElement],
                 basis_signs: Optional[Sequence[int]] = None):
        if not valuation.manis:
            raise PreconditionError(
                f"basis data needs a Manis valuation, {valuation.name} is not"
            )
        pis = tuple(pis)
        if len(pis) != valuation.group.rank:
            raise ValueError("need one pi per basis vector")
        group = ValueGroup(
            valuation.group.rank,
            tuple(basis_signs) if basis_signs is not None else None,
        )
        for i, pi in enumerate(pis):
            got = valuation(pi)
            if got != group.basis[i]:
                raise ValueError(
                    f"pi_{i} = {pi} has value {got}, expected {group.basis[i]}"
                )
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "pis", pis)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_clearing", {})

    def clearing(self, gamma) -> Tuple[GammaDecomposition, RingElement, RingElement]:
        """(decomposition, multiplier prod(pi_i) * a^2, a) for the value gamma,
        with a = preimage(delta): what clears gamma, built once per gamma."""
        got = self._clearing.get(gamma)
        if got is None:
            dec = mod2_decompose(self.group, gamma)
            a = self.valuation.preimage(dec.delta)
            m = self.valuation.ring.one()
            for i in sorted(dec.index_set):
                m = m * self.pis[i]
            got = self._clearing[gamma] = (dec, m * a * a, a)
        return got


@dataclass(frozen=True)
class EtaVector:
    signs: Tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("eta entries must be -1 or +1")

    def product_over(self, index_set) -> int:
        out = 1
        for i in index_set:
            out *= self.signs[i]
        return out


@dataclass(frozen=True)
class LiftData:
    basis: BasisData
    eta: EtaVector
    residue_qo: QuasiOrder

    def __post_init__(self):
        v = self.basis.valuation
        if len(self.eta.signs) != v.group.rank:
            raise ValueError("eta must be defined on exactly the basis index set")
        if self.residue_qo.ring is not v.residue_ring():
            raise RingMismatchError(
                "residue quasi-order must live on the residue domain of v"
            )
        if classify_qo(self.residue_qo) == PROPER and any(
            s != 1 for s in self.eta.signs
        ):
            raise PreconditionError(
                "a proper residue quasi-order admits only the constant sign +1"
            )


def gamma_data(
    v: Valuation, x: RingElement, y: RingElement, basis: Optional[BasisData] = None
) -> Tuple[GammaDecomposition, RingElement, RingElement]:
    """gamma = max of the negated values (infinite summands dropped),
    its mod-2 decomposition, and the multiplier prod(pi_i) * a^2.

    Returns (decomposition, multiplier, a) with a = preimage(delta).
    """
    if basis is None:
        basis = default_basis(v)
    vx, vy = v(x), v(y)
    finite = [val for val in (vx, vy) if val is not INF]
    if not finite:
        raise PreconditionError("gamma needs an argument outside the support")
    return basis.clearing(max((value_neg(val) for val in finite)))


def default_basis(v: Valuation) -> BasisData:
    """Basis from the fixed preimages of the unit vectors.

    The basis holds v, and v holds it only weakly: while anything holds the
    basis it is the one returned, and once nothing does it is freed by
    reference counting and rebuilt from v's memoized preimages on demand.
    """
    basis = v._default_basis and v._default_basis()
    if basis is None:
        basis = BasisData(v, tuple(v.preimage(b) for b in v.group.basis))
        v._default_basis = weakref.ref(basis)
    return basis


def lift(data: LiftData) -> QuasiOrder:
    """The quasi-order on the whole ring determined by (eta, residue qo).

    Proper residue quasi-orders lift by the pairwise rule: clear the
    larger value with prod(pi_i)*a^2 and compare residues.  Residue
    orders lift through the positive cone of differences instead: the
    pairwise rule applied verbatim to an order would glue elements whose
    cleared residues collide (x and x + t with v(t) > v(x)) and lose
    translation invariance, while the sign of the cleared difference is
    exactly the classical construction and inverts the residue map on
    the nose.
    """
    v = data.basis.valuation
    ring = v.ring
    rq = data.residue_qo
    eta = data.eta
    # gamma -> (payload of the multiplier that clears gamma, eta's sign on
    # it), read off the basis's clearing table
    clearing: dict = {}

    def clear(gamma):
        dec, m, _a = data.basis.clearing(gamma)
        got = clearing[gamma] = (m.payload, eta.product_over(dec.index_set))
        return got

    kind = classify_qo(rq)
    zero = ring.zero_payload()

    if kind == ORDER:

        def cmp(px, py):
            t = ring.sub(py, px)
            tv = v._eval_memo(t)
            if tv is INF:
                return True
            gamma = value_neg(tv)
            m, sign = clearing.get(gamma) or clear(gamma)
            tm = ring.mul(t, m)
            if sign == 1:
                return rq._compare_payload(zero, tm)
            return rq._compare_payload(tm, zero)

    else:

        def cmp(px, py):
            vx = v._eval_memo(px)
            vy = v._eval_memo(py)
            if vx is INF and vy is INF:
                return True
            gamma = max(
                (value_neg(val) for val in (vx, vy) if val is not INF)
            )
            m, sign = clearing.get(gamma) or clear(gamma)
            xm = ring.mul(px, m)
            ym = ring.mul(py, m)
            if sign == 1:
                return rq._compare_payload(xm, ym)
            return rq._compare_payload(ym, xm)

    return QuasiOrder(
        ring,
        cmp,
        f"lift({v.name};{','.join('%+d' % s for s in eta.signs)};{rq.name})",
        support_ideal=v.support,
    )


def extract_eta(q: QuasiOrder, basis: BasisData) -> EtaVector:
    """eta(i) = +1 exactly when 0 <= pi_i."""
    zero = q.ring.zero()
    signs = []
    for pi in basis.pis:
        if q.sim(pi, zero):
            raise PreconditionError(
                f"pi = {pi} is equivalent to 0; support violation", witness=(str(pi),)
            )
        signs.append(1 if q.le(zero, pi) else -1)
    return EtaVector(tuple(signs))


def psi(
    q: QuasiOrder,
    basis: BasisData,
    universe: SampleUniverse,
    samples: int = 400,
) -> LiftData:
    """(eta, residue quasi-order) of a v-compatible quasi-order.

    Preconditions swept on samples: compatibility, and agreement of the
    supports of q and v.
    """
    v = basis.valuation
    comp = is_compatible(v, q, universe, samples, label="psi.compat")
    if comp.status != PASS:
        raise PreconditionError(
            f"{q.name} is not {v.name}-compatible", witness=comp.witness
        )
    zero = q.ring.zero()
    supports = sweep(
        "psi.support",
        universe.tuples(1, samples, "psi.support"),
        lambda x: q.sim(x, zero) != (v(x) is INF),
    )
    if supports.witness:
        raise PreconditionError(
            f"supports of {q.name} and {v.name} disagree", witness=supports.witness
        )
    return LiftData(basis, extract_eta(q, basis), residue_qo(q, v))


def roundtrip_check(
    data: LiftData,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = "roundtrip",
) -> List[CheckResult]:
    """lift then extract: eta must match exactly and the residue
    quasi-order must agree with the input on sampled residue pairs."""
    v = data.basis.valuation
    lifted = lift(data)

    got_eta = extract_eta(lifted, data.basis)
    eta = result(
        f"{label}.eta",
        got_eta == data.eta,
        (str(got_eta.signs), str(data.eta.signs)),
        len(data.eta.signs),
    )

    rq_back = residue_qo(lifted, v)
    runiverse = residue_universe(v, universe)
    agree = sweep(
        f"{label}.residue-agree",
        runiverse.pairs(samples, f"{label}.residue"),
        lambda a, b: rq_back.le(a, b) != data.residue_qo.le(a, b),
    )
    return [eta, agree]


def reconstruct_check(
    q: QuasiOrder,
    basis: BasisData,
    universe: SampleUniverse,
    samples: int = 500,
    label: str = "reconstruct",
) -> List[CheckResult]:
    """psi then lift: the reconstruction must agree with q on sampled pairs."""
    data = psi(q, basis, universe, samples)
    lifted = lift(data)
    return [
        sweep(
            f"{label}.agree",
            universe.pairs(samples, label),
            lambda x, y: q.le(x, y) != lifted.le(x, y),
        )
    ]


def lift_properties_check(
    data: LiftData,
    universe: SampleUniverse,
    samples: int = 400,
    label: str = "lift-props",
) -> List[CheckResult]:
    """The structural guarantees of the lift: support, compatibility, and
    residue placement of the cleared products."""
    from .quasiorders import check_qo_axioms

    v = data.basis.valuation
    lifted = lift(data)
    out = check_qo_axioms(lifted, universe, samples, label=f"{label}.axioms")

    zero = lifted.ring.zero()
    out.append(
        sweep(
            f"{label}.support",
            universe.tuples(1, samples, f"{label}.support"),
            lambda x: lifted.sim(x, zero) != (v(x) is INF),
        )
    )

    out.append(is_compatible(v, lifted, universe, samples, label=f"{label}.compatible"))

    zero_v = v.group.zero()

    def landing_fails(x, y):
        _dec, m, _a = gamma_data(v, x, y, data.basis)
        xm, ym = x * m, y * m
        if not (in_rv(v, xm) and in_rv(v, ym)):
            return True
        # the cleared product vanishes in the residue exactly for the
        # argument of strictly larger value
        return value_lt(zero_v, v(xm)) != (value_cmp(v(x), v(y)) > 0) or value_lt(
            zero_v, v(ym)
        ) != (value_cmp(v(y), v(x)) > 0)

    out.append(
        sweep(
            f"{label}.residue-landing",
            universe.pairs(samples, f"{label}.residue-landing"),
            landing_fails,
            given=lambda x, y: not (v(x) is INF and v(y) is INF),
        )
    )
    return out


# ---------------------------------------------------------------------------
# the general-valuation and special* forms


def bk3_lift(
    v: Valuation,
    eta: Sequence[int],
    residue_order: QuasiOrder,
    universe: SampleUniverse,
    samples: int = 400,
    uniformizer: Optional[RingElement] = None,
    label: str = "bk3",
) -> Tuple[QuasiOrder, QuasiOrder, List[CheckResult]]:
    """Lift at the fraction-field level, then restrict to the ring.

    v may be any valuation whose quotient by the support is a domain; the
    lift happens through the extension to Quot(R/supp), and the result is
    the restriction of that field quasi-order along the embedding.
    Returns (restricted, field-level, checks): the ``is_compatible``
    entries on R and on the field, then ``compat-levels-agree``.
    """
    ring = v.ring
    nu = frac_extend_val(v, uniformizer)
    to_field = field_embedding(v, nu)

    if nu.manis and uniformizer is None:
        basis = default_basis(nu)
    else:
        t = to_field(uniformizer) if uniformizer.ring is ring else uniformizer
        sign = nu(t)[0]
        basis = BasisData(nu, (t,), basis_signs=(sign,))

    rq = transport_qo(residue_order, nu.residue_ring())
    lifted = lift(LiftData(basis, EtaVector(tuple(eta)), rq))
    restricted = pullback(
        lifted,
        ring,
        lambda p: to_field(RingElement(ring, p)).payload,
        f"{lifted.name}|{ring.name}",
        v.support,
    )

    levels = [
        is_compatible(v, restricted, universe, samples),
        is_compatible(nu, lifted, universe.on(nu.ring), samples),
    ]
    verdict_r, verdict_k = (r.status == PASS for r in levels)
    # verdicts sampled on two universes: a disagreement is inconclusive
    agree = result(
        f"{label}.compat-levels-agree",
        verdict_r == verdict_k,
        None,
        samples,
        detail=f"R:{verdict_r} K:{verdict_k}",
        otherwise=INCONCLUSIVE,
    )
    return restricted, lifted, [*levels, agree]


def mu_restrict(
    qo_field_residue: QuasiOrder, v: Valuation,
    uniformizer: Optional[RingElement] = None,
) -> QuasiOrder:
    """Restrict a quasi-order on the residue field of the extension back
    to the residue domain of v along x + Iv -> (x/1) + I_nu."""
    ring = v.ring
    nu = frac_extend_val(v, uniformizer)
    to_field = field_embedding(v, nu)
    q = transport_qo(qo_field_residue, nu.residue_ring())
    rv = v.residue_ring()
    return pullback(
        q,
        rv,
        lambda p: to_field(RingElement(ring, p)).payload,
        f"{q.name}|{rv.name}",
        None,
    )

"""Ordered abelian value groups with an absorbing infinity.

Supported groups: the trivial group, Z, and lexicographic products Z^k.
Finite values are integer tuples of length ``rank``; the bottomless top
element is the singleton ``INF``.  The mod-2 machinery decomposes a value
over a fixed F2-basis of G/2G, which for unit-vector (optionally signed)
bases is a parity computation with exact halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

Value = Tuple[int, ...]


class GroupMismatchError(TypeError):
    pass


@dataclass(frozen=True)
class ValueGroup:
    """Z^rank under lexicographic comparison (rank 0 is the trivial group).

    ``basis_signs`` fixes the chosen F2-basis of G/2G as the signed unit
    vectors sign_i * e_i; the default is the plain unit vectors.
    """

    rank: int
    basis_signs: Tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        signs = self.basis_signs
        if signs is None:
            signs = (1,) * self.rank
        if len(signs) != self.rank or any(s not in (-1, 1) for s in signs):
            raise ValueError("basis_signs must be one sign per coordinate")
        object.__setattr__(self, "basis_signs", tuple(signs))

    @property
    def name(self) -> str:
        if self.rank == 0:
            return "0"
        if self.rank == 1:
            return "Z"
        return f"Z^{self.rank}-lex"

    @property
    def basis(self) -> Tuple[Value, ...]:
        out = []
        for i, s in enumerate(self.basis_signs):
            out.append(tuple(s if j == i else 0 for j in range(self.rank)))
        return tuple(out)

    def zero(self) -> Value:
        return (0,) * self.rank

    def contains(self, v) -> bool:
        return v is INF or (isinstance(v, tuple) and len(v) == self.rank)

    def check(self, v):
        if not self.contains(v):
            raise GroupMismatchError(f"{v!r} is not a value of {self.name}")
        return v


def value_cmp(a, b) -> int:
    """-1, 0 or 1; infinity is the unique maximum and equals itself."""
    if a is INF and b is INF:
        return 0
    if a is INF:
        return 1
    if b is INF:
        return -1
    if a == b:
        return 0
    return -1 if a < b else 1


def value_le(a, b) -> bool:
    return value_cmp(a, b) <= 0


def value_lt(a, b) -> bool:
    return value_cmp(a, b) < 0


def value_add(a, b):
    """Componentwise sum with absorbing infinity."""
    if a is INF or b is INF:
        return INF
    return tuple(x + y for x, y in zip(a, b))


def value_neg(a):
    if a is INF:
        raise ValueError("infinity has no additive inverse")
    return tuple(-x for x in a)


def value_sub(a, b):
    return value_add(a, value_neg(b))


def value_scale(a, k: int):
    if a is INF:
        return INF if k > 0 else None
    return tuple(k * x for x in a)


def format_value(v) -> str:
    if v is INF:
        return "inf"
    if len(v) == 1:
        return str(v[0])
    return "(" + ",".join(str(x) for x in v) + ")"


@dataclass(frozen=True)
class GammaDecomposition:
    """gamma = sum of the chosen basis vectors over index_set plus 2*delta."""

    group: ValueGroup
    gamma: Value
    index_set: frozenset
    delta: Value

    def __post_init__(self):
        total = self.group.zero()
        for i in sorted(self.index_set):
            total = value_add(total, self.group.basis[i])
        total = value_add(total, value_scale(self.delta, 2))
        if total != self.gamma:
            raise ValueError(
                f"decomposition invariant violated: {self.gamma} != "
                f"{self.index_set} + 2*{self.delta}"
            )


def mod2_decompose(group: ValueGroup, gamma: Value) -> GammaDecomposition:
    """Write gamma over the F2-basis of G/2G with exact even remainder."""
    if gamma is INF:
        raise ValueError("cannot decompose infinity")
    group.check(gamma)
    index_set = frozenset(i for i, g in enumerate(gamma) if g % 2 != 0)
    delta = []
    for i, g in enumerate(gamma):
        if i in index_set:
            delta.append((g - group.basis_signs[i]) // 2)
        else:
            delta.append(g // 2)
    return GammaDecomposition(group, gamma, index_set, tuple(delta))


TRIVIAL_GROUP = ValueGroup(0)
Z_GROUP = ValueGroup(1)


def lex_product(*groups: ValueGroup) -> ValueGroup:
    """Concatenate Z^a and Z^b into Z^(a+b) with lexicographic order."""
    rank = sum(g.rank for g in groups)
    signs: Iterable[int] = sum((g.basis_signs for g in groups), ())
    return ValueGroup(rank, tuple(signs))

"""Q on reduced integer pairs against ``fractions.Fraction``: arithmetic,
canonical payloads and hashes, printing and parsing, the natural order, and
a guard that the Q instances of the corpus build no Fraction at all."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qord.corpus import get_instance, run_instance
from qord.quasiorders import natural_order
from qord.rings import QQ

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
#: a raw pair (n, d), neither reduced nor with d > 0
raw_pairs = st.tuples(
    st.integers(-(10**4), 10**4), st.integers(-(10**3), 10**3).filter(bool)
)


def pair(q: Fraction):
    """The payload Q must hold for q."""
    return q.numerator, q.denominator


def _assert_canonical(p):
    n, d = p
    assert type(n) is int and type(d) is int
    assert d > 0 and Fraction(n, d).denominator == d


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_canon_takes_an_int_a_fraction_or_a_pair(q):
    assert QQ.canon(q) == pair(q)
    assert QQ.canon(pair(q)) == pair(q)
    assert QQ.el(q) == QQ.el(pair(q))
    if q.denominator == 1:
        assert QQ.canon(q.numerator) == QQ.from_int(q.numerator).payload == pair(q)


@settings(max_examples=300, deadline=None)
@given(raw_pairs, st.integers(1, 50))
def test_canon_reduces_a_raw_pair(raw, k):
    n, d = raw
    want = pair(Fraction(n, d))
    assert QQ.canon((n, d)) == want
    assert QQ.canon((k * n, k * d)) == want
    assert QQ.canon((-n, -d)) == want
    _assert_canonical(QQ.canon((n, d)))


def test_canon_rejects_a_zero_denominator_and_other_types():
    with pytest.raises(ZeroDivisionError):
        QQ.canon((1, 0))
    with pytest.raises(TypeError):
        QQ.canon(0.5)


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_arithmetic_matches_fraction(a, b):
    x, y = QQ.el(a), QQ.el(b)
    for got, want in (
        (x + y, a + b),
        (x - y, a - b),
        (x * y, a * b),
        (-x, -a),
    ):
        assert got.payload == pair(want)
        _assert_canonical(got.payload)
    assert (x == y) == (a == b)
    if b:
        assert QQ.inv(y).payload == pair(1 / b)
        assert (x * QQ.inv(y)).payload == pair(a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(y)


@settings(max_examples=300, deadline=None)
@given(raw_pairs, st.integers(1, 50))
def test_equal_values_share_one_payload_and_one_hash(raw, k):
    n, d = raw
    x, y = QQ.el((n, d)), QQ.el((k * n, k * d))
    assert x == y and x.payload == y.payload and hash(x) == hash(y)
    assert QQ.pid(x) == QQ.pid(y)
    zero = QQ.el((0, d))
    assert zero.payload == QQ.zero_payload() == (0, 1)
    assert (x - y).payload == QQ.zero_payload()


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_format_is_str_of_fraction_and_reparses(q):
    x = QQ.el(q)
    assert QQ.format(x.payload) == str(x) == str(q)
    back = QQ.parse(str(x))
    assert back == x and back.payload == x.payload


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_natural_order_matches_fraction_le(a, b):
    q = natural_order(QQ)
    assert q.le(QQ.el(a), QQ.el(b)) == (a <= b)
    assert q._compare_payload(pair(a), pair(b)) == (a <= b)


#: corpus instances whose work runs on Q: v_2 on Q and its residue field
#: F_2, and the degree valuation, whose residue field Q every comparison of
#: the lift goes through
Q_INSTANCES = ("compat-v2", "roundtrip-q-v2", "roundtrip-deg-plus")


def test_q_instances_build_no_fraction():
    made = []
    saved = Fraction.__dict__["__new__"]
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        Fraction(1, 2)  # the counter counts
        assert made == [(1, 2)]
        made.clear()
        for name in Q_INSTANCES:
            run_instance(get_instance(name), seed=42)
    finally:
        Fraction.__new__ = saved
    assert made == []

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from metricwb import CoefficientOverflow, dirac, frac_str, parse
from metricwb.dist import EMPTY, Dist

import gen

I = parse("\\x. x")
K = parse("\\x. omega")

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestConstruction:
    def test_dirac(self):
        d = dirac(I)
        assert d.weight() == 1
        assert d.get(I) == 1
        assert list(d.support()) == [I]

    def test_duplicate_entries_merge(self):
        d = Dist([(I, QUARTER), (I, QUARTER)])
        assert d.get(I) == HALF
        assert len(d) == 1

    def test_zero_mass_entries_are_pruned(self):
        d = Dist([(I, Fraction(0)), (K, HALF)])
        assert I not in d
        assert K in d
        assert len(d) == 1

    def test_empty(self):
        assert EMPTY.weight() == 0
        assert not EMPTY
        assert len(EMPTY) == 0

    def test_overweight_rejected(self):
        with pytest.raises(CoefficientOverflow):
            Dist([(I, Fraction(3, 2))])
        with pytest.raises(CoefficientOverflow):
            Dist([(I, HALF), (K, HALF), (parse("\\z. z omega"), QUARTER)])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Dist([(I, Fraction(-1, 4))])


    def test_dirac_is_the_constructors_point_mass(self):
        # dirac sets its slots directly; the constructor goes through the
        # lowest-terms and overflow checks
        rng = random.Random(20261106)
        terms = [I, K] + [gen.random_program(rng, max_size=12, fuel=3) for _ in range(100)]
        terms += [gen.random_value(rng, max_size=8) for _ in range(100)]
        kernels = [lambda t: EMPTY, dirac, lambda t: Dist(((t, HALF), (I, QUARTER)))]
        for t in terms:
            fast, slow = dirac(t), Dist(((t, 1),))
            assert fast == slow and slow == fast and hash(fast) == hash(slow)
            assert fast.weight_parts() == slow.weight_parts() == (1, 1)
            assert fast.support() == slow.support() == (t,) and fast.support()[0] is t
            assert list(fast.items()) == list(slow.items()) == [(t, 1)]
            assert fast.weight() == 1 and fast.get(t) == 1
            for k in kernels:
                outs = []  # what k handed back, once per call
                got = fast.bind(lambda e: outs.append(k(e)) or outs[-1])
                assert len(outs) == 1 and got is outs[0] and got == k(t)


class TestOperations:
    def test_map_elems(self):
        d = Dist([(1, HALF), (2, QUARTER)])
        assert d.map_elems(lambda n: n % 2) == Dist([(1, HALF), (0, QUARTER)])

    def test_bind(self):
        d = Dist([(1, HALF), (2, HALF)])
        out = d.bind(lambda n: Dist([(n * 10, HALF)]))
        assert out == Dist([(10, QUARTER), (20, QUARTER)])

    def test_bind_drops_empty_branches(self):
        d = Dist([(1, HALF), (2, HALF)])
        out = d.bind(lambda n: dirac(n) if n == 1 else EMPTY)
        assert out == Dist([(1, HALF)])

    def test_equality_and_hash(self):
        a = Dist([(I, HALF)])
        b = Dist([(I, QUARTER), (I, QUARTER)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dirac(I)

    def test_usable_as_dict_key(self):
        table = {Dist([(I, HALF)]): "a", EMPTY: "b"}
        assert table[Dist([(I, HALF)])] == "a"


class TestJson:
    def test_exact_layout(self):
        d = Dist([(I, HALF)])
        assert d.to_json(lambda t: "\\x. x") == {
            "support": [{"elem": "\\x. x", "p": "1/2"}],
            "weight": "1/2",
        }

    def test_support_is_sorted_by_rendering(self):
        d = Dist([("b", QUARTER), ("a", HALF)])
        out = d.to_json(str)
        assert [e["elem"] for e in out["support"]] == ["a", "b"]

    def test_frac_str(self):
        assert frac_str(HALF) == "1/2"
        assert frac_str(Fraction(1)) == "1/1"
        assert frac_str(Fraction(0)) == "0/1"
        assert frac_str(Fraction(21, 64)) == "21/64"


# --- against the Fraction-weighted reference -----------------------------

# ints, strings and terms; \y. y is alpha-equal to I, so it merges with I
# under the first key either one was given
ELEMS = (0, 1, 2, "a", "b", I, parse("\\y. y"), K)
elem = st.sampled_from(ELEMS)
weight_64 = st.fractions(min_value=0, max_value=1, max_denominator=64)
small = st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=64)
entries = st.lists(st.tuples(elem, small), max_size=4)  # total at most 1
coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-Fraction(1, 8), max_value=Fraction(5, 4), max_denominator=64),
)


def outcome(make):
    try:
        return make()
    except (ValueError, CoefficientOverflow) as e:
        return (type(e), str(e))


def assert_same(new, ref):
    """The two agree on every observation: the outcome of the operation,
    the elements with their weights in insertion order (keys compared by
    repr, so merged terms keep the same binder names), the weight, also
    read as integers, get and the JSON form."""
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert [(repr(e), p) for e, p in new.items()] == [(repr(e), p) for e, p in ref.items()]
    assert list(new.support()) == list(ref.support())
    assert new.weight() == ref.weight()
    total, den = new.weight_parts()
    assert den > 0 and Fraction(total, den) == ref.weight()
    assert len(new) == len(ref)
    assert all(new.get(e) == ref.get(e) for e in ELEMS)
    assert new.to_json(str) == ref.to_json(str)
    assert repr(new) == repr(ref)


class TestAgainstReference:
    @given(st.lists(st.tuples(elem, coefficient), max_size=6))
    def test_construction(self, raw):
        # merging, pruning zero weights, a negative weight, an overweight total
        assert_same(outcome(lambda: Dist(raw)), outcome(lambda: gen.ReferenceDist(raw)))

    @given(entries, st.dictionaries(elem, entries))
    def test_bind(self, raw, kernel):
        new = Dist(raw).bind(lambda e: Dist(kernel.get(e, ())))
        ref = gen.ReferenceDist(raw).bind(lambda e: gen.ReferenceDist(kernel.get(e, ())))
        assert_same(new, ref)
        # the weight of the bind, read without building it
        total, den = Dist(raw).bind_weight_parts(lambda e: Dist(kernel.get(e, ())))
        assert den > 0 and Fraction(total, den) == ref.weight()

    @given(entries, st.dictionaries(elem, elem))
    def test_map_elems(self, raw, f):
        new = Dist(raw).map_elems(lambda e: f.get(e, e))
        ref = gen.ReferenceDist(raw).map_elems(lambda e: f.get(e, e))
        assert_same(new, ref)

    @given(entries, entries)
    def test_equality_and_hash(self, raw_a, raw_b):
        a, b = Dist(raw_a), Dist(raw_b)
        ra, rb = gen.ReferenceDist(raw_a), gen.ReferenceDist(raw_b)
        assert (a == b) == (ra == rb)
        if a == b:
            assert hash(a) == hash(b)
        assert a == Dist(list(reversed(raw_a))) and hash(a) == hash(Dist(list(reversed(raw_a))))

    @given(st.lists(st.tuples(elem, weight_64), max_size=3))
    def test_lowest_terms(self, raw):
        # one representation per distribution: gcd(den, *numerators) == 1
        d = outcome(lambda: Dist(raw))
        if isinstance(d, Dist):
            nums = list(d._num.values())
            assert math.gcd(d._den, *nums) == 1
            assert all(n > 0 for n in nums) and sum(nums) <= d._den

    @given(entries, entries)
    def test_cancel(self, raw_a, raw_b):
        # each side keeps what it has beyond the other, in its own order
        a, b = Dist(raw_a), Dist(raw_b)
        ra, rb = gen.ReferenceDist(raw_a), gen.ReferenceDist(raw_b)
        ca, cb = a.cancel(b)
        assert not set(ca.support()) & set(cb.support())
        for e in ELEMS:
            assert ca.get(e) - cb.get(e) == ra.get(e) - rb.get(e)
        assert_same(ca, gen.ReferenceDist((e, p - rb.get(e)) for e, p in ra.items() if p > rb.get(e)))
        assert_same(cb, gen.ReferenceDist((e, p - ra.get(e)) for e, p in rb.items() if p > ra.get(e)))
        for d in (ca, cb):
            fresh = Dist(list(d.items()))
            assert (d._den, list(d._num.items())) == (fresh._den, list(fresh._num.items()))
            assert hash(d) == hash(fresh)

    @given(entries)
    def test_cancel_of_equal_inputs_is_empty(self, raw):
        assert Dist(raw).cancel(Dist(list(reversed(raw)))) == (EMPTY, EMPTY)

    @given(
        st.lists(st.tuples(st.sampled_from((0, "a", I, parse("\\y. y"))), small), max_size=4),
        st.lists(st.tuples(st.sampled_from((1, "b", K)), small), max_size=4),
    )
    def test_cancel_of_disjoint_inputs_returns_them(self, raw_a, raw_b):
        a, b = Dist(raw_a), Dist(raw_b)
        ca, cb = a.cancel(b)
        assert ca is a and cb is b

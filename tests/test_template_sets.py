"""Template sets: what the queries derive from a set of observer templates
is worked out once, on the set, and dies with it.

Every prepared set is checked against its slow path, the plain tuple of
its templates, which a query wraps in a set of its own and prepares
afresh: the answers, the witnesses and the log lines must be the same,
whichever runs first.
"""

import gc
import random
import weakref
from collections import deque
from fractions import Fraction

import pytest

import gen
from metricwb import bisim, cli, trace, tuples
from metricwb.errors import InvalidAction, NotAffine, NotClosed
from metricwb.parser import parse
from metricwb.semantics import clear_memo
from metricwb.terms import App, Abs, OMEGA, Pair, Var, identity, pretty
from metricwb.trace import (
    TemplateSet,
    TensorTemplates,
    _kind_table,
    alphabet,
    default_tensor_templates,
    format_trace,
    trace_distance_lb,
)
from metricwb.tuples import TupleTemplates, default_templates, format_tuple_trace, tuple_distance_lb

I = identity()
K = parse("\\a. \\b. a")
K2 = parse("\\c. \\d. c")  # K, binders renamed
UNIVERSES = ((I,), (I, K))


def random_programs(rng, i: int) -> tuple:
    """Two seeded programs; every third case a pair of programs on each
    side, so tensor templates have pairs to act on."""
    sides = [gen.random_program(rng, 10, 3, f"p{i}_{j}") for j in range(4)]
    if i % 3 == 0:
        return Pair(sides[0], sides[1]), Pair(sides[2], sides[3])
    return sides[0], sides[1]


def answer_and_log(caplog, query) -> tuple:
    """query's answer from an empty eval memo, with the lines it logged."""
    clear_memo()
    caplog.clear()
    got = query()
    return got, [r.getMessage() for r in caplog.records]


class TestPreparedAgainstPlain:
    def test_the_distances_are_those_of_the_plain_templates(self, caplog):
        rng = random.Random(20261107)
        tensor = {u: default_tensor_templates(u) for u in UNIVERSES}
        templates = {u: default_templates(u) for u in UNIVERSES}
        gaps = tensor_witnesses = logged = 0
        for i in range(90):
            m, n = random_programs(rng, i)
            u = UNIVERSES[i % 2]
            max_len, depth = 1 + i % 3, 1 + i % 2
            for query, given in (
                (lambda s: trace_distance_lb(m, n, u, max_len, s), tensor[u]),
                (lambda s: bisim.bisim_distance(m, n, u, depth, tensor_templates=s), tensor[u]),
                (lambda s: tuple_distance_lb(m, n, s, max_len), templates[u]),
            ):
                sides = [given, tuple(given)]
                if i % 2:  # the plain templates first
                    sides.reverse()
                first, second = (answer_and_log(caplog, lambda: query(s)) for s in sides)
                assert first == second, (pretty(m), pretty(n), u, i)
                value = first[0][0] if type(first[0]) is tuple else first[0]
                gaps += value > 0
                logged += bool(first[1])
                if type(first[0]) is tuple:
                    tensor_witnesses += any(type(a) is trace.TensorAction for a in first[0][1])
        assert gaps >= 150 and tensor_witnesses >= 12 and logged >= 60

    def test_an_alpha_variant_set_names_its_own_binders(self):
        # the eval memo is keyed up to alpha, the sets are not: a witness
        # names the set's own templates, whichever set was prepared first
        m, n = Pair(I, I), Pair(Abs("z", OMEGA), I)
        tm, tn = Abs("f", App(Var("f"), I)), Abs("f", OMEGA)
        # K and K2 are one dict key, so the variants are listed by position
        variants = [
            (k, TensorTemplates([App(I, App(Var("x"), k))]), TupleTemplates([Abs("y", App(Var("y"), k))]))
            for k in (K, K2)
        ]
        assert variants[0][1:] == variants[1][1:]
        for order in (variants, variants[::-1]):
            for k, tensor, tupled in order:
                # the template as written, not its normal form x k
                want = format_trace((trace.TensorAction(tensor[0]),))
                assert pretty(k) in want and "(\\x1. x1) (x " in want
                for s in (tensor, tuple(tensor)):
                    gap, word = trace_distance_lb(m, n, (I,), 1, s)
                    assert (gap, format_trace(word)) == (1, want)
                want = f"appl(1; ; \\y. y ({pretty(k)}))"
                for s in (tupled, tuple(tupled)):
                    gap, word = tuple_distance_lb(tm, tn, s, 1)
                    assert (gap, format_tuple_trace(word)) == (1, want)

    def test_a_sets_tables_are_the_per_query_ones(self):
        for u in UNIVERSES:
            tensor = default_tensor_templates(u)
            actions = alphabet(u, tuple(tensor))
            table = tensor.pair_table()
            assert tensor.pair_table() is table and tensor.actions() is tensor.actions()
            assert table == tuple(map(tuple, _kind_table(Pair, actions)))
            assert all(a is b for a, b in zip(table[0], tensor.actions()))
            assert alphabet(u, tensor)[len(u):] == list(tensor.actions())
            templates = default_templates(u)
            firsts = tuples._class_firsts(templates)
            assert templates.firsts() == firsts
            for width in (3, 1, 4, 2, 0, 3):  # widths out of order, one again
                got = templates.arguments(width)
                want = gen.arguments(firsts, width)
                assert list(got) == want and [pretty(a) for _, a in got] == [pretty(a) for _, a in want]
                assert templates.arguments(width) is got

    def test_a_set_is_the_tuple_of_its_templates(self):
        tensor, templates = default_tensor_templates(), default_templates()
        for s in (tensor, templates):
            plain = tuple(s)
            assert s == plain and plain == s and hash(s) == hash(plain)
            assert s[:3] == plain[:3] and type(s[:3]) is tuple and s[-1] is plain[-1]
            assert len(s) == len(plain) and list(s) == list(plain) and plain[2] in s
        assert tensor == default_tensor_templates((I,)) and tensor != templates
        derived = TupleTemplates(lambda: default_templates())
        assert derived == templates and len(derived) == 35


class TestBadTemplates:
    OPEN = parse("\\x. y")

    @staticmethod
    def raised(query) -> tuple:
        with pytest.raises(Exception) as e:
            query()
        return type(e.value), str(e.value)

    @pytest.mark.parametrize("bad, error", [
        (parse("x x"), NotAffine),
        (Var("z"), NotClosed),
    ])
    def test_a_bad_tensor_set_raises_alike_on_every_query(self, bad, error):
        # in bisim._checked's order: depth, cap, universe, templates, programs
        # (the trace search checks its programs first)
        tensor = TensorTemplates([Var("x"), bad])
        queries = [
            (lambda s: bisim.bisim_distance(I, I, (I,), -1, tensor_templates=s), ValueError),
            (lambda s: bisim.bisim_distance(I, I, (I,), 1, -1, tensor_templates=s), ValueError),
            (lambda s: bisim.bisim_distance(I, I, (OMEGA,), 1, tensor_templates=s), ValueError),
            (lambda s: bisim.bisim_distance(self.OPEN, I, (I,), 1, tensor_templates=s), error),
            (lambda s: bisim.build_lmc(I, self.OPEN, (I,), 1, tensor_templates=s), error),
            (lambda s: trace_distance_lb(I, I, (I,), 1, s), error),
            (lambda s: trace_distance_lb(self.OPEN, I, (I,), 1, s), NotClosed),
        ]
        for _ in range(2):
            for query, kind in queries:
                got = self.raised(lambda: query(tensor))
                assert got[0] is kind and got == self.raised(lambda: query(tuple(tensor)))
        with pytest.raises(error):
            tensor.pair_table()

    @pytest.mark.parametrize("bad, error", [
        (parse("\\y. y y"), NotAffine),
        (Var("z"), NotClosed),
        (Pair(I, I), InvalidAction),
    ])
    def test_a_bad_tuple_set_raises_alike_on_every_query(self, bad, error):
        templates = TupleTemplates([I, bad])
        m, n = Abs("f", App(Var("f"), I)), Abs("f", OMEGA)
        for _ in range(2):
            # given templates are checked at entry, before the programs
            for a, b in ((m, n), (self.OPEN, n), (m, m)):
                got = self.raised(lambda: tuple_distance_lb(a, b, templates, 2))
                plain = self.raised(lambda: tuple_distance_lb(a, b, tuple(templates), 2))
                assert got[0] is error and got == plain
            # derived ones when the search first lists actions
            derived = lambda: tuple_distance_lb(m, n, lambda: templates, 2)
            assert self.raised(derived) == self.raised(lambda: tuple_distance_lb(m, n, templates, 2))
            assert tuple_distance_lb(m, m, lambda: templates, 2) == (0, ())
        with pytest.raises(error):
            templates.arguments(1)


class TestLifetime:
    def test_a_set_dies_after_the_query(self, monkeypatch):
        refs = []
        real = TemplateSet.of.__func__

        def of(cls, templates):
            s = real(cls, templates)
            refs.append(weakref.ref(s))
            return s

        monkeypatch.setattr(TemplateSet, "of", classmethod(of))
        noisy, clean = tuples.build_expair()
        tensor, templates = default_tensor_templates(), default_templates()
        for s in (tensor, tuple(tensor)):
            assert bisim.bisim_distance(noisy, clean, (I,), 3, tensor_templates=s) == Fraction(3, 4)
            assert trace_distance_lb(noisy, clean, (I,), 2, s)[0] == Fraction(3, 4)
        for s in (templates, tuple(templates), default_templates, None):
            assert tuple_distance_lb(noisy, clean, s, 3)[0] == Fraction(3, 4)
        gc.collect()
        # a query's own sets are gone; the two given sets are all that is left
        assert {id(r()) for r in refs if r() is not None} == {id(tensor), id(templates)}
        assert len(refs) >= 12
        del tensor, templates, s
        gc.collect()
        assert all(r() is None for r in refs)

    def test_cli_commands_leave_the_modules_as_they_were(self, capsys):
        def sizes() -> dict:
            return {
                (mod.__name__, name): len(v)
                for mod in (trace, tuples, bisim)
                for name, v in vars(mod).items()
                if isinstance(v, (dict, list, set, frozenset, tuple, deque))
            }

        def live_sets() -> int:
            return sum(isinstance(o, TemplateSet) for o in gc.get_objects())

        rng = random.Random(20261108)
        commands = []
        for i in range(100):
            a, b = (pretty(gen.random_program(rng, 10, 3, f"c{i}_{j}")) for j in range(2))
            commands += [
                ["distance", "--kind", "tuple", a, b, "--max-len", "2"],
                ["distance", "--kind", "bisim", a, b, "--depth", "2"],
            ]
        # every command empties the eval memo first, which trace imports
        clear_memo()
        gc.collect()
        before, sets = sizes(), live_sets()
        assert before
        for argv in commands:
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        clear_memo()
        gc.collect()
        assert sizes() == before and live_sets() == sets

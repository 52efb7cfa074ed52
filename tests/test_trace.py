import itertools
import random
from fractions import Fraction

import pytest

import gen
from gen import interrogate
from metricwb import (
    NotAffine,
    NotClosed,
    dirac,
    encode_theta,
    eval_big,
    eval_small,
    lts_trace_accept,
    parse,
    parse_trace,
    bisim_distance,
    build_expair,
    build_mn_nn,
    trace,
    trace_accept,
    trace_distance_lb,
    tuples,
)
from metricwb.dist import Dist
from metricwb.parser import parse_terms
from metricwb.semantics import _eval, clear_memo
from metricwb.terms import (
    Abs,
    App,
    Choice,
    LetPair,
    OMEGA,
    Pair,
    Var,
    identity,
    pretty,
    size,
    substitute,
)
from metricwb.trace import (
    TENSOR_HOLE_1,
    TENSOR_HOLE_2,
    AppAction,
    TensorAction,
    app_combinations,
    check_trace,
    dedupe_values,
    default_tensor_templates,
    encode_theta_trace,
    _kind_table,
    _move,
    _trace_step,
    alphabet,
    enumerate_traces,
    explore,
    format_trace,
    normal_form,
    template_constants,
    widest_gap,
)
from metricwb.tuples import default_templates, tuple_distance_lb

I = identity()
HALF = Fraction(1, 2)
EPS = ()


class TestAccept:
    def test_value_accepts_the_empty_trace(self):
        assert trace_accept(I, EPS) == 1
        assert trace_accept(Pair(OMEGA, OMEGA), EPS) == 1

    def test_divergence_accepts_nothing(self):
        assert trace_accept(OMEGA, EPS) == 0
        assert trace_accept(OMEGA, (AppAction(I),)) == 0

    def test_choice_passes_half_its_mass(self):
        m = parse("(\\x. x) (+) omega")
        assert trace_accept(m, EPS) == HALF
        assert trace_accept(m, (AppAction(I),)) == HALF

    def test_app_action_applies_the_value(self):
        m = parse("\\f. f (\\q. omega)")
        assert trace_accept(m, (AppAction(parse("\\z. \\w. w")),)) == 1
        assert trace_accept(m, (AppAction(parse("\\z. omega")),)) == 0

    def test_application_is_call_by_value(self):
        m = parse("\\f. f omega")
        assert trace_accept(m, (AppAction(parse("\\z. \\w. w")),)) == 0

    def test_tensor_action_consumes_both_components(self):
        m = Pair(I, parse("(\\x. x) (+) omega"))
        assert trace_accept(m, (TensorAction(Var("x")),)) == HALF
        assert trace_accept(m, (TensorAction(Var("y")),)) == HALF
        assert trace_accept(m, (TensorAction(App(Var("x"), Var("y"))),)) == HALF

    def test_kind_mismatch_scores_zero(self):
        assert trace_accept(I, (TensorAction(Var("x")),)) == 0
        assert trace_accept(Pair(OMEGA, OMEGA), (AppAction(I),)) == 0

    def test_longer_traces_only_lose_mass(self):
        rng = random.Random(20260330)
        for _ in range(100):
            m = gen.random_program(rng, max_size=20, fuel=4)
            s = tuple(AppAction(gen.random_value(rng)) for _ in range(rng.randint(0, 2)))
            ext = s + (AppAction(gen.random_value(rng)),)
            assert trace_accept(m, ext) <= trace_accept(m, s)


class TestTraceValidation:
    def test_app_action_needs_a_value(self):
        with pytest.raises(ValueError):
            trace_accept(I, (AppAction(OMEGA),))

    def test_app_action_needs_a_closed_value(self):
        with pytest.raises(NotClosed):
            trace_accept(I, (AppAction(Abs("x", Var("free"))),))

    def test_app_action_needs_an_affine_value(self):
        bad = Abs("x", App(Var("x"), Var("x")))
        with pytest.raises(NotAffine):
            trace_accept(I, (AppAction(bad),))

    def test_tensor_body_must_use_only_the_two_holes(self):
        with pytest.raises(NotClosed):
            check_trace((TensorAction(Var("z")),))

    def test_tensor_body_must_be_affine_in_the_holes(self):
        with pytest.raises(NotAffine):
            check_trace((TensorAction(App(Var("x"), Var("x"))),))


def random_pair(rng, tag="") -> Pair:
    """A pair value whose halves are values or programs; distinct binder
    prefixes keep each template's redex affine."""

    def half(prefix):
        if rng.random() < 0.5:
            return gen.random_value(rng, max_size=8, prefix=prefix)
        return gen.random_program(rng, 8, 3, prefix)

    return Pair(half(f"p{tag}"), half(f"q{tag}"))


class TestInterrogate:
    K = parse("\\a. \\b. a")
    ACTIONS = (TensorAction(Var("y")), AppAction(K), TensorAction(App(Var("x"), Var("y"))))

    def test_fitting_actions_in_order_with_their_programs(self):
        pair = Pair(parse("I (+) omega"), self.K)
        a0, a1, a2 = self.ACTIONS
        # x is the first half, y the second; weights multiply across halves
        assert interrogate(pair, self.ACTIONS) == [
            (a0, Dist([(self.K, HALF)])),
            (a2, Dist([(App(I, self.K), HALF)])),
        ]
        assert interrogate(I, self.ACTIONS) == [(a1, dirac(self.K))]
        assert interrogate(pair, (a1,)) == []

    def test_step_is_the_small_step_value_of_the_redex(self):
        # app(V) plays t V and tensor(L) plays let <x, y> = t in L; an action
        # whose kind does not fit t leaves a stuck redex, which has no value
        rng = random.Random(20261020)
        actions = [TensorAction(b) for b in default_tensor_templates()[:32]]
        spread = partial = 0
        for i in range(100):
            t = gen.random_value(rng, max_size=8) if i % 2 else random_pair(rng)
            v = gen.random_value(rng, max_size=8, prefix="w")
            cases = [(AppAction(v), App(t, v))]
            cases += [(a, LetPair(TENSOR_HOLE_1, TENSOR_HOLE_2, t, a.body)) for a in actions]
            for a, redex in cases:
                d = _trace_step(t, a)
                assert d == eval_small(redex), (pretty(t), a)
                spread += len(d) > 1
                partial += 0 < d.weight() < 1
        assert spread and partial


def subterms(t):
    yield t
    for f in t.__match_args__:
        child = getattr(t, f)
        if not isinstance(child, str):
            yield from subterms(child)


class TestNormalForm:
    X, Y = Var(TENSOR_HOLE_1), Var(TENSOR_HOLE_2)

    @staticmethod
    def outer_calls(monkeypatch) -> list:
        """The terms normal_form is called on from outside itself, from now on."""
        calls, depth = [], [0]

        def counted(t):
            if not depth[0]:
                calls.append(t)
            depth[0] += 1
            try:
                return normal_form(t)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(trace, "normal_form", counted)
        return calls

    @pytest.mark.parametrize(
        "body, want",
        [
            ("(\\z. z) x", "x"),
            ("x ((\\z. z) y)", "x y"),
            ("(\\z. z) (x y)", "x y"),
            ("(\\z. \\w. z) y", "\\w. y"),
            ("(\\z. \\w. w z) (\\a. a)", "\\w. w (\\a. a)"),
            ("(\\z. \\w. w) <x, y>", "\\w. w"),
            # the result of a rewrite is reduced again
            ("(\\z. (\\w. w) z) x", "x"),
            ("(\\z. z y) (\\w. w)", "y"),
            # an argument that is not a value stays, and so does its redex
            ("(\\z. \\w. z) (x y)", "(\\z. \\w. z) (x y)"),
            ("x ((\\z. \\w. z) (\\a. a) (y (\\b. b)))", "x ((\\w. \\a. a) (y (\\b. b)))"),
        ],
    )
    def test_beta_v_along_the_application_spine(self, body, want):
        assert normal_form(parse(body)) == parse(want)

    def test_no_rewrite_under_a_binder_or_into_a_pair_choice_or_let(self):
        redex = App(I, self.X)
        for t in (
            Abs("w", redex),
            Pair(redex, self.Y),
            Choice(redex, self.Y),
            LetPair("a", "b", redex, self.Y),
            LetPair("a", "b", self.Y, App(I, Var("a"))),
        ):
            assert normal_form(t) is t
            assert normal_form(App(self.Y, t)).arg is t

    def test_the_effect_is_worked_out_once_per_action(self, monkeypatch):
        # the class table of a kind: the actions that fit it, their effects
        # in order of first label, each class's first label, each label's class
        calls = self.outer_calls(monkeypatch)
        a = TensorAction(parse("x ((\\z. z) y)"))
        plain = TensorAction(App(self.X, self.Y))
        swap = TensorAction(App(self.Y, self.X))
        app, app_k = AppAction(I), AppAction(parse("\\a. \\b. a"))
        actions = [app, a, app_k, plain, swap]
        labels, effects, firsts, slot = _kind_table(Pair, actions)
        assert calls == [a.body, plain.body, swap.body]  # once per tensor label
        assert labels == (a, plain, swap) and firsts == [a, swap] and slot == [0, 0, 1]
        e = effects[0]
        assert e == plain and e.body is not a.body
        assert effects[1] is swap  # already in normal form: its own effect
        labels, effects, firsts, slot = _kind_table(Pair, [plain, a])
        assert effects == [plain] and effects[0] is plain and firsts == [plain] and slot == [0, 0]
        # each app action is its own class, and the Abs table holds no tensor label
        calls.clear()
        labels, effects, firsts, slot = _kind_table(Abs, actions)
        assert labels == (app, app_k) and slot == [0, 1] and not calls
        assert all(e is a for e, a in zip(effects, labels)) and firsts == list(labels)

    def test_a_query_normalises_only_for_the_pairs_it_holds(self, monkeypatch):
        # the branching pair holds no pair value, so neither distance works
        # out a tensor class; the worked pair's do, each template once
        calls = self.outer_calls(monkeypatch)
        tensor = default_tensor_templates()
        assert len(tensor) == 96
        m, n = parse("\\x. ((\\y. y) (+) omega)"), parse("(\\x. \\y. y) (+) (\\x. omega)")
        assert bisim_distance(m, n, (I,), 4, tensor_templates=tensor) == HALF
        assert trace_distance_lb(m, n, (I,), 3, tensor) == (0, EPS)
        assert not calls
        for query in (
            lambda: bisim_distance(*build_expair(), (I,), 3, tensor_templates=tensor),
            lambda: trace_distance_lb(*build_expair(), (I,), 2, tensor)[0],
        ):
            assert query() == Fraction(3, 4)
            assert len(calls) == 96 and all(c is t for c, t in zip(calls, tensor))
            calls.clear()

    def test_a_rewrite_that_would_capture_renames_the_binder(self):
        # (\z. \x. z) x is \w. x, not \x. x, and steps every pair alike
        t = App(Abs("z", Abs(TENSOR_HOLE_1, Var("z"))), self.X)
        nf = normal_form(t)
        assert nf == parse("\\w. x") and nf.var != TENSOR_HOLE_1
        k = parse("\\a. \\b. a")
        for pair in (Pair(I, k), Pair(k, I), Pair(parse("I (+) omega"), k)):
            assert _trace_step(pair, TensorAction(t)) == _trace_step(pair, TensorAction(nf))

    def test_a_normal_form_is_its_own_and_no_larger(self):
        for universe in ((I,), (I, parse("\\a. \\b. a"))):
            for t in default_tensor_templates(universe):
                nf = normal_form(t)
                assert normal_form(nf) is nf
                assert size(nf) <= size(t)
                assert (size(nf) < size(t)) == (nf is not t)

    def test_the_effect_steps_every_pair_as_the_template_does(self):
        # The fast path (a template's normal form) against the slow path
        # (the template itself), on every default template over {I} and
        # {I, K} and on templates over generated universe values, with
        # choices, lets and binder names shared between constants.
        rng = random.Random(20261101)
        templates = [
            *default_tensor_templates((I,)),
            *default_tensor_templates((I, parse("\\a. \\b. a"))),
        ]
        kinds = set()
        while len(templates) < 400:
            universe = [gen.random_value(rng, max_size=7, prefix="u") for _ in range(2)]
            kinds |= {type(t) for u in universe for t in subterms(u)}
            templates += app_combinations([self.X, self.Y], universe, 6)
        check_trace([TensorAction(t) for t in templates])
        assert {Choice, LetPair} <= kinds
        changed = partial = 0
        pairs = [random_pair(rng, i) for i in range(8)]
        for t in templates:
            slow, fast = TensorAction(t), TensorAction(normal_form(t))
            changed += slow.body != fast.body
            for v in pairs:
                d = _trace_step(v, slow)
                assert d == _trace_step(v, fast), (pretty(v), pretty(t))
                partial += 0 < d.weight() < 1
        assert changed >= 150 and partial >= 100

    def test_the_search_answers_as_with_the_templates_themselves(self, monkeypatch):
        # the same searches with the normal form patched to the identity,
        # so that every action's effect is itself
        rng = random.Random(20261102)
        universes = ((I,), (I, parse("\\a. \\b. a")))
        cases = []
        for i in range(100):
            universe = universes[i % 2]
            templates = tuple(rng.sample(default_tensor_templates(universe), 2 + i % 12))
            m, n = random_pair(rng, 2 * i), random_pair(rng, 2 * i + 1)
            cases.append((m, n, universe, 1 + i % 3, templates))
        moves = []
        monkeypatch.setattr(trace, "_move", lambda t, a: moves.append(a) or _move(t, a))
        offers = []  # (support, candidates) at each node the search extends

        def counting(start, actions, *rest):
            def offer(support):
                out = actions(support)
                offers.append((support, out))
                return out

            return widest_gap(start, offer, *rest)

        monkeypatch.setattr(trace, "widest_gap", counting)
        fast = []
        for m, n, universe, max_len, templates in cases:
            fast.append(trace_distance_lb(m, n, universe, max_len, templates))
            # one candidate per class of each kind the support holds
            classes = {Abs: len(universe), Pair: len(set(map(normal_form, templates)))}
            for support, out in offers:
                held = {type(t) for t in support}
                assert len(out) == sum(classes[kind] for kind in held)
            offers.clear()
        fast_moves = len(moves)
        monkeypatch.setattr(trace, "normal_form", lambda t: t)
        assert [trace_distance_lb(*case) for case in cases] == fast
        assert sum(gap > 0 for gap, _ in fast) >= 30
        assert fast_moves < len(moves) - fast_moves


class TestTemplateConstants:
    # Hand-built universe values whose binders are named like a tensor
    # hole or like a tuple template's own binder: terms are taken up to
    # alpha, so the answers are those of I.

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_a_constant_may_name_its_binder_like_a_hole(self, name):
        universe = [Abs(name, Var(name))]
        m, n = build_expair()
        tower = build_mn_nn(1)
        for u in (universe, [parse("I")]):
            tensor = default_tensor_templates(u)
            assert tensor == default_tensor_templates((I,))
            got = (
                trace_distance_lb(*tower, u, 2, tensor),
                trace_distance_lb(m, n, u, 2, tensor),
                bisim_distance(m, n, u, 3, tensor_templates=tensor),
                tuple_distance_lb(m, n, default_templates(u), 3),
                tuple_distance_lb(*tower, default_templates(u), 2),
            )
            if u is universe:
                want = got
        assert got == want
        assert want[1][0] == want[2] == want[3][0] == Fraction(3, 4)

    def test_constants_keep_their_order_and_print_alike(self):
        universe = parse_terms("I, \\a. \\b. a, I")
        consts = template_constants(universe)
        assert consts == tuple(universe[:2])
        assert all(c is u for c, u in zip(consts, universe))
        assert [pretty(c) for c in consts] == [pretty(c) for c in universe[:2]]

    def test_constants_named_like_the_holes_keep_the_normal_form_classes(self):
        # 96 templates over I fall into 27 normal-form classes and 140 over
        # I and K into 52, with binders named apart or named like the holes;
        # each class's first label is its earliest template
        x, y = TENSOR_HOLE_1, TENSOR_HOLE_2
        for universe, count, classes in (
            ((I,), 96, 27),
            ((Abs(y, Var(y)),), 96, 27),
            ((I, parse("\\a. \\b. a")), 140, 52),
            ((Abs(x, Var(x)), Abs(y, Abs(x, Var(y)))), 140, 52),
        ):
            templates = default_tensor_templates(universe)
            assert len(templates) == count
            assert len(set(map(normal_form, templates))) == classes
            labels, effects, firsts, slot = _kind_table(Pair, alphabet(universe, templates))
            assert [a.body for a in labels] == list(templates)
            assert len(effects) == classes
            assert firsts == [labels[slot.index(i)] for i in range(classes)]
            assert [normal_form(a.body) for a in firsts] == [e.body for e in effects]


class TestEnumeration:
    def test_zero_budget(self):
        assert list(enumerate_traces((I,), 0)) == [EPS]

    def test_budget_one(self):
        assert list(enumerate_traces((I,), 1)) == [EPS, (AppAction(I),)]

    def test_budget_two(self):
        out = list(enumerate_traces((I,), 2))
        assert len(out) == 3
        assert out[0] == EPS
        assert out[-1] == (AppAction(I), AppAction(I))

    def test_length_lexicographic_order(self):
        out = list(enumerate_traces((I,), 3))
        lengths = [len(s) for s in out]
        assert lengths == sorted(lengths)
        assert len(out) == 4

    def test_universe_duplicates_collapse(self):
        assert list(enumerate_traces((I, parse("\\y. y")), 1)) == [EPS, (AppAction(I),)]

    def test_tensor_template_duplicates_collapse(self):
        templates = default_tensor_templates((I,))[:8]
        assert alphabet((I,), templates + templates) == alphabet((I,), templates)
        assert len(alphabet((I,), templates)) == 9

    def test_tensor_templates_extend_the_alphabet(self):
        out = list(enumerate_traces((I,), 1, tensor_templates=(Var("x"),)))
        assert (TensorAction(Var("x")),) in out
        assert len(out) == 3

    def test_default_tensor_templates_are_checkable(self):
        bodies = default_tensor_templates((I,))
        assert bodies
        for b in bodies:
            check_trace((TensorAction(b),))

    def test_enumeration_is_deterministic(self):
        a = list(enumerate_traces((I,), 3))
        b = list(enumerate_traces((I,), 3))
        assert a == b


class TestAppCombinations:
    def test_atoms_come_back(self):
        out = app_combinations([Var("x")], [], 3)
        assert out == [Var("x")]

    def test_linear_atoms_occur_at_most_once(self):
        out = app_combinations([Var("x")], [], 6)
        for t in out:
            assert pretty(t).count("x") <= 1

    def test_repeat_atoms_may_recur(self):
        out = app_combinations([], [I], 4)
        assert I in out
        assert App(I, I) in out

    def test_respects_the_size_cap(self):
        from metricwb import size

        for t in app_combinations([Var("x"), Var("y")], [I], 5):
            assert size(t) <= 5

    def test_size_zero_atoms_terminate(self):
        out = app_combinations([Var("x")], [OMEGA], 3)
        assert App(Var("x"), OMEGA) in out
        assert all(size(t) <= 3 for t in out)

    def test_no_duplicates_and_deterministic(self):
        out = app_combinations([Var("x"), Var("y")], [I], 5)
        assert len(out) == len(set(out))
        assert out == app_combinations([Var("x"), Var("y")], [I], 5)

    @pytest.mark.parametrize("linear, repeat, cap", [
        ([Var("x"), Var("y")], [I], 5),
        ([Var("x")], [OMEGA, I], 4),
        ([], [I, parse("\\a. \\b. a")], 4),
        ([Var("x")], [I, App(I, I)], 4),  # the tree I I repeats an atom
    ])
    def test_order_follows_the_recursive_definition(self, linear, repeat, cap):
        # the trees in the order of the recursive enumeration they are
        # defined by: fitting atoms first, then each left operand of size
        # <= cap - 1 with each right operand the rest of the cap allows
        atoms = [(t, {i}, max(size(t), 1)) for i, t in enumerate(linear)]
        atoms += [(t, set(), max(size(t), 1)) for t in repeat]

        def build(cap, used):
            for t, mask, sz in atoms:
                if sz <= cap and not mask & used:
                    yield t, used | mask, sz
            if cap >= 2:
                for lt, lu, ls in build(cap - 1, used):
                    for rt, ru, rs in build(cap - ls, lu):
                        yield App(lt, rt), ru, ls + rs

        want = list(dict.fromkeys(t for t, _, _ in build(cap, set())))
        out = app_combinations(linear, repeat, cap)
        assert [pretty(t) for t in out] == [pretty(t) for t in want]
        assert out == want

    def test_each_tree_is_one_node(self):
        out = app_combinations([Var("x"), Var("y")], [I], 5)
        node = {t: t for t in out}
        for t in out:
            if isinstance(t, App):
                assert t.fn is node[t.fn] and t.arg is node[t.arg]


class TestDedupeValues:
    def test_keeps_the_first_of_alpha_equal_values_in_order(self):
        a, k, z = parse("\\a. a"), parse("\\a. \\b. a"), parse("\\z. z")
        out = dedupe_values([a, k, z, k])
        assert out == (a, k)
        assert out[0] is a and out[1] is k


class TestDistanceLowerBound:
    def test_value_against_divergence_at_length_zero(self):
        v, w = trace_distance_lb(I, OMEGA, (I,), 0)
        assert v == 1
        assert w == EPS

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trace_distance_lb(I, OMEGA, (I,), -1)

    def test_a_settled_search_ignores_a_huge_budget(self):
        # nothing is left to extend after the root, so the budget is not counted out
        assert trace_distance_lb(I, OMEGA, (I,), 10**12) == (1, EPS)

    def test_choice_against_identity(self):
        v, w = trace_distance_lb(parse("(\\x. x) (+) omega"), I, (I,), 3)
        assert v == HALF
        assert w == EPS

    def test_identical_programs_have_no_gap(self):
        m = parse("(\\x. x) (+) omega")
        v, w = trace_distance_lb(m, m, (I,), 3)
        assert v == 0
        assert w == EPS

    def test_witness_attains_the_bound(self):
        rng = random.Random(20260331)
        for _ in range(30):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            v, w = trace_distance_lb(m, n, (I,), 2)
            assert abs(trace_accept(m, w) - trace_accept(n, w)) == v

    def test_symmetry(self):
        m = parse("(\\x. x) (+) omega")
        assert trace_distance_lb(m, I, (I,), 2)[0] == trace_distance_lb(I, m, (I,), 2)[0]


def reference_accept(t, s) -> Fraction:
    """Trace probability by recursion on the word over gen.naive_eval; it
    shares no code with the search's step function."""
    total = Fraction(0)
    for v, p in gen.naive_eval(t).items():
        if not s:
            total += p
        elif isinstance(s[0], AppAction) and isinstance(v, Abs):
            total += p * reference_accept(substitute(v.body, v.var, s[0].value), s[1:])
        elif isinstance(s[0], TensorAction) and isinstance(v, Pair):
            for a, q in gen.naive_eval(v.first).items():
                for b, r in gen.naive_eval(v.second).items():
                    inst = substitute(substitute(s[0].body, "x", a), "y", b)
                    total += p * q * r * reference_accept(inst, s[1:])
    return total


def move(s, a):
    """Toy effect: every action applies to every state as itself."""
    return a


class TestExplore:
    def test_visits_by_length_and_skips_reached_pairs(self):
        seen = []

        def visit(word, da, db):
            seen.append((word, da.weight(), db.weight()))
            return word != ("b",)

        # the sides start on different states, so they share no mass
        explore(
            (dirac(0), dirac(10)),
            lambda support: ("a", "b", "c"),
            move,
            lambda s, a: dirac(s + 1) if a == "a" else dirac(s + 2) if a == "b" else Dist(),
            3,
            visit,
        )
        # ("b",) is not extended. ("a", "a") reaches the pair of ("b",),
        # and ("a", "c") and ("a", "b", "c") the empty pair of ("c",), which
        # has no state to step. The last length is built like the others.
        words = [word for word, _, _ in seen]
        assert words == [
            (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "b", "a"), ("a", "b", "b"),
        ]
        weights = [(wa, wb) for _, wa, wb in seen]
        assert weights == [(1, 1)] * 3 + [(0, 0)] + [(1, 1)] * 3

    def test_the_mass_both_sides_share_is_cancelled_before_the_visit(self):
        # The start pair shares state 0, so the root is visited at 1/2 and
        # 1/2, and state 0 is never stepped. "a" moves both 1 and 2 to 3,
        # and "b" both to 4: each pair cancels to the empty pair, so "b"
        # reaches the pair of ("a",) and is not visited.
        seen, calls = [], []

        def step(s, a):
            calls.append(s)
            return dirac({"a": 3, "b": 4}.get(a, s + 10))

        explore(
            (Dist({0: HALF, 1: HALF}), Dist({0: HALF, 2: HALF})),
            lambda support: "abc",
            move,
            step,
            1,
            lambda word, da, db: seen.append((word, da.weight(), db.weight())) or True,
        )
        assert seen == [((), HALF, HALF), (("a",), 0, 0), (("c",), HALF, HALF)]
        assert 0 not in calls

    def test_a_candidate_acting_like_an_earlier_one_steps_nothing_new(self):
        # "a" and "b" have the same effect on every state: "b" finds every
        # step in the memo and reaches the pair of "a", so it adds no word.
        # The step is handed the effect, not the action
        calls, words = [], []

        def step(s, e):
            calls.append((s, e))
            return dirac(s + 1)

        explore(
            (dirac(0), dirac(10)),
            lambda support: "ab",
            lambda s, a: "up",
            step,
            2,
            lambda word, da, db: words.append(word) or True,
        )
        assert words == [(), ("a",), ("a", "a")]
        assert calls == [(0, "up"), (10, "up"), (1, "up"), (11, "up")]

    def test_a_state_the_candidate_does_not_apply_to_is_never_stepped(self):
        # "a" applies to every state but 1; half of side one's mass is lost
        calls, seen = [], []

        def step(s, a):
            calls.append((s, a))
            return dirac(s)

        explore(
            (Dist({0: HALF, 1: HALF}), dirac(10)),
            lambda support: "a",
            lambda s, a: None if s == 1 else a,
            step,
            2,
            lambda word, da, db: seen.append((word, da.weight(), db.weight())) or True,
        )
        # ("a", "a") repeats the pair of ("a",), so it is not visited
        assert seen == [((), 1, 1), (("a",), HALF, 1)]
        assert (1, "a") not in calls

    def test_a_candidate_applying_to_no_state_is_not_tried(self):
        calls, words = [], []

        def step(s, a):
            calls.append((s, a))
            return dirac(s + 1)

        explore(
            (dirac(0), dirac(10)),
            lambda support: "ca",
            lambda s, a: None if a == "c" else a,
            step,
            2,
            lambda word, da, db: words.append(word) or True,
        )
        assert words == [(), ("a",), ("a", "a")]
        assert all(a == "a" for _, a in calls)

    def test_each_state_and_effect_is_stepped_once_per_walk(self):
        # Side one stays at state 0 while side two spells the word, so every
        # word holds a new pair. "c" is offered to the last length only.
        calls = []

        def step(s, a):
            calls.append((s, a))
            return dirac(0) if s == 0 else dirac(s + a)

        def actions(support):
            return "abc" if any(len(s) == 2 for s in support if s != 0) else "ab"

        explore((dirac(0), dirac("")), actions, move, step, 3, lambda *_: True)
        assert calls.count((0, "a")) == 1 and calls.count((0, "b")) == 1
        # the last length fills the memo like the others
        assert calls.count((0, "c")) == 1

    def test_the_walk_ends_when_no_word_is_left_to_extend(self):
        # every successor repeats the root pair, so length 1 keeps nothing
        offered, words = [], []

        def actions(support):
            offered.append(support)
            return "ab"

        explore(
            (dirac(0), dirac(1)),
            actions,
            move,
            lambda s, a: dirac(s),
            10**12,
            lambda word, da, db: words.append(word) or True,
        )
        assert offered == [[0, 1]]
        assert words == [()]

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            explore((dirac(0), dirac(0)), lambda _: "a", move, toy_step, -1, lambda *_: True)

    def test_search_returns_the_first_maximiser_of_the_enumeration(self):
        rng = random.Random(20260390)
        universes = ((I,), (I, parse("\\a. \\b. a")))
        for i in range(60):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            universe = universes[i % 2]
            templates = tuple(rng.sample(default_tensor_templates(universe), i % 4))
            max_len = i % 4
            first = None
            for s in enumerate_traces(universe, max_len, templates):
                gap = abs(reference_accept(m, s) - reference_accept(n, s))
                if not templates:
                    em, en = lts_trace_accept(dirac(m), s), lts_trace_accept(dirac(n), s)
                    assert abs(em - en) == gap
                if first is None or gap > first[0]:
                    first = (gap, s)
            got = trace_distance_lb(m, n, universe, max_len, templates)
            assert got == first, (pretty(m), pretty(n), universe, templates, max_len)

    def test_shape_filter_matches_the_full_alphabet(self):
        # The search's effect is None where an action's kind does not fit,
        # so a misfit state is never stepped, and a tensor action's effect
        # is its template's normal form; move's effect is the action itself,
        # so here every state is stepped by every action and _trace_step
        # gives a misfit EMPTY. This checks that neither changes an answer.
        # Every third pair starts from pairs, where tensor actions matter.
        rng = random.Random(20260404)
        universes = ((I,), (I, parse("\\a. \\b. a")))
        for i in range(60):
            m, n = (
                Pair(*(gen.random_value(rng, max_size=6, prefix=f"{side}{h}") for h in "ab"))
                if i % 3 == 0
                else gen.random_program(rng, max_size=12, fuel=3)
                for side in "mn"
            )
            universe = universes[i % 2]
            templates = tuple(rng.sample(default_tensor_templates(universe), 1 + i % 6))
            max_len = 1 + i % 3
            alphabet = [AppAction(v) for v in universe]
            alphabet += [TensorAction(b) for b in templates]
            full = widest_gap(
                (eval_big(m), eval_big(n)), lambda _: alphabet, move, _trace_step, max_len
            )
            got = trace_distance_lb(m, n, universe, max_len, templates)
            assert got == full, (pretty(m), pretty(n), universe, templates, max_len)


# Toy search: side one starts at 0, side two at 10. "a" and "b" halve the
# second side's mass and tie at gap 1/2; "a" then loops on its own pair;
# "c" keeps the first side and drops the second.
TOY = {
    (0, "a"): dirac(1),
    (10, "a"): Dist({11: HALF}),
    (1, "a"): dirac(1),
    (11, "a"): dirac(11),
    (0, "b"): dirac(2),
    (10, "b"): Dist({12: HALF}),
    (0, "c"): dirac(3),
}


def toy_step(s, a):
    return TOY.get((s, a), Dist())


def first_maximiser(start, alphabet, step, max_len):
    """Largest gap over every word up to max_len, each scored from the
    start by folding step, with the first word in length-lexicographic
    order attaining it."""
    best = None
    for n in range(max_len + 1):
        for word in itertools.product(alphabet, repeat=n):
            da, db = start
            for a in word:
                da = da.bind(lambda s: step(s, a))
                db = db.bind(lambda s: step(s, a))
            gap = abs(da.weight() - db.weight())
            if best is None or gap > best[0]:
                best = (gap, word)
    return best


class TestWidestGap:
    START = (dirac(0), dirac(10))

    def test_a_tie_at_the_last_length_keeps_the_first_witness(self):
        # ("a", "a") reaches the pair of ("a",) again, and ("b",) ties it
        got = widest_gap(self.START, lambda _: "ab", move, toy_step, 2)
        assert got == (HALF, ("a",))
        assert got == first_maximiser(self.START, "ab", toy_step, 2)

    @pytest.mark.parametrize(
        "max_len, want", [(0, (0, ())), (1, (1, ("c",))), (2, (1, ("c",)))]
    )
    def test_short_budgets(self, max_len, want):
        got = widest_gap(self.START, lambda _: "abc", move, toy_step, max_len)
        assert got == want
        assert got == first_maximiser(self.START, "abc", toy_step, max_len)

    def test_length_zero_scores_the_root_alone(self):
        calls = []

        def step(s, a):
            calls.append((s, a))
            return toy_step(s, a)

        assert widest_gap((dirac(0), Dist()), lambda _: "abc", move, step, 0) == (1, ())
        assert calls == []

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            widest_gap(self.START, lambda _: "abc", move, toy_step, -1)


# Toy search over denominators 3, 5 and 7, which fair choice never makes.
# Side one starts at 0 with 2/3, side two at 10 with 3/5. ("a",) opens
# 2/3 - 3/35 = 61/105. ("b",) opens only 2/3 - 3/25 = 41/75, but side one
# keeps 2/3 = 50/75 there, so it is extended: 50·105 > 61·75, while the
# cross-multiplication with the denominators swapped, 50·75 < 61·105,
# would prune it. ("b", "a") then opens 2/3, and ("b", "b") only ties it.
TOY_357 = {
    (0, "a"): dirac(1),
    (10, "a"): Dist({11: Fraction(1, 7)}),
    (0, "b"): dirac(2),
    (10, "b"): Dist({12: Fraction(1, 5)}),
    (2, "a"): dirac(2),
    (2, "b"): dirac(5),
}


def toy_357_step(s, a):
    return TOY_357.get((s, a), Dist())


def with_the_fraction_visitor(monkeypatch, search):
    """search() as it runs, and again with gen.fraction_widest_gap, the
    visitor in Fraction arithmetic, in place of widest_gap in the trace
    and the tuple search."""
    fast = search()
    with monkeypatch.context() as patch:
        patch.setattr(trace, "widest_gap", gen.fraction_widest_gap)
        patch.setattr(tuples, "widest_gap", gen.fraction_widest_gap)
        return fast, search()


class TestIntegerVisitor:
    START = (Dist({0: Fraction(2, 3)}), Dist({10: Fraction(3, 5)}))

    @pytest.mark.parametrize(
        "max_len, want",
        [
            (0, (Fraction(1, 15), ())),
            (1, (Fraction(61, 105), ("a",))),
            (2, (Fraction(2, 3), ("b", "a"))),
            (3, (Fraction(2, 3), ("b", "a"))),
        ],
    )
    def test_denominators_other_than_powers_of_two(self, max_len, want):
        got = widest_gap(self.START, lambda _: "ab", move, toy_357_step, max_len)
        assert got == want and type(got[0]) is Fraction
        assert got == first_maximiser(self.START, "ab", toy_357_step, max_len)
        assert got == gen.fraction_widest_gap(
            self.START, lambda _: "ab", move, toy_357_step, max_len
        )

    def test_the_searches_agree_with_the_fraction_visitor(self, monkeypatch):
        rng = random.Random(20261020)
        universes = ((I,), (I, parse("\\a. \\b. a")))
        tuple_templates = default_templates()
        for i in range(240):
            m, n = (
                Pair(*(gen.random_value(rng, max_size=5, prefix=f"{side}{h}") for h in "ab"))
                if i % 3 == 0
                else gen.random_program(rng, max_size=12, fuel=3)
                for side in "mn"
            )
            universe = universes[i % 2]
            tensor = tuple(rng.sample(default_tensor_templates(universe), i % 9))
            max_len = i % 5
            fast, ref = with_the_fraction_visitor(
                monkeypatch, lambda: trace_distance_lb(m, n, universe, max_len, tensor)
            )
            assert fast == ref, (pretty(m), pretty(n), universe, tensor, max_len)
            fast, ref = with_the_fraction_visitor(
                monkeypatch, lambda: tuple_distance_lb(m, n, tuple_templates, max_len)
            )
            assert fast == ref, (pretty(m), pretty(n), max_len)


# Toy walk for the successor floor, over denominators 3, 5 and 7. The root
# has gap 0, so length 1 is built over floor 0 and drops only "c", which
# empties both sides. ("a",) opens 3/5, the floor of length 2. There:
# - ("a", "a") weighs 3/5 and 2/5 before cancelling, both at most 3/5,
#   one of them equal to it, so it is not built;
# - ("a", "b") weighs 6/7 and 2/35: one side is above the floor, so it is
#   built, and its gap 4/5 is the answer;
# - ("b", "c") weighs 61/105 on side one, over 1/3 · 3/5 + 2/3 · 4/7, the
#   weights of two states with denominators 5 and 7, and 1 on side two, so
#   it is built; after state 6 cancels it weighs 0 and 44/105, both at
#   most 3/5, but it is visited all the same;
# - every other successor is empty.
TOY_FLOOR = {
    (0, "a"): dirac(1),
    (10, "a"): Dist({11: Fraction(2, 5)}),
    (0, "b"): Dist({2: Fraction(1, 3), 5: Fraction(2, 3)}),
    (10, "b"): dirac(12),
    (1, "a"): Dist({3: Fraction(3, 5)}),
    (11, "a"): dirac(13),
    (1, "b"): Dist({4: Fraction(6, 7)}),
    (11, "b"): Dist({14: Fraction(1, 7)}),
    (2, "c"): Dist({6: Fraction(3, 5)}),
    (5, "c"): Dist({6: Fraction(4, 7)}),
    (12, "c"): Dist({6: Fraction(2, 3), 7: Fraction(1, 3)}),
}


def toy_floor_step(s, a):
    return TOY_FLOOR.get((s, a), Dist())


class TestSuccessorFloor:
    START = (dirac(0), dirac(10))

    def test_only_pairs_at_most_the_best_gap_on_both_sides_are_skipped(self, monkeypatch):
        visited = []
        real = trace.explore

        def recording(start, actions, effect, step, max_len, visit, floor):
            def seen(word, da, db):
                visited.append((word, da.weight(), db.weight()))
                return visit(word, da, db)

            return real(start, actions, effect, step, max_len, seen, floor)

        monkeypatch.setattr(trace, "explore", recording)
        got = widest_gap(self.START, lambda _: "abc", move, toy_floor_step, 2)
        assert got == (Fraction(4, 5), ("a", "b"))
        assert got == first_maximiser(self.START, "abc", toy_floor_step, 2)
        assert got == gen.fraction_widest_gap(self.START, lambda _: "abc", move, toy_floor_step, 2)
        assert visited == [
            ((), 1, 1),
            (("a",), 1, Fraction(2, 5)),
            (("b",), 1, 1),
            (("a", "b"), Fraction(6, 7), Fraction(2, 35)),
            (("b", "c"), 0, Fraction(44, 105)),
        ]

    def test_the_pruned_searches_agree_with_the_walk_that_builds_every_pair(self, monkeypatch):
        # gen.fraction_widest_gap walks the same explore without a floor,
        # so it builds every successor pair; the floor skips some of them.
        built = [0, 0]
        real_cancel = Dist.cancel

        def counting(a, b):
            built[which] += 1
            return real_cancel(a, b)

        monkeypatch.setattr(Dist, "cancel", counting)
        rng = random.Random(20261021)
        universes = ((I,), (I, parse("\\a. \\b. a")))
        tuple_templates = default_templates()
        for i in range(300):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            universe = universes[i % 2]
            tensor = tuple(rng.sample(default_tensor_templates(universe), i % 9))
            max_len = i % 6
            for search in (
                lambda: trace_distance_lb(m, n, universe, max_len, tensor),
                lambda: tuple_distance_lb(m, n, tuple_templates, max_len),
            ):
                which = 0
                pruned = search()
                with monkeypatch.context() as patch:
                    patch.setattr(trace, "widest_gap", gen.fraction_widest_gap)
                    patch.setattr(tuples, "widest_gap", gen.fraction_widest_gap)
                    which = 1
                    assert pruned == search(), (pretty(m), pretty(n), universe, tensor, max_len)
        assert built[0] < built[1]

    def test_the_shared_halves_step_equals_the_trace_step(self, search_step):
        # The search steps by the replay's own step, whose outcomes the
        # eval memo keeps for the query: each pair state's halves are
        # evaluated once and moved by every tensor effect.
        rng = random.Random(20261022)
        tensor = default_tensor_templates((I, parse("\\a. \\b. a")))
        step = search_step(lambda: trace_distance_lb(I, I, (I,), 1, tensor))
        assert step is _trace_step
        clear_memo()
        made = []  # the keys of the observation entries, as the steps make them
        for p in (random_pair(rng, i) for i in range(12)):
            made.append(p)
            for t in tensor:
                a = TensorAction(t)
                want = _move(gen.reference_halves(p), a).bind(_eval)
                assert list(step(p, a).items()) == list(want.items()), (p, t)
            for _ in range(3):  # the search steps an abstraction by app actions alone
                f, v = (gen.random_value(rng, max_size=8, prefix=x) for x in "fv")
                if type(f) is Abs:
                    a = AppAction(v)
                    want = _move(f, a).bind(_eval)
                    assert list(step(f, a).items()) == list(want.items()), (f, v)
                    made.append((f, v))
        # one halves entry per pair, for all the templates, and one entry
        # per application
        assert gen.observations() == list(dict.fromkeys(made))


class TestLtsView:
    def test_agrees_with_the_program_view(self):
        rng = random.Random(20260332)
        for _ in range(100):
            m = gen.random_program(rng, max_size=20, fuel=4)
            s = tuple(AppAction(gen.random_value(rng)) for _ in range(rng.randint(0, 2)))
            assert lts_trace_accept(dirac(m), s) == trace_accept(m, s)

    def test_mixtures_weight_their_members(self):
        from metricwb.dist import Dist

        d = Dist([(I, HALF), (OMEGA, HALF)])
        assert lts_trace_accept(d, EPS) == HALF

    def test_rejects_tensor_actions(self):
        with pytest.raises(ValueError):
            lts_trace_accept(dirac(Pair(OMEGA, OMEGA)), (TensorAction(Var("x")),))

    def test_a_binder_name_reused_by_reduction_is_accepted(self):
        # I K K reduces to \b. K, whose inner binder repeats b; the inputs
        # were checked once, so reduction does not check affinity again
        k = AppAction(parse("\\a. \\b. a"))
        assert lts_trace_accept(dirac(I), (k, k)) == 1


class TestPairEncodingTransfer:
    def test_tensor_actions_become_app_actions(self):
        s = (TensorAction(Var("x")),)
        out = encode_theta_trace(s)
        assert len(out) == 1
        assert isinstance(out[0], AppAction)

    def test_transfer_on_a_worked_pair(self):
        m = Pair(I, parse("(\\x. x) (+) omega"))
        s = (TensorAction(Var("y")), AppAction(I))
        assert trace_accept(m, s) == trace_accept(encode_theta(m), encode_theta_trace(s))

    def test_transfer_with_a_context_that_shadows_a_hole(self):
        # the consumer binds the holes x and y themselves; the context's
        # own \y shadows the second hole and must not catch its value
        m = Pair(I, parse("\\z. z (+) omega"))
        s = (TensorAction(parse("x (\\y. y) y")), AppAction(I))
        assert trace_accept(m, s) == Fraction(1, 2)
        assert trace_accept(encode_theta(m), encode_theta_trace(s)) == Fraction(1, 2)

    def test_transfer_on_typed_instances(self):
        rng = random.Random(20260333)
        for i in range(60):
            m, s = gen.typed_instance(rng, want_tensor=(i % 2 == 0))
            assert trace_accept(m, s) == trace_accept(
                encode_theta(m), encode_theta_trace(s)
            )


class TestFormatting:
    def test_eps(self):
        assert format_trace(EPS) == "eps"
        assert parse_trace("eps") == EPS

    def test_app_actions(self):
        s = (AppAction(I), AppAction(parse("\\y. omega")))
        text = format_trace(s)
        assert parse_trace(text) == s

    def test_tensor_actions(self):
        s = (TensorAction(App(Var("x"), Var("y"))),)
        text = format_trace(s)
        assert "tensor" in text
        assert parse_trace(text) == s

    def test_round_trip_on_random_traces(self):
        rng = random.Random(20260334)
        for _ in range(50):
            actions = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    actions.append(AppAction(gen.random_value(rng)))
                else:
                    actions.append(TensorAction(rng.choice(
                        [Var("x"), Var("y"), App(Var("x"), Var("y"))]
                    )))
            s = tuple(actions)
            assert parse_trace(format_trace(s)) == s

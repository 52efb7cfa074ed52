import itertools
import random
from fractions import Fraction

import pytest

import gen
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
    trace_accept,
    trace_distance_lb,
)
from metricwb.dist import Dist
from metricwb.terms import Abs, App, LetPair, OMEGA, Pair, Var, identity, pretty, size, substitute
from metricwb.trace import (
    TENSOR_HOLE_1,
    TENSOR_HOLE_2,
    AppAction,
    TensorAction,
    app_combinations,
    check_trace,
    default_tensor_templates,
    encode_theta_trace,
    _trace_step,
    enumerate_traces,
    explore,
    format_trace,
    interrogate,
    widest_gap,
)

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

        def half(prefix):  # distinct binder prefixes keep the redex affine
            if rng.random() < 0.5:
                return gen.random_value(rng, max_size=8, prefix=prefix)
            return gen.random_program(rng, 8, 3, prefix)

        spread = partial = 0
        for i in range(100):
            t = gen.random_value(rng, max_size=8) if i % 2 else Pair(half("p"), half("q"))
            v = gen.random_value(rng, max_size=8, prefix="w")
            cases = [(AppAction(v), App(t, v))]
            cases += [(a, LetPair(TENSOR_HOLE_1, TENSOR_HOLE_2, t, a.body)) for a in actions]
            for a, redex in cases:
                d = _trace_step(t, a)
                assert d == eval_small(redex), (pretty(t), a)
                spread += len(d) > 1
                partial += 0 < d.weight() < 1
        assert spread and partial


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

        def visit(word, wa, wb):
            seen.append((word, wa, wb))
            return word != ("b",)

        explore(
            (dirac(0), dirac(0)),
            lambda support: ("a", "b", "c"),
            move,
            lambda s, a: dirac(s + 1) if a == "a" else dirac(s + 2) if a == "b" else Dist(),
            3,
            visit,
        )
        # ("b",) is not extended. Below the last length, ("a", "a") reaches
        # the pair of ("b",) and ("a", "c") the empty pair of ("c",), and
        # ("c",) has no state to step. The last length is visited by weight
        # whether or not its pairs were reached before.
        words = [word for word, _, _ in seen]
        assert words == [
            (), ("a",), ("b",), ("c",), ("a", "b"),
            ("a", "b", "a"), ("a", "b", "b"), ("a", "b", "c"),
        ]
        weights = [(wa, wb) for _, wa, wb in seen]
        assert weights == [(1, 1)] * 3 + [(0, 0)] + [(1, 1)] * 3 + [(0, 0)]

    def test_a_candidate_acting_like_an_earlier_one_is_not_tried(self):
        # "a" and "b" have the same effect on every state, so only "a" runs;
        # the step is handed the effect, not the action
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
            lambda word, wa, wb: words.append(word) or True,
        )
        assert words == [(), ("a",), ("a", "a")]
        assert calls == [(0, "up"), (10, "up"), (1, "up"), (11, "up")]

    def test_a_state_the_candidate_does_not_apply_to_is_never_stepped(self):
        # "a" applies to state 0 only; the other half of the mass is lost
        calls, seen = [], []

        def step(s, a):
            calls.append((s, a))
            return dirac(s)

        explore(
            (Dist({0: HALF, 1: HALF}), dirac(0)),
            lambda support: "a",
            lambda s, a: a if s == 0 else None,
            step,
            2,
            lambda word, wa, wb: seen.append((word, wa, wb)) or True,
        )
        assert seen == [((), 1, 1), (("a",), HALF, 1), (("a", "a"), HALF, 1)]
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
            lambda word, wa, wb: words.append(word) or True,
        )
        assert words == [(), ("a",), ("a", "a")]
        assert all(a == "a" for _, a in calls)

    def test_each_state_and_effect_is_stepped_once_below_the_last_length(self):
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
        # the last length reads the memo but does not fill it
        assert calls.count((0, "c")) == 4

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
            lambda word, wa, wb: words.append(word) or True,
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
        # so a misfit state is never stepped; move's effect never is, so
        # here every state is stepped and _trace_step gives a misfit EMPTY.
        # This checks that None effects change no answer. Every third pair
        # starts from pairs, where tensor actions matter.
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

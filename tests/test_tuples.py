import collections
import itertools
import random
from fractions import Fraction

import pytest

import gen
from metricwb import (
    InvalidAction,
    NotAffine,
    NotClosed,
    ParseError,
    bisim_distance,
    build_expair,
    build_mn_nn,
    build_sn,
    dirac,
    eval_big,
    parse,
    parse_tuple_trace,
    program_tuple_trace_prob,
    trace_accept,
    tuple_distance_lb,
    u_seq,
)
from metricwb import trace, tuples
from metricwb.dist import EMPTY, Dist
from metricwb.semantics import clear_memo
from metricwb.terms import Abs, App, Choice, OMEGA, Pair, Var, identity, pretty, substitute
from metricwb.trace import AppAction, default_tensor_templates, trace_distance_lb
from metricwb.tuples import (
    Appl,
    Cut,
    _effect,
    _step,
    default_templates,
    format_tuple_trace,
    skewed_choice,
    step_or_zero,
    trace_tuple_lengths,
)

I = identity()
F = Fraction
HALF = F(1, 2)

K = parse("\\a. \\b. a")
DISCARD = parse("\\a. \\b. b")  # discards its argument
K_SLOT = Abs("y", App(App(K, Var("y")), Var("$j")))  # \y. K y $j
NOISY, CLEAN = build_expair()
WITNESS = (Cut(1), Appl(1, (), I), Appl(2, (), I))


class TestSteps:
    def test_cut_splits_a_pair_in_place(self):
        out = step_or_zero((CLEAN,), Cut(1))
        assert out == dirac((Abs("z", I), Abs("z", I)))

    def test_cut_evaluates_both_halves(self):
        k = (Pair(parse("(\\x. x) (+) omega"), I),)
        out = step_or_zero(k, Cut(1))
        assert out == Dist([((I, I), HALF)])

    def test_cut_requires_a_pair(self):
        assert step_or_zero((I,), Cut(1)) == EMPTY
        assert step_or_zero((CLEAN,), Cut(2)) == EMPTY

    def test_appl_feeds_the_component(self):
        k = (Abs("z", parse("(\\x. x) (+) omega")),)
        out = step_or_zero(k, Appl(1, (), I))
        assert out == Dist([((I,), HALF)])

    def test_appl_consumes_named_components(self):
        k = (I, parse("\\w. \\q. q"))
        out = step_or_zero(k, Appl(2, (1,), Var("x1")))
        assert out == dirac((parse("\\q. q"),))

    def test_appl_requires_an_abstraction(self):
        assert step_or_zero((CLEAN,), Appl(1, (), I)) == EMPTY
        assert step_or_zero((I,), Appl(1, (2,), Var("x2"))) == EMPTY

    def test_malformed_actions_are_rejected_up_front(self):
        with pytest.raises(InvalidAction, match="positive"):
            step_or_zero((I,), Appl(0, (), I))
        with pytest.raises(InvalidAction, match="increasing"):
            step_or_zero((I, I, I), Appl(1, (3, 2), Var("x2")))
        with pytest.raises(InvalidAction, match="own position"):
            step_or_zero((I, I), Appl(1, (1,), Var("x1")))
        with pytest.raises(InvalidAction, match="outside the consumed set"):
            step_or_zero((I, I), Appl(1, (2,), Var("x9")))
        with pytest.raises(InvalidAction, match="positive"):
            step_or_zero((CLEAN,), Cut(0))
        with pytest.raises(InvalidAction, match="consumed indices must be positive"):
            step_or_zero((I, I), Appl(2, (0,), Var("x0")))
        with pytest.raises(InvalidAction, match="variable or an abstraction"):
            step_or_zero((I,), Appl(1, (), App(I, I)))
        with pytest.raises(InvalidAction, match="not a tuple action"):
            step_or_zero((I,), AppAction(I))

    def test_replays_check_the_whole_word_before_playing(self, monkeypatch):
        # the first action is valid and the second is not: nothing is played
        played = []
        real = tuples.step_or_zero
        monkeypatch.setattr(tuples, "step_or_zero", lambda k, a: played.append(a) or real(k, a))
        for replay in (program_tuple_trace_prob, trace_tuple_lengths):
            with pytest.raises(InvalidAction, match="^cut position 0 must be positive$"):
                replay(CLEAN, (Cut(1), Cut(0)))
        assert played == []

    def test_an_argument_uses_each_consumed_component_once(self):
        twice = Appl(1, (2,), parse("\\y. x2 x2"))
        with pytest.raises(NotAffine):
            program_tuple_trace_prob(CLEAN, (Cut(1), twice))
        with pytest.raises(NotAffine):
            parse_tuple_trace("cut(1); appl(1; x2; \\y. x2 x2)")

    def test_step_or_zero_turns_inapplicability_into_no_mass(self):
        # a replay keeps the mass of the states an action applies to
        coin = parse("<\\x. x, \\y. y> (+) \\z. z")
        assert program_tuple_trace_prob(coin, (Cut(1),)) == HALF
        assert trace_tuple_lengths(coin, (Cut(1), Cut(1))) == (0, [2, 0])

    def test_mass_never_grows(self):
        rng = random.Random(20260360)
        templates = default_templates()
        for _ in range(50):
            k = tuple(
                gen.random_value(rng, max_size=8, prefix=f"c{i}")
                for i in range(rng.randint(1, 2))
            )
            for a in gen.reference_actions([k], templates):
                assert step_or_zero(k, a).weight() <= 1


class TestWorkedPair:
    def test_construction_shapes(self):
        assert CLEAN == Pair(Abs("z", I), Abs("z", I))
        match NOISY:
            case Pair(Abs(_, left), Abs(_, right)):
                assert left == right == parse("(\\x. x) (+) omega")
            case _:
                pytest.fail(pretty(NOISY))

    def test_clean_pair_passes_the_witness_surely(self):
        assert program_tuple_trace_prob(CLEAN, WITNESS) == 1

    def test_noisy_pair_passes_with_a_quarter(self):
        assert program_tuple_trace_prob(NOISY, WITNESS) == F(1, 4)

    def test_distance_lower_bound(self):
        value, witness = tuple_distance_lb(NOISY, CLEAN, None, 3)
        assert value == F(3, 4)
        assert abs(
            program_tuple_trace_prob(NOISY, witness)
            - program_tuple_trace_prob(CLEAN, witness)
        ) == value

    def test_witness_lengths(self):
        assert trace_tuple_lengths(CLEAN, WITNESS) == (1, [2, 2, 2])


class TestReplay:
    def test_replay_matches_the_reference_step(self):
        # Words grow one action at a time from the actions listed over the
        # current support, a cut half the time one is listed so that tuples
        # widen, and now and then an action that applies nowhere. Each
        # prefix is replayed from the program and checked against a replay
        # through gen's reference step.
        rng = random.Random(20261019)
        templates = default_templates((I, K))
        seen = dict.fromkeys(("inapplicable somewhere", "applies nowhere", "consumed", "emptied"), 0)
        for _ in range(300):
            m = gen.random_program(rng, max_size=20, fuel=5)
            d = eval_big(m).map_elems(lambda v: (v,))
            assert trace_tuple_lengths(m, ()) == (d.weight(), [])
            assert program_tuple_trace_prob(m, ()) == d.weight()
            word, lengths = (), []
            for _ in range(rng.randint(1, 5)):
                width = max(map(len, d.support()), default=0)
                listed = gen.reference_actions(d.support(), templates)
                cuts = [a for a in listed if isinstance(a, Cut)]
                if listed and rng.random() < 0.85:
                    a = rng.choice(cuts if cuts and rng.random() < 0.5 else listed)
                else:
                    a = rng.choice((Cut(width + 1), Appl(width + 1, (), I)))
                steps = [gen.reference_tuple_step(k, a) for k in d.support()]
                seen["inapplicable somewhere"] += None in steps and any(steps)
                seen["applies nowhere"] += bool(steps) and steps.count(None) == len(steps)
                seen["consumed"] += isinstance(a, Appl) and bool(a.consumed) and any(steps)
                start = d
                d = d.bind(lambda k: gen._reference_or_zero(k, a))
                word += (a,)
                lengths.append(max(map(len, d.support()), default=0))
                where = (pretty(m), format_tuple_trace(word))
                assert program_tuple_trace_prob(m, word) == d.weight(), where
                assert trace_tuple_lengths(m, word) == (d.weight(), lengths), where
                if start and not d:
                    seen["emptied"] += 1
            if not d:
                assert lengths[-1] == 0 and program_tuple_trace_prob(m, word) == 0
        assert all(seen.values()), seen


class TestTowerFamily:
    def test_ground_floor(self):
        m0, n0 = build_mn_nn(0)
        assert program_tuple_trace_prob(m0, build_sn(0)) == 1
        assert program_tuple_trace_prob(n0, build_sn(0)) == 1
        assert u_seq(0) == 1

    def test_known_prefix_of_the_sequence(self):
        assert [u_seq(n) for n in range(5)] == [
            F(1),
            HALF,
            F(3, 8),
            F(21, 64),
            F(315, 1024),
        ]

    def test_interrogation_length_grows_linearly(self):
        for n in range(4):
            assert len(build_sn(n)) == 2 * n

    def test_probabilities_match_the_sequence(self):
        for n in range(6):
            mn, nn = build_mn_nn(n)
            sn = build_sn(n)
            assert program_tuple_trace_prob(mn, sn) == 1
            assert program_tuple_trace_prob(nn, sn) == u_seq(n)

    def test_one_level_unfolding_identities(self):
        for n in range(5):
            mn, nn = build_mn_nn(n)
            mn1, nn1 = build_mn_nn(n + 1)
            sn, sn1 = build_sn(n), build_sn(n + 1)
            pm, pm1 = program_tuple_trace_prob(mn, sn), program_tuple_trace_prob(mn1, sn1)
            pn, pn1 = program_tuple_trace_prob(nn, sn), program_tuple_trace_prob(nn1, sn1)
            assert pm1 == pm
            assert pn1 == (1 - F(1, 2 ** (n + 1))) * pn

    def test_separation_against_the_wrapped_tower(self):
        for n in range(4):
            mn, nn = build_mn_nn(n)
            v, w = tuple_distance_lb(mn, nn, None, max_len=2 * n)
            assert v == 1 - u_seq(n)
            assert w == build_sn(n) or abs(
                program_tuple_trace_prob(mn, w) - program_tuple_trace_prob(nn, w)
            ) == v


class TestSkewedChoice:
    def test_half_is_a_plain_coin(self):
        t = skewed_choice(I, Abs("q", OMEGA), HALF)
        from metricwb import eval_big

        assert eval_big(t) == Dist([(I, HALF), (Abs("q", OMEGA), HALF)])

    def test_dyadic_bias(self):
        from metricwb import eval_big

        other = Abs("q", OMEGA)
        for p in (F(1, 4), F(1, 8), F(3, 16), F(0), F(1)):
            d = eval_big(skewed_choice(I, other, p))
            assert d.get(other) == p
            assert d.get(I) == 1 - p

    def test_non_dyadic_bias_is_rejected(self):
        with pytest.raises(ValueError):
            skewed_choice(I, OMEGA, F(1, 3))
        with pytest.raises(ValueError):
            skewed_choice(I, OMEGA, F(2, 6))

    def test_out_of_range_bias_is_rejected(self):
        with pytest.raises(ValueError):
            skewed_choice(I, OMEGA, F(3, 2))
        with pytest.raises(ValueError):
            skewed_choice(I, OMEGA, F(-1, 2))


class TestActionEnumeration:
    def test_default_template_inventory(self):
        # the identity, the slot alone, then 34 abstractions of which one,
        # \y. y, repeats the identity
        t = default_templates()
        assert t[:2] == (I, Var("$j"))
        assert len(t) == 35
        assert all(isinstance(a, Abs) for a in t[2:])

    def test_universe_feeds_the_value_slot(self):
        k = parse("\\a. \\b. b")
        t = default_templates((I, k))
        assert t[:3] == (I, k, Var("$j"))

    def test_value_templates_are_bare_values(self):
        # a set of closed values hands over no component
        acts = gen.search_actions([(I, I)], (I,))
        assert acts == [Appl(1, (), I), Appl(2, (), I)]

    def test_actions_cover_cuts_and_applications(self):
        templates = (I,)
        acts = gen.search_actions([(CLEAN,)], templates)
        assert acts == [Cut(1)]
        acts = gen.search_actions([(I, I)], templates)
        assert Appl(1, (), I) in acts
        assert Appl(2, (), I) in acts
        assert Appl(1, (2,), Var("x2")) not in acts

    def test_component_arguments_appear_when_enabled(self):
        templates = (I, Var("$j"))
        acts = gen.search_actions([(I, I)], templates)
        assert Appl(1, (2,), Var("x2")) in acts
        assert Appl(2, (1,), Var("x1")) in acts

    def test_mixed_support_contributes_all_shapes(self):
        templates = (I,)
        acts = gen.search_actions([(CLEAN,), (I,)], templates)
        assert Cut(1) in acts
        assert Appl(1, (), I) in acts

    def test_enumeration_is_deterministic_and_duplicate_free(self):
        templates = default_templates()
        states = [(I, CLEAN), (CLEAN, I)]
        a = gen.search_actions(states, templates)
        b = gen.search_actions(states, templates)
        assert a == b
        assert len(a) == len(set(a))

    def test_one_argument_per_consumed_set_where_none_is_used(self):
        # Against every action the templates allow: the listed ones keep
        # their order and every effect on the support, and where each
        # abstraction ignores its variable one argument per consumed set
        # stands for the rest.
        rng = random.Random(20261018)
        templates = default_templates((I, K))
        collapsed = 0
        for _ in range(60):
            states = [random_tuple_state(rng, rng.randint(1, 4)) for _ in range(2)]
            want = gen.reference_actions(states, templates)
            got = gen.search_actions(states, templates)
            rest = iter(want)
            assert all(a in rest for a in got), states  # a subsequence

            def effects(acts):
                return {tuple(_effect(k, a) for k in states) for a in acts}

            assert effects(got) == effects(want), states
            for pos in range(1, max(map(len, states)) + 1):
                lams = [k[pos - 1] for k in states if pos <= len(k) and isinstance(k[pos - 1], Abs)]
                if lams and all(c.var not in c.body.free_vars for c in lams):
                    consumed = [a.consumed for a in got if isinstance(a, Appl) and a.pos == pos]
                    assert len(consumed) == len(set(consumed)), (states, pos)
                    collapsed += len(consumed) < sum(isinstance(a, Appl) and a.pos == pos for a in want)
        assert collapsed

    def test_a_search_renames_each_slot_template_once_per_component(self, monkeypatch):
        # Only class firsts are renamed: 12 of the 16 take '$j', against 24
        # of the 35 templates. The tower reaches widths 1 to 4, and a set
        # renames each once per component index, for every width: 4 times,
        # not 1 + 2 + 3 + 4. A later search on the set renames nothing.
        templates = default_templates()
        slots = sum("$j" in t.free_vars for t in tuples._class_firsts(templates))
        assert slots == 12
        calls = []
        real = tuples.rename_free
        monkeypatch.setattr(tuples, "rename_free", lambda t, m: calls.append(m) or real(t, m))
        got = tuple_distance_lb(*build_mn_nn(3), templates, 6)
        assert got[0] == 1 - u_seq(3)
        assert len(calls) == slots * 4
        assert tuple_distance_lb(*build_mn_nn(3), templates, 6) == got
        assert len(calls) == slots * 4


def random_tuple_state(rng, width: int) -> tuple:
    """Closed values: abstractions ignoring their variable, random
    abstractions (which may use it or not) and pairs of abstractions."""

    def component(i: int):
        kind = rng.randrange(3)
        if kind == 0:
            return Abs(f"d{i}", gen.random_program(rng, max_size=8, fuel=2))
        if kind == 1:
            return gen.random_value(rng, max_size=8, prefix=f"c{i}")
        return Pair(*(gen.random_value(rng, max_size=6, prefix=f"p{i}{h}") for h in "ab"))

    return tuple(component(i) for i in range(width))


class TestDistinctEffects:
    def test_equal_effects_give_equal_steps(self):
        # Supports mix widths, so some actions reach past a state's end.
        # Each action's effect gives the reference step, so actions with
        # equal effects step alike.
        rng = random.Random(20260401)
        templates = default_templates((I, K))
        merged = {"vacuous": 0, "argument": 0}
        for _ in range(40):
            states = [random_tuple_state(rng, rng.randint(1, 3)) for _ in range(2)]
            actions = gen.reference_actions(states, templates)
            for k in states:
                by_effect: dict = {}
                for a in actions:
                    want, effect = gen.reference_tuple_step(k, a), _effect(k, a)
                    assert (effect is None) == (want is None), (k, a)
                    if effect is not None:
                        got = _step(k, effect)
                        assert got == want, (k, a)
                        by_effect.setdefault(effect, []).append(a)
                for effect, group in by_effect.items():
                    if len(group) > 1:
                        merged["vacuous" if effect[2] is None else "argument"] += 1
        # both argument-free and argument-carrying effects coincide
        assert all(merged.values()), merged

    def test_search_tries_the_first_action_of_each_effect(self):
        # At max-len 1 the search visits each action it tries whose pair
        # of successors no earlier word reached, the root's included.
        rng = random.Random(20260402)
        templates = default_templates((I, K))
        for _ in range(40):
            states = [random_tuple_state(rng, rng.randint(1, 3)) for _ in range(2)]
            firsts = {}
            for a in gen.reference_actions(states, templates):
                firsts.setdefault(tuple(_effect(k, a) for k in states), a)
            want, reached = [((), 1, 1)], {(dirac(states[0]), dirac(states[1]))}
            for key, a in firsts.items():
                pair = tuple(step_or_zero(k, a) for k in states)
                if any(e is not None for e in key) and pair not in reached:
                    reached.add(pair)
                    want.append(((a,), *(d.weight() for d in pair)))
            # the sides are tagged, so they share no mass even where the
            # two states are equal, and the walk visits absolute weights
            got = []
            gen.sided_walk(
                *states,
                templates,
                1,
                lambda word, da, db: got.append((word, da.weight(), db.weight())) or True,
            )
            assert got == want, states

    def test_each_state_and_effect_is_stepped_at_most_once_per_walk(self, monkeypatch):
        # every length, the last included, steps through the walk's memo
        rng = random.Random(20261019)
        templates = default_templates()
        real, calls = tuples._step, collections.Counter()
        monkeypatch.setattr(tuples, "_step", lambda k, e: calls.update([(k, e)]) or real(k, e))
        for i in range(200):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            calls.clear()
            tuple_distance_lb(m, n, templates, 1 + i % 4)
            repeats = [key for key, c in calls.items() if c > 1]
            assert not repeats, (pretty(m), pretty(n), i)

    def test_search_matches_the_reference_enumeration(self):
        # The search offers one template per call-by-value class, and the
        # reference tries every template, so equal values and witnesses
        # show that no later member of a class beats its first or comes
        # before it. D = \a. \b. b discards its argument, so \y. D y and
        # \y. D $j normalise to D, but only the first is in D's class; the
        # last set puts \y. K y $j, whose normal form is I, before I.
        rng = random.Random(20260403)
        template_sets = (
            *(default_templates(u) for u in ((I,), (K,), (I, K), (DISCARD,))),
            (I, K),
            (K_SLOT, I),
        )
        separated = 0
        for i in range(300):
            max_len = 1 + i // 6 % 5
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            templates = template_sets[i % 6]
            got = tuple_distance_lb(m, n, templates, max_len)
            want = gen.reference_tuple_search(m, n, templates, max_len)
            assert got == want, (pretty(m), pretty(n), i)
            separated += got[0] > 0
        assert separated >= 200

    def test_paper_families_match_the_reference_enumeration(self):
        # The tower's components are abstractions ignoring their variable,
        # where the search lists one argument per consumed set. The
        # reference merges only the pairs it reaches again, with their
        # mass, and tries every template, so it reaches the lengths where
        # the families separate: the tower at max-len 2n and 2n + 1 and
        # the worked pair from 3 to 6, each in well under a second.
        templates = default_templates()
        for level in range(1, 5):
            m, n = build_mn_nn(level)
            for max_len in (2 * level, 2 * level + 1):
                got = tuple_distance_lb(m, n, templates, max_len)
                assert got == gen.reference_tuple_search(m, n, templates, max_len)
                assert got == (1 - u_seq(level), build_sn(level)), (level, max_len)
        for max_len in range(3, 7):
            got = tuple_distance_lb(NOISY, CLEAN, templates, max_len)
            assert got == gen.reference_tuple_search(NOISY, CLEAN, templates, max_len)
            assert got == (F(3, 4), WITNESS)


class TestTemplateClasses:
    def test_the_default_templates_fall_into_fewer_classes(self):
        # the first template of each class, in template order: a later
        # template never displaces an earlier one, so the firsts of each
        # prefix of the templates are a prefix of the firsts
        for universe, count, classes in (((I,), 35, 16), ((I, K), 55, 33)):
            templates = default_templates(universe)
            firsts = tuples._class_firsts(templates)
            assert (len(templates), len(firsts)) == (count, classes)
            assert firsts == tuple(t for t in templates if t in firsts)
            for i in range(len(templates)):
                assert tuples._class_firsts(templates[:i]) == firsts[: sum(t in firsts for t in templates[:i])]

    def test_slot_use_keeps_classes_apart(self):
        # \y. K y $j normalises to \y. y, which is I, but consumes its
        # component; \y. K y I normalises to I and consumes none
        assert tuples._class_firsts((I, K_SLOT)) == (I, K_SLOT)
        assert tuples._class_firsts((K_SLOT, I)) == (K_SLOT, I)
        assert K_SLOT in tuples._class_firsts(default_templates((I, K)))
        assert tuples._class_firsts((I, Abs("y", App(App(K, Var("y")), I)))) == (I,)
        # \y. D y and \y. D $j both normalise to D = \a. \b. b, which
        # discards its argument; only the second consumes a component
        closed, consuming = (Abs("y", App(DISCARD, Var(v))) for v in ("y", "$j"))
        assert tuples._class_firsts((DISCARD, closed, consuming)) == (DISCARD, consuming)

    def test_a_member_applies_as_an_earlier_first_does(self):
        # The exactness lemma, checked by evaluation: applied to a closed
        # value, with '$j' bound to a closed value, every template gives the
        # value distributions of a class first no later than it in order
        # that uses the slot as it does.
        values = [I, K, DISCARD, parse("\\a. a (+) omega"), parse("<I, \\a. \\b. a>"), parse("\\a. a I")]

        def applied(t):
            return [eval_big(App(substitute(t, "$j", c), v)) for v in values for c in values]

        for universe in ((I,), (K,), (I, K), (DISCARD,)):
            templates = default_templates(universe)
            firsts = tuples._class_firsts(templates)
            for i, t in enumerate(templates):
                want = applied(t)
                assert any(
                    ("$j" in f.free_vars) == ("$j" in t.free_vars) and applied(f) == want
                    for f in firsts
                    if templates.index(f) <= i
                ), (pretty(t), universe)

    def test_given_and_derived_templates_are_cut_to_class_firsts(self, monkeypatch):
        # every argument table the search lists is the reference one over
        # the class firsts, for the width of the node's support
        tables = []
        real = tuples.enumerate_actions

        def listing(states, arguments):
            tables.append((max(map(len, states)), arguments))
            return real(states, arguments)

        monkeypatch.setattr(tuples, "enumerate_actions", listing)
        firsts = tuples._class_firsts(default_templates())
        for template_set in (default_templates(), None):
            assert tuple_distance_lb(NOISY, CLEAN, template_set, 4) == (F(3, 4), WITNESS)
            assert tables and all(list(t) == gen.arguments(firsts, width) for width, t in tables)
            tables.clear()


class TestDistanceSearch:
    def test_identical_programs(self):
        v, w = tuple_distance_lb(NOISY, NOISY, None, 3)
        assert v == 0

    def test_finds_nothing_without_a_discriminating_budget(self):
        v, _ = tuple_distance_lb(NOISY, CLEAN, None, 0)
        assert v == 0

    def test_negative_budget_is_rejected(self):
        # the empty word alone separates these by 1
        with pytest.raises(ValueError, match="nonnegative"):
            tuple_distance_lb(I, OMEGA, None, -1)

    def test_a_settled_search_ignores_a_huge_budget(self):
        # the empty word separates these by 1 and no word is left to extend
        assert tuple_distance_lb(I, OMEGA, None, 10**12) == (1, ())

    def test_respects_a_restricted_template_set(self):
        v, _ = tuple_distance_lb(NOISY, CLEAN, (I,), 3)
        assert v == F(3, 4)

    def test_templates_are_checked_at_entry(self):
        with pytest.raises(NotAffine):
            tuple_distance_lb(NOISY, CLEAN, (parse("\\x. x x"),), 3)
        # also by a search that lists no action
        with pytest.raises(NotAffine):
            tuple_distance_lb(I, I, (parse("\\x. x x"),), 3)
        bad = (Abs("y", App(Var("$j"), Var("$j"))),)
        with pytest.raises(NotAffine):
            tuple_distance_lb(NOISY, CLEAN, bad, 3)

    def test_templates_are_the_slot_or_abstractions(self):
        # a non-abstraction would otherwise become an application's body
        for bad in (Pair(I, I), App(I, I), App(Var("$j"), I)):
            with pytest.raises(InvalidAction, match="neither"):
                tuple_distance_lb(NOISY, CLEAN, (I, bad), 3)
        with pytest.raises(NotClosed, match="'z'"):
            tuple_distance_lb(NOISY, CLEAN, (Abs("y", Var("z")),), 3)

    def test_duplicate_templates_are_dropped(self, monkeypatch):
        # \y. y repeats I: every node lists each action once
        listed = []
        real = tuples.enumerate_actions
        monkeypatch.setattr(
            tuples, "enumerate_actions", lambda support, t: listed.append(real(support, t)) or listed[-1]
        )
        got = tuple_distance_lb(NOISY, CLEAN, (I, Abs("y", Var("y")), I), 3)
        assert got == tuple_distance_lb(NOISY, CLEAN, (I,), 3)
        assert listed and all(len(acts) == len(set(acts)) for acts in listed)

    def test_tower_search_lists_one_argument_per_ignored_variable(self, monkeypatch):
        # Tower n=3 over the default templates: its abstractions ignore
        # their variable, so each of the 14 expanded nodes lists one
        # argument per consumed set there
        listed = []
        real = tuples.enumerate_actions
        monkeypatch.setattr(
            tuples, "enumerate_actions", lambda support, t: listed.append(real(support, t)) or listed[-1]
        )
        got = tuple_distance_lb(*build_mn_nn(3), default_templates(), 6)
        assert got[0] == 1 - u_seq(3)
        assert (len(listed), sum(map(len, listed))) == (14, 74)


class TestDerivedTemplates:
    # A function in place of the templates is called when the search first
    # lists actions, and its templates are deduplicated and checked then;
    # given templates are checked at entry (TestDistanceSearch).

    def test_derived_templates_equal_given_templates_on_random_pairs(self):
        rng = random.Random(20261020)
        derived = []
        for universe in ((I,), (K,), (I, K)):
            templates = default_templates(universe)
            for i in range(60):
                m = gen.random_program(rng, max_size=12, fuel=3)
                n = gen.random_program(rng, max_size=12, fuel=3)
                if i % 2:  # the two sides share mass from the start
                    n = Choice(m, n)
                max_len = i % 5
                calls = []
                lazy = tuple_distance_lb(
                    m, n, lambda: calls.append(1) or default_templates(universe), max_len
                )
                assert lazy == tuple_distance_lb(m, n, templates, max_len), (
                    pretty(m), pretty(n), universe, max_len,
                )
                assert len(calls) <= 1
                derived += calls
        # both cases occur: searches that list actions and searches that do not
        assert 0 < len(derived) < 180

    def test_derived_templates_equal_given_templates_on_the_paper_families(self):
        templates = default_templates()
        for level in range(1, 5):
            m, n = build_mn_nn(level)
            got = tuple_distance_lb(m, n, default_templates, 2 * level)
            assert got == tuple_distance_lb(m, n, templates, 2 * level)
            assert got[0] == 1 - u_seq(level), level
        for max_len in range(3, 6):
            got = tuple_distance_lb(NOISY, CLEAN, default_templates, max_len)
            assert got == tuple_distance_lb(NOISY, CLEAN, templates, max_len) == (F(3, 4), WITNESS)

    def test_templates_are_derived_once_when_actions_are_first_listed(self, monkeypatch):
        calls = []
        real = tuples.default_templates
        monkeypatch.setattr(tuples, "default_templates", lambda: calls.append(1) or real())
        # start pairs settled at once list nothing: equal programs cancel,
        # and I against omega keeps no mass beyond its gap of 1
        assert tuple_distance_lb(NOISY, NOISY, None, 3) == (0, ())
        assert tuple_distance_lb(I, OMEGA, None, 3) == (1, ())
        assert calls == []
        # the tower reaches widths 1 to 4 and derives its templates once
        m, n = build_mn_nn(3)
        assert tuple_distance_lb(m, n, None, 6)[0] == 1 - u_seq(3)
        assert calls == [1]

    def test_derived_templates_are_checked_when_actions_are_first_listed(self):
        bad = (Abs("y", App(Var("$j"), Var("$j"))),)
        with pytest.raises(NotAffine):
            tuple_distance_lb(NOISY, CLEAN, lambda: bad, 3)
        with pytest.raises(InvalidAction, match="neither"):
            tuple_distance_lb(NOISY, CLEAN, lambda: (I, Pair(I, I)), 3)
        # a search that lists no action never sees them
        assert tuple_distance_lb(NOISY, NOISY, lambda: bad, 3) == (0, ())


class TestBinderHygiene:
    def test_searches_never_raise_not_affine(self):
        # Actions substitute the same template and universe values into
        # terms that already contain their binders; the searches evaluate
        # without re-checking affinity, so the nested reuse is harmless.
        rng = random.Random(20260391)
        universe = (I, parse("\\a. \\b. a"))
        templates = default_templates(universe)
        tensor = default_tensor_templates(universe)
        for i in range(200):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            max_len = 1 + i % 5
            for v, w in (
                tuple_distance_lb(m, n, templates, max_len),
                trace_distance_lb(m, n, universe, max_len, tensor),
            ):
                assert 0 <= v <= 1
                assert len(w) <= max_len

    def test_a_template_binder_named_like_a_component(self):
        # \x1. $j x1 fed component 1 would capture x1; its binder is renamed
        # instead, so it answers as \y. $j y does
        m, n = parse("<\\a. a, \\b. b>"), parse("<\\a. a, \\b. omega>")
        answers = []
        for x in ("x1", "y"):
            template = Abs(x, App(Var("$j"), Var(x)))
            answers.append(tuple_distance_lb(m, n, [template, parse("\\z. z")], 3))
        assert answers[0] == answers[1]
        gap, word = answers[0]
        assert gap == 1
        assert format_tuple_trace(word) == "cut(1); appl(2; x1; \\x11. x1 x11)"

    def test_bisimulation_never_raises_not_affine(self):
        # The fragment substitutes universe values into terms that may
        # already hold their binders, so it evaluates without re-checking.
        rng = random.Random(20260392)
        universe = (I, parse("\\a. \\b. a"))
        for i in range(100):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            assert 0 <= bisim_distance(m, n, universe, 1 + i % 3) <= 1


class TestAgreementWithTraces:
    def test_single_component_app_traces_coincide(self):
        rng = random.Random(20260361)
        for _ in range(60):
            m = gen.random_program(rng, max_size=15, fuel=4)
            vs = [
                gen.random_value(rng, max_size=8, prefix=f"c{i}")
                for i in range(rng.randint(0, 2))
            ]
            tuple_s = tuple(Appl(1, (), v) for v in vs)
            trace_s = tuple(AppAction(v) for v in vs)
            assert program_tuple_trace_prob(m, tuple_s) == trace_accept(m, trace_s)


def searched_both_ways(monkeypatch, search):
    """search() as widest_gap runs it, which cancels the mass both sides
    share after every step, and again with Dist.cancel handing its inputs
    back, which is the plain search over absolute distributions."""
    cancelled = search()
    with monkeypatch.context() as patch:
        patch.setattr(Dist, "cancel", lambda a, b: (a, b))
        return cancelled, search()


class TestCancellation:
    def test_cancelled_search_equals_plain_search_on_random_pairs(self, monkeypatch):
        rng = random.Random(20261019)
        universes = ((I,), (I, K))
        tuple_templates = default_templates()
        for i in range(120):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            if i % 2:  # the two sides share mass from the start
                n = Choice(m, n)
            universe = universes[i // 2 % 2]
            tensor = tuple(rng.sample(default_tensor_templates(universe), i % 4))
            max_len = i % 5
            cancelled, plain = searched_both_ways(
                monkeypatch, lambda: trace_distance_lb(m, n, universe, max_len, tensor)
            )
            assert cancelled == plain, (pretty(m), pretty(n), universe, tensor, max_len)
            cancelled, plain = searched_both_ways(
                monkeypatch, lambda: tuple_distance_lb(m, n, tuple_templates, max_len)
            )
            assert cancelled == plain, (pretty(m), pretty(n), max_len)

    def test_cancelled_search_equals_plain_search_on_the_paper_families(self, monkeypatch):
        templates = default_templates()
        for level in range(1, 7):
            m, n = build_mn_nn(level)
            cancelled, plain = searched_both_ways(
                monkeypatch, lambda: tuple_distance_lb(m, n, templates, 2 * level)
            )
            assert cancelled == plain and plain[0] == 1 - u_seq(level), level
        for max_len in range(3, 7):
            cancelled, plain = searched_both_ways(
                monkeypatch, lambda: tuple_distance_lb(NOISY, CLEAN, templates, max_len)
            )
            assert cancelled == plain == (F(3, 4), WITNESS), max_len

    def test_the_worked_pair_settles_once_shared_mass_cancels(self, monkeypatch):
        # With absolute weights the clean side keeps mass 1 on most words,
        # more than the best gap 3/4, so the plain search extends every
        # word it visits. Cancelled, no word of length 4 keeps more than
        # 3/4, so the search ends there however long max_len is. Each node
        # is offered the 16 class firsts of the 35 default templates; with
        # all 35 the counts were [[81, 48], [423, 423]].
        counts = []
        real = trace.explore

        def counting(start, actions, effect, step, max_len, visit, floor):
            def counted(*node):
                keep = visit(*node)
                counts[-1][0] += 1
                counts[-1][1] += keep
                return keep

            counts.append([0, 0])
            return real(start, actions, effect, step, max_len, counted, floor)

        monkeypatch.setattr(trace, "explore", counting)
        searched_both_ways(monkeypatch, lambda: tuple_distance_lb(NOISY, CLEAN, None, 5))
        assert counts == [[34, 22], [86, 86]]

    def test_the_two_sides_of_a_node_share_no_state(self, monkeypatch):
        # explore lists a node's support as the states of one side, then
        # the other, without merging them: cancelling leaves the two sides
        # disjoint, so no support repeats a state. The plain search, which
        # cancels nothing, does repeat states here, so the check has teeth.
        supports = []
        real = trace.explore

        def recording(start, actions, effect, step, max_len, visit, floor):
            def listed(support):
                supports.append(support)
                return actions(support)

            return real(start, listed, effect, step, max_len, visit, floor)

        monkeypatch.setattr(trace, "explore", recording)
        templates, tensor, universe = default_templates(), default_tensor_templates(), (I,)
        rng = random.Random(20261020)
        pairs = [build_mn_nn(level) for level in range(1, 5)] + [(NOISY, CLEAN)]
        for i in range(100):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            pairs.append((m, Choice(m, n) if i % 2 else n))

        def repeats():
            supports.clear()
            for m, n in pairs:
                trace_distance_lb(m, n, universe, 3, tensor)
                tuple_distance_lb(m, n, templates, 6)
            assert supports
            return sum(len(set(support)) < len(support) for support in supports)

        cancelled, plain = searched_both_ways(monkeypatch, repeats)
        assert cancelled == 0 and plain > 0

    def test_trace_equals_tuple_on_aligned_observers(self):
        # The paper calls both distances fully abstract. With U = {I}, the
        # trace search feeds the closed abstractions among the tuple
        # templates and pairs through the tensor templates over U; then the
        # two searches agree on these 200 pairs at max-len 3. That is
        # measured, not proven: at max-len 2 one pair in 1,000 differs, as
        # a tensor observation is one trace action but a cut and an
        # application as a tuple word. A pair that fails here names a
        # missing observer or a defect in one of the searches.
        universe = (I,)
        templates = default_templates(universe)
        arguments = [t for t in templates if isinstance(t, Abs) and not t.free_vars]
        tensor = default_tensor_templates(universe)
        assert (len(templates), len(arguments), len(tensor)) == (35, 11, 96)
        rng = random.Random(5)
        for _ in range(200):
            m = gen.random_program(rng, max_size=12)
            n = gen.random_program(rng, max_size=12)
            by_trace = trace_distance_lb(m, n, arguments, 3, tensor)[0]
            by_tuple = tuple_distance_lb(m, n, templates, 3)[0]
            assert by_trace == by_tuple, (pretty(m), pretty(n))


class TestSharedWork:
    def test_the_shared_outcome_step_equals_step_or_zero(self, search_step):
        # The search steps by step_or_zero's own step, whose outcomes the
        # eval memo keeps for the query. The states of a round hold the
        # same components, reversed or as alpha-variants, so most steps
        # find their outcome computed.
        rng = random.Random(20261023)
        templates = default_templates((I, K))
        step = search_step(lambda: tuple_distance_lb(I, I, templates, 0))
        assert step is _step
        clear_memo()
        steps = 0
        for _ in range(40):
            k = random_tuple_state(rng, rng.randint(1, 3))
            states = [k, k[::-1], tuple(gen.alpha_variant(rng, c) for c in k)]
            for state in states:
                for a in gen.reference_actions(states, templates):
                    e = _effect(state, a)
                    if e is not None:
                        got, want = step(state, e), gen.reference_tuple_step(state, a)
                        assert got == want == step_or_zero(state, a), (state, a)
                        steps += 1
        # one observation entry per outcome computed, and the reference
        # steps add none: the rest of the steps found theirs in the memo
        shared = steps - len(gen.observations())
        assert shared > steps // 2, (shared, steps)

    def test_the_tower_search_skips_pairs_and_shares_outcomes(self, monkeypatch):
        # Tower n = 1..5 at max-len 2n, per query from a cleared memo:
        # successor pairs built (each is cancelled once; the root is not
        # counted), words visited, steps, and outcomes computed, which are
        # the observation entries the memo holds after the query. Building
        # every pair came to [5, 22, 74, 222, 622] pairs and
        # [6, 21, 61, 161, 401] visits, and computing every step's outcome
        # afresh to one outcome per step.
        counts = collections.Counter()
        real_cancel, real_explore, real_step = Dist.cancel, trace.explore, tuples._step

        def counting(start, actions, effect, step, max_len, visit, floor):
            counts["built"] -= 1  # the root's cancel

            def counted(*node):
                counts["visits"] += 1
                return visit(*node)

            return real_explore(start, actions, effect, step, max_len, counted, floor)

        monkeypatch.setattr(Dist, "cancel", lambda a, b: counts.update(["built"]) or real_cancel(a, b))
        monkeypatch.setattr(trace, "explore", counting)
        monkeypatch.setattr(tuples, "_step", lambda k, e: counts.update(["steps"]) or real_step(k, e))
        got = []
        for level in range(1, 6):
            counts.clear()
            clear_memo()
            m, n = build_mn_nn(level)
            assert tuple_distance_lb(m, n, default_templates(), 2 * level)[0] == 1 - u_seq(level)
            counts["outcomes"] = len(gen.observations())
            got.append([counts[key] for key in ("built", "visits", "steps", "outcomes")])
        assert got == [
            [5, 6, 10, 6],
            [17, 16, 44, 11],
            [33, 28, 136, 16],
            [81, 60, 362, 21],
            [161, 108, 897, 26],
        ]


class TestFormatting:
    def test_round_trip_on_the_witness(self):
        text = format_tuple_trace(WITNESS)
        assert parse_tuple_trace(text) == WITNESS

    def test_round_trip_on_random_traces(self):
        rng = random.Random(20260362)
        for _ in range(50):
            actions = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.4:
                    actions.append(Cut(rng.randint(1, 3)))
                elif rng.random() < 0.5:
                    actions.append(Appl(rng.randint(1, 3), (), gen.random_value(rng)))
                else:
                    actions.append(Appl(2, (1,), Var("x1")))
            s = tuple(actions)
            assert parse_tuple_trace(format_tuple_trace(s)) == s

    def test_empty_trace(self):
        assert parse_tuple_trace(format_tuple_trace(())) == ()

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("cut(1); cut(0)", "cut position 0 must be positive", 8),
            ("appl(1; x1; x1)", "an application cannot consume its own position", 0),
            ("appl(1; x3, x2; x2)", "consumed indices must be strictly increasing", 0),
            ("appl(0; ; I)", "appl position 0 must be positive", 0),
            ("appl(1; ; I I)", "argument must be a variable or an abstraction", 0),
        ],
    )
    def test_a_malformed_action_is_a_parse_error_at_its_offset(self, text, message, offset):
        with pytest.raises(ParseError) as e:
            parse_tuple_trace(text)
        assert str(e.value) == f"{message} (at offset {offset})"
        assert e.value.position == offset


class TestPartitionWalker:
    def test_walker_agrees_with_exhaustive_enumeration(self):
        # Cross-check the pruned classifier against a no-pruning sweep over
        # every action sequence, on budgets small enough to afford it.
        templates = (I,)
        for n in (0, 1):
            u = u_seq(n)
            for k_state, h_state in gen.partition_instances(n)[:3]:
                max_len = 2 * n + 2
                checked, violations = gen.partition_violations(
                    k_state, h_state, u, templates, max_len
                )
                assert not violations

                brute_total = 0
                frontier = [(dirac(k_state), dirac(h_state))]
                for _ in range(max_len + 1):
                    nxt = []
                    for dk, dh in frontier:
                        pk, ph = dk.weight(), dh.weight()
                        in_low = pk == 0 and ph <= HALF
                        in_high = pk == 1 and ph >= u
                        assert in_low or in_high
                        brute_total += 1
                        support = set(dk.support()) | set(dh.support())
                        for a in gen.reference_actions(support, templates):
                            nxt.append((
                                dk.bind(lambda s: step_or_zero(s, a)),
                                dh.bind(lambda s: step_or_zero(s, a)),
                            ))
                    frontier = nxt
                assert checked <= brute_total

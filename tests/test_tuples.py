import itertools
import random
from fractions import Fraction

import pytest

import gen
from metricwb import (
    InvalidAction,
    NotAffine,
    NotClosed,
    bisim_distance,
    build_expair,
    build_mn_nn,
    build_sn,
    dirac,
    parse,
    parse_tuple_trace,
    program_tuple_trace_prob,
    trace_accept,
    tuple_distance_lb,
    tuple_step,
    tuple_trace_prob,
    u_seq,
)
from metricwb.dist import Dist
from metricwb.terms import Abs, App, OMEGA, Pair, Var, identity, pretty
from metricwb.trace import AppAction, default_tensor_templates, explore, trace_distance_lb
from metricwb.tuples import (
    Appl,
    Cut,
    _effect,
    _successor,
    default_templates,
    enumerate_actions,
    format_tuple_trace,
    skewed_choice,
    step_or_zero,
    trace_tuple_lengths,
)

I = identity()
F = Fraction
HALF = F(1, 2)

K = parse("\\a. \\b. a")
NOISY, CLEAN = build_expair()
WITNESS = (Cut(1), Appl(1, (), I), Appl(2, (), I))


class TestSteps:
    def test_cut_splits_a_pair_in_place(self):
        out = tuple_step((CLEAN,), Cut(1))
        assert out == dirac((Abs("z", I), Abs("z", I)))

    def test_cut_evaluates_both_halves(self):
        k = (Pair(parse("(\\x. x) (+) omega"), I),)
        out = tuple_step(k, Cut(1))
        assert out == Dist([((I, I), HALF)])

    def test_cut_requires_a_pair(self):
        with pytest.raises(InvalidAction):
            tuple_step((I,), Cut(1))
        with pytest.raises(InvalidAction):
            tuple_step((CLEAN,), Cut(2))

    def test_appl_feeds_the_component(self):
        k = (Abs("z", parse("(\\x. x) (+) omega")),)
        out = tuple_step(k, Appl(1, (), I))
        assert out == Dist([((I,), HALF)])

    def test_appl_consumes_named_components(self):
        k = (I, parse("\\w. \\q. q"))
        out = tuple_step(k, Appl(2, (1,), Var("x1")))
        assert out == dirac((parse("\\q. q"),))

    def test_appl_requires_an_abstraction(self):
        with pytest.raises(InvalidAction):
            tuple_step((CLEAN,), Appl(1, (), I))

    def test_malformed_actions_are_rejected_up_front(self):
        with pytest.raises(InvalidAction, match="positive"):
            tuple_step((I,), Appl(0, (), I))
        with pytest.raises(InvalidAction, match="increasing"):
            tuple_step((I, I, I), Appl(1, (3, 2), Var("x2")))
        with pytest.raises(InvalidAction, match="own position"):
            tuple_step((I, I), Appl(1, (1,), Var("x1")))
        with pytest.raises(InvalidAction, match="outside the consumed set"):
            tuple_step((I, I), Appl(1, (2,), Var("x9")))
        with pytest.raises(InvalidAction, match="positive"):
            tuple_step((CLEAN,), Cut(0))

    def test_an_argument_uses_each_consumed_component_once(self):
        twice = Appl(1, (2,), parse("\\y. x2 x2"))
        with pytest.raises(NotAffine):
            tuple_step((I, I), twice)
        with pytest.raises(NotAffine):
            program_tuple_trace_prob(CLEAN, (Cut(1), twice))
        with pytest.raises(NotAffine):
            parse_tuple_trace("cut(1); appl(1; x2; \\y. x2 x2)")

    def test_components_must_be_affine(self):
        with pytest.raises(NotAffine):
            tuple_step((parse("\\x. x x"),), Appl(1, (), I))

    def test_step_or_zero_turns_inapplicability_into_no_mass(self):
        assert not step_or_zero((I,), Cut(1))
        assert step_or_zero((CLEAN,), Cut(1)) == tuple_step((CLEAN,), Cut(1))
        with pytest.raises(InvalidAction):
            step_or_zero((I,), Appl(0, (), I))

    def test_mass_never_grows(self):
        rng = random.Random(20260360)
        templates = default_templates()
        for _ in range(50):
            k = tuple(
                gen.random_value(rng, max_size=8, prefix=f"c{i}")
                for i in range(rng.randint(1, 2))
            )
            for a in enumerate_actions([k], templates):
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

    def test_tuple_trace_prob_from_a_started_state(self):
        assert tuple_trace_prob((NOISY,), WITNESS) == F(1, 4)

    def test_distance_lower_bound(self):
        value, witness = tuple_distance_lb(NOISY, CLEAN, None, 3)
        assert value == F(3, 4)
        assert abs(
            program_tuple_trace_prob(NOISY, witness)
            - program_tuple_trace_prob(CLEAN, witness)
        ) == value

    def test_witness_lengths(self):
        assert trace_tuple_lengths(CLEAN, WITNESS) == [2, 2, 2]


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
        acts = enumerate_actions([(I, I)], (I,))
        assert acts == [Appl(1, (), I), Appl(2, (), I)]

    def test_actions_cover_cuts_and_applications(self):
        templates = (I,)
        acts = enumerate_actions([(CLEAN,)], templates)
        assert acts == [Cut(1)]
        acts = enumerate_actions([(I, I)], templates)
        assert Appl(1, (), I) in acts
        assert Appl(2, (), I) in acts
        assert Appl(1, (2,), Var("x2")) not in acts

    def test_component_arguments_appear_when_enabled(self):
        templates = (I, Var("$j"))
        acts = enumerate_actions([(I, I)], templates)
        assert Appl(1, (2,), Var("x2")) in acts
        assert Appl(2, (1,), Var("x1")) in acts

    def test_mixed_support_contributes_all_shapes(self):
        templates = (I,)
        acts = enumerate_actions([(CLEAN,), (I,)], templates)
        assert Cut(1) in acts
        assert Appl(1, (), I) in acts

    def test_enumeration_is_deterministic_and_duplicate_free(self):
        templates = default_templates()
        states = [(I, CLEAN), (CLEAN, I)]
        a = enumerate_actions(states, templates)
        b = enumerate_actions(states, templates)
        assert a == b
        assert len(a) == len(set(a))


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
                        assert _successor(k, effect) == want, (k, a)
                        by_effect.setdefault(effect, []).append(a)
                for effect, group in by_effect.items():
                    if len(group) > 1:
                        merged["vacuous" if effect[2] is None else "argument"] += 1
        # both argument-free and argument-carrying effects coincide
        assert all(merged.values()), merged

    def test_search_tries_the_first_action_of_each_effect(self):
        # At max-len 1 every word the search tries is visited, reached pair
        # or not, so the visits list exactly the actions it tries.
        rng = random.Random(20260402)
        templates = default_templates((I, K))
        for _ in range(40):
            states = [random_tuple_state(rng, rng.randint(1, 3)) for _ in range(2)]
            firsts = {}
            for a in gen.reference_actions(states, templates):
                firsts.setdefault(tuple(_effect(k, a) for k in states), a)
            want = [((), 1, 1)] + [
                ((a,), *(step_or_zero(k, a).weight() for k in states))
                for key, a in firsts.items()
                if any(e is not None for e in key)
            ]
            got = []
            explore(
                (dirac(states[0]), dirac(states[1])),
                lambda support: enumerate_actions(support, templates),
                _effect,
                _successor,
                1,
                lambda *node: got.append(node) or True,
            )
            assert got == want, states

    def test_search_matches_the_reference_enumeration(self):
        rng = random.Random(20260403)
        template_sets = (
            default_templates(),
            default_templates((K,)),
            default_templates((I, K)),
            (I, K),
        )
        for i in range(100):
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            templates = template_sets[i % 4]
            max_len = 1 + i % 4
            got = tuple_distance_lb(m, n, templates, max_len)
            want = gen.reference_tuple_search(m, n, templates, max_len)
            assert got == want, (pretty(m), pretty(n), i)


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

    def test_respects_a_restricted_template_set(self):
        v, _ = tuple_distance_lb(NOISY, CLEAN, (I,), 3)
        assert v == F(3, 4)

    def test_templates_are_checked_at_entry(self):
        with pytest.raises(NotAffine):
            tuple_distance_lb(NOISY, CLEAN, (parse("\\x. x x"),), 3)
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
        import metricwb.tuples as tuples

        listed = []
        real = tuples.enumerate_actions
        monkeypatch.setattr(
            tuples, "enumerate_actions", lambda support, t: listed.append(real(support, t)) or listed[-1]
        )
        got = tuple_distance_lb(NOISY, CLEAN, (I, Abs("y", Var("y")), I), 3)
        assert got == tuple_distance_lb(NOISY, CLEAN, (I,), 3)
        assert listed and all(len(acts) == len(set(acts)) for acts in listed)


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

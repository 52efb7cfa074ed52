import random
from fractions import Fraction

import pytest

import gen
from metricwb import (
    BudgetExceeded,
    NonConvergence,
    bisim_distance,
    build_mn_nn,
    parse,
    trace_distance_lb,
    u_seq,
)
from metricwb.bisim import (
    EVAL_LABEL,
    LmcState,
    _lifted,
    apply_F,
    bisim_metric,
    build_lmc,
    dval,
    prog,
)
from metricwb.dist import Dist
from metricwb.kantorovich import PseudoMetric, lift_dual, lift_primal
from metricwb.terms import OMEGA, identity
from metricwb.trace import AppAction, TensorAction, default_tensor_templates

I = identity()
HALF = Fraction(1, 2)

COIN = parse("(\\x. x) (+) omega")
INNER = parse("\\x. ((\\y. y) (+) omega)")
OUTER = parse("(\\x. \\y. y) (+) (\\x. omega)")


class TestFragment:
    def test_value_against_divergence(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert prog(I) in frag.states
        assert prog(OMEGA) in frag.states
        assert dval(I) in frag.states
        assert len(frag.states) == 3

    def test_program_states_answer_only_to_eval(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert frag.labels[prog(I)] == (EVAL_LABEL,)
        assert frag.labels[prog(OMEGA)] == (EVAL_LABEL,)

    def test_divergence_evaluates_to_the_empty_distribution(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert not frag.trans[(prog(OMEGA), EVAL_LABEL)]
        assert frag.trans[(prog(I), EVAL_LABEL)].get(dval(I)) == 1

    def test_choice_fragment(self):
        frag = build_lmc(I, COIN, (I,), 2)
        assert len(frag.states) == 3
        d = frag.trans[(prog(COIN), EVAL_LABEL)]
        assert d.get(dval(I)) == HALF

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_lmc(I, COIN, (I,), -1)
        with pytest.raises(ValueError, match="nonnegative"):
            bisim_distance(I, COIN, (I,), -1)

    def test_negative_state_cap_is_rejected(self):
        with pytest.raises(ValueError, match="state_cap must be nonnegative"):
            build_lmc(I, COIN, (I,), 2, state_cap=-1)
        with pytest.raises(ValueError, match="state_cap must be nonnegative"):
            bisim_distance(I, COIN, (I,), 2, state_cap=-1)

    def test_depth_limits_value_interrogation(self):
        frag0 = build_lmc(I, OMEGA, (I,), 0)
        assert frag0.labels[dval(I)] == ()
        frag1 = build_lmc(I, OMEGA, (I,), 1)
        assert frag1.labels[dval(I)] == (AppAction(I),)

    def test_counterexample_fragment_size(self):
        frag = build_lmc(INNER, OUTER, (I,), 3)
        assert len(frag.states) == 9

    def test_state_cap(self):
        with pytest.raises(BudgetExceeded):
            build_lmc(INNER, OUTER, (I,), 3, state_cap=4)

    def test_tensor_labels_appear_only_with_templates(self):
        from metricwb.terms import Pair, Var

        p = Pair(I, I)
        frag = build_lmc(p, p, (I,), 1)
        assert frag.labels[dval(p)] == ()
        frag = build_lmc(p, p, (I,), 1, tensor_templates=(Var("x"),))
        assert frag.labels[dval(p)] == (TensorAction(Var("x")),)


class TestFunctional:
    def test_first_iteration_separates_by_termination(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric.zero(frag.states))
        assert mu1.get(prog(I), prog(OMEGA)) == 1

    def test_first_iteration_on_the_choice_pair(self):
        frag = build_lmc(I, COIN, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric.zero(frag.states))
        assert mu1.get(prog(I), prog(COIN)) == HALF

    def test_mixed_kind_pairs_share_no_labels(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric.zero(frag.states))
        assert mu1.get(prog(I), dval(I)) == 0

    def test_fixpoint_property(self):
        for a, b in ((I, OMEGA), (I, COIN), (INNER, OUTER)):
            frag = build_lmc(a, b, (I,), 3)
            mu = bisim_metric(frag)
            assert apply_F(frag, mu) == mu

    def test_stabilises_within_one_round_per_state(self):
        for a, b in ((I, OMEGA), (I, COIN), (INNER, OUTER)):
            frag = build_lmc(a, b, (I,), 3)
            bisim_metric(frag, iteration_cap=len(frag.states) + 1)

    def test_non_convergence_is_reported(self):
        with pytest.raises(NonConvergence):
            bisim_distance(I, OMEGA, (I,), 2, iteration_cap=1)


class TestLifting:
    STATES = ("a", "b", "c")

    def check(self, mu, d, e):
        assert _lifted(mu, d, e) == lift_primal(mu, d, e)[0] == lift_dual(mu, d, e)

    def test_closed_forms_agree_with_both_lp_routes(self):
        rng = random.Random(20260353)
        corners = (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1))
        for _ in range(40):
            mu = gen.random_metric(rng, self.STATES)
            for s in self.STATES:
                for t in self.STATES:
                    for p in corners:
                        for q in corners:
                            self.check(mu, Dist([(s, p)]), Dist([(t, q)]))
            for _ in range(20):
                d = gen.random_dist(rng, [rng.choice(self.STATES)], allow_empty=True)
                e = gen.random_dist(rng, [rng.choice(self.STATES)], allow_empty=True)
                self.check(mu, d, e)

    def test_larger_supports_fall_back_to_the_lp(self):
        rng = random.Random(20260354)
        mu = gen.random_metric(rng, self.STATES)
        d = Dist([("a", Fraction(1, 2)), ("b", Fraction(1, 4))])
        e = Dist([("b", Fraction(1, 8)), ("c", Fraction(3, 4))])
        self.check(mu, d, e)
        self.check(mu, Dist([]), d)


class TestOnTheFly:
    def test_agrees_with_the_dense_fixpoint(self):
        # The root's pair graph is closed under the functional, so the
        # distance must equal the all-pairs fixpoint read at the root.
        rng = random.Random(20260352)
        candidates = (I, parse("\\a. \\b. a"))
        tensor = default_tensor_templates()
        for _ in range(100):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            universe = rng.sample(candidates, rng.randint(0, 2))
            templates = rng.sample(tensor, rng.randint(0, 4))
            depth = rng.randint(0, 3)
            frag = build_lmc(m, n, universe, depth, tensor_templates=templates)
            want = bisim_metric(frag).get(prog(m), prog(n))
            got = bisim_distance(m, n, universe, depth, tensor_templates=templates)
            assert got == want

    def test_every_shared_label_is_followed(self):
        # Only the second universe value separates the two programs.
        m = parse("\\x. x (\\u. u) (\\u. omega)")
        n = parse("\\x. x (\\u. u) (\\u. u)")
        k = parse("\\a. \\b. a")
        assert bisim_distance(m, n, (k,), 2) == 0
        assert bisim_distance(m, n, (k, I), 2) == 1

    @pytest.mark.parametrize(
        "n, want", [(1, Fraction(1, 2)), (2, Fraction(5, 8)), (3, Fraction(43, 64))]
    )
    def test_tower_family(self, n, want):
        m, nn = build_mn_nn(n)
        value = bisim_distance(
            m, nn, (I,), 2 * n + 1, tensor_templates=default_tensor_templates()
        )
        assert value == want == 1 - u_seq(n)

    def test_universe_entries_must_be_values(self):
        with pytest.raises(ValueError, match="not a value"):
            build_lmc(parse("\\x. \\y. y"), I, (OMEGA,), 3)


class TestDistance:
    def test_identical_programs(self):
        assert bisim_distance(COIN, COIN, (I,), 3) == 0

    def test_value_against_divergence(self):
        assert bisim_distance(I, OMEGA, (I,), 2) == 1

    def test_choice_against_identity(self):
        assert bisim_distance(I, COIN, (I,), 2) == HALF

    def test_branching_point_location_matters(self):
        assert bisim_distance(INNER, OUTER, (I,), 3) == HALF

    def test_strictly_above_the_trace_lower_bound(self):
        b = bisim_distance(INNER, OUTER, (I,), 4)
        t, _ = trace_distance_lb(INNER, OUTER, (I,), 4)
        assert b == HALF
        assert t == 0
        assert b > t

    def test_bounds_the_trace_gap_on_function_programs(self):
        # The bound is meaningful when interaction kinds agree, so the
        # sample keeps only fragments whose value states are abstractions
        # all the way down the interaction budget.
        from metricwb.terms import Abs

        rng = random.Random(20260350)
        n_checked = 0
        while n_checked < 25:
            m = gen.random_program(rng, max_size=12, fuel=3)
            n = gen.random_program(rng, max_size=12, fuel=3)
            frag = build_lmc(m, n, (I,), 2)
            if any(
                s.kind == "dval" and not isinstance(s.term, Abs)
                for s in frag.states
            ):
                continue
            b = bisim_metric(frag).get(prog(m), prog(n))
            t, _ = trace_distance_lb(m, n, (I,), 2)
            assert b >= t
            n_checked += 1

    def test_value_kinds_with_no_shared_labels_sit_at_zero(self):
        # A pair value and an abstraction answer disjoint label sets, and
        # label-disjoint state pairs are at distance zero by convention,
        # even though an app trace tells the two programs apart.
        from metricwb.terms import Pair

        m = Pair(I, I)
        n = parse("\\x. <\\y. y, \\z. z>")
        assert bisim_distance(m, n, (I,), 2) == 0
        assert trace_distance_lb(m, n, (I,), 1)[0] == 1

    def test_result_is_a_pseudometric_within_each_kind(self):
        frag = build_lmc(INNER, OUTER, (I,), 3)
        mu = bisim_metric(frag)
        for s in frag.states:
            for t in frag.states:
                assert mu.get(s, t) == mu.get(t, s)
                assert 0 <= mu.get(s, t) <= 1
        for kind in ("prog", "dval"):
            block = [s for s in frag.states if s.kind == kind]
            for x in block:
                for y in block:
                    for z in block:
                        assert mu.get(x, z) <= mu.get(x, y) + mu.get(y, z)

    def test_mixed_kind_zeroes_break_the_global_triangle(self):
        # Program and value states share no labels, sit at distance zero,
        # and therefore provide short cuts through the full matrix; the
        # triangle inequality is only promised per kind.
        frag = build_lmc(I, OMEGA, (I,), 2)
        mu = bisim_metric(frag)
        from metricwb.bisim import dval as dv

        assert mu.get(prog(I), dv(I)) == 0
        assert mu.get(prog(OMEGA), dv(I)) == 0
        assert mu.get(prog(I), prog(OMEGA)) == 1
        assert mu.triangle_defect() == 1

    def test_symmetry_of_the_front_end(self):
        assert bisim_distance(I, COIN, (I,), 2) == bisim_distance(COIN, I, (I,), 2)


class TestAdequacy:
    def test_distance_bounds_the_termination_gap(self):
        from metricwb import eval_big

        rng = random.Random(20260351)
        for _ in range(60):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            gap = abs(eval_big(m).weight() - eval_big(n).weight())
            assert bisim_distance(m, n, (I,), 1) >= gap

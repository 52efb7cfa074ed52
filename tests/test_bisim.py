import random
from collections import Counter
from fractions import Fraction

import pytest

import gen
from metricwb import (
    BudgetExceeded,
    NonConvergence,
    bisim,
    bisim_distance,
    build_expair,
    build_mn_nn,
    parse,
    semantics,
    trace,
    trace_distance_lb,
    u_seq,
)
from metricwb.bisim import (
    EVAL_LABEL,
    _best_lift,
    _components,
    _coupling,
    _evaluate,
    _lifted,
    _pair_graph,
    _shared,
    _solve,
    apply_F,
    bisim_metric,
    build_lmc,
)
from metricwb.dist import Dist, dirac
from metricwb.kantorovich import PseudoMetric, lift_dual, lift_primal
from metricwb.semantics import _eval, clear_memo
from metricwb.terms import OMEGA, Pair, Term, identity
from metricwb.trace import AppAction, TensorAction, _move, _plug, default_tensor_templates

I = identity()
K = parse("\\a. \\b. a")
HALF = Fraction(1, 2)

COIN = parse("(\\x. x) (+) omega")
INNER = parse("\\x. ((\\y. y) (+) omega)")
OUTER = parse("(\\x. \\y. y) (+) (\\x. omega)")


class TestFragment:
    def test_value_against_divergence(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert _eval(I) in frag.states
        assert _eval(OMEGA) in frag.states
        assert I in frag.states
        assert len(frag.states) == 3

    def test_states_are_value_distributions_and_values(self):
        # A program state is its value distribution and a value state the
        # value itself; a Dist never equals a Term, so the two never merge.
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert _eval(I) != I
        assert frag.states.index(_eval(I)) != frag.states.index(I)
        assert all(isinstance(s, (Dist, Term)) for s in frag.states)
        programs = [s for s in frag.states if isinstance(s, Dist)]
        assert programs == [_eval(I), _eval(OMEGA)]
        for p in programs:
            assert frag.trans[(p, EVAL_LABEL)] is p

    def test_program_states_answer_only_to_eval(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert frag.labels[_eval(I)] == (EVAL_LABEL,)
        assert frag.labels[_eval(OMEGA)] == (EVAL_LABEL,)

    def test_divergence_evaluates_to_the_empty_distribution(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        assert not frag.trans[(_eval(OMEGA), EVAL_LABEL)]
        assert frag.trans[(_eval(I), EVAL_LABEL)].get(I) == 1

    def test_choice_fragment(self):
        frag = build_lmc(I, COIN, (I,), 2)
        assert len(frag.states) == 3
        d = frag.trans[(_eval(COIN), EVAL_LABEL)]
        assert d.get(I) == HALF

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
        assert frag0.labels[I] == ()
        frag1 = build_lmc(I, OMEGA, (I,), 1)
        assert frag1.labels[I] == (AppAction(I),)

    def test_counterexample_fragment_size(self):
        frag = build_lmc(INNER, OUTER, (I,), 3)
        assert len(frag.states) == 9

    def test_state_cap(self):
        with pytest.raises(BudgetExceeded):
            build_lmc(INNER, OUTER, (I,), 3, state_cap=4)

    def test_a_value_answers_iff_its_least_depth_is_below_the_cut(self):
        # build_lmc meets states in order of depth and keeps the depth it
        # first sees; _least_depths recomputes it from the transitions.
        # With a universe value and a template, every value fits an action.
        rng = random.Random(20261019)
        tensor = default_tensor_templates()
        below = at_cut = 0
        for _ in range(150):
            m, n = (
                rng.choice(TestCycles.REENTERING)
                if rng.random() < 0.5
                else gen.random_program(rng, max_size=12, fuel=3)
                for _ in range(2)
            )
            universe = rng.sample(TestCycles.REENTERING, rng.randint(1, 3))
            templates = rng.sample(tensor, rng.randint(1, 3))
            max_depth = rng.randint(0, 3)
            frag = build_lmc(m, n, universe, max_depth, tensor_templates=templates)
            depth = _least_depths(frag, (_eval(m), _eval(n)))
            assert depth.keys() == set(frag.states)
            for s in frag.states:
                if isinstance(s, Term):
                    assert bool(frag.labels[s]) == (depth[s] < max_depth)
                    below += depth[s] < max_depth
                    at_cut += depth[s] == max_depth
        assert below >= 300 and at_cut >= 100

    def test_tensor_labels_appear_only_with_templates(self):
        from metricwb.terms import Pair, Var

        p = Pair(I, I)
        frag = build_lmc(p, p, (I,), 1)
        assert frag.labels[p] == ()
        frag = build_lmc(p, p, (I,), 1, tensor_templates=(Var("x"),))
        assert frag.labels[p] == (TensorAction(Var("x")),)


class TestFunctional:
    def test_first_iteration_separates_by_termination(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric(frag.states))
        assert mu1.get(_eval(I), _eval(OMEGA)) == 1

    def test_first_iteration_on_the_choice_pair(self):
        frag = build_lmc(I, COIN, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric(frag.states))
        assert mu1.get(_eval(I), _eval(COIN)) == HALF

    def test_mixed_kind_pairs_share_no_labels(self):
        frag = build_lmc(I, OMEGA, (I,), 2)
        mu1 = apply_F(frag, PseudoMetric(frag.states))
        assert mu1.get(_eval(I), I) == 0

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
        frag = build_lmc(I, OMEGA, (I,), 2)
        with pytest.raises(NonConvergence):
            bisim_metric(frag, iteration_cap=1)


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

    def test_one_sided_closed_form_agrees_with_both_lp_routes(self):
        # One point against a spread side, in either orientation. Four
        # distance levels make ties in mu common, and the zero level and
        # the diagonal give zero-distance points; either side may carry
        # more mass than the other.
        rng = random.Random(20260355)
        states = ("a", "b", "c", "d")
        levels = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
        for _ in range(200):
            mu = PseudoMetric(states)
            for i, s in enumerate(states):
                for t in states[i + 1 :]:
                    mu.set(s, t, rng.choice(levels))
            point = Dist([(rng.choice(states), rng.choice(levels[1:]))])
            spread = gen.random_dist(rng, rng.sample(states, rng.randint(2, 4)))
            for d, e in ((point, spread), (spread, point)):
                self.check(mu, d, e)
                self.check_plan(mu, d, e, point)

    def check_plan(self, mu, d, e, point):
        # Every pair of the plan names the point's state and a state of the
        # spread side, in either order, as mu.key and mu.get read pairs
        # symmetrically. The plan ships no more than either side holds
        # anywhere, and its cost, read as _least_solution reads it, is the
        # lifted distance.
        ((s, p),) = point.items()
        spread = e if d is point else d
        cost, plan = _coupling(mu, d, e)
        received = {}
        for pair, x in plan.items():
            assert s in pair and x >= 0, (pair, x)
            t = pair[1] if pair[0] == s else pair[0]
            received[t] = received.get(t, 0) + x
        assert sum(plan.values()) <= p
        assert all(x <= spread.get(t) for t, x in received.items())
        read = d.weight() + e.weight() - sum(x * (2 - mu.get(*pair)) for pair, x in plan.items())
        assert read == cost == _lifted(mu, d, e)

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
            want = bisim_metric(frag).get(_eval(m), _eval(n))
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
                isinstance(s, Term) and not isinstance(s, Abs)
                for s in frag.states
            ):
                continue
            b = bisim_metric(frag).get(_eval(m), _eval(n))
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
        for kind in (Dist, Term):
            block = [s for s in frag.states if isinstance(s, kind)]
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
        assert mu.get(_eval(I), I) == 0
        assert mu.get(_eval(OMEGA), I) == 0
        assert mu.get(_eval(I), _eval(OMEGA)) == 1
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


class TestMerging:
    # A program state is its value distribution. gen.reference_lmc builds
    # the fragment with one state per program instead; the answers,
    # the value states and their depths and labels must be its own.

    def test_agrees_with_the_fragment_keyed_by_program(self):
        rng = random.Random(20261021)
        tensor = default_tensor_templates()
        merged = dense = 0
        for _ in range(150):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            universe = rng.choice(((I,), (I, K)))
            templates = rng.sample(tensor, rng.randint(0, 4))
            depth = rng.randint(0, 3)
            frag = build_lmc(m, n, universe, depth, tensor_templates=templates)
            ref = gen.reference_lmc(m, n, universe, depth, templates)
            progs = [s for s in frag.states if isinstance(s, Dist)]
            ref_progs = [s[1] for s in ref.states if isinstance(s, tuple)]
            assert len(set(progs)) == len(progs)
            assert set(progs) == {_eval(t) for t in ref_progs}
            merged += len(progs) < len(ref_progs)
            values = [s for s in frag.states if isinstance(s, Term)]
            assert values == [s for s in ref.states if isinstance(s, Term)]
            ref_m, ref_n = ("prog", m), ("prog", n)
            depths = _least_depths(frag, (_eval(m), _eval(n)))
            ref_depths = _least_depths(ref, (ref_m, ref_n))
            for s in values:
                assert depths[s] == ref_depths[s]
                assert frag.labels[s] == ref.labels[s]
                for label in frag.labels[s]:
                    want = ref.trans[(s, label)].map_elems(lambda p: _eval(p[1]))
                    assert frag.trans[(s, label)] == want
            mu = PseudoMetric(ref.states)
            root = mu.key(ref_m, ref_n)
            if root is not None:
                _solve(mu, _pair_graph(ref, mu, root), root)
            want = mu.values.get(root, 0)
            assert bisim_distance(m, n, universe, depth, tensor_templates=templates) == want
            try:
                assert bisim_metric(ref, iteration_cap=64).get(ref_m, ref_n) == want
                dense += 1
            except NonConvergence:
                pass
        assert merged >= 40 and dense >= 120

    def test_labels_that_evaluate_alike_are_one_successor_pair(self, monkeypatch):
        # x and (\z. z) x lead to programs that evaluate alike, and so do
        # y and (\z. z) y: each side has four labels but two successors.
        # The templates have two normal forms, so each state evaluates its
        # halves once and plugs their one pair of values twice.
        m, n = parse("<\\a. \\b. a, \\x. x>"), parse("<\\x. x, \\a. \\b. a>")
        templates = tuple(map(parse, ("y", "x", "(\\z. z) x", "(\\z. z) y")))
        plugs = _count_plugs(monkeypatch)
        clear_memo()
        frag = build_lmc(m, n, (), 1, tensor_templates=templates)
        assert gen.observations() == [m, n]
        assert plugs == {(K, I): 2, (I, K): 2}
        assert len(frag.labels[m]) == len(frag.labels[n]) == 4
        assert _shared(frag, m, n) == [
            (dirac(_eval(I)), dirac(_eval(K))),
            (dirac(_eval(K)), dirac(_eval(I))),
        ]
        ref = gen.reference_lmc(m, n, (), 1, templates)
        assert len(_shared(ref, m, n)) == 4

    def test_equivalent_templates_share_one_move(self, monkeypatch):
        # The fragment with the normal form patched to the identity, so
        # that every label moves its state by its own template, must be the
        # same: states in order, labels, and successors.
        rng = random.Random(20261103)
        tensor = {u: default_tensor_templates(u) for u in ((I,), (I, K))}
        cases = []
        for i in range(100):
            universe = (I,) if i % 2 else (I, K)
            templates = tuple(rng.sample(tensor[universe], 2 + i % 12))
            m, n = (
                Pair(*(gen.random_value(rng, max_size=6, prefix=f"{side}{h}") for h in "ab"))
                for side in "mn"
            )
            cases.append((m, n, universe, 1 + i % 3, 10000, templates))
        fast = [build_lmc(*case) for case in cases]
        monkeypatch.setattr(trace, "normal_form", lambda t: t)
        shared = 0
        for case, frag in zip(cases, fast):
            slow = build_lmc(*case)
            assert frag.states == slow.states
            assert frag.labels == slow.labels
            assert frag.trans == slow.trans
            succ = [frag.trans[key] for key in frag.trans if key[1] != EVAL_LABEL]
            shared += len({id(d) for d in succ}) < len(succ)
        assert shared >= 50

    def test_shared_agrees_with_the_labels_both_states_answer_to(self):
        # _shared compares two states' label tuples and zips their
        # successors; gen.reference_shared intersects the labels one by
        # one. Labels are fixed by kind and depth, so two states share all
        # their labels or none.
        rng = random.Random(20261104)
        tensor = {u: default_tensor_templates(u) for u in ((I,), (I, K))}
        pairs = shared = classes = 0
        for i in range(100):
            universe = (I,) if i % 2 else (I, K)
            templates = tuple(rng.sample(tensor[universe], rng.randint(0, 6)))
            m, n = (
                Pair(*(gen.random_value(rng, max_size=6, prefix=f"{side}{h}") for h in "ab"))
                if rng.random() < 0.5
                else gen.random_program(rng, max_size=12, fuel=3, prefix=side)
                for side in "mn"
            )
            depth = rng.randint(0, 3)
            frag = build_lmc(m, n, universe, depth, tensor_templates=templates)
            ref = gen.reference_lmc(m, n, universe, depth, templates)
            for f in (frag, ref):
                per_label = {
                    (s, f.labels[s][j]): f.succ[s][j]
                    for s in f.states
                    for j in range(len(f.labels[s]))
                }
                assert f.trans == per_label
                assert len(f.trans) == sum(len(f.labels[s]) for s in f.states)
                for a, s in enumerate(f.states):
                    for t in f.states[a + 1 :]:
                        ls, lt = f.labels[s], f.labels[t]
                        assert ls == lt or not set(ls) & set(lt)
                        assert _shared(f, s, t) == gen.reference_shared(f, s, t)
                        pairs += 1
                        shared += bool(ls) and ls == lt
            actions = trace.alphabet(universe, templates)
            for s in frag.states:
                if isinstance(s, Term) and frag.labels[s]:
                    labels, effects, _, slot = trace._kind_table(type(s), actions)
                    assert frag.labels[s] == labels
                    by_class = {}  # class index -> the Dist of its first label
                    for i, d in zip(slot, frag.succ[s]):
                        assert by_class.setdefault(i, d) is d
                    classes += len(effects) < len(labels)
        assert pairs >= 8000 and shared >= 3000 and classes >= 20

    def test_the_tower_queries_have_519_transitions(self):
        tensor = default_tensor_templates()
        queries = (
            (*build_mn_nn(1), 3),
            (*build_expair(), 3),
            (INNER, OUTER, 4),
        )
        frags = [build_lmc(m, n, (I,), d, tensor_templates=tensor) for m, n, d in queries]
        assert sum(len(f.states) for f in frags) == 44
        assert sum(len(f.trans) for f in frags) == 519

    def test_a_pair_state_moves_once_per_class_of_templates(self, monkeypatch):
        # The 96 default templates over {I} have 27 normal forms. The
        # fragment evaluates each pair state's halves once, one observation
        # entry each, and plugs each pair of their values once per normal
        # form; the trace search moves each pair state once per normal form.
        m, n = build_expair()
        tensor = default_tensor_templates((I,))
        assert len(tensor) == 96
        with monkeypatch.context() as patch:
            plugs = _count_plugs(patch)
            clear_memo()
            bisim_distance(m, n, (I,), 3, tensor_templates=tensor)
        halves = gen.observations()
        frag = build_lmc(m, n, (I,), 3, tensor_templates=tensor)
        moved = [s for s in frag.states if type(s) is Pair and frag.labels[s]]
        assert halves and halves == moved == gen.observations()
        values = sum(len(semantics._memo[p]) for p in halves)
        assert sum(plugs.values()) == 27 * values
        assert max(plugs.values()) == 27
        moves = Counter()

        def counting(t, a):
            moves[t] += type(a) is TensorAction
            return _move(t, a)

        with monkeypatch.context() as patch:
            patch.setattr(trace, "_move", counting)
            trace_distance_lb(m, n, (I,), 2, tensor)
        assert max(moves.values()) == 27

    def test_the_state_cap_counts_merged_states(self):
        # Tower n=1 at depth 3 has 239 programs but 22 merged states, so a
        # cap of 100 no longer binds.
        m, nn = build_mn_nn(1)
        tensor = default_tensor_templates()
        assert len(gen.reference_lmc(m, nn, (I,), 3, tensor).states) == 239
        assert len(build_lmc(m, nn, (I,), 3, tensor_templates=tensor).states) == 22
        assert bisim_distance(m, nn, (I,), 3, state_cap=100, tensor_templates=tensor) == HALF
        with pytest.raises(BudgetExceeded):
            bisim_distance(m, nn, (I,), 3, state_cap=21, tensor_templates=tensor)


def _count_plugs(patch):
    """Patches build_lmc's tensor moves to count the plugs of each
    template per pair (v, w) of values of a pair state's halves."""
    plugs = Counter()

    def plugging(body, v, w):
        plugs[(v, w)] += 1
        return _plug(body, v, w)

    patch.setattr(bisim, "_plug", plugging)
    return plugs


def _least_depths(frag, roots):
    """Each state's least depth from roots, by relaxing over frag.trans:
    an interrogation costs 1 and an evaluation 0."""
    depth = dict.fromkeys(roots, 0)
    changed = True
    while changed:
        changed = False
        for (s, label), succ in frag.trans.items():
            if s in depth:
                d = depth[s] + (label != EVAL_LABEL)
                for t in succ.support():
                    if d < depth.get(t, d + 1):
                        depth[t] = d
                        changed = True
    return depth


def _is_cyclic(graph, comp):
    return len(comp) > 1 or comp[0] in graph[comp[0]][1]


def _kleene(states, graph, rounds):
    """Kleene iteration of the functional from zero on a whole pair graph:
    the last iterate and whether it was a fixpoint."""
    mu = PseudoMetric(states)
    mu.values = dict.fromkeys(graph, Fraction(0))
    for _ in range(rounds):
        nxt = {key: _best_lift(mu, succ)[0] for key, (succ, _) in graph.items()}
        if nxt == mu.values:
            return mu.values, True
        mu.values = nxt
    return mu.values, False


def _linear_system(mu, keys, choice, plans):
    """The square system (I - H)x = c that _least_solution solves, read
    from its arguments: plan k ships h_kj to pair j of keys, and c_k is the
    rest of its cost, unmatched mass and mass shipped outside keys."""
    index = {key: i for i, key in enumerate(keys)}
    a = [[Fraction(i == j) for j in range(len(keys))] for i in range(len(keys))]
    c = []
    for i, key in enumerate(keys):
        ds, dt = choice[key]
        rest = ds.weight() + dt.weight()
        for (s, t), x in plans[key].items():
            rest -= 2 * x
            j = index.get(mu.key(s, t))
            if j is None:
                rest += x * mu.get(s, t)
            else:
                a[i][j] -= x
        c.append(rest)
    return a, c


class TestCycles:
    @pytest.fixture(autouse=True)
    def solves(self, monkeypatch):
        """Checks every linear solve of a cyclic component against the
        Gauss-Jordan elimination of gen._solve_square on the same system:
        the values must be equal exactly. Lists the sizes solved, and the
        errors any solve raised, which a caller must not hide."""
        least_solution = bisim._least_solution
        record = {"sizes": [], "raised": []}

        def checked(mu, keys, choice, plans):
            a, c = _linear_system(mu, keys, choice, plans)
            want = gen._solve_square(a, c)
            try:
                least_solution(mu, keys, choice, plans)
            except Exception as e:
                record["raised"].append(e)
                raise
            assert want is not None and [mu.values[key] for key in keys] == want
            record["sizes"].append(len(keys))

        monkeypatch.setattr(bisim, "_least_solution", checked)
        yield record
        assert not record["raised"]

    # Universe values that return abstractions re-enter the fragment: a
    # value applied to one of them can come back to a state seen before,
    # so pair graphs have cycles and Kleene iteration may never stop.
    REENTERING = tuple(
        map(
            parse,
            (
                "\\x. \\z. z (+) omega",
                "\\x. x (+) omega",
                "\\x. \\z. (\\y. y) (+) z",
                "\\a. \\b. a",
                "\\x. x",
            ),
        )
    )

    def test_agrees_with_the_dense_iteration_on_cyclic_pair_graphs(self, solves):
        # Where bisim_metric's loop stops, the root values agree. Where it
        # has not stopped after 32 rounds, the answer is at least its last
        # iterate, and the solved pair graph is a fixpoint of apply_F.
        rng = random.Random(20260356)
        cyclic = unconverged = 0
        while cyclic < 20:
            m, n = (
                rng.choice(self.REENTERING)
                if rng.random() < 0.5
                else gen.random_program(rng, max_size=12, fuel=3)
                for _ in range(2)
            )
            universe = rng.sample(self.REENTERING, rng.randint(1, 3))
            depth = rng.randint(1, 3)
            frag = build_lmc(m, n, universe, depth)
            mu = PseudoMetric(frag.states)
            root = mu.key(_eval(m), _eval(n))
            if root is None:
                continue
            graph = _pair_graph(frag, mu, root)
            if not any(_is_cyclic(graph, c) for c in _components(graph, root)):
                continue
            cyclic += 1
            got = bisim_distance(m, n, universe, depth)
            dense = PseudoMetric(frag.states)
            for _ in range(32):
                nxt = apply_F(frag, dense)
                if nxt == dense:
                    assert got == dense.get(_eval(m), _eval(n))
                    break
                dense = nxt
            else:
                unconverged += 1
                assert got >= dense.get(_eval(m), _eval(n))
                _solve(mu, graph, root)
                assert mu.values[root] == got
                image = apply_F(frag, mu)
                for key, v in mu.values.items():
                    assert image.values.get(key, 0) == v
        assert unconverged >= 5
        assert len(solves["sizes"]) >= 40 and max(solves["sizes"]) >= 20

    def test_random_pair_graphs_against_kleene_iteration(self, monkeypatch, solves):
        # Pair graphs over plain states, where every pair answers to up
        # to three labels with supports of up to three points: cycles mix
        # the choice of label with the choice of coupling. The answer is a
        # fixpoint at every pair, at least every Kleene iterate, equal to
        # the limit where Kleene stops, and close to it where it does not.
        # _solve_cycle keeps _best_lift's label: it must be the first of
        # largest lifting, found without lifting past the first label
        # worth 1.
        rng = random.Random(20260357)
        calls = []

        def counting(mu, ds, dt):
            calls.append((ds, dt))
            return _lifted(mu, ds, dt)

        monkeypatch.setattr(bisim, "_lifted", counting)
        stopped_early = 0
        weights = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))

        def random_dist(states):
            items, total = [], Fraction(0)
            for s in rng.sample(states, rng.randint(0, min(3, len(states)))):
                p = rng.choice(weights)
                if total + p <= 1:
                    items.append((s, p))
                    total += p
            return Dist(items)

        for _ in range(60):
            states = tuple(range(rng.randint(2, 5)))
            mu = PseudoMetric(states)
            graph = {}
            for i in states:
                for j in states[i + 1 :]:
                    succ = [
                        (random_dist(states), random_dist(states))
                        for _ in range(rng.randint(1, 3))
                    ]
                    nxt = dict.fromkeys(
                        mu.key(a, b)
                        for ds, dt in succ
                        for a in ds.support()
                        for b in dt.support()
                    )
                    nxt.pop(None, None)
                    graph[(i, j)] = (succ, list(nxt))
            _solve(mu, graph, (0, 1))
            for key, v in mu.values.items():
                succ = graph[key][0]
                lifts = [_lifted(mu, ds, dt) for ds, dt in succ]
                calls.clear()
                best, label = _best_lift(mu, succ)
                assert best == max(lifts) == v
                assert label is succ[lifts.index(best)]
                if 1 in lifts:
                    assert calls == succ[: lifts.index(1) + 1]
                    stopped_early += len(calls) < len(succ)
                else:
                    assert calls == succ
            iterate, stopped = _kleene(states, graph, 30)
            for key, v in mu.values.items():
                if stopped:
                    assert v == iterate[key]
                else:
                    assert iterate[key] <= v < iterate[key] + Fraction(1, 100)
        assert stopped_early >= 10
        assert len(solves["sizes"]) >= 50

    def test_a_label_that_only_loops_back_adds_nothing(self, solves):
        # Pair (0, 1) answers to one label leading back to itself and one
        # worth 1/2. Every value in [1/2, 1] is a fixpoint; the least is 1/2.
        stay = (Dist([(0, 1)]), Dist([(1, 1)]))
        half = (Dist([(2, 1)]), Dist([(2, Fraction(1, 2))]))
        for succ in ([stay, half], [half, stay]):
            mu = PseudoMetric(range(3))
            _solve(mu, {(0, 1): (succ, [(0, 1)])}, (0, 1))
            assert mu.values == {(0, 1): HALF}
        assert solves["sizes"] == [1, 1]


    def test_a_coupling_that_only_loops_back_is_found_from_any_start(self):
        # Pairs (0, 1) and (2, 3) share one label whose two couplings either
        # stay on the two pairs or leave for (0, 3) and (1, 2), both at 1/2.
        # Read at 1, leaving looks cheaper, and the value 1/2 it leads to is
        # a fixpoint, but staying costs nothing: the least fixpoint is 0.
        succ = (Dist([(0, HALF), (2, HALF)]), Dist([(1, HALF), (3, HALF)]))
        mu = PseudoMetric(range(4))
        mu.values = {(0, 1): 1, (2, 3): 1, (0, 3): HALF, (1, 2): HALF}
        _evaluate(mu, [(0, 1), (2, 3)], {(0, 1): succ, (2, 3): succ})
        assert mu.values[(0, 1)] == mu.values[(2, 3)] == 0


class TestWork:
    @pytest.mark.parametrize("n, pairs", [(1, 11), (2, 20), (3, 30)])
    def test_each_pair_of_an_acyclic_graph_is_lifted_once(self, monkeypatch, n, pairs):
        lifted = []
        best_lift = bisim._best_lift

        def counting(mu, succ):
            lifted.append(id(succ))
            return best_lift(mu, succ)

        monkeypatch.setattr(bisim, "_best_lift", counting)
        m, nn = build_mn_nn(n)
        value = bisim_distance(
            m, nn, (I,), 2 * n + 1, tensor_templates=default_tensor_templates()
        )
        assert value == 1 - u_seq(n)
        assert len(lifted) == len(set(lifted)) == pairs

    def test_repeated_tensor_templates_are_one_label(self, monkeypatch):
        # a template listed twice would give every pair value each of its
        # labels twice, and lift each twice per pair
        templates = default_tensor_templates((I,))[:8]
        m, nn = build_mn_nn(2)
        real, counts = bisim._lifted, []

        def lifting(templates):
            calls = []
            monkeypatch.setattr(bisim, "_lifted", lambda *a: calls.append(a) or real(*a))
            value = bisim_distance(m, nn, (I,), 5, tensor_templates=templates)
            counts.append(len(calls))
            return value

        assert lifting(templates + templates) == lifting(templates) == Fraction(5, 8)
        assert counts == [25, 25]

    def test_components_at_zero_solve_no_linear_system(self, monkeypatch):
        # A label choice's value never exceeds the least fixpoint, so a
        # component whose least fixpoint is 0 has every label lifting to 0
        # at 0: it stops after one pass, and no choice is evaluated. The
        # CLI's universe at depth 3 makes cyclic components of this kind
        # only.
        solves, evaluations = [], []
        least_solution, evaluate = bisim._least_solution, bisim._evaluate
        solve_cycle = bisim._solve_cycle
        zero_components = 0

        def counting(*args):
            solves.append(args)
            return least_solution(*args)

        def evaluating(*args):
            evaluations.append(args)
            return evaluate(*args)

        def watched(mu, graph, comp):
            nonlocal zero_components
            before = len(solves), len(evaluations)
            solve_cycle(mu, graph, comp)
            if not any(mu.values[key] for key in comp):
                assert (len(solves), len(evaluations)) == before
                zero_components += 1

        monkeypatch.setattr(bisim, "_least_solution", counting)
        monkeypatch.setattr(bisim, "_evaluate", evaluating)
        monkeypatch.setattr(bisim, "_solve_cycle", watched)
        # two pairs that only lead to each other
        swap = (Dist([(2, HALF)]), Dist([(3, HALF)]))
        back = (Dist([(0, 1)]), Dist([(1, 1)]))
        mu = PseudoMetric(range(4))
        graph = {(0, 1): ([swap], [(2, 3)]), (2, 3): ([back], [(0, 1)])}
        _solve(mu, graph, (0, 1))
        assert mu.values == {(0, 1): 0, (2, 3): 0}
        rng = random.Random(20261020)
        universe = (I, parse("\\a. \\b. a"))
        for _ in range(400):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            bisim_distance(m, n, universe, 3)
        assert zero_components >= 10
        assert not solves

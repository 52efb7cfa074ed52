import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
from metricwb import (
    IsValue,
    NotAffine,
    NotClosed,
    build_expair,
    dirac,
    eval_big,
    eval_small,
    parse,
    semantics,
    step_count_bound,
    step_one,
    trace_distance_lb,
    tuple_distance_lb,
)
from metricwb.dist import EMPTY, Dist, fair
from metricwb.semantics import (
    _eval,
    clear_memo,
    eval_app,
    eval_halves,
    small_step_rounds,
    support_measure,
)
from metricwb.trace import TensorAction, _trace_step, default_tensor_templates
from metricwb.terms import Abs, App, Choice, OMEGA, Pair, Var, identity, is_value, pretty

I = identity()
HALF = Fraction(1, 2)


class TestBigStep:
    def test_choice_with_divergence(self):
        assert eval_big(parse("(\\x. x) (+) omega")) == Dist([(I, HALF)])

    def test_divergence_alone(self):
        assert not eval_big(OMEGA)

    def test_value_argument_is_not_evaluated_under_the_binder(self):
        lazy = parse("\\y. omega")
        assert eval_big(App(I, lazy)) == dirac(lazy)

    def test_values_evaluate_to_themselves(self):
        assert eval_big(I) == dirac(I)
        assert eval_big(Pair(OMEGA, OMEGA)) == dirac(Pair(OMEGA, OMEGA))

    def test_squared_choice(self):
        t = parse("((\\x. x) (+) omega) ((\\x. x) (+) omega)")
        assert eval_big(t) == Dist([(I, Fraction(1, 4))])

    def test_let_unpacks_a_pair(self):
        t = parse("let <a, b> = <\\x. x, \\y. y> in a b")
        assert eval_big(t) == dirac(I)

    def test_let_evaluates_components_strictly(self):
        t = parse("let <a, b> = <omega, \\y. y> in b")
        assert not eval_big(t)

    def test_requires_closed_input(self):
        with pytest.raises(NotClosed):
            eval_big(Var("x"))

    def test_requires_affine_input(self):
        with pytest.raises(NotAffine):
            eval_big(App(Abs("x", App(Var("x"), Var("x"))), I))

    def test_stuck_application_warns_and_drops_mass(self, caplog):
        clear_memo()
        t = App(Pair(OMEGA, OMEGA), I)
        with caplog.at_level("WARNING", logger="metricwb"):
            out = eval_big(t)
        assert not out
        assert "stuck application" in caplog.text

    def test_stuck_let_warns_and_drops_mass(self, caplog):
        clear_memo()
        t = parse("let <a, b> = \\x. x in a")
        with caplog.at_level("WARNING", logger="metricwb"):
            out = eval_big(t)
        assert not out
        assert "stuck let" in caplog.text

    def test_stuck_warnings_name_the_redex_and_the_mass(self, caplog):
        clear_memo()
        t = parse("let <a, b> = (\\x. x) (+) <\\y. y, \\z. z> in a")
        with caplog.at_level("WARNING", logger="metricwb"):
            eval_big(t)
        (record,) = caplog.records
        assert record.args == (I, HALF)  # formatted only when printed
        assert record.getMessage().endswith("\\x. x destructured as a pair drops mass 1/2")

        clear_memo()
        t = parse("(<\\x. x, \\y. y> (+) \\z. z) ((\\a. a) (+) (omega (+) omega))")
        caplog.clear()
        with caplog.at_level("WARNING", logger="metricwb"):
            assert eval_big(t).weight() == Fraction(1, 4)
        (record,) = caplog.records
        assert "stuck application" in record.getMessage()
        assert record.args[-1] == Fraction(1, 4)  # half the function side, half the argument
        clear_memo()

    def test_a_diverging_argument_drops_nothing_and_warns_nothing(self, caplog):
        clear_memo()
        with caplog.at_level("WARNING", logger="metricwb"):
            assert eval_big(parse("<omega, omega> omega")) == EMPTY
        assert not caplog.records

    def test_a_half_after_a_diverging_half_is_not_evaluated(self, caplog):
        # halves run left to right, so the stuck second half is never reached
        clear_memo()
        with caplog.at_level("WARNING", logger="metricwb"):
            assert eval_big(parse("let <a, b> = <omega, <omega, omega> I> in a")) == EMPTY
        assert not caplog.records

    def test_partial_stuckness_keeps_the_good_branch(self):
        clear_memo()
        t = App(parse("(\\x. x) (+) <omega, omega>"), parse("\\y. y"))
        assert eval_big(t) == Dist([(parse("\\y. y"), HALF)])


class TestSmallStep:
    def test_choice_splits_evenly(self):
        d = step_one(parse("omega (+) \\x. x"))
        assert d == Dist([(OMEGA, HALF), (I, HALF)])

    def test_divergence_steps_to_nothing(self):
        assert not step_one(OMEGA)

    def test_value_refuses_to_step(self):
        with pytest.raises(IsValue):
            step_one(I)

    def test_beta_step(self):
        assert step_one(App(I, I)) == dirac(I)

    def test_function_position_steps_first(self):
        t = App(parse("(\\f. f) (\\x. x)"), OMEGA)
        assert step_one(t) == dirac(App(I, OMEGA))

    def test_step_count_bound_examples(self):
        assert step_count_bound(OMEGA) == 1
        assert step_count_bound(I) == 9
        assert step_count_bound(parse("(\\x. x) (\\y. y)")) == 81

    def test_small_equals_big_on_the_squared_choice(self):
        t = parse("((\\x. x) (+) omega) ((\\x. x) (+) omega)")
        assert eval_small(t) == Dist([(I, Fraction(1, 4))])

    def test_measure_strictly_decreases(self):
        t = parse("((\\x. x) (+) omega) ((\\x. x) (+) omega)")
        prev = support_measure(dirac(t))
        rounds = 0
        for d in small_step_rounds(t):
            cur = support_measure(d)
            assert cur < prev
            prev = cur
            rounds += 1
        assert 0 < rounds <= step_count_bound(t)


class TestAgreement:
    def test_big_equals_small_on_random_programs(self):
        rng = random.Random(20260320)
        for _ in range(150):
            t = gen.random_program(rng, max_size=30)
            assert eval_big(t) == eval_small(t), pretty(t)

    def test_big_step_matches_reference_evaluator(self):
        rng = random.Random(20260321)
        for _ in range(150):
            t = gen.random_program(rng, max_size=30)
            want = {v: p for v, p in gen.naive_eval(t).items() if p}
            assert dict(eval_big(t).items()) == want, pretty(t)


class TestFairChoice:
    """A choice evaluates to the half-and-half mix of its branches' value
    distributions, as the Fraction reference computes it: the same support
    order, weights and binder names."""

    @staticmethod
    def branches(rng):
        kind = rng.choice(["programs", "values", "diverging", "alpha-equal"])
        if kind == "alpha-equal":
            # one draw, binders named apart: the same term up to renaming
            seed = rng.random()
            return kind, tuple(
                gen.random_program(random.Random(seed), max_size=20, fuel=4, prefix=p)
                for p in "vw"
            )
        if kind == "values":
            return kind, (gen.random_value(rng, prefix="a"), gen.random_value(rng, prefix="b"))
        left = gen.random_program(rng, max_size=20, fuel=4)
        right = OMEGA if kind == "diverging" else gen.random_program(rng, max_size=20, fuel=4)
        return kind, (left, right)

    def test_choice_is_the_reference_mix_of_its_branches(self):
        rng = random.Random(20261019)
        kinds, renamed = set(), 0
        for _ in range(200):
            kind, (l, r) = self.branches(rng)
            kinds.add(kind)
            if kind == "alpha-equal":
                assert l == r
                renamed += pretty(l) != pretty(r)
            clear_memo()
            got = _eval(Choice(l, r))
            want = gen.reference_mix(((HALF, _eval(l)), (HALF, _eval(r))))
            assert [(repr(e), p) for e, p in got.items()] == [
                (repr(e), p) for e, p in want.items()
            ], (pretty(l), pretty(r))
            assert repr(got) == repr(want)
        assert kinds == {"programs", "values", "diverging", "alpha-equal"}
        assert renamed
        clear_memo()

    def test_the_one_step_distribution_is_the_constructors(self):
        # dist.fair builds 1/2·l + 1/2·r from integers, for _eval's and
        # _step's Choice rules, as the Fraction constructor does
        rng = random.Random(20261107)
        merged = 0
        for _ in range(200):
            _, (l, r) = self.branches(rng)
            want = Dist(((l, HALF), (r, HALF)))
            for got in (fair(l, r), step_one(Choice(l, r))):
                assert got == want
                assert all(a is b for a, b in zip(got.support(), want.support()))
                assert len(got.support()) == len(want.support())
            merged += len(want) == 1
        assert merged >= 20


LOSS = object()


def _loss_successors(t):
    """Successor terms of one small step, with LOSS marking any branch that
    discards mass (divergence or a stuck redex). Written against the
    reduction strategy, not the package internals."""
    from metricwb import substitute
    from metricwb.terms import Choice, LetPair, Omega

    def lift(build, subterm):
        return [LOSS if s is LOSS else build(s) for s in _loss_successors(subterm)]

    if is_value(t):
        return []
    if isinstance(t, Omega):
        return [LOSS]
    if isinstance(t, Choice):
        return [t.left, t.right]
    if isinstance(t, App):
        if not is_value(t.fn):
            return lift(lambda s: App(s, t.arg), t.fn)
        if isinstance(t.fn, Pair):
            return [LOSS]
        if not is_value(t.arg):
            return lift(lambda s: App(t.fn, s), t.arg)
        return [substitute(t.fn.body, t.fn.var, t.arg)]
    if isinstance(t, LetPair):
        if not is_value(t.scrutinee):
            return lift(lambda s: LetPair(t.var1, t.var2, s, t.body), t.scrutinee)
        if isinstance(t.scrutinee, Abs):
            return [LOSS]
        pair = t.scrutinee
        if not is_value(pair.first):
            return lift(
                lambda s: LetPair(t.var1, t.var2, Pair(s, pair.second), t.body),
                pair.first,
            )
        if not is_value(pair.second):
            return lift(
                lambda s: LetPair(t.var1, t.var2, Pair(pair.first, s), t.body),
                pair.second,
            )
        return [substitute(substitute(t.body, t.var1, pair.first), t.var2, pair.second)]
    raise AssertionError(f"unhandled: {t!r}")


def _can_lose_mass(t) -> bool:
    seen = set()
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        if cur in seen or is_value(cur):
            continue
        seen.add(cur)
        for s in _loss_successors(cur):
            if s is LOSS:
                return True
            frontier.append(s)
    return False


class TestTotalMass:
    def test_weight_one_exactly_when_no_loss_is_reachable(self):
        rng = random.Random(20260322)
        n_total = 0
        n_full = 0
        for _ in range(200):
            t = gen.random_program(rng, max_size=12, fuel=4)
            full = eval_big(t).weight() == 1
            assert full == (not _can_lose_mass(t)), pretty(t)
            n_total += 1
            n_full += full
        assert 0 < n_full < n_total


def _observation_cases(rng, n: int) -> list:
    """n triples (f, v, p): an abstraction, a value to apply it to, and a
    pair whose halves are values or programs."""

    def half(prefix):
        if rng.random() < 0.5:
            return gen.random_value(rng, max_size=8, prefix=prefix)
        return gen.random_program(rng, max_size=10, fuel=3, prefix=prefix)

    return [
        (
            gen.random_value(rng, max_size=10, prefix=f"f{i}"),
            gen.random_value(rng, max_size=8, prefix=f"v{i}"),
            Pair(half(f"p{i}"), half(f"q{i}")),
        )
        for i in range(n)
    ]


class TestObservations:
    def test_memoised_observations_equal_the_reference_evaluator(self):
        # eval_app(f, v) against gen.naive_eval of f v, eval_halves(p)
        # against naive_eval of each half, on the cases and their
        # alpha-variants, each from a cold memo and then all from one warm
        # memo, where the variants find the cases' entries
        rng = random.Random(20261024)
        cases = _observation_cases(rng, 80)
        variants = [tuple(gen.alpha_variant(rng, t) for t in case) for case in cases]

        def check(f, v, p):
            assert dict(eval_app(f, v).items()) == gen.naive_eval(App(f, v)), (f, v)
            if f.var not in f.body.free_vars:  # None stands for an unused argument
                assert eval_app(f, None) == eval_app(f, v)
            halves = {
                (a, b): x * y
                for a, x in gen.naive_eval(p.first).items()
                for b, y in gen.naive_eval(p.second).items()
            }
            assert dict(eval_halves(p).items()) == halves, p

        for case in (*cases, *variants):
            clear_memo()
            check(*case)
        clear_memo()
        for case in cases:
            check(*case)
        entries = len(gen.observations())
        for case in (*variants, *cases):
            check(*case)
        assert len(gen.observations()) == entries > len(cases)
        clear_memo()

    def test_clear_memo_leaves_no_observation_entry(self):
        clear_memo()
        noisy, clean = build_expair()
        tuple_distance_lb(noisy, clean, None, 3)
        trace_distance_lb(noisy, clean, (I,), 2, default_tensor_templates((I,)))
        assert gen.observations()
        clear_memo()
        assert not gen.observations() and not semantics._memo

    def test_tensor_entries_leave_the_other_observations_alone(self):
        # A tensor step on <f, v>, f an abstraction, makes entries under
        # (body, f, v) whose values are not those of f applied to v, nor
        # the pair's halves; eval_app(f, v), eval_halves(<f, v>) and the
        # steps must each give their own, and clear_memo must empty the
        # new entries.
        rng = random.Random(20261025)
        templates = [TensorAction(parse(t)) for t in ("y x", "x (y I)", "y (x I) (\\a. a)")]
        differ = 0
        for f, v, _ in _observation_cases(rng, 60):
            p = Pair(f, v)
            clear_memo()
            outcomes = [_trace_step(p, a) for a in templates]
            assert dict(eval_app(f, v).items()) == gen.naive_eval(App(f, v)), (f, v)
            assert eval_halves(p) == dirac((f, v))
            assert outcomes == [gen.move(dirac((f, v)), a).bind(_eval) for a in templates]
            assert len(gen.tensor_entries()) >= len(templates)
            differ += any(d != eval_app(f, v) for d in outcomes)
            clear_memo()
            assert not gen.tensor_entries() and not semantics._memo
        assert differ >= 40

    def test_evaluation_reads_no_observation_entry(self):
        # An entry is keyed up to alpha, so a hit hands back the values of
        # the first alpha-variant; _eval's App and LetPair rules give the
        # value a step reaches, named as the query names it.
        clear_memo()
        a = parse("\\a. a")
        assert eval_app(parse("\\x. x"), a) == dirac(a)
        out = eval_big(parse("(\\x. x) (\\b. b)"))
        assert [pretty(v) for v in out.support()] == ["\\b. b"]
        clear_memo()
        assert eval_halves(Pair(a, I)) == dirac((a, I))
        out = eval_big(parse("let <x, y> = <\\b. b, \\z. z> in x"))
        assert [pretty(v) for v in out.support()] == ["\\b. b"]
        clear_memo()


_RUN_COMMANDS = """
import contextlib, io, json, sys
from metricwb.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def _run_commands(commands: list) -> list:
    """[exit code, stdout, stderr] of each cli.main command, run in order
    in one fresh interpreter on this checkout, with METRIC_WB_LOG unset."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("METRIC_WB_LOG", None)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


class TestQueryScope:
    def test_commands_in_one_process_print_what_each_prints_alone(self):
        # The first and last evaluate alpha-variants, each with a stuck
        # application that warns; the middle one makes observation
        # entries. cli.main empties the memo before each command.
        commands = [
            ["eval", "(\\x. x) (\\a. a) (+) (<\\d. d, I> I)"],
            ["distance", "--kind", "trace", "\\x. x", "\\x. x (+) omega",
             "--universe", "\\a. a", "--max-len", "2"],
            ["eval", "(\\y. y) (\\b. b) (+) (<\\c. c, I> I)"],
        ]
        together = _run_commands(commands)
        assert together == [_run_commands([argv])[0] for argv in commands]
        assert [code for code, _, _ in together] == [0, 0, 0]
        assert "stuck application" in together[0][2] and "stuck application" in together[2][2]
        assert json.loads(together[2][1])["support"][0]["elem"] == "\\b. b"

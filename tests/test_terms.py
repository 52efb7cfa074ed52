import random
import re

import pytest

import gen
from metricwb import check_affine, encode_theta, identity, is_value, parse, pretty, size, substitute
from metricwb.semantics import eval_big
from metricwb.terms import (
    Abs,
    App,
    Choice,
    LetPair,
    OMEGA,
    Omega,
    Pair,
    Var,
    affine_violation,
    fresh,
    rename_free,
)

I = identity()


class TestStructure:
    def test_identity_shape(self):
        assert I == Abs("x", Var("x"))
        assert isinstance(I, Abs)

    def test_omega_singleton(self):
        assert OMEGA == Omega()
        assert parse("omega") == OMEGA

    def test_letpair_rejects_duplicate_pattern(self):
        with pytest.raises(ValueError):
            LetPair("x", "x", Pair(OMEGA, OMEGA), Var("x"))

    def test_alpha_equality_and_hash(self):
        a = Abs("a", Var("a"))
        b = Abs("b", Var("b"))
        assert a == b
        assert hash(a) == hash(b)
        assert hash(a) == hash(Abs("c", Var("c")))  # a cached id, a fresh one
        assert len({a, b}) == 1
        assert Abs("a", Abs("b", Var("a"))) != Abs("a", Abs("b", Var("b")))

    def test_distinct_free_variables_differ(self):
        assert Var("a") != Var("b")

    def test_fresh_names_are_distinct_and_display_clean(self):
        names = {fresh("p") for _ in range(50)}
        assert len(names) == 50
        t = Abs(fresh("q"), OMEGA)
        assert "%" not in pretty(t)


class TestValues:
    def test_abstractions_are_values(self):
        assert is_value(I)
        assert is_value(Abs("x", OMEGA))

    def test_pairs_are_values_even_with_divergent_parts(self):
        assert is_value(Pair(OMEGA, OMEGA))
        assert is_value(Pair(App(I, I), OMEGA))

    def test_non_values(self):
        assert not is_value(OMEGA)
        assert not is_value(Var("x"))
        assert not is_value(App(I, I))
        assert not is_value(Choice(I, I))
        assert not is_value(LetPair("a", "b", Pair(OMEGA, OMEGA), Var("a")))


class TestSize:
    def test_base_cases(self):
        assert size(OMEGA) == 0
        assert size(Var("x")) == 1
        assert size(parse("\\x. x")) == 2
        assert size(parse("(\\x. x) (\\y. y)")) == 4

    def test_choice_takes_the_larger_branch(self):
        assert size(Choice(OMEGA, I)) == 1 + 2
        assert size(Choice(I, OMEGA)) == 1 + 2

    def test_pair_and_let(self):
        assert size(Pair(I, OMEGA)) == 1 + 2 + 0
        assert size(LetPair("a", "b", Pair(OMEGA, OMEGA), Var("a"))) == 2 + 1 + 1


class TestAffinity:
    @pytest.mark.parametrize(
        "ctx, text, expected",
        [
            ((), "\\x. x x", False),
            ((), "\\x. x (+) x", True),
            ((), "\\x. <x, x>", False),
            ((), "\\x. let <a, b> = x in a b", True),
            ((), "\\x. \\y. y x", True),
            (("c",), "c", True),
            ((), "omega", True),
        ],
    )
    def test_parsed_cases(self, ctx, text, expected):
        assert check_affine(ctx, parse(text)) is expected

    def test_unknown_free_variable(self):
        assert not check_affine((), Var("x"))
        assert "context" in affine_violation((), Var("x"))

    def test_context_variable_may_go_unused(self):
        assert check_affine(("c",), OMEGA)

    def test_binder_shadowing_context_is_accepted(self):
        # terms are taken up to alpha: \x. x under x is \z. z under x
        assert check_affine(("x",), Abs("x", Var("x")))
        assert check_affine(("x",), App(Abs("x", Var("x")), Var("x")))
        assert not check_affine(("x",), App(Abs("x", Var("x")), App(Var("x"), Var("x"))))

    def test_nested_rebinding_is_accepted(self):
        assert check_affine((), Abs("x", Abs("x", Var("x"))))
        assert check_affine((), Abs("x", App(Var("x"), Abs("x", Var("x")))))
        assert not check_affine((), Abs("x", Abs("x", App(Var("x"), Var("x")))))

    def test_parallel_reuse_of_a_binder_name_is_fine(self):
        t = App(Abs("y", Var("y")), Abs("y", Var("y")))
        assert check_affine((), t)

    def test_double_use_across_a_let(self):
        body = App(Var("a"), Var("a"))
        t = LetPair("a", "b", Pair(OMEGA, OMEGA), body)
        assert not check_affine((), t)
        ok = LetPair("a", "b", Pair(OMEGA, OMEGA), App(Var("a"), Var("b")))
        assert check_affine((), ok)

    def test_diagnostics_read_cleanly(self):
        msg = affine_violation((), parse("\\x. x x"))
        assert msg == "variable 'x' is used on both sides of an application"

    def test_agrees_with_occurrence_counting_oracle(self):
        rng = random.Random(20260301)
        disagreements = []
        for _ in range(1500):
            ctx = tuple(rng.sample(["a", "b", "c"], rng.randint(0, 2)))
            t = gen.arbitrary_term(rng, rng.randint(1, 5))
            if check_affine(ctx, t) != gen.affine_oracle(ctx, t):
                disagreements.append((ctx, pretty(t)))
        assert not disagreements

    def test_generator_output_is_always_affine(self):
        rng = random.Random(20260302)
        for _ in range(300):
            t = gen.random_program(rng, max_size=30)
            assert not t.free_vars
            assert check_affine((), t)


class TestSubstitute:
    def test_plain_substitution(self):
        assert substitute(Var("x"), "x", I) == I
        assert substitute(App(Var("x"), OMEGA), "x", I) == App(I, OMEGA)

    def test_no_occurrence_returns_the_same_object(self):
        t = App(Abs("y", Var("y")), OMEGA)
        assert substitute(t, "x", I) is t

    def test_only_free_occurrences_are_replaced(self):
        t = Abs("y", App(Var("y"), Var("x")))
        assert substitute(t, "x", I) == Abs("y", App(Var("y"), I))

    def test_a_capturing_abstraction_renames_its_binder(self):
        out = substitute(Abs("y", App(Var("x"), Var("y"))), "x", Var("y"))
        assert out == parse("\\z. y z")
        assert out.var != "y" and out.free_vars == {"y"}
        # (\y. \z. (\a. y a) z) I K evaluates I K, where the captured
        # \y. (\a. y a) y would evaluate K K
        body = substitute(Abs("y", App(Var("f"), Var("y"))), "f", parse("\\a. y a"))
        assert body == parse("\\z. (\\a. y a) z")
        k = parse("\\q. \\r. r")
        assert eval_big(App(App(Abs("y", body), I), k)) == eval_big(k)

    def test_a_capturing_let_pattern_renames_its_binders(self):
        t = LetPair("a", "b", Var("p"), App(App(Var("x"), Var("a")), Var("b")))
        out = substitute(t, "x", App(Var("a"), Var("b")))
        assert out == parse("let <c, d> = p in a b c d")
        assert {out.var1, out.var2}.isdisjoint({"a", "b"})
        # with a := \p. \q. \r. q and b := I the body runs to I, where the
        # captured a b a b would apply \z. omega and diverge
        inner = substitute(out, "p", Pair(I, parse("\\z. omega")))
        program = App(App(Abs("a", Abs("b", inner)), parse("\\p. \\q. \\r. q")), I)
        assert eval_big(program) == eval_big(I)

    def test_a_pattern_naming_the_variable_blocks_the_body(self):
        t = LetPair("x", "b", Var("x"), Var("x"))
        assert substitute(t, "x", I) == LetPair("x", "b", I, Var("x"))

    def test_preserves_affinity(self):
        rng = random.Random(20260303)
        for _ in range(200):
            body = gen.random_open_term(rng, ("hole",), fuel=3)
            v = gen.random_value(rng)
            assert check_affine(("hole",), body)
            out = substitute(body, "hole", v)
            assert check_affine((), out)


class TestRenameFree:
    def test_renames_free_only(self):
        t = App(Var("x"), Abs("y", Var("y")))
        out = rename_free(t, {"x": "z"})
        assert out == App(Var("z"), Abs("y", Var("y")))

    def test_missing_key_is_untouched(self):
        assert rename_free(Var("x"), {"q": "z"}) == Var("x")


class TestPairEncoding:
    def test_pair_becomes_a_selector_function(self):
        out = encode_theta(Pair(I, OMEGA))
        match out:
            case Abs(z, App(App(Var(z2), f), s)):
                assert z == z2
                assert f == encode_theta(I)
                assert s == encode_theta(OMEGA)
            case _:
                pytest.fail(f"unexpected shape: {pretty(out)}")

    def test_let_becomes_an_application_of_a_curried_consumer(self):
        t = LetPair("a", "b", Pair(OMEGA, OMEGA), Var("a"))
        out = encode_theta(t)
        match out:
            case App(scrut, Abs(a, Abs(b, Var(a2)))):
                assert a == a2 and a != b
                assert scrut == encode_theta(Pair(OMEGA, OMEGA))
            case _:
                pytest.fail(f"unexpected shape: {pretty(out)}")

    def test_pair_free_terms_are_untouched(self):
        for text in ("omega", "\\x. x", "(\\x. x) (+) omega", "(\\x. x) omega"):
            t = parse(text)
            assert encode_theta(t) == t

    def test_preserves_affinity_and_closedness(self):
        rng = random.Random(20260304)
        for _ in range(200):
            t = gen.random_program(rng, max_size=25)
            out = encode_theta(t)
            assert not out.free_vars
            assert check_affine((), out)

    def test_result_contains_no_pairs(self):
        rng = random.Random(20260305)

        def pair_free(t):
            match t:
                case Pair(_, _) | LetPair(_, _, _, _):
                    return False
                case Abs(_, b):
                    return pair_free(b)
                case App(f, a) | Choice(f, a):
                    return pair_free(f) and pair_free(a)
                case _:
                    return True

        for _ in range(200):
            t = gen.random_program(rng, max_size=25)
            assert pair_free(encode_theta(t))


class TestPretty:
    def test_names_agree_with_the_full_scan(self):
        rng = random.Random(20261019)
        for _ in range(300):
            closed = gen.random_program(rng, max_size=40, fuel=5, prefix=rng.choice("vx"))
            # free variables x1 and x2 among binders that share their bases
            open_ = gen.arbitrary_term(rng, 5, pool=("x", "x1", "x2"))
            both = App(open_, closed)
            for t in (closed, open_, both, parse(gen.reference_pretty(both))):
                assert pretty(t) == gen.reference_pretty(t)

    def test_a_shadowing_term_prints_each_binder_in_its_scope(self):
        t = App(Abs("y", Abs("x", App(Var("y"), Var("x")))), Abs("x", Var("x")))
        assert pretty(eval_big(t).support()[0]) == "\\x. (\\x1. x1) x"
        assert pretty(App(Abs("x", Var("x")), Var("x"))) == "(\\x1. x1) x"
        assert pretty(Abs("x", Abs("x", Var("x")))) == "\\x. \\x1. x1"

    def test_shadowing_terms_read_back_alike(self):
        rng = random.Random(20261105)
        for _ in range(3000):
            t = gen.arbitrary_term(rng, rng.randint(1, 6), rng.choice([("a", "b"), ("a", "b", "c")]))
            assert parse(pretty(t)) == t

    def test_sibling_binders_take_consecutive_suffixes(self):
        level = [Abs(x, Var(x)) for x in (fresh("x") for _ in range(3000))]
        while len(level) > 1:
            level = [Pair(a, b) for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
        names = re.findall(r"\\(\w+)\.", pretty(level[0]))
        assert names == ["x"] + [f"x{n}" for n in range(1, 3000)]

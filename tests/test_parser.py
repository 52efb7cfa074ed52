import random

import pytest

import gen
from metricwb import ParseError, parse, pretty
from metricwb.parser import parse_items, parse_terms
from metricwb.terms import Abs, App, Choice, LetPair, OMEGA, Pair, Var, identity

I = identity()


class TestBasics:
    def test_atoms(self):
        assert parse("omega") == OMEGA
        assert parse("I") == I
        assert parse("x") == Var("x")
        assert parse("\\x. x") == I

    def test_lambda_body_extends_right(self):
        assert parse("\\x. \\y. x") == Abs("a", Abs("b", Var("a")))
        assert parse("\\f. f omega") == Abs("f", App(Var("f"), OMEGA))

    def test_application_is_left_associative(self):
        t = parse("(\\x. x) (\\y. y) omega")
        assert t == App(App(I, I), OMEGA)

    def test_choice_is_left_associative(self):
        t = parse("omega (+) I (+) omega")
        assert t == Choice(Choice(OMEGA, I), OMEGA)

    def test_choice_binds_looser_than_application(self):
        t = parse("I omega (+) I")
        assert t == Choice(App(I, OMEGA), I)

    def test_trailing_lambda_after_choice(self):
        t = parse("omega (+) \\x. x")
        assert t == Choice(OMEGA, I)

    def test_trailing_let_after_choice(self):
        t = parse("omega (+) let <a, b> = omega in a")
        assert isinstance(t, Choice)
        assert isinstance(t.right, LetPair)

    def test_pairs(self):
        assert parse("<omega, I>") == Pair(OMEGA, I)
        assert parse("<<omega, omega>, I>") == Pair(Pair(OMEGA, OMEGA), I)

    def test_let(self):
        t = parse("let <a, b> = <omega, omega> in a b")
        assert t == LetPair(
            "a", "b", Pair(OMEGA, OMEGA), App(Var("a"), Var("b"))
        )

    def test_parenthesised_grouping(self):
        assert parse("(omega (+) I) omega") == App(Choice(OMEGA, I), OMEGA)

    def test_binders_are_alpha_renamed_apart(self):
        t = parse("(\\x. x) (\\x. x)")
        assert isinstance(t, App)
        assert t.fn.var != t.arg.var
        assert t == App(I, I)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(omega",
            "omega)",
            "\\x x",
            "\\. x",
            "let <a, a> = omega in a",
            "<omega>",
            "let <a> = omega in a",
            "omega (+)",
            "(+) omega",
            "\\x. ",
            "let a = omega in a",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_parse_error_is_a_value_error(self):
        assert issubclass(ParseError, ValueError)

    def test_position_is_reported(self):
        with pytest.raises(ParseError) as e:
            parse("omega )")
        assert isinstance(e.value.position, int)
        assert e.value.position >= 5

    def test_a_stray_character_is_reported_at_its_offset(self):
        with pytest.raises(ParseError) as e:
            parse("I # I")
        assert e.value.position == 2
        assert str(e.value) == "unexpected character '#' (at offset 2)"

    def test_duplicate_pattern_message(self):
        with pytest.raises(ParseError, match="reuses"):
            parse("let <a, a> = <omega, omega> in a")


class TestRoundTrip:
    def test_pretty_examples(self):
        assert pretty(parse("\\x. x")) == "\\x. x"
        assert pretty(OMEGA) == "omega"
        assert pretty(Choice(OMEGA, I)) == "omega (+) (\\x. x)"

    def test_parse_after_pretty_is_identity(self):
        rng = random.Random(20260310)
        for _ in range(1000):
            t = gen.random_program(rng, max_size=40, fuel=5)
            assert parse(pretty(t)) == t

    def test_round_trip_survives_tricky_nesting(self):
        cases = [
            Choice(Abs("x", Choice(Var("x"), OMEGA)), OMEGA),
            App(Choice(I, OMEGA), Choice(OMEGA, I)),
            Pair(Choice(I, OMEGA), LetPair("a", "b", Pair(OMEGA, OMEGA), Var("b"))),
            Abs("f", App(Var("f"), Choice(OMEGA, Abs("z", OMEGA)))),
            LetPair("a", "b", Choice(Pair(OMEGA, OMEGA), Pair(I, I)), App(Var("a"), Var("b"))),
        ]
        for t in cases:
            assert parse(pretty(t)) == t


def read_nat(ts) -> int:
    return int(ts.expect("nat"))


class TestLists:
    def test_empty_term_list(self):
        assert parse_terms("") == []
        assert parse_terms("  ") == []

    def test_commas_inside_terms_do_not_separate(self):
        got = parse_terms("I, <I, omega>, let <a, b> = omega in a")
        assert got == [I, Pair(I, OMEGA), LetPair("a", "b", OMEGA, Var("a"))]

    def test_term_lists_round_trip(self):
        rng = random.Random(20261018)
        for _ in range(100):
            ts = [gen.random_program(rng, max_size=20, fuel=4) for _ in range(rng.randint(1, 3))]
            assert parse_terms(", ".join(pretty(t) for t in ts)) == ts

    def test_items(self):
        assert parse_items("eps", read_nat) == []
        assert parse_items(" eps ", read_nat) == []
        assert parse_items("1; 20 ;3", read_nat) == [1, 20, 3]

    def test_digits_stay_inside_names(self):
        assert parse("x1") == Var("x1")

    @pytest.mark.parametrize(
        "text, position",
        [("I,", 2), (",I", 0), ("I,,I", 2), (",", 0), ("I; I", 1)],
    )
    def test_term_list_separators(self, text, position):
        with pytest.raises(ParseError) as e:
            parse_terms(text)
        assert e.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [("", 0), (";", 0), ("1;", 2), ("1;;2", 2), ("eps; 1", 0), ("1 2", 2), ("1, 2", 1)],
    )
    def test_item_separators(self, text, position):
        with pytest.raises(ParseError) as e:
            parse_items(text, read_nat)
        assert e.value.position == position

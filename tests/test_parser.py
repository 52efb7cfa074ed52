import random

import pytest

import gen
from metricwb import ParseError, parse, pretty
from metricwb.parser import Tokens, format_items, parse_items, parse_terms
from metricwb.cli import main
from metricwb.terms import Abs, App, Choice, LetPair, OMEGA, Pair, Var, fresh, identity
from metricwb.trace import parse_trace
from metricwb.tuples import parse_tuple_trace

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


class TestWrittenNames:
    """The parser keeps every name as written; only capture-avoiding
    substitution ever renames a binder."""

    def test_binders_carry_their_written_names(self):
        t = parse("\\y. let <a, b> = y in b a")
        assert repr(t) == "Abs('y', LetPair('a', 'b', Var('y'), App(Var('b'), Var('a'))))"

    def test_equal_texts_read_as_equal_binders(self):
        t = parse("(\\x. x) (\\x. x)")
        assert isinstance(t, App)
        assert t.fn == t.arg
        assert t.fn.var == t.arg.var == "x"

    def test_a_shadowing_binder_keeps_its_name(self):
        t = parse("\\x. \\x. x")
        assert repr(t) == "Abs('x', Abs('x', Var('x')))"
        assert t == Abs("a", Abs("b", Var("b")))

    def test_two_parses_of_one_text_are_the_same_tree(self):
        rng = random.Random(20261020)
        for _ in range(200):
            text = pretty(gen.random_program(rng, max_size=30, fuel=5))
            assert repr(parse(text)) == repr(parse(text)), text

    def test_identity_is_one_shared_node(self):
        assert identity() is identity()
        assert parse("I") is identity()

    def test_cli_commands_mint_no_name(self, capsys):
        pair = "<\\z. (\\x. x) (+) omega, \\z. \\x. x>"
        batch = [
            ["check", "\\x. \\y. y x", "--typed"],
            ["eval", "(\\x. x) (+) omega"],
            ["trace-prob", pair, "cut(1); appl(1; ; I)"],
            ["distance", "--kind", "trace", "I", "\\x. x (+) omega", "--max-len", "2"],
            ["distance", "--kind", "bisim", "I", "\\x. x (+) omega",
             "--universe", "I, \\a. \\b. a", "--depth", "3"],
            ["distance", "--kind", "tuple", pair, "<I, I>", "--max-len", "2"],
            ["examples", "--which", "expair"],
        ]
        before = fresh("q")
        for argv in batch:
            assert main(argv) == 0, argv
        capsys.readouterr()
        after = fresh("q")
        assert int(after.split("%")[1]) == int(before.split("%")[1]) + 1


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

    # Every message and offset as the readers reported them before the
    # tokenizer kept its offsets aside; any change here is a change of output.
    @pytest.mark.parametrize(
        "read, text, message, offset",
        [
            (parse, "", "expected a term, found end of input", 0),
            (parse, "(omega", "expected ')', found end of input", 6),
            (parse, "omega)", "trailing input ')'", 5),
            (parse, "\\x x", "expected '.', found 'x'", 3),
            (parse, "\\. x", "expected 'ident', found '.'", 1),
            (parse, "let <a, a> = omega in a", "pair pattern reuses 'a'", 8),
            (parse, "<omega>", "expected ',', found '>'", 6),
            (parse, "let <a> = omega in a", "expected ',', found '>'", 6),
            (parse, "omega (+)", "expected a term, found end of input", 9),
            (parse, "(+) omega", "expected a term, found '(+)'", 0),
            (parse, "\\x. ", "expected a term, found end of input", 4),
            (parse, "let a = omega in a", "expected '<', found 'a'", 4),
            (parse, "let <bb, bb> = omega in bb", "pair pattern reuses 'bb'", 9),
            (parse, "omega )", "trailing input ')'", 6),
            (parse, "I I) I", "trailing input ')'", 3),
            (parse, "I # I", "unexpected character '#'", 2),
            (parse, "I + I", "unexpected character '+'", 2),
            (parse_terms, "I, I # I", "unexpected character '#'", 5),
            (parse_terms, "I, \\x. é", "unexpected character 'é'", 7),
            (parse_trace, "app(I) ; tensor(\\p. # p)", "unexpected character '#'", 20),
            (parse_tuple_trace, "cut(1); appl(1; x1 ' ; I)", "unexpected character \"'\"", 19),
            (parse_tuple_trace, "cu+t(1)", "unexpected character '+'", 2),
            (parse_trace, "", "expected app(term) or tensor(term)", 0),
            (parse_trace, "foo(I)", "expected app(term) or tensor(term)", 0),
            (parse_trace, "app(I); app(I", "expected ')', found end of input", 13),
            (parse_trace, "app(I);  tensor", "expected '(', found end of input", 15),
            (parse_tuple_trace, "", "expected cut(i) or appl(i; ...; term)", 0),
            (parse_tuple_trace, "tensor(I)", "expected cut(i) or appl(i; ...; term)", 0),
            (parse_tuple_trace, "cut(1); cut(0)", "cut position 0 must be positive", 8),
            (parse_tuple_trace, "appl(0; ; I)", "appl position 0 must be positive", 0),
            (parse_tuple_trace, "appl(1; x1, x1; I)", "consumed indices must be strictly increasing", 0),
            (parse_tuple_trace, "appl(1; x0; I)", "consumed indices must be positive", 0),
            (parse_tuple_trace, "appl(1; y1; I)", "bad component name 'y1'", 8),
            (parse_tuple_trace, "appl(1; x1, in; I)", "bad component name 'in'", 12),
            (parse_tuple_trace, "appl(1; x1,", "bad component name ''", 11),
            (parse_tuple_trace, "appl(1; ; I", "expected ')', found end of input", 11),
            (parse_tuple_trace, "cut(x)", "expected 'nat', found 'x'", 4),
        ],
    )
    def test_message_and_offset(self, read, text, message, offset):
        with pytest.raises(ParseError) as e:
            read(text)
        assert str(e.value) == f"{message} (at offset {offset})"
        assert e.value.position == offset


# Pieces of random texts: they may run together into other words, as "x"
# and "1" into "x1" or "(", "+" and ")" into "(+)"; the last four are stray
# characters.
_PIECES = (
    "x", "x1", "_a'", "v12", "let", "in", "omega", "I", "eps", "0", "12",
    "(+)", "\\", "(", ")", ".", "<", ">", ",", ";", "=", " ", "  ", "\t", "\n",
    "'", "+", "#", "é",
)


class TestTokens:
    def test_tokens_match_the_reference(self):
        rng = random.Random(20261019)
        for _ in range(3000):
            text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 10)))
            try:
                want = gen.reference_tokens(text)
            except ParseError as e:
                with pytest.raises(ParseError) as got:
                    Tokens(text)
                assert (str(got.value), got.value.position) == (str(e), e.position), text
                continue
            ts = Tokens(text)
            got = [(k, w, ts.offset(i)) for i, (k, w) in enumerate(zip(ts.kinds, ts.words))]
            assert got == want, text


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

    def test_items_are_written_as_they_are_read(self):
        assert format_items([], str) == "eps"
        assert format_items([1, 20, 3], str) == "1; 20; 3"
        for items in ([], [7], [1, 20, 3]):
            assert parse_items(format_items(items, str), read_nat) == items

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

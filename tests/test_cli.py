import io
import json
import logging
import os
import shlex
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import pytest

from metricwb import bisim, cli
from metricwb.cli import main
from metricwb.errors import Unbounded
from metricwb.parser import parse
from metricwb.terms import pretty
from metricwb.semantics import eval_big

NOISY = "<\\z. (\\x. x) (+) omega, \\z. (\\x. x) (+) omega>"
CLEAN = "<\\z. \\x. x, \\z. \\x. x>"
WITNESS = "cut(1); appl(1; ; \\x. x); appl(2; ; \\x. x)"
CYCLE = "\\x. x (+) omega"
CYCLE_PARTNER = "\\x. \\z. z (+) omega"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=120, log=None):
    """Run `python -m metricwb` in a fresh interpreter on this checkout,
    with METRIC_WB_LOG set to log, or unset."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("METRIC_WB_LOG", None)
    if log is not None:
        env["METRIC_WB_LOG"] = log
    return subprocess.run(
        [sys.executable, "-m", "metricwb", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def payload_of(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCheck:
    def test_affine_term_passes(self, capsys):
        code, out, _ = run(capsys, "check", "\\x. x")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "affine": True,
            "closed": True,
            "diagnostic": None,
            "term": "\\x. x",
        }

    def test_non_affine_term_fails_with_a_diagnostic(self, capsys):
        code, out, _ = run(capsys, "check", "\\x. x x")
        assert code == 1
        payload = json.loads(out)
        assert payload["affine"] is False
        assert "both sides" in payload["diagnostic"]

    def test_context_flag_admits_free_variables(self, capsys):
        payload = payload_of(capsys, "check", "f (\\x. x)", "--ctx", "f")
        assert payload["affine"] is True
        assert payload["closed"] is False

    def test_typed_mode_reports_the_type(self, capsys):
        payload = payload_of(capsys, "check", "\\x. x", "--typed")
        assert payload["type"] == "iota -o iota"
        assert payload["type_error"] is None

    def test_typed_mode_fails_on_untypable_terms(self, capsys):
        code, out, _ = run(capsys, "check", "let <a, b> = \\x. x in a", "--typed")
        assert code == 1
        payload = json.loads(out)
        assert payload["affine"] is True
        assert payload["type"] is None
        assert payload["type_error"]

    @pytest.mark.parametrize(
        "ctx, offset",
        [("x,,y", 2), ("x,", 2), ("x y", 2), ("I", 0), (",x", 0), ("x, x", 3), ("y, x,x", 5)],
    )
    def test_context_entries_must_be_names(self, capsys, ctx, offset):
        # a name given twice is one entry too many, like a doubled comma
        code, out, err = run(capsys, "check", "x", "--ctx", ctx)
        assert code == 1
        assert out == ""
        assert f"(at offset {offset})" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        if ctx.count("x") == 2:
            assert err == f"error: repeated name 'x' (at offset {offset})\n"

    def test_context_reaches_type_inference(self, capsys):
        payload = payload_of(capsys, "check", "x y", "--ctx", " x , y ", "--typed")
        assert payload["affine"] is True
        assert payload["type"] == "iota"
        assert payload["type_error"] is None


class TestEval:
    def test_coin_distribution_bytes(self, capsys):
        code, out, _ = run(capsys, "eval", "(\\x. x) (+) omega")
        assert code == 0
        expected = {
            "support": [{"elem": "\\x. x", "p": "1/2"}],
            "weight": "1/2",
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_output_ignores_earlier_evaluations(self, capsys):
        # The eval memo matches terms up to alpha-equivalence, so a hit
        # would print the binder names of the earlier evaluation.
        eval_big(parse("(\\v3. v3) (+) omega"))
        payload = payload_of(capsys, "eval", "(\\x. x) (+) omega")
        assert payload["support"] == [{"elem": "\\x. x", "p": "1/2"}]

    def test_alpha_equal_branches_are_one_point(self, capsys):
        # I is \x. x, so the two branches merge under the left one's binder
        payload = payload_of(capsys, "eval", "I (+) \\y. y")
        assert payload == {"support": [{"elem": "\\x. x", "p": "1/1"}], "weight": "1/1"}

    def test_divergence_has_empty_support(self, capsys):
        payload = payload_of(capsys, "eval", "omega")
        assert payload == {"support": [], "weight": "0/1"}

    def test_open_term_is_a_user_error(self, capsys):
        code, out, err = run(capsys, "eval", "x")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestTraceProb:
    def test_empty_trace_on_a_value(self, capsys):
        payload = payload_of(capsys, "trace-prob", "\\x. x", "eps")
        assert payload == {"kind": "trace", "prob": "1/1", "trace": "eps"}

    def test_app_trace(self, capsys):
        payload = payload_of(
            capsys, "trace-prob", "(\\x. x) (+) omega", "app(\\y. y)"
        )
        assert payload["kind"] == "trace"
        assert payload["prob"] == "1/2"

    def test_tuple_trace_is_detected_by_its_first_action(self, capsys):
        payload = payload_of(capsys, "trace-prob", NOISY, WITNESS)
        assert payload["kind"] == "tuple"
        assert payload["prob"] == "1/4"
        assert payload["tuple_lengths"] == [2, 2, 2]

    def test_tuple_trace_may_space_its_first_action(self, capsys):
        payload = payload_of(capsys, "trace-prob", NOISY, " cut (1); appl(1; ; I)")
        assert (payload["kind"], payload["prob"]) == ("tuple", "1/2")

    def test_clean_pair_passes_surely(self, capsys):
        payload = payload_of(capsys, "trace-prob", CLEAN, WITNESS)
        assert payload["prob"] == "1/1"

    def test_a_later_class_member_replays_as_written(self, capsys):
        # the tuple search offers \x. x for \y. (\x. x) y, its class, but
        # a word may feed either: it replays as the witness does and
        # prints as given
        word = "cut(1); appl(1; ; \\y. (\\x. x) y); appl(2; ; \\x. x)"
        payload = payload_of(capsys, "trace-prob", NOISY, word)
        assert (payload["prob"], payload["trace"]) == ("1/4", word)
        assert payload == {**payload_of(capsys, "trace-prob", NOISY, WITNESS), "trace": word}

    def test_a_tuple_word_is_replayed_once(self, capsys, monkeypatch):
        import metricwb.tuples as tuples

        calls = []
        real = tuples.step_or_zero
        monkeypatch.setattr(tuples, "step_or_zero", lambda k, a: calls.append(a) or real(k, a))
        code, out, _ = run(capsys, "trace-prob", CLEAN, WITNESS)
        assert code == 0 and len(calls) == 3
        assert out == (
            '{\n  "kind": "tuple",\n  "prob": "1/1",\n'
            '  "trace": "cut(1); appl(1; ; \\\\x. x); appl(2; ; \\\\x. x)",\n'
            '  "tuple_lengths": [\n    2,\n    2,\n    2\n  ]\n}\n'
        )


class TestDistance:
    def test_trace_kind(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "trace", "I", "omega", "--max-len", "0",
        )
        assert payload == {
            "distance": "1/1",
            "kind": "trace",
            "max_len": 0,
            "mode": "lower-bound",
            "universe": ["\\x. x"],
            "witness": "eps",
        }

    def test_trace_kind_report_with_an_empty_universe(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "trace", "I", "(\\x. x) (+) omega",
            "--universe", "", "--max-len", "2",
        )
        assert payload == {
            "distance": "1/2",
            "kind": "trace",
            "max_len": 2,
            "mode": "lower-bound",
            "universe": [],
            "witness": "eps",
        }

    def test_trace_kind_on_the_half_coin(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "trace", "(\\x. x) (+) omega", "\\x. x",
        )
        assert payload["distance"] == "1/2"
        assert payload["witness"] == "eps"

    def test_bisim_kind(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "bisim",
            "\\x. ((\\y. y) (+) omega)",
            "(\\x. \\y. y) (+) (\\x. omega)",
            "--depth", "4",
        )
        assert payload["kind"] == "bisim"
        assert payload["mode"] == "exact-fixpoint"
        assert payload["distance"] == "1/2"
        assert payload["depth"] == 4

    def test_bisim_kind_report(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "bisim",
            "\\x. ((\\y. y) (+) omega)",
            "(\\x. \\y. y) (+) (\\x. omega)",
            "--universe", "\\a. \\b. a, I", "--depth", "2", "--state-cap", "500",
        )
        assert payload == {
            "depth": 2,
            "distance": "1/2",
            "kind": "bisim",
            "mode": "exact-fixpoint",
            "state_cap": 500,
            "universe": ["\\a. \\b. a", "\\x. x"],
        }

    def test_bisim_kind_with_a_universe_that_reuses_binders(self, capsys):
        # Applying \a. \b. a to itself nests a binder inside its own scope;
        # the fragment must evaluate it instead of rejecting it as non-affine.
        payload = payload_of(
            capsys,
            "distance", "--kind", "bisim", "\\x. x", "\\x. x",
            "--universe", "\\a. \\b. a", "--depth", "3",
        )
        assert payload["distance"] == "0/1"

    # Under the one label the two values of the first pair map to each
    # other, d = d/2 + 1/2: Kleene iteration from zero climbs 1 - 2^-k and
    # never stops, but the least fixpoint is 1. The second pair reaches the
    # same kind of cycle at depth 3 and solves it to 3/4, strictly inside
    # (0, 1), so the exact solve is checked away from the ends too.
    @pytest.mark.parametrize(
        "m, n, depth, want",
        [pytest.param(CYCLE, CYCLE_PARTNER, d, "1/1", id=d) for d in ("1", "2", "3")]
        + [pytest.param("I", "\\x. \\z. (\\y. y) (+) z", "3", "3/4", id="3-inside")],
    )
    def test_bisim_kind_solves_a_cycle_exactly(self, capsys, m, n, depth, want):
        payload = payload_of(
            capsys,
            "distance", "--kind", "bisim", m, n,
            "--universe", CYCLE_PARTNER, "--depth", depth,
        )
        assert payload["distance"] == want

    @pytest.mark.parametrize("error", [Unbounded("objective is unbounded"), ValueError("b < 0")])
    def test_a_failed_cycle_solve_is_an_internal_error(self, capsys, monkeypatch, error):
        # the cycle's linear program is bounded and feasible by construction,
        # so a simplex error there is a fault of the solver, not bad input
        def failing(*args):
            raise error

        monkeypatch.setattr(bisim, "solve_lp_exact", failing)
        code, out, err = run(
            capsys,
            "distance", "--kind", "bisim", CYCLE, CYCLE_PARTNER, "--universe", CYCLE_PARTNER,
        )
        assert (code, out) == (2, "")
        assert "AssertionError: cyclic linear system" in err

    def test_bisim_kind_rejects_a_universe_entry_that_is_not_a_value(self, capsys):
        code, out, err = run(
            capsys,
            "distance", "--kind", "bisim", "\\x. \\y. y", "\\x. x",
            "--universe", "omega", "--depth", "3",
        )
        assert code == 1
        assert out == ""
        assert "app action argument is not a value" in err

    def test_tuple_kind(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "tuple", NOISY, CLEAN, "--max-len", "3",
        )
        assert payload["kind"] == "tuple"
        assert payload["mode"] == "lower-bound"
        assert payload["distance"] == "3/4"
        assert payload["witness"] == WITNESS
        assert payload["witness_tuple_lengths"] == [2, 2, 2]

    def test_tuple_kind_report(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "tuple", NOISY, CLEAN,
            "--universe", "\\a. \\b. a, I", "--max-len", "2",
        )
        assert payload == {
            "distance": "1/2",
            "kind": "tuple",
            "max_len": 2,
            "mode": "lower-bound",
            "witness": "cut(1); appl(1; ; \\a. \\b. a)",
            "witness_tuple_lengths": [2, 2],
        }

    def test_tuple_kind_at_length_five(self, capsys):
        # The default templates share the binder y with the components they
        # are applied to; evaluation must not reject the nested reuse.
        payload = payload_of(
            capsys,
            "distance", "--kind", "tuple", NOISY, CLEAN, "--max-len", "5",
        )
        assert payload["distance"] == "3/4"
        assert payload["witness"] == WITNESS

    def test_tuple_kind_honours_the_universe(self, capsys):
        argv = ("distance", "--kind", "tuple", "\\f. f (\\u. u) (\\u. omega)",
                "\\f. \\u. u", "--max-len", "2")
        default = payload_of(capsys, *argv)
        assert default["witness"] == "appl(1; ; \\x. x); appl(1; ; \\x. x)"
        payload = payload_of(capsys, *argv, "--universe", "\\a. \\b. a")
        assert payload["distance"] == "1/1"
        assert payload["witness"] == "appl(1; ; \\y. y); appl(1; ; \\a. \\b. a)"

    def test_tuple_kind_rejects_an_empty_universe(self, capsys):
        # the templates would otherwise fall back to the identity unasked
        code, out, err = run(
            capsys, "distance", "--kind", "tuple", NOISY, CLEAN, "--universe", ""
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --universe ")

    @pytest.mark.parametrize("universe", ["I, <I,I>", "omega", "I (+) I"])
    def test_tuple_kind_names_the_universe_entry_that_is_no_abstraction(self, capsys, universe):
        # the user passed no templates, so the message points at the flag
        code, out, err = run(
            capsys, "distance", "--kind", "tuple", "I", "omega", "--universe", universe
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --universe entry ")
        assert "--kind tuple feeds closed abstractions only" in err

    @pytest.mark.parametrize("entry", ["\\a. b", "<\\a. b, I>"])
    def test_tuple_kind_names_the_universe_entry_that_is_not_closed(self, capsys, entry):
        # an open entry is named as the user wrote it, not as a $j template
        code, out, err = run(
            capsys, "distance", "--kind", "tuple", "I", "omega", "--universe", entry
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: --universe entry {pretty(parse(entry))} is not a closed abstraction;"
            " --kind tuple feeds closed abstractions only\n"
        )

    @pytest.mark.parametrize(
        "entry, name", [("\\x. x x", "x"), ("\\x. let <a, b> = x in a a", "a")]
    )
    @pytest.mark.parametrize("pair", [("I", "I"), ("omega", "omega"), (NOISY, CLEAN)])
    def test_tuple_kind_rejects_a_universe_entry_that_is_not_affine(
        self, capsys, entry, name, pair
    ):
        # also where the search lists no action and never derives templates
        code, out, err = run(capsys, "distance", "--kind", "tuple", *pair, "--universe", entry)
        assert code == 1
        assert out == ""
        assert err == f"error: variable '{name}' is used on both sides of an application\n"

    def test_tuple_kind_names_an_open_entry_before_a_non_affine_one(self, capsys):
        code, out, err = run(
            capsys, "distance", "--kind", "tuple", "I", "I", "--universe", "\\x. x x, \\y. z"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: --universe entry \\y. z is not a closed abstraction;"
            " --kind tuple feeds closed abstractions only\n"
        )

    def test_tuple_templates_are_derived_only_once_actions_are_listed(self, capsys, monkeypatch):
        calls = []
        real = cli.default_templates
        monkeypatch.setattr(cli, "default_templates", lambda u: calls.append(u) or real(u))
        # equal programs cancel at the start, so their search lists nothing
        for pair in (("I", "I"), ("omega", "omega")):
            assert payload_of(capsys, "distance", "--kind", "tuple", *pair)["distance"] == "0/1"
        assert calls == []
        # the worked pair's search lists actions at widths 1 and 2
        payload = payload_of(capsys, "distance", "--kind", "tuple", NOISY, CLEAN, "--max-len", "3")
        assert payload["witness_tuple_lengths"] == [2, 2, 2]
        assert len(calls) == 1

    def test_tuple_templates_keep_the_binder_names_of_each_universe(self, capsys):
        # an alpha-equal universe still prints its own binder names
        argv = ("distance", "--kind", "tuple", "\\x. x", "\\x. omega", "--max-len", "1")
        for name in ("a", "b", "a"):
            payload = payload_of(capsys, *argv, "--universe", f"\\{name}. {name}")
            assert payload["witness"] == f"appl(1; ; \\{name}. {name})"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "tuple", "I", "omega", "--max-len", "-1"),
            ("--kind", "trace", "I", "omega", "--max-len", "-1"),
            ("--kind", "bisim", "\\x. x", "\\x. (x (+) omega)", "--depth", "-1"),
            ("--kind", "bisim", "I", "omega", "--state-cap", "-1"),
        ],
    )
    def test_negative_bounds_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, "distance", *argv)
        assert code == 1
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize(
        "kind, flag",
        [
            ("trace", "--depth"),
            ("trace", "--state-cap"),
            ("tuple", "--depth"),
            ("tuple", "--state-cap"),
            ("bisim", "--max-len"),
        ],
    )
    def test_bounds_of_another_kind_are_rejected(self, capsys, kind, flag):
        code, out, err = run(capsys, "distance", "--kind", kind, "I", "omega", flag, "3")
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} does not apply to --kind {kind}\n"

    def test_each_kind_fills_in_its_own_defaults(self, capsys):
        bisim = payload_of(capsys, "distance", "--kind", "bisim", "I", "omega")
        assert (bisim["depth"], bisim["state_cap"]) == (6, 10000)
        for kind in ("trace", "tuple"):
            payload = payload_of(capsys, "distance", "--kind", kind, "I", "omega")
            assert payload["max_len"] == 4

    def test_an_empty_universe_is_the_empty_list(self, capsys):
        payload = payload_of(
            capsys, "distance", "--kind", "trace", "I", "omega", "--universe", ""
        )
        assert payload["universe"] == []

    def test_universe_flag_takes_a_term_list(self, capsys):
        payload = payload_of(
            capsys,
            "distance", "--kind", "trace", "omega", "omega",
            "--universe", "\\x. x, \\a. \\b. b",
        )
        assert payload["distance"] == "0/1"
        assert payload["universe"] == ["\\x. x", "\\a. \\b. b"]


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: bisim ignores a misfit action")
    def test_bisim_bounds_trace_on_a_pair_against_an_abstraction(self, capsys):
        # the smallest witness of item 2, at the CLI's defaults: app(I)
        # separates the two, but the pair and the abstraction share no
        # label, so bisim puts them at 0
        pair, fn = "<I, I>", "\\x. <\\y. y, \\z. z>"
        trace = payload_of(capsys, "distance", "--kind", "trace", pair, fn)
        assert (trace["distance"], trace["witness"]) == ("1/1", "app(\\x. x)")
        bisim = payload_of(capsys, "distance", "--kind", "bisim", pair, fn)
        assert Fraction(trace["distance"]) <= Fraction(bisim["distance"])


class TestExamples:
    def test_expair_report(self, capsys):
        payload = payload_of(capsys, "examples", "--which", "expair")
        report = payload["expair"]
        assert report["noisy_prob"] == "1/4"
        assert report["clean_prob"] == "1/1"
        assert report["distance_lb"] == "3/4"
        assert report["witness"] == WITNESS

    def test_tower_report(self, capsys):
        payload = payload_of(capsys, "examples", "--which", "mn-nn", "--n", "2")
        rows = payload["mn-nn"]
        assert [r["n"] for r in rows] == [0, 1, 2]
        assert all(r["pr_m_is_one"] for r in rows)
        assert all(r["pr_n_equals_u"] for r in rows)
        assert rows[2]["pr_n"] == "3/8"
        assert rows[2]["separation"] == "5/8"

    def test_all_includes_both_families(self, capsys):
        payload = payload_of(capsys, "examples", "--n", "1")
        assert set(payload) == {"expair", "mn-nn"}

    def test_tower_report_defaults_to_level_four(self, capsys):
        payload = payload_of(capsys, "examples", "--which", "mn-nn")
        assert [r["n"] for r in payload["mn-nn"]] == [0, 1, 2, 3, 4]

    def test_level_is_rejected_for_the_worked_pair(self, capsys):
        code, out, err = run(capsys, "examples", "--which", "expair", "--n", "2")
        assert code == 1
        assert out == ""
        assert err == "error: --n does not apply to --which expair\n"

    def test_negative_level_is_rejected(self, capsys):
        code, out, err = run(capsys, "examples", "--which", "mn-nn", "--n", "-1")
        assert code == 1
        assert out == ""
        assert "nonnegative" in err


def readme_commands() -> list[tuple[list[str], str]]:
    """Every `$ metricwb ...` line of README.md as (argv after metricwb,
    comment), with backslash continuations joined and the trailing
    `# ...` comment split off."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("$ metricwb "):
            continue
        j = i
        while line.endswith("\\"):
            j += 1
            line = line[:-1] + lines[j]
        words = shlex.split(line)[2:]
        cut = words.index("#") if "#" in words else len(words)
        out.append((words[:cut], " ".join(words[cut + 1 :])))
    return out


class TestReadme:
    COMMANDS = readme_commands()

    def test_every_command_is_found(self):
        # an empty parameter list would skip the test below, not fail it
        assert len(self.COMMANDS) >= 11

    @pytest.mark.parametrize(
        "argv, comment", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
    )
    def test_a_command_behaves_as_documented(self, argv, comment):
        done = run_module(*argv)
        if "exits 1" in comment:
            assert done.returncode == 1, done.stdout
        else:
            assert done.returncode == 0, done.stderr
            json.loads(done.stdout)


class TestEntryPoint:
    def test_module_runs_a_command(self):
        done = run_module("examples", "--which", "expair")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["expair"]["distance_lb"] == "3/4"

    @pytest.mark.parametrize("kind", ["trace", "tuple"])
    def test_a_settled_search_answers_at_once_under_a_huge_budget(self, kind):
        # the search ends with its frontier, not by counting up to --max-len
        done = run_module(
            "distance", "--kind", kind, "I", "omega", "--max-len", str(10**12), timeout=30
        )
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert (payload["distance"], payload["witness"]) == ("1/1", "eps")

    def test_warnings_print_by_default_and_metric_wb_log_silences_them(self):
        # in a fresh interpreter: in-process, the CLI leaves pytest's root
        # handlers alone
        done = run_module("eval", "<I, I> I")
        assert done.returncode == 0
        assert done.stderr.startswith(
            "WARNING:metricwb:discarding stuck application of a pair: "
        )
        quiet = run_module("eval", "<I, I> I", log="error")
        assert (quiet.returncode, quiet.stderr, quiet.stdout) == (0, "", done.stdout)

    @pytest.mark.parametrize("log", ["verbose", "warn", ""])
    def test_an_unknown_log_level_is_bad_input(self, log):
        done = run_module("eval", "I", log=log)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: METRIC_WB_LOG is {log!r}, not one of the log levels "
            "debug, info, warning, error, critical\n"
        )

    def test_a_log_level_is_read_in_any_case(self):
        done = run_module("eval", "<I, I> I", log="Error")
        assert (done.returncode, done.stderr) == (0, "")

    def test_each_call_logs_at_its_own_level_to_its_own_stderr(self, monkeypatch):
        # pytest's root handlers are not the CLI's, so it leaves them alone:
        # with none left, the CLI installs its own and resets it each call
        monkeypatch.setattr(logging.root, "handlers", [])
        monkeypatch.setattr(logging.root, "level", logging.root.level)

        def stderr_of(log):
            monkeypatch.setenv("METRIC_WB_LOG", log)
            monkeypatch.setattr(sys, "stderr", io.StringIO())
            assert main(["eval", "<I, I> I"]) == 0
            return sys.stderr.getvalue()

        warning = "WARNING:metricwb:discarding stuck application of a pair: "
        assert stderr_of("error") == ""
        for _ in range(3):
            err = stderr_of("warning")
            assert err.startswith(warning) and err.count("\n") == 1
        assert stderr_of("critical") == ""
        assert len(logging.root.handlers) == 1

    def test_root_handlers_the_cli_did_not_install_are_left_alone(self, monkeypatch):
        theirs = logging.NullHandler()
        monkeypatch.setattr(logging.root, "handlers", [theirs])
        monkeypatch.setattr(logging.root, "level", logging.CRITICAL)
        monkeypatch.setenv("METRIC_WB_LOG", "debug")
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert main(["eval", "<I, I> I"]) == 0
        assert logging.root.handlers == [theirs]
        assert logging.root.level == logging.CRITICAL
        assert sys.stderr.getvalue() == ""

    def test_module_exits_with_the_command_code(self):
        done = run_module("eval", "x")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error:")


class TestRobustness:
    def test_parse_error_is_a_user_error(self, capsys):
        code, out, err = run(capsys, "check", "(omega")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "offset" in err

    def test_unknown_kind_is_a_user_error(self, capsys):
        code, out, _ = run(capsys, "distance", "--kind", "nope", "I", "I")
        assert code == 1
        assert out == ""

    def test_missing_subcommand_is_a_user_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    def test_help_exits_cleanly(self, capsys):
        for argv in (("--help",), ("-h",)):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert all(name in out for name in cli._COMMANDS)
        for name, (_, _, flags) in cli._COMMANDS.items():
            code, out, err = run(capsys, name, "--help")
            assert (code, err) == (0, ""), name
            assert out.startswith(f"usage: metricwb {name}")
            assert all(flag in out for flag in flags), name

    def test_help_names_the_defaults_the_commands_use(self, capsys):
        # each bound's flag names the kinds that honour it and their
        # default, as _KIND_BOUNDS holds them, and examples --n its default
        _, out, _ = run(capsys, "distance", "--help")
        rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
        for kind, bounds in cli._KIND_BOUNDS.items():
            for name, default in bounds.items():
                row = rows["--" + name.replace("_", "-")]
                assert kind in row and f"(default {default})" in row, row
        _, out, _ = run(capsys, "examples", "--help")
        assert f"level, mn-nn and all (default {cli._TOWER})" in out
        _, out, _ = run(capsys, "examples", "--which", "mn-nn")
        assert [row["n"] for row in json.loads(out)["mn-nn"]] == list(range(cli._TOWER + 1))

    @pytest.mark.parametrize(
        "argv, word",
        [
            ((), "command"),
            (("nope", "I"), "'nope'"),
            (("eval", "I", "--typed"), "--typed"),
            (("distance", "--kind", "trace", "I", "omega", "--frob", "1"), "--frob"),
            (("distance", "--kind", "trace", "I", "omega", "--max-len"), "--max-len"),
            (("check", "I", "--typed=yes"), "--typed=yes"),
            (("distance", "--kind", "trace", "I"), "term_b"),
            (("eval", "I", "omega"), "'omega'"),
            (("distance", "I", "omega"), "--kind"),
            (("distance", "--kind", "nope", "I", "omega"), "'nope'"),
            # repeats and abbreviations are refused, not silently resolved
            (("distance", "--kind", "trace", "I", "omega", "--max-len", "2", "--max-len", "3"),
             "--max-len"),
            (("distance", "--kind", "trace", "I", "omega", "--max", "2"), "--max"),
        ],
        ids=[
            "no-command", "unknown-command", "flag-of-another-command", "unknown-flag",
            "missing-value", "switch-with-value", "missing-positional", "extra-positional",
            "missing-kind", "kind-outside-choices", "repeated-flag", "abbreviated-flag",
        ],
    )
    def test_a_misused_command_line_is_one_error_line(self, capsys, argv, word):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert word in err

    def test_a_flag_value_may_follow_an_equals_sign(self, capsys):
        argv = ("distance", "--kind", "trace", "I", "(\\x. x) (+) omega")
        spaced = run(capsys, *argv, "--max-len", "3")
        assert spaced[0] == 0
        assert run(capsys, *argv, "--max-len=3") == spaced

    def test_flags_may_come_before_the_positionals(self, capsys):
        after = run(capsys, "distance", "--kind", "trace", "I", "omega", "--max-len", "2")
        assert after[0] == 0
        assert run(capsys, "distance", "--kind", "trace", "--max-len", "2", "I", "omega") == after

    def test_commands_are_looked_up_when_dispatched(self, capsys, monkeypatch):
        # perfbench/workloads.py wraps the _cmd_* functions this way
        monkeypatch.setattr(cli, "_cmd_eval", lambda args: {"term": args.term})
        assert run(capsys, "eval", "I") == (0, '{\n  "term": "I"\n}\n', "")

    @pytest.mark.parametrize(
        "argv, offset",
        [
            (("trace-prob", "I", "app(I);"), 7),
            (("trace-prob", "I", "app(I);;app(I)"), 7),
            (("trace-prob", "I", "; app(I)"), 0),
            (("trace-prob", "<I, I>", "cut(1);"), 7),
            (("trace-prob", "<I, I>", "cut(1);;cut(1)"), 7),
            (("trace-prob", "<I, I>", "cut(1) cut(1)"), 7),
            (("trace-prob", "<I, I>", "cut(1); appl(2; x1,; I)"), 19),
            (("distance", "--kind", "trace", "I", "omega", "--universe", "I,"), 2),
            (("distance", "--kind", "trace", "I", "omega", "--universe", ",,"), 0),
            (("distance", "--kind", "trace", "I", "omega", "--universe", "I,,I"), 2),
        ],
    )
    def test_stray_separators_are_rejected_with_an_offset(self, capsys, argv, offset):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.endswith(f"(at offset {offset})\n")

    def test_a_malformed_tuple_action_is_reported_at_its_offset(self, capsys):
        code, out, err = run(capsys, "trace-prob", "<I, I>", "cut(1); cut(0)")
        assert (code, out) == (1, "")
        assert err == "error: cut position 0 must be positive (at offset 8)\n"

    def test_output_is_byte_stable(self, capsys):
        argv = ("distance", "--kind", "tuple", NOISY, CLEAN, "--max-len", "3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "\\x. x x"),
            ("trace-prob", "\\x. x", "app(omega)"),
            ("distance", "--kind", "trace", "I", "x y"),
            ("trace-prob", "<\\z. z, \\q. q>", "cut(1); appl(1; x2; \\y. x2 x2)"),
            ("distance", "--kind", "tuple", "I", "I", "--universe", "omega"),
        ],
    )
    def test_bad_inputs_never_crash(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "(" * 250 + "I" + ")" * 250),
            ("eval", " ".join(["I"] * 1500)),
            ("check", "\\x. " * 990 + "x"),
        ],
        ids=["parentheses", "application-chain", "binders"],
    )
    def test_deep_input_names_the_recursion_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Python's recursion limit" in err
        assert "Traceback" not in err

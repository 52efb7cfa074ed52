"""Golden answers of the command line on seeded valid input.

golden_cli.json holds, for seeded pairs of random programs, the exit code
and the stdout digest (first 16 hex digits of its sha256) of the five
commands the benchmark runs on each pair: `check --typed`, `eval`, and
trace, bisim and tuple `distance`. Each witness the trace and tuple
distances print is replayed on both programs with `trace-prob`, so the
surface syntax of both trace kinds is read back too, and `examples
--which all` is recorded once.

The answers were recorded from an earlier tree and must stay byte-identical
under refactoring. A change that means to alter an answer re-records them
with `PYTHONPATH=src python tests/test_golden.py` and says so.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import gen
from metricwb.cli import main
from metricwb.terms import pretty

DATA = Path(__file__).with_name("golden_cli.json")
SEED = 20261018
PAIRS = 200
BISIM_UNIVERSE = "I, \\a. \\b. a"


def answer(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = out.getvalue()
    return [code, hashlib.sha256(text.encode()).hexdigest()[:16]], text


def pair_answers(a: str, b: str) -> list:
    """The five commands on (a, b), then the trace-prob replays of each
    distance witness on a and on b."""
    commands = [
        ["check", "--typed", a],
        ["eval", a],
        ["distance", "--kind", "trace", a, b, "--max-len", "3"],
        ["distance", "--kind", "bisim", a, b, "--universe", BISIM_UNIVERSE, "--depth", "3"],
        ["distance", "--kind", "tuple", a, b, "--max-len", "3"],
    ]
    answers, witnesses = [], []
    for argv in commands:
        got, text = answer(argv)
        answers.append(got)
        if got[0] == 0 and "witness" in text:
            witnesses.append(json.loads(text)["witness"])
    for witness in witnesses:
        for program in (a, b):
            answers.append(answer(["trace-prob", program, witness])[0])
    return answers


def programs() -> list:
    rng = random.Random(SEED)
    return [
        tuple(pretty(gen.random_program(rng, max_size=15, fuel=4)) for _ in range(2))
        for _ in range(PAIRS)
    ]


def record() -> dict:
    return {
        "examples": answer(["examples", "--which", "all"])[0],
        "pairs": [[a, b, pair_answers(a, b)] for a, b in programs()],
    }


def test_examples():
    assert answer(["examples", "--which", "all"])[0] == json.loads(DATA.read_text())["examples"]


def test_pairs():
    wrong = [
        (a, b, got, want)
        for a, b, want in json.loads(DATA.read_text())["pairs"]
        if (got := pair_answers(a, b)) != want
    ]
    assert not wrong, f"{len(wrong)} pairs differ, first: {wrong[0]}"


if __name__ == "__main__":
    data = record()
    lines = ",\n".join(json.dumps(p) for p in data["pairs"])
    DATA.write_text(f'{{"examples": {json.dumps(data["examples"])},\n"pairs": [\n{lines}\n]}}\n')

"""The three benchmark workloads and the reference checks for their answers.

Each workload is a fixed list of queries. A query's ``call`` is the timed
part: one distance query against the library API, or one command through
``cli.main``. Its ``check`` runs after the timed passes and compares the
answer with a source other than the function that produced it: hand
values, closed forms computed here, the small-step evaluator, or a replay
of the witness through a different acceptance function.

Why these workloads:

- bisim_tower: transport lifting and the bisimulation fixpoint do nearly
  all the work; the program fragment is built once per query, so
  evaluation is light.
- search_tower: tuple and trace searches, with no linear programs; the
  eval memo is warm inside each query.
- cli_random: many small, cold queries on seeded random programs through
  the command line, so parsing, type inference and the CLI itself show, and
  linear programs with supports of two or more occur.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from metricwb import bisim, cli, dist, parser, semantics, trace, tuples
from metricwb.terms import encode_theta

BRANCHING = (r"\x. ((\y. y) (+) omega)", r"(\x. \y. y) (+) (\x. omega)")
BISIM_UNIVERSE = r"I, \a. \b. a"
# A few pairs cost twenty to fifty times the median pair (tuple searches
# mostly), so a pass's time depends on the seed: the quartiles of a pass's
# time over seeds lie about 10% apart with 400 pairs and 4% with 2000.
CLI_PAIRS = 2000
CLI_PAIRS_TINY = 5


class QueryFailed(Exception):
    """A query ended in an error instead of an answer; carries its class."""


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # reason the answer is wrong, or None


def tower_gap(n: int) -> Fraction:
    """1 - prod_{i=1..n} (1 - 2^-i), the separation of the n-th tower pair."""
    u = Fraction(1)
    for i in range(1, n + 1):
        u *= 1 - Fraction(1, 2**i)
    return 1 - u


def _expect(value, want) -> "str | None":
    return None if value == want else f"got {value}, expected {want}"


# --- bisim_tower -----------------------------------------------------------


def bisim_tower(tiny: bool) -> list[Query]:
    templates = trace.default_tensor_templates()
    universe = [parser.parse("I")]
    pairs = [
        ("tower n=1 depth=3", tuples.build_mn_nn(1), 3, tower_gap(1)),
        ("expair depth=3", tuples.build_expair(), 3, Fraction(3, 4)),
        ("branching depth=4", tuple(map(parser.parse, BRANCHING)), 4, Fraction(1, 2)),
    ]
    if tiny:
        pairs = pairs[2:]
    return [
        Query(
            label,
            lambda m=m, n=n, depth=depth: bisim.bisim_distance(
                m, n, universe, depth, tensor_templates=templates
            ),
            lambda value, want=want: _expect(value, want),
        )
        for label, (m, n), depth, want in pairs
    ]


# --- search_tower ------------------------------------------------------------


def _check_tuple(m, n, want):
    def check(answer) -> "str | None":
        value, witness = answer
        if value != want:
            return f"got {value}, expected {want}"
        replay = abs(
            tuples.program_tuple_trace_prob(m, witness)
            - tuples.program_tuple_trace_prob(n, witness)
        )
        return _expect(replay, value)

    return check


def _check_trace(m, n, want=None, at_most=None):
    em, en = dist.dirac(encode_theta(m)), dist.dirac(encode_theta(n))

    def check(answer) -> "str | None":
        value, witness = answer
        if want is not None and value != want:
            return f"got {value}, expected {want}"
        # the bisimulation distance bounds every trace gap from above
        if at_most is not None and value > at_most:
            return f"got {value}, above the bound {at_most}"
        word = trace.encode_theta_trace(witness)
        replay = abs(trace.lts_trace_accept(em, word) - trace.lts_trace_accept(en, word))
        return _expect(replay, value)

    return check


def search_tower(tiny: bool) -> list[Query]:
    templates = tuples.default_templates()
    tensor = trace.default_tensor_templates()
    universe = [parser.parse("I")]
    expair = tuples.build_expair()
    queries = []
    for n in range(1, 6):
        m, nn = tuples.build_mn_nn(n)
        queries.append(Query(
            f"tuple tower n={n} max_len={2 * n}",
            lambda m=m, nn=nn, n=n: tuples.tuple_distance_lb(m, nn, templates, 2 * n),
            _check_tuple(m, nn, want=tower_gap(n)),
        ))
    for length in (3, 4, 5):
        queries.append(Query(
            f"tuple expair max_len={length}",
            lambda length=length: tuples.tuple_distance_lb(*expair, templates, length),
            _check_tuple(*expair, want=Fraction(3, 4)),
        ))
    queries.append(Query(
        "trace expair max_len=2",
        lambda: trace.trace_distance_lb(*expair, universe, 2, tensor),
        _check_trace(*expair, want=Fraction(3, 4)),
    ))
    for n in range(1, 4):
        m, nn = tuples.build_mn_nn(n)
        queries.append(Query(
            f"trace tower n={n} max_len=2",
            lambda m=m, nn=nn: trace.trace_distance_lb(m, nn, universe, 2, tensor),
            _check_trace(m, nn, at_most=tower_gap(n)),
        ))
    if tiny:
        keep = ("tuple tower n=1", "tuple tower n=2", "tuple expair max_len=3",
                "tuple expair max_len=5", "trace tower n=1")
        queries = [q for q in queries if q.label.startswith(keep)]
    return queries


# --- cli_random ----------------------------------------------------------------


def _gen(rng: random.Random, avail: frozenset, fuel: int, names) -> tuple:
    """A random affine term as (text, size). Names in avail may each be used
    once: application, pair and let split them, choice shares them."""
    kinds = ["omega"]
    if fuel > 0:
        kinds += ["abs", "abs", "app", "choice", "choice", "pair", "let"]
    if avail:
        kinds += ["var", "var"]
    kind = rng.choice(kinds)
    if kind == "omega":
        return "omega", 0
    if kind == "var":
        return rng.choice(sorted(avail)), 1
    if kind == "abs":
        x = f"v{next(names)}"
        body, s = _gen(rng, avail | {x}, fuel - 1, names)
        return f"(\\{x}. {body})", 1 + s
    if kind == "choice":
        (l, sl), (r, sr) = (_gen(rng, avail, fuel - 1, names) for _ in range(2))
        return f"({l} (+) {r})", 1 + max(sl, sr)
    pool = sorted(avail)
    rng.shuffle(pool)
    cut = rng.randint(0, len(pool))
    left, right = frozenset(pool[:cut]), frozenset(pool[cut:])
    if kind == "app":
        (f, sf), (a, sa) = _gen(rng, left, fuel - 1, names), _gen(rng, right, fuel - 1, names)
        return f"({f} {a})", sf + sa
    if kind == "pair":
        (a, sa), (b, sb) = _gen(rng, left, fuel - 1, names), _gen(rng, right, fuel - 1, names)
        return f"<{a}, {b}>", 1 + sa + sb
    x, y = f"v{next(names)}", f"v{next(names)}"
    m, sm = _gen(rng, left, fuel - 1, names)
    body, sb = _gen(rng, right | {x, y}, fuel - 1, names)
    return f"(let <{x}, {y}> = {m} in {body})", 2 + sm + sb


def random_program(rng: random.Random, max_size: int = 15, fuel: int = 4) -> str:
    """Text of a closed affine program of size at most max_size."""
    while True:
        text, s = _gen(rng, frozenset(), fuel, itertools.count())
        if s <= max_size:
            return text


class _CliErrors:
    """Remembers the class of the last exception a CLI command raised; the
    CLI itself reports only an exit code and a message."""

    def __init__(self):
        self.last = None
        for name in ("_cmd_check", "_cmd_eval", "_cmd_distance"):
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        def command(args):
            try:
                return fn(args)
            except Exception as e:
                self.last = type(e).__name__
                raise

        return command


def _run_cli(errors: _CliErrors, argv: list[str], must_succeed: bool):
    errors.last = None
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code == 2 or (code != 0 and must_succeed):
        raise QueryFailed(errors.last or f"exit{code}")
    return code, out.getvalue()


class _Reference:
    """Value distributions of the generated programs by small-step
    evaluation, computed once per program during checking."""

    def __init__(self):
        self._cache = {}

    def dist(self, text):
        d = self._cache.get(text)
        if d is None:
            d = self._cache[text] = semantics.eval_small(parser.parse(text))
        return d

    def gap(self, a, b) -> Fraction:
        return abs(self.dist(a).weight() - self.dist(b).weight())


def _cli_queries(a: str, b: str, ref: _Reference, errors: _CliErrors) -> list[Query]:
    def check_check(answer):
        code, out = answer
        payload = json.loads(out)
        if not (payload["closed"] and payload["affine"]):
            return f"generated program judged not closed and affine: {payload}"
        return _expect(code == 0, payload["type"] is not None)

    def check_eval(answer):
        got = dist.Dist(
            (parser.parse(e["elem"]), Fraction(e["p"]))
            for e in json.loads(answer[1])["support"]
        )
        return _expect(got, ref.dist(a))

    def check_trace(answer):
        payload = json.loads(answer[1])
        value = Fraction(payload["distance"])
        word = trace.parse_trace(payload["witness"])
        replay = abs(
            trace.lts_trace_accept(dist.dirac(parser.parse(a)), word)
            - trace.lts_trace_accept(dist.dirac(parser.parse(b)), word)
        )
        if value < ref.gap(a, b):
            return f"trace {value} below the weight gap {ref.gap(a, b)}"
        return _expect(replay, value)

    def check_bisim(answer):
        value = Fraction(json.loads(answer[1])["distance"])
        if not ref.gap(a, b) <= value <= 1:
            return f"bisim {value} outside [{ref.gap(a, b)}, 1]"
        return None

    def check_tuple(answer):
        payload = json.loads(answer[1])
        value = Fraction(payload["distance"])
        word = tuples.parse_tuple_trace(payload["witness"])
        replay = abs(
            tuples.program_tuple_trace_prob(parser.parse(a), word)
            - tuples.program_tuple_trace_prob(parser.parse(b), word)
        )
        if value < ref.gap(a, b):
            return f"tuple {value} below the weight gap {ref.gap(a, b)}"
        return _expect(replay, value)

    commands = [
        ("check", ["check", "--typed", a], False, check_check),
        ("eval", ["eval", a], True, check_eval),
        ("trace", ["distance", "--kind", "trace", a, b, "--max-len", "3"], True, check_trace),
        ("bisim", ["distance", "--kind", "bisim", a, b, "--universe", BISIM_UNIVERSE,
                   "--depth", "3"], True, check_bisim),
        ("tuple", ["distance", "--kind", "tuple", a, b, "--max-len", "3"], True, check_tuple),
    ]
    return [
        Query(f"{name} {a} | {b}", lambda argv=argv, must=must: _run_cli(errors, argv, must), check)
        for name, argv, must, check in commands
    ]


def cli_random(tiny: bool, seed: int) -> list[Query]:
    rng = random.Random(seed)
    ref, errors = _Reference(), _CliErrors()
    queries = []
    for _ in range(CLI_PAIRS_TINY if tiny else CLI_PAIRS):
        queries += _cli_queries(random_program(rng), random_program(rng), ref, errors)
    return queries


def build(workload: str, seed: int, tiny: bool = False) -> list[Query]:
    if workload == "bisim_tower":
        return bisim_tower(tiny)
    if workload == "search_tower":
        return search_tower(tiny)
    return cli_random(tiny, seed)

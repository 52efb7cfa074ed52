"""Golden answers of the library distances on seeded valid input.

golden_library.json holds, for seeded pairs of random programs, three
answers the command line never gives, each as the digest (first 16 hex
digits of its sha256) of its text unless said otherwise:

- `bisim_distance` with a subset of `default_tensor_templates()`: the value
  in clear, and the digest of the fragment `build_lmc` gives, state by
  state in order (a program state, which is its value distribution, as
  `prog {…}`, and a value state, which is the value, as `dval …`) with
  each label and the successor indices and weights it leads to;
- `trace_distance_lb` with tensor templates: the value and the witness;
- `tuple_distance_lb` with a custom template set: the value and the
  witness.

A query that raises answers with the class of its error. Every query starts
from an empty eval memo, as a CLI command does, so that printed binder names
do not depend on what ran before.

The answers were recorded from an earlier tree and must stay byte-identical
under refactoring. A change that means to alter an answer re-records them
with `PYTHONPATH=src python tests/test_golden_library.py` and says so.
"""

import hashlib
import json
import random
from pathlib import Path

import gen
from metricwb.bisim import EVAL_LABEL, bisim_distance, build_lmc
from metricwb.dist import frac_str
from metricwb.errors import MetricWbError
from metricwb.parser import parse
from metricwb.semantics import clear_memo
from metricwb.terms import Abs, Term, Var, identity, pretty
from metricwb.trace import (
    app_combinations,
    default_tensor_templates,
    format_trace,
    trace_distance_lb,
)
from metricwb.tuples import format_tuple_trace, tuple_distance_lb

DATA = Path(__file__).with_name("golden_library.json")
SEED = 20261019
PAIRS = 100

I = identity()
K = parse("\\a. \\b. a")
CANDIDATES = (I, K)
TENSOR = default_tensor_templates()
# abstractions over their own argument y, a consumed component $j and I, K
ABS_POOL = tuple(Abs("y", b) for b in app_combinations([Var("y"), Var("$j")], CANDIDATES, 4))


def template_set(values: list, component_args: bool, abs_templates: list):
    """The tuple template set feeding these arguments, in this order."""
    return (*values, *([Var("$j")] if component_args else []), *abs_templates)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def label_text(label) -> str:
    return "eval" if label == EVAL_LABEL else format_trace((label,))


def state_text(s) -> str:
    if isinstance(s, Term):
        return f"dval {pretty(s)}"
    return "prog {" + ", ".join(f"{frac_str(p)} {pretty(v)}" for v, p in s.items()) + "}"


def fragment_text(frag) -> str:
    index = {s: i for i, s in enumerate(frag.states)}
    lines = []
    for s in frag.states:
        lines.append(state_text(s))
        for label in frag.labels[s]:
            succ = " ".join(f"{index[t]}:{frac_str(p)}" for t, p in frag.trans[(s, label)].items())
            lines.append(f"  {label_text(label)} -> {succ}")
    return "\n".join(lines)


def answer(query) -> str:
    clear_memo()
    try:
        return query()
    except MetricWbError as e:
        return type(e).__name__


def queries(rng: random.Random) -> tuple:
    """The programs of one pair and its three queries, drawn in a fixed order."""
    m = gen.random_program(rng, max_size=15, fuel=4)
    n = gen.random_program(rng, max_size=15, fuel=4)

    universe = rng.sample(CANDIDATES, rng.randint(0, 2))
    tensor = rng.sample(TENSOR, rng.randint(0, 6))
    depth = rng.randint(0, 3)

    def bisim() -> str:
        value = bisim_distance(m, n, universe, depth, tensor_templates=tensor)
        frag = build_lmc(m, n, universe, depth, tensor_templates=tensor)
        return f"{frac_str(value)} {digest(fragment_text(frag))}"

    trace_universe = rng.sample(CANDIDATES, rng.randint(0, 2))
    trace_tensor = rng.sample(TENSOR, rng.randint(1, 6))
    trace_len = rng.randint(1, 3)

    def trace() -> str:
        value, witness = trace_distance_lb(m, n, trace_universe, trace_len, trace_tensor)
        return digest(f"{frac_str(value)} {format_trace(witness)}")

    values = rng.sample(CANDIDATES, rng.randint(0, 2))
    values += [gen.random_value(rng, max_size=6, fuel=2, prefix=f"t{i}") for i in range(rng.randint(0, 1))]
    component_args = rng.random() < 0.5
    abs_templates = rng.sample(ABS_POOL, rng.randint(0, 5))
    templates = template_set(values, component_args, abs_templates)
    tuple_len = rng.randint(1, 3)

    def tuple_() -> str:
        value, witness = tuple_distance_lb(m, n, templates, tuple_len)
        return digest(f"{frac_str(value)} {format_tuple_trace(witness)}")

    return pretty(m), pretty(n), (bisim, trace, tuple_)


def record() -> list:
    rng = random.Random(SEED)
    out = []
    for _ in range(PAIRS):
        a, b, qs = queries(rng)
        out.append([a, b, [answer(q) for q in qs]])
    return out


def test_library_answers():
    want = json.loads(DATA.read_text())
    got = record()
    assert [p[:2] for p in got] == [p[:2] for p in want], "the seeded programs changed"
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong, f"{len(wrong)} pairs differ, first: {wrong[0]}"


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(p) for p in record())
    DATA.write_text(f"[\n{lines}\n]\n")

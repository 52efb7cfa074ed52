"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
the names its callers look them up by. A rename in src/ leaves a span
without its function; this fails here at once, not only in the
benchmark's own self-check. The tracer also rebinds names that the program
itself calls, such as a module's `Dist`, so an answer must not change
while it is installed."""

import contextlib
import importlib.util
import io
from pathlib import Path

from metricwb import bisim_distance, build_expair, build_mn_nn, cli, identity
from metricwb.semantics import clear_memo
from metricwb.trace import default_tensor_templates, trace_distance_lb
from metricwb.tuples import tuple_distance_lb

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
I = identity()


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_name_exists():
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def answers() -> list:
    """One bisimulation, trace, tuple and CLI query each, from a fresh memo."""
    m, nn = build_mn_nn(1)
    noisy, clean = build_expair()
    queries = [
        lambda: bisim_distance(m, nn, (I,), 3, tensor_templates=default_tensor_templates()[:8]),
        lambda: trace_distance_lb(noisy, clean, (I,), 3, default_tensor_templates()[:8]),
        lambda: tuple_distance_lb(noisy, clean, max_len=3),
    ]
    out = []
    for query in queries:
        clear_memo()
        out.append(query())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(
            ["distance", "--kind", "bisim", "--depth", "3", "\\x. x (+) omega", "\\x. x"]
        )
    out.append((code, stdout.getvalue()))
    return out


def test_answers_are_the_same_under_the_tracer():
    want = answers()
    tracer = load_tracer()
    tracer.install()
    try:
        got = answers()
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.calls["bisim.build"] == 2

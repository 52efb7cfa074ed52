"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
the names its callers look them up by. A rename in src/ leaves a span
without its function; this fails here at once, not only in the
benchmark's own self-check."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()

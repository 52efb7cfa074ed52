"""Command-line interface.

Output is JSON on stdout, deterministic byte-for-byte for a fixed input:
keys are sorted and every probability is printed as num/den. Diagnostics
and logging go to stderr; set METRIC_WB_LOG=debug|info|warning|error|critical
to adjust verbosity (any other value is bad input). Exit codes: 0 success,
1 bad input (including input nested too deeply for Python's recursion
limit), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import traceback

from .bisim import bisim_distance
from .dist import frac_str
from .errors import MetricWbError
from .parser import parse, parse_terms, read_name
from .semantics import clear_memo, eval_big
from .terms import Abs, affine_violation, identity, pretty
from .trace import format_trace, parse_trace, trace_accept, trace_distance_lb
from .tuples import (
    Appl,
    build_expair,
    build_mn_nn,
    build_sn,
    check_templates,
    default_templates,
    format_tuple_trace,
    parse_tuple_trace,
    program_tuple_trace_prob,
    trace_tuple_lengths,
    tuple_distance_lb,
    u_seq,
)
from .types import fresh_tvar, infer, render_type


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_check(args) -> tuple[dict, int]:
    t = parse(args.term)
    ctx = parse_terms(args.ctx, read_name)
    reason = affine_violation(ctx, t)
    payload = {
        "term": pretty(t),
        "closed": not t.free_vars,
        "affine": reason is None,
        "diagnostic": reason,
    }
    ok = reason is None
    if args.typed:
        try:
            payload["type"] = render_type(infer(t, {x: fresh_tvar() for x in ctx}))
            payload["type_error"] = None
        except MetricWbError as e:
            payload["type"] = None
            payload["type_error"] = str(e)
            ok = False
    return payload, 0 if ok else 1


def _cmd_eval(args) -> dict:
    t = parse(args.term)
    return eval_big(t).to_json(pretty)


def _looks_like_tuple_trace(text: str) -> bool:
    return text.split("(", 1)[0].strip() in ("cut", "appl")


def _cmd_trace_prob(args) -> dict:
    t = parse(args.term)
    if _looks_like_tuple_trace(args.trace):
        s = parse_tuple_trace(args.trace)
        p, lengths = trace_tuple_lengths(t, s)
        return {
            "kind": "tuple",
            "trace": format_tuple_trace(s),
            "prob": frac_str(p),
            "tuple_lengths": lengths,
        }
    s = parse_trace(args.trace)
    return {
        "kind": "trace",
        "trace": format_trace(s),
        "prob": frac_str(trace_accept(t, s)),
    }


# the bounds each distance kind honours, with their defaults
_KIND_BOUNDS = {
    "trace": {"max_len": 4},
    "tuple": {"max_len": 4},
    "bisim": {"depth": 6, "state_cap": 10000},
}


def _cmd_distance(args) -> dict:
    a = parse(args.term_a)
    b = parse(args.term_b)
    universe = parse_terms(args.universe)
    own = _KIND_BOUNDS[args.kind]
    for name in ("max_len", "depth", "state_cap"):
        if getattr(args, name) is None:
            setattr(args, name, own.get(name))
        elif name not in own:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --kind {args.kind}")
    payload = {
        "kind": args.kind,
        "mode": "exact-fixpoint" if args.kind == "bisim" else "lower-bound",
        **{name: getattr(args, name) for name in own},
    }
    if args.kind == "bisim":
        value = bisim_distance(a, b, universe, args.depth, state_cap=args.state_cap)
    elif args.kind == "trace":
        value, witness = trace_distance_lb(a, b, universe, args.max_len)
        payload["witness"] = format_trace(witness)
    else:
        if not universe:  # default_templates would fall back to the identity
            raise ValueError("--universe names no value; --kind tuple needs at least one")
        for v in universe:
            if not isinstance(v, Abs) or v.free_vars:
                raise ValueError(
                    f"--universe entry {pretty(v)} is not a closed abstraction;"
                    " --kind tuple feeds closed abstractions only"
                )
        # the universe values are the first templates; the search derives
        # the rest only when it first lists actions
        check_templates(universe)
        value, witness = tuple_distance_lb(a, b, lambda: default_templates(universe), args.max_len)
        payload["witness"] = format_tuple_trace(witness)
        payload["witness_tuple_lengths"] = trace_tuple_lengths(a, witness)[1]
    if args.kind != "tuple":
        payload["universe"] = [pretty(v) for v in universe]
    payload["distance"] = frac_str(value)
    return payload


def _expair_report() -> dict:
    noisy, clean = build_expair()
    trace = (*build_sn(1), Appl(2, (), identity()))
    p_noisy = program_tuple_trace_prob(noisy, trace)
    p_clean = program_tuple_trace_prob(clean, trace)
    value, witness = tuple_distance_lb(noisy, clean, None, 3)
    return {
        "noisy": pretty(noisy),
        "clean": pretty(clean),
        "trace": format_tuple_trace(trace),
        "noisy_prob": frac_str(p_noisy),
        "clean_prob": frac_str(p_clean),
        "distance_lb": frac_str(value),
        "witness": format_tuple_trace(witness),
    }


def _mn_nn_report(n: int) -> list[dict]:
    rows = []
    for k in range(n + 1):
        m, nn = build_mn_nn(k)
        s = build_sn(k)
        pm = program_tuple_trace_prob(m, s)
        pn = program_tuple_trace_prob(nn, s)
        u = u_seq(k)
        rows.append(
            {
                "n": k,
                "pr_m": frac_str(pm),
                "pr_n": frac_str(pn),
                "u": frac_str(u),
                "separation": frac_str(1 - u),
                "pr_m_is_one": pm == 1,
                "pr_n_equals_u": pn == u,
            }
        )
    return rows


def _cmd_examples(args) -> dict:
    if args.which == "expair" and args.n is not None:
        raise ValueError("--n does not apply to --which expair")
    payload: dict = {}
    if args.which in ("expair", "all"):
        payload["expair"] = _expair_report()
    if args.which in ("mn-nn", "all"):
        payload["mn-nn"] = _mn_nn_report(4 if args.n is None else args.n)
    return payload


def _natural(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process. Commands are looked up by name at dispatch
    # time, so rebinding a _cmd_* function takes effect.
    p = argparse.ArgumentParser(
        prog="metricwb",
        description="Exact distances between affine probabilistic lambda-terms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse a term and check affinity")
    c.add_argument("term")
    c.add_argument("--ctx", default="", help="comma-separated free variables")
    c.add_argument("--typed", action="store_true", help="also infer a simple type")

    e = sub.add_parser("eval", help="value distribution of a closed program")
    e.add_argument("term")

    t = sub.add_parser("trace-prob", help="probability of passing a trace")
    t.add_argument("term")
    t.add_argument("trace", help="eps, app(V); ... or cut(i); appl(i; g; C); ...")

    d = sub.add_parser("distance", help="distance between two programs")
    d.add_argument("--kind", required=True, choices=("trace", "bisim", "tuple"))
    d.add_argument("term_a")
    d.add_argument("term_b")
    d.add_argument("--universe", default="I", help="comma-separated closed values")
    # no defaults here: _cmd_distance rejects the bounds its kind ignores
    d.add_argument("--max-len", type=_natural, dest="max_len", help="trace, tuple (default 4)")
    d.add_argument("--depth", type=_natural, help="bisim (default 6)")
    d.add_argument("--state-cap", type=_natural, dest="state_cap", help="bisim (default 10000)")

    x = sub.add_parser("examples", help="reproduce the worked example families")
    x.add_argument("--which", default="all", choices=("expair", "mn-nn", "all"))
    x.add_argument("--n", type=_natural, help="largest tower level, mn-nn and all (default 4)")

    return p


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _configure_logging() -> None:
    """Log to stderr at the level METRIC_WB_LOG names, in any case, warning
    when it is unset; any other value is bad input, like a bad flag."""
    name = os.environ.get("METRIC_WB_LOG", "warning")
    if name.lower() not in _LOG_LEVELS:
        levels = ", ".join(_LOG_LEVELS)
        raise ValueError(f"METRIC_WB_LOG is {name!r}, not one of the log levels {levels}")
    logging.basicConfig(stream=sys.stderr, level=name.upper())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    clear_memo()  # memo hits carry the binder names of earlier evaluations
    try:
        _configure_logging()
        out = globals()["_cmd_" + args.command.replace("-", "_")](args)
        code = 0
        if isinstance(out, tuple):
            out, code = out
        _emit(out)
        return code
    except (MetricWbError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except RecursionError:
        limit = sys.getrecursionlimit()
        sys.stderr.write(f"error: input nests too deeply for Python's recursion limit ({limit})\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

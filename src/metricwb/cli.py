"""Command-line interface.

The first word names the command; _COMMANDS declares each command's
positionals and flags. After the command, a word that starts with "-" is
a flag, matched by its exact name and written --flag VALUE or
--flag=VALUE; a flag's value is the next word, whatever it starts with,
and a switch takes none. Flags may come before, between or after the
positionals, each at most once. -h or --help anywhere prints help, built
from the same table, to stdout and exits 0. Any misuse of the command
line is one "error: ..." line naming the word at fault, exit code 1.

Output is JSON on stdout, deterministic byte-for-byte for a fixed input:
keys are sorted and every probability is printed as num/den. Diagnostics
and logging go to stderr; set METRIC_WB_LOG=debug|info|warning|error|critical
to adjust verbosity (any other value is bad input). Exit codes: 0 success,
1 bad input (including input nested too deeply for Python's recursion
limit), 2 internal error.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import traceback
from types import SimpleNamespace

from .bisim import bisim_distance
from .dist import frac_str
from .errors import MetricWbError
from .parser import parse, parse_names, parse_terms
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
    ctx = parse_names(args.ctx)
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
_TOWER = 4  # the largest tower level examples reports by default


def _bound_help(name: str) -> str:
    """The kinds that honour the bound name and the default they share."""
    kinds = [kind for kind, own in _KIND_BOUNDS.items() if name in own]
    (default,) = {_KIND_BOUNDS[kind][name] for kind in kinds}
    return f"{', '.join(kinds)} (default {default})"


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
        payload["mn-nn"] = _mn_nn_report(_TOWER if args.n is None else args.n)
    return payload


def _natural(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return n


_REQUIRED = object()  # the default of a flag that must be given

# Every command the command line takes: name -> (help, positionals in
# order, flags), and each flag: name -> (the attribute it sets, its reader,
# its default, its help). A reader is str, which keeps the text, _natural,
# a tuple of choices, or None for a switch, which takes no value and is
# True when given. Commands are dispatched to the module global
# _cmd_<name> at call time, so rebinding one takes effect.
_COMMANDS = {
    "check": (
        "parse a term and check affinity",
        ("term",),
        {
            "--ctx": ("ctx", str, "", "comma-separated free variables"),
            "--typed": ("typed", None, False, "also infer a simple type"),
        },
    ),
    "eval": ("value distribution of a closed program", ("term",), {}),
    "trace-prob": (
        "probability of passing a trace: eps, app(V); ... or cut(i); appl(i; g; C); ...",
        ("term", "trace"),
        {},
    ),
    "distance": (
        "distance between two programs",
        ("term_a", "term_b"),
        {
            "--kind": ("kind", ("trace", "bisim", "tuple"), _REQUIRED, "which distance"),
            "--universe": ("universe", str, "I", "comma-separated closed values"),
            # no defaults here: _cmd_distance rejects the bounds its kind ignores
            "--max-len": ("max_len", _natural, None, _bound_help("max_len")),
            "--depth": ("depth", _natural, None, _bound_help("depth")),
            "--state-cap": ("state_cap", _natural, None, _bound_help("state_cap")),
        },
    ),
    "examples": (
        "reproduce the worked example families",
        (),
        {
            "--which": ("which", ("expair", "mn-nn", "all"), "all", "which families"),
            "--n": ("n", _natural, None, f"largest tower level, mn-nn and all (default {_TOWER})"),
        },
    ),
}
_NAMES = ", ".join(_COMMANDS)


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """The command, positionals and flags of argv, read against _COMMANDS;
    any misuse raises ValueError naming the word at fault."""
    if not argv:
        raise ValueError(f"missing command; expected one of {_NAMES}")
    name = argv[0]
    if name not in _COMMANDS:
        raise ValueError(f"unknown command {name!r}; expected one of {_NAMES}")
    _, expected, flags = _COMMANDS[name]
    values = {}
    positionals = []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        flag, eq, text = word.partition("=")
        if flag not in flags:
            raise ValueError(f"{name}: unknown flag {flag}")
        dest, read, _, _ = flags[flag]
        if dest in values:
            raise ValueError(f"{flag}: given twice")
        if read is None:
            if eq:
                raise ValueError(f"{flag}: a switch takes no value, got {word!r}")
            values[dest] = True
            continue
        if not eq:
            text = next(words, None)
            if text is None:
                raise ValueError(f"{flag}: missing its value")
        if type(read) is tuple:
            if text not in read:
                raise ValueError(f"{flag}: expected one of {', '.join(read)}, got {text!r}")
            values[dest] = text
            continue
        try:
            values[dest] = read(text)
        except ValueError as e:
            raise ValueError(f"{flag}: {e}") from None
    if len(positionals) < len(expected):
        raise ValueError(f"{name}: missing {expected[len(positionals)]}")
    if len(positionals) > len(expected):
        raise ValueError(f"{name}: unexpected word {positionals[len(expected)]!r}")
    for flag, (dest, _, default, _) in flags.items():
        if dest not in values:
            if default is _REQUIRED:
                raise ValueError(f"{name}: missing {flag}")
            values[dest] = default
    return SimpleNamespace(command=name, **dict(zip(expected, positionals)), **values)


def _help(name: str) -> str:
    """Help for the command name, or the list of commands if there is none
    of that name."""
    if name not in _COMMANDS:
        usage = "metricwb COMMAND ...  (flags: metricwb COMMAND --help)"
        about = (
            "Exact distances between affine probabilistic lambda-terms. Flags go anywhere\n"
            "after the command, by exact name, as --flag VALUE or --flag=VALUE, at most once."
        )
        title, rows = "commands", {n: c[0] for n, c in _COMMANDS.items()}
    else:
        about, positionals, flags = _COMMANDS[name]
        usage = " ".join(("metricwb", name, *positionals, "[flags]"))
        title, rows = "flags", {}
        for flag, (_, read, default, text) in flags.items():
            if type(read) is tuple:
                flag += f" {{{','.join(read)}}}"
            elif read is not None:
                flag += " N" if read is _natural else " TEXT"
            if default is _REQUIRED:
                text += " (required)"
            elif default not in (None, False, ""):
                text += f" (default {default})"
            rows[flag] = text
        rows["-h, --help"] = "show this help"
    width = max(map(len, rows))
    body = "".join(f"\n  {left:<{width}}  {text}" for left, text in rows.items())
    return f"usage: {usage}\n\n{about}\n\n{title}:{body}\n"


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")
_HANDLER = "metricwb.cli"  # the name of the root handler the CLI installs


def _configure_logging() -> None:
    """Log to stderr at the level METRIC_WB_LOG names, in any case, warning
    when it is unset; any other value is bad input, like a bad flag. Each
    call applies the level and the current sys.stderr anew, unless the root
    logger has handlers the CLI did not install: logging is then left to
    whoever installed them."""
    name = os.environ.get("METRIC_WB_LOG", "warning")
    if name.lower() not in _LOG_LEVELS:
        levels = ", ".join(_LOG_LEVELS)
        raise ValueError(f"METRIC_WB_LOG is {name!r}, not one of the log levels {levels}")
    if any(h.name != _HANDLER for h in logging.getLogger().handlers):
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.name = _HANDLER
    logging.basicConfig(handlers=[handler], level=name.upper(), force=True)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(argv[0]))
        return 0
    try:
        args = _read_argv(argv)
        clear_memo()  # memo hits carry the binder names of earlier evaluations
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

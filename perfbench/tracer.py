"""Per-layer spans and counts, recorded from outside the program.

A span replaces a function's name in the namespace its callers look it up
in: the importing module for calls between layers (``bisim.eval_big``), the
defining module for a named step inside one (``bisim.apply_F``). Calls are
counted where they enter, and recursion inside a layer is not. Self time
is a span's duration minus the time its child spans cover. Nothing under
src/ is edited: wrappers are installed by setattr and taken out again by
``Tracer.uninstall``.

Two counts are sums over the pass rather than one number per query:
``semantics.memo_entries`` adds up the eval memo's size at the end of each
query, and ``bisim.states``/``bisim.transitions`` add up the fragments
built. Ratios whose base is zero on a workload are reported as 0.
"""

from __future__ import annotations

import time
from collections import Counter

from metricwb import bisim, cli, dist, kantorovich, semantics, terms, trace, tuples

# span name -> the (namespace, attribute) pairs through which callers enter it
SPANS = {
    "kantorovich.lift": [(bisim, "lift_primal")],
    "kantorovich.lp": [(kantorovich, "solve_lp_exact")],
    "bisim.build": [(bisim, "build_lmc")],
    "bisim.functional": [(bisim, "apply_F")],
    "bisim.lift": [(bisim, "_lifted")],
    "tuples.search": [(tuples, "tuple_distance_lb"), (cli, "tuple_distance_lb")],
    "tuples.step": [(tuples, "step_or_zero")],
    "trace.search": [(trace, "trace_distance_lb"), (cli, "trace_distance_lb")],
    "trace.accept": [(trace, "trace_accept")],
    "semantics.eval": [
        (bisim, "eval_big"),
        (tuples, "eval_big"),
        (cli, "eval_big"),
        (trace, "_eval"),
    ],
    "dist.construct": [
        (mod, name)
        for mod in (semantics, trace, bisim, tuples)
        for name in ("Dist", "dirac", "mix")
        if hasattr(mod, name)
    ]
    + [(dist.Dist, "map_elems")],
    "dist.bind": [(dist.Dist, "bind")],
    "terms.substitute": [
        (semantics, "substitute"),
        (trace, "substitute"),
        (bisim, "substitute"),
        (tuples, "substitute"),
    ],
    "terms.affine_check": [
        (semantics, "affine_violation"),
        (trace, "affine_violation"),
        (cli, "affine_violation"),
    ],
    "parser.parse": [(cli, "parse"), (trace, "parse"), (tuples, "parse")],
    "types.infer": [(cli, "infer")],
    "cli.main": [(cli, "main")],
}

LIFT_SHAPES = ("0x0", "0x1", "1x0", "1x1")


class Tracer:
    """Aggregates spans and counts while installed; see ``per_layer``."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [0.0]  # time covered by the children of each open span
        self._saved: list = []
        self.absent: list[str] = []

    # --- hooks that count work at a span boundary ------------------------

    def _lift_shape(self, args) -> None:
        shape = f"{len(args[1])}x{len(args[2])}"
        self.counts[f"kantorovich.lift.calls_{shape if shape in LIFT_SHAPES else 'big'}"] += 1

    def _lp_vars(self, args) -> None:
        self.counts["kantorovich.lp.vars"] += len(args[0])

    def _memo_probe(self, args) -> None:
        if args[0] in semantics._memo:
            self.counts["semantics.eval.memo_hits"] += 1

    def _fragment_size(self, result) -> None:
        self.counts["bisim.states"] += len(result.states)
        self.counts["bisim.transitions"] += len(result.trans)

    def _actions(self, result) -> None:
        self.counts["tuples.branches"] += len(result)

    # --- installation ----------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                stack[-1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name, fn, after):
        # no span: the time stays with the caller's span
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            after(result)
            return result

        return wrapper

    def _count_items(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, make) -> bool:
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def install(self) -> None:
        hooks = {
            "kantorovich.lift": (self._lift_shape, None),
            "kantorovich.lp": (self._lp_vars, None),
            "semantics.eval": (self._memo_probe, None),
            "bisim.build": (None, self._fragment_size),
        }
        for name, entries in SPANS.items():
            before, after = hooks.get(name, (None, None))
            found = [
                self._patch(owner, attr, lambda fn: self._span(name, fn, before, after))
                for owner, attr in entries
            ]
            if not any(found):
                self.absent.append(name)
        if not self._patch(
            tuples,
            "enumerate_actions",
            lambda fn: self._count("tuples.expanded", fn, self._actions),
        ):
            self.absent += ["tuples.expanded", "tuples.branches"]
        if not self._patch(
            trace, "enumerate_traces", lambda fn: self._count_items("trace.traces", fn)
        ):
            self.absent.append("trace.traces")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- report ------------------------------------------------------------

    def per_layer(self, memo_entries: int, stuck_warnings: int) -> dict:
        """Metric name -> (value, unit). Names whose wrapped function no
        longer exists are left out rather than reported as zero."""
        c, s, n = self.calls, self.self_s, self.counts
        out = {}

        def put(name, value, unit, needs):
            if needs not in self.absent:
                out[name] = (value, unit)

        def ratio(num, den):
            return num / den if den else 0.0

        put("kantorovich.lift.calls", c["kantorovich.lift"], "count", "kantorovich.lift")
        for shape in (*LIFT_SHAPES, "big"):
            put(f"kantorovich.lift.calls_{shape}", n[f"kantorovich.lift.calls_{shape}"], "count", "kantorovich.lift")
        put("kantorovich.lift.self_s", s["kantorovich.lift"], "s", "kantorovich.lift")
        put("kantorovich.lp.calls", c["kantorovich.lp"], "count", "kantorovich.lp")
        put("kantorovich.lp.self_s", s["kantorovich.lp"], "s", "kantorovich.lp")
        put("kantorovich.lp.vars", n["kantorovich.lp.vars"], "count", "kantorovich.lp")

        put("bisim.build.self_s", s["bisim.build"], "s", "bisim.build")
        put("bisim.states", n["bisim.states"], "count", "bisim.build")
        put("bisim.transitions", n["bisim.transitions"], "count", "bisim.build")
        put("bisim.iterations", c["bisim.functional"], "count", "bisim.functional")
        put("bisim.functional.self_s", s["bisim.functional"], "s", "bisim.functional")
        put("bisim.lift.calls", c["bisim.lift"], "count", "bisim.lift")
        if "kantorovich.lp" not in self.absent:
            put("bisim.lift.lp_ratio", ratio(c["kantorovich.lp"], c["bisim.lift"]), "ratio", "bisim.lift")

        put("tuples.search.self_s", s["tuples.search"], "s", "tuples.search")
        put("tuples.expanded", n["tuples.expanded"], "count", "tuples.expanded")
        put("tuples.branches", n["tuples.branches"], "count", "tuples.branches")
        put("tuples.step.calls", c["tuples.step"], "count", "tuples.step")
        put("tuples.step.self_s", s["tuples.step"], "s", "tuples.step")

        put("trace.search.self_s", s["trace.search"], "s", "trace.search")
        put("trace.traces", n["trace.traces"], "count", "trace.traces")
        put("trace.accept.calls", c["trace.accept"], "count", "trace.accept")
        put("trace.accept.self_s", s["trace.accept"], "s", "trace.accept")

        put("semantics.eval.calls", c["semantics.eval"], "count", "semantics.eval")
        put("semantics.eval.self_s", s["semantics.eval"], "s", "semantics.eval")
        put(
            "semantics.eval.memo_hit_ratio",
            ratio(n["semantics.eval.memo_hits"], c["semantics.eval"]),
            "ratio",
            "semantics.eval",
        )
        out["semantics.memo_entries"] = (memo_entries, "count")
        out["semantics.stuck_warnings"] = (stuck_warnings, "count")

        for name in ("dist.construct", "dist.bind", "terms.substitute", "terms.affine_check",
                     "parser.parse", "types.infer", "cli.main"):
            put(f"{name}.calls", c[name], "count", name)
            put(f"{name}.self_s", s[name], "s", name)
        out["terms.skeletons"] = (len(terms._skel_table), "count")
        return out

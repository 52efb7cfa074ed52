"""Bisimulation metric over the labelled Markov chain of programs.

States alternate between programs (which can only be evaluated) and
distinguished values (which can only be interrogated: applied to a
universe value, or destructured through a tensor context). The metric
functional takes, for each pair of states, the largest lifted distance
over the actions available to both; iterating it from the zero metric
climbs to the least fixpoint, the bisimulation distance.

bisim_distance iterates only on the pairs the root pair's value depends
on: the pair graph reachable from (prog m, prog n) through shared labels,
after the on-the-fly approach of Bacci, Bacci, Larsen and Mardare (TACAS
2013). That set is closed under the functional, so each iterate equals
the all-pairs iterate on it. Liftings between supports of at most one
point have a closed form; larger supports go through the exact LP.
apply_F and bisim_metric keep the all-pairs fixpoint as the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dist import Dist, dirac
from .errors import BudgetExceeded, NonConvergence
from .kantorovich import PseudoMetric, lift_primal
from .semantics import _eval, _require_program
from .terms import Abs, Pair, Term, substitute
from .trace import (
    TENSOR_HOLE_1,
    TENSOR_HOLE_2,
    _check_app_value,
    _check_tensor_body,
    dedupe_values,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

EVAL_LABEL = ("eval",)


@dataclass(frozen=True)
class LmcState:
    kind: str  # "prog" or "dval"
    term: Term

    def __repr__(self):
        return f"{self.kind}({self.term})"


def prog(t: Term) -> LmcState:
    return LmcState("prog", t)


def dval(t: Term) -> LmcState:
    return LmcState("dval", t)


@dataclass
class LmcFragment:
    states: list[LmcState]
    trans: dict[tuple[LmcState, tuple], Dist[LmcState]]
    labels: dict[LmcState, tuple[tuple, ...]]
    universe: tuple[Term, ...]
    max_depth: int

    def successors(self, s: LmcState, label: tuple) -> Dist[LmcState]:
        return self.trans[(s, label)]


def build_lmc(
    m: Term,
    n: Term,
    universe: Sequence[Term],
    max_depth: int,
    state_cap: int = 10000,
    tensor_templates: Sequence[Term] = (),
) -> LmcFragment:
    """Fragment reachable from programs m and n.

    Every program state is closed under evaluation; value states are
    interrogated only up to max_depth rounds of interaction, so the
    frontier values carry no outgoing labels. The inputs are checked once
    here; states are evaluated without re-checking affinity, because a
    universe value substituted into a term that already holds its binders
    reuses a binder name harmlessly.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    universe = dedupe_values(universe)
    for v in universe:
        _check_app_value(v)
    for body in tensor_templates:
        _check_tensor_body(body)
    _require_program(m)
    _require_program(n)

    states: list[LmcState] = []
    depth: dict[LmcState, int] = {}
    trans: dict[tuple[LmcState, tuple], Dist[LmcState]] = {}
    labels: dict[LmcState, tuple[tuple, ...]] = {}
    queue: deque[LmcState] = deque()

    def discover(s: LmcState, d: int) -> None:
        # Re-enqueue on a shallower rediscovery: depth gates how far value
        # states are interrogated, so it must be the minimum over all paths.
        if s not in depth:
            if len(states) >= state_cap:
                raise BudgetExceeded(f"state cap {state_cap} exceeded")
            depth[s] = d
            states.append(s)
            queue.append(s)
        elif d < depth[s]:
            depth[s] = d
            queue.append(s)

    discover(prog(m), 0)
    discover(prog(n), 0)

    while queue:
        s = queue.popleft()
        d = depth[s]
        out: list[tuple] = []
        if s.kind == "prog":
            succ = _eval(s.term).map_elems(dval)
            for t in succ.support():
                discover(t, d)
            trans[(s, EVAL_LABEL)] = succ
            out.append(EVAL_LABEL)
        elif d < max_depth:
            if isinstance(s.term, Abs):
                for v in universe:
                    label = ("app", v)
                    succ = dirac(prog(substitute(s.term.body, s.term.var, v)))
                    for t in succ.support():
                        discover(t, d + 1)
                    trans[(s, label)] = succ
                    out.append(label)
            elif isinstance(s.term, Pair) and tensor_templates:
                d1 = _eval(s.term.first)
                d2 = _eval(s.term.second)
                for body in tensor_templates:
                    label = ("tensor", body)
                    parts = []
                    for v, p in d1.items():
                        for w, q in d2.items():
                            inst = substitute(
                                substitute(body, TENSOR_HOLE_1, v),
                                TENSOR_HOLE_2,
                                w,
                            )
                            parts.append((prog(inst), p * q))
                    succ = Dist(parts)
                    for t in succ.support():
                        discover(t, d + 1)
                    trans[(s, label)] = succ
                    out.append(label)
        labels[s] = tuple(out)

    return LmcFragment(states, trans, labels, universe, max_depth)


def _lifted(mu: PseudoMetric, ds: Dist, dt: Dist) -> Fraction:
    """Lifted distance between ds and dt, without an LP when neither
    support has two points. Against an empty side all mass goes unmatched;
    p·δs against q·δt ships min(p, q) at cost mu(s, t), since shipping
    costs at most 1 and leaving both ends unmatched costs 2."""
    if not ds:
        return dt.weight()
    if not dt:
        return ds.weight()
    if len(ds) == 1 and len(dt) == 1:
        ((s, p),), ((t, q),) = ds.items(), dt.items()
        return min(p, q) * mu.get(s, t) + abs(p - q)
    value, _ = lift_primal(mu, ds, dt)
    return value


def apply_F(frag: LmcFragment, mu: PseudoMetric) -> PseudoMetric:
    """One step of the metric functional: for each state pair, the largest
    lifted distance over the labels both states answer to. Pairs with no
    common label (in particular program vs value) are at distance zero."""
    out = PseudoMetric.zero(frag.states)
    for i, s in enumerate(frag.states):
        s_labels = frag.labels[s]
        for t in frag.states[i + 1 :]:
            t_labels = set(frag.labels[t])
            best = _ZERO
            for label in s_labels:
                if label not in t_labels:
                    continue
                v = _lifted(mu, frag.trans[(s, label)], frag.trans[(t, label)])
                if v > best:
                    best = v
                    if best == _ONE:
                        break
            out.set(s, t, best)
    return out


def bisim_metric(
    frag: LmcFragment, iteration_cap: int = 256
) -> PseudoMetric:
    """Least fixpoint of the metric functional, by exact iteration from the
    zero metric. Raises NonConvergence if it has not stabilised in time."""
    mu = PseudoMetric.zero(frag.states)
    for _ in range(iteration_cap):
        nxt = apply_F(frag, mu)
        if nxt == mu:
            return mu
        if not mu.pointwise_le(nxt):
            raise AssertionError("metric iteration must be monotone")
        mu = nxt
    raise NonConvergence(f"no fixpoint after {iteration_cap} iterations")


class _PairMetric:
    """Distances on unordered pairs of a fragment's states, keyed by
    (lower index, higher index) and read like a PseudoMetric."""

    __slots__ = ("index", "values")

    def __init__(self, states: Sequence[LmcState]):
        self.index = {s: i for i, s in enumerate(states)}
        self.values: dict[tuple[int, int], Fraction] = {}

    def key(self, s: LmcState, t: LmcState) -> Optional[tuple[int, int]]:
        """The pair's key; None on the diagonal."""
        i, j = self.index[s], self.index[t]
        if i == j:
            return None
        return (i, j) if i < j else (j, i)

    def get(self, s: LmcState, t: LmcState) -> Fraction:
        key = self.key(s, t)
        return _ZERO if key is None else self.values[key]


def _pair_graph(
    frag: LmcFragment, mu: _PairMetric, root: tuple[int, int]
) -> dict[tuple[int, int], list[tuple[Dist, Dist]]]:
    """Off-diagonal pairs reachable from root through labels both states
    answer to. Each pair maps to the successor distributions of its shared
    labels, in the lower-index state's label order, as apply_F visits them."""
    graph: dict[tuple[int, int], list[tuple[Dist, Dist]]] = {}
    todo: list[Optional[tuple[int, int]]] = [root]
    while todo:
        key = todo.pop()
        if key is None or key in graph:
            continue
        s, t = frag.states[key[0]], frag.states[key[1]]
        t_labels = set(frag.labels[t])
        succ = [
            (frag.trans[(s, label)], frag.trans[(t, label)])
            for label in frag.labels[s]
            if label in t_labels
        ]
        graph[key] = succ
        for ds, dt in succ:
            todo += (mu.key(a, b) for a in ds.support() for b in dt.support())
    return graph


def _best_lift(mu: _PairMetric, succ: list[tuple[Dist, Dist]]) -> Fraction:
    """The functional at one pair: its largest lifting over shared labels."""
    best = _ZERO
    for ds, dt in succ:
        v = _lifted(mu, ds, dt)
        if v > best:
            best = v
            if best == _ONE:
                break
    return best


def bisim_distance(
    m: Term,
    n: Term,
    universe: Sequence[Term],
    max_depth: int,
    state_cap: int = 10000,
    iteration_cap: int = 256,
    tensor_templates: Sequence[Term] = (),
) -> Fraction:
    """Bisimulation distance between programs m and n on the fragment
    reachable within max_depth interaction rounds.

    Iterates the functional from zero on the root's pair graph only, with
    the same cap as bisim_metric and the same value on (prog m, prog n)."""
    frag = build_lmc(
        m,
        n,
        universe,
        max_depth,
        state_cap=state_cap,
        tensor_templates=tensor_templates,
    )
    mu = _PairMetric(frag.states)
    root = mu.key(prog(m), prog(n))
    if root is None:
        return _ZERO
    graph = _pair_graph(frag, mu, root)
    mu.values = dict.fromkeys(graph, _ZERO)
    for _ in range(iteration_cap):
        nxt = {key: _best_lift(mu, succ) for key, succ in graph.items()}
        if nxt == mu.values:
            return nxt[root]
        if any(mu.values[key] > v for key, v in nxt.items()):
            raise AssertionError("metric iteration must be monotone")
        mu.values = nxt
    raise NonConvergence(f"no fixpoint after {iteration_cap} iterations")

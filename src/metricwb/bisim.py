"""Bisimulation metric over the labelled Markov chain of programs.

States alternate between programs (which can only be evaluated) and
values (which can only be interrogated). A program state is its value
distribution, a Dist of values, and a value state is the value Term
itself; a Dist never equals a Term, so the two kinds never merge.
Programs that evaluate alike are one state: such programs are at
distance 0 in every iterate of the functional, and the lifting does not
change when states at distance 0 merge. A program state's eval label
leads to the state itself, read as a distribution of value states. A
value's labels are the trace actions that fit its kind, app of a
universe value or tensor through a template, in alphabet order: one
label tuple per kind, shared by every value of it. Each moves it to the
states of the programs it gives, by the move rules the trace distance
plays too (trace._move, trace.eval_tensor). A value is moved once per
effect class of its kind (trace._kind_table, which the trace search
reads too): tensor templates with one call-by-value normal form move it
alike, so their labels share one successor distribution, a pair's halves
are evaluated once for all of them, and each part their normal forms
share once per pair of values. A fragment keeps each state's successors
in the order of its labels, so two states, whose labels are equal or
disjoint, pair their successors by position. gen.interrogate in the
tests, which moves by every label's own template, is the reference.
The metric functional takes, for each pair of states, the largest lifted
distance over the actions available to both; its least fixpoint is the
bisimulation distance.

bisim_distance solves only the pairs the root pair's value depends on:
the pair graph reachable from (_eval(m), _eval(n)) through shared labels,
after the on-the-fly approach of Bacci, Bacci, Larsen and Mardare (TACAS
2013). It condenses that graph into strongly connected components and
solves them successors first. The functional at one pair is written once,
as _best_lift over the distinct successor pairs _shared finds, and every
solver reads it there. A pair on no cycle is lifted once, from its solved
successors. A cyclic component is solved exactly by strategy iteration
over label choices, from 0. A component whose labels all lift to 0 at 0
stops after one pass: 0 is then a fixpoint, and no fixpoint lies below
it. Otherwise each choice is evaluated by partition refinement, which
finds its pairs at distance 0, and policy iteration over optimal
couplings on the rest, with one exact linear solve per set of couplings
(after Tang and van Breugel, CONCUR 2016). Liftings where one support has
at most one point have a closed form; larger supports go through
kantorovich.lift_primal. Liftings and linear solves are both packing
programs for kantorovich.solve_lp_exact, the package's one exact simplex.
apply_F and bisim_metric keep the all-pairs Kleene iteration from zero as
the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .dist import Dist
from .errors import BudgetExceeded, NonConvergence, Unbounded
# bound here once: tracing kantorovich.solve_lp_exact counts lifting LPs only
from .kantorovich import PseudoMetric, lift_primal, solve_lp_exact
from .semantics import _eval, _require_program, eval_halves
from .terms import Abs, Pair, Term
from .trace import TensorTemplates, _kind_table, _move, alphabet, eval_tensor

_ZERO = Fraction(0)
_ONE = Fraction(1)

EVAL_LABEL = ("eval",)
_EVAL_LABELS = (EVAL_LABEL,)  # a program state's labels


State = Dist[Term] | Term  # a program's value distribution, or a value


@dataclass
class LmcFragment:
    """A fragment of the chain: its states in discovery order, and for each
    state its labels and, in the same order, each label's successor
    distribution. A program state's one label is EVAL_LABEL, to itself; a
    value state's labels are the trace actions of its kind, one tuple
    shared by every value of that kind, or () at the depth cut. Labels in
    one effect class share one Dist object."""

    states: list[State]
    labels: dict[State, tuple]
    succ: dict[State, tuple[Dist[State], ...]]

    @cached_property
    def trans(self) -> dict[tuple[State, object], Dist[State]]:
        """(state, label) -> successors, for every state and label in
        order: the per-label view of labels and succ."""
        return {
            (s, label): d
            for s in self.states
            for label, d in zip(self.labels[s], self.succ[s])
        }


def build_lmc(
    m: Term,
    n: Term,
    universe: Sequence[Term],
    max_depth: int,
    state_cap: int = 10000,
    tensor_templates: Sequence[Term] = (),
    actions: list | None = None,
) -> LmcFragment:
    """Fragment reachable from programs m and n.

    Every program state is closed under evaluation; value states are
    interrogated only up to max_depth rounds of interaction, so the
    frontier values carry no outgoing labels. Programs that evaluate
    alike are one state, and state_cap bounds the states of the fragment
    so merged. A value answers to every action that fits its kind, and is
    moved once per distinct effect, in order of first label: labels whose
    effects are equal, such as tensor templates with one normal form,
    share one successor distribution. Which labels fit, and which effect
    each has, is trace._kind_table: the abstraction kind's once per call,
    the pair kind's once per template set (TensorTemplates.pair_table),
    at the first pair value of the first query that holds one; plain
    templates are wrapped in a set of this call's own. A pair state reads
    its halves from the eval memo (semantics.eval_halves), and each tensor
    effect the values of its template with each pair of theirs in the
    holes (trace.eval_tensor); an abstraction state moves by trace._move.
    The inputs are checked once here (_checked), unless the caller has
    checked them and hands in the alphabet it got as actions, and states
    are evaluated without checking them again: reduction keeps a checked
    program affine, whatever binder names it repeats.
    """
    tensor = TensorTemplates.of(tensor_templates)
    if actions is None:
        actions = _checked(m, n, universe, max_depth, state_cap, tensor)
    apps = _kind_table(Abs, actions)

    depth: dict[State, int] = {}  # each state at its least depth, in discovery order
    labels: dict[State, tuple] = {}
    succ: dict[State, tuple] = {}
    queue: deque[State] = deque()

    def discover(s: State, d: int) -> None:
        # States alternate program (d) -> value (d) -> program (d + 1), so
        # the queue holds them in order of depth and a state is first found
        # at its least depth.
        if s not in depth:
            if len(depth) >= state_cap:
                raise BudgetExceeded(f"state cap {state_cap} exceeded")
            depth[s] = d
            queue.append(s)

    discover(_eval(m), 0)
    discover(_eval(n), 0)

    while queue:
        s = queue.popleft()
        d = depth[s]
        # Test for Term, not Dist: perfbench/tracer.py rebinds this
        # module's Dist to a function.
        if not isinstance(s, Term):
            for t in s.support():
                discover(t, d)
            labels[s], succ[s] = _EVAL_LABELS, (s,)  # its own value distribution
        elif d < max_depth:
            labels[s], effects, _, slot = tensor.pair_table() if type(s) is Pair else apps
            halves = eval_halves(s) if type(s) is Pair and effects else None
            moved = []  # successors, once per effect
            for e in effects:
                if halves is None:
                    out = _move(s, e).map_elems(_eval)
                else:
                    out = halves.map_elems(lambda vw: eval_tensor(e.body, *vw))
                for t in out.support():
                    discover(t, d + 1)
                moved.append(out)
            succ[s] = tuple(moved[i] for i in slot)
        else:
            labels[s] = succ[s] = ()

    return LmcFragment(list(depth), labels, succ)


def _checked(
    m: Term,
    n: Term,
    universe: Sequence[Term],
    max_depth: int,
    state_cap: int,
    tensor_templates: Sequence[Term],
) -> list:
    """The alphabet (trace.alphabet), once the bounds and then both
    programs pass their checks, in that order. The templates' part of
    the check is done once per template set."""
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if state_cap < 0:
        raise ValueError(f"state_cap must be nonnegative, got {state_cap}")
    actions = alphabet(universe, tensor_templates)
    _require_program(m)
    _require_program(n)
    return actions


def _coupling(mu: PseudoMetric, ds: Dist, dt: Dist) -> tuple[Fraction, dict]:
    """An optimal transport plan between ds and dt under mu, with its cost:
    (cost, {(s, t): mass shipped from s to t}), as lift_primal gives it.
    Mass not shipped is unmatched, at unit price on either side.

    Without an LP when one support has at most one point. Against an empty
    side all mass goes unmatched. Against p·δs, shipping x to t costs
    x·mu(s, t) and saves 2x of unmatched price, a net saving of x·(2 -
    mu(s, t)) ≥ x; so the optimum ships min(what is left of p, q_t) to
    each t, cheapest first, and costs p + Σ q_t minus the savings. Where
    ds is the spread side the two swap, so the plan's pairs name the point
    first; its readers go through mu.key and mu.get, which are symmetric."""
    value = ds.weight() + dt.weight()
    if not ds or not dt:
        return value, {}
    if len(ds) > 1:
        if len(dt) > 1:
            return lift_primal(mu, ds, dt)
        ds, dt = dt, ds
    ((s, p),) = ds.items()
    options = [(mu.get(s, t), t, q) for t, q in dt.items()]
    shipped = {}
    for cost, t, q in sorted(options, key=itemgetter(0)):
        x = min(p, q)
        value -= x * (2 - cost)
        shipped[(s, t)] = x
        p -= x
        if not p:
            break
    return value, shipped


def _lifted(mu: PseudoMetric, ds: Dist, dt: Dist) -> Fraction:
    """Lifted distance between ds and dt: the cost of an optimal plan."""
    return _coupling(mu, ds, dt)[0]


Key = tuple[int, int]  # a pair of states, as PseudoMetric.key gives it
Succ = tuple[Dist, Dist]  # the two successor distributions of one label
Graph = dict[Key, tuple[list[Succ], list[Key]]]


def _shared(frag: LmcFragment, s: State, t: State) -> list[Succ]:
    """The successor distributions of the labels both s and t answer to,
    each distinct pair once, in s's label order. Labels are fixed by a
    state's kind and whether it lies at the depth cut, so two states
    share all their labels or none, and their successors pair up by
    position. Labels of one effect class share one Dist object, so the
    pairs are told apart by identity first, and only the distinct ones are
    compared (and hashed) by value."""
    if frag.labels[s] != frag.labels[t]:
        return []
    by_id = {(id(a), id(b)): (a, b) for a, b in zip(frag.succ[s], frag.succ[t])}
    return list(dict.fromkeys(by_id.values()))


def _best_lift(mu: PseudoMetric, succ: list[Succ]) -> tuple[Fraction, Succ | None]:
    """The functional at one pair: its largest lifting over shared labels,
    with the first label's successors attaining it (the first label's when
    every lifting is 0, None when there is no label). Liftings never exceed
    1, so the labels after the first one worth 1 are not lifted."""
    best, arg = _ZERO, (succ[0] if succ else None)
    for ds_dt in succ:
        v = _lifted(mu, *ds_dt)
        if v > best:
            best, arg = v, ds_dt
            if best == _ONE:
                break
    return best, arg


def apply_F(frag: LmcFragment, mu: PseudoMetric) -> PseudoMetric:
    """One step of the metric functional: for each state pair, the largest
    lifted distance over the labels both states answer to. Pairs with no
    common label (in particular program vs value) are at distance zero."""
    out = PseudoMetric(frag.states)
    for i, s in enumerate(frag.states):
        for t in frag.states[i + 1 :]:
            out.set(s, t, _best_lift(mu, _shared(frag, s, t))[0])
    return out


def bisim_metric(
    frag: LmcFragment, iteration_cap: int = 256
) -> PseudoMetric:
    """Least fixpoint of the metric functional, by exact iteration from the
    zero metric. Raises NonConvergence if it has not stabilised in time.

    It iterates every state pair of the fragment, so a cycle worth strictly
    between 0 and 1 anywhere in it can raise NonConvergence, even outside
    the root's pair graph, where bisim_distance gives an exact answer."""
    mu = PseudoMetric(frag.states)
    for _ in range(iteration_cap):
        nxt = apply_F(frag, mu)
        if nxt == mu:
            return mu
        if not mu.pointwise_le(nxt):
            raise AssertionError("metric iteration must be monotone")
        mu = nxt
    raise NonConvergence(f"no fixpoint after {iteration_cap} iterations")


def _pair_graph(frag: LmcFragment, mu: PseudoMetric, root: Key) -> Graph:
    """Off-diagonal pairs reachable from root through labels both states
    answer to. Each pair maps to its shared labels' successor
    distributions (_shared, read from the lower-index state as apply_F
    reads them) and to the keys of the off-diagonal pairs of their
    supports."""
    graph: Graph = {}
    todo = [root]
    while todo:
        key = todo.pop()
        if key in graph:
            continue
        succ = _shared(frag, frag.states[key[0]], frag.states[key[1]])
        nxt = dict.fromkeys(
            mu.key(a, b) for ds, dt in succ for a in ds.support() for b in dt.support()
        )
        nxt.pop(None, None)
        graph[key] = (succ, list(nxt))
        todo += nxt
    return graph


def _components(graph: Graph, root: Key):
    """Strongly connected components of the pair graph, by Tarjan's
    algorithm with an explicit stack. Each is yielded once, after every
    component it reaches: in reverse topological order, the order in which
    they can be solved."""
    index: dict[Key, int] = {root: 0}
    low = {root: 0}
    stack, on_stack = [root], {root}
    work = [(root, iter(graph[root][1]))]
    while work:
        v, succ = work[-1]
        for w in succ:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                on_stack.add(w)
                work.append((w, iter(graph[w][1])))
                break
            if w in on_stack:
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while not comp or comp[-1] != v:
                    comp.append(stack.pop())
                    on_stack.remove(comp[-1])
                yield comp


def _refine(mu: PseudoMetric, keys: list[Key], choice: dict[Key, Succ]) -> list[Key]:
    """The pairs of keys where the least fixpoint of the functional held
    to the chosen labels is positive, the pairs outside keys read from
    mu. Partition refinement: start with every pair in the zero set, read
    the pairs in it as 0 and the others as 1, and drop each pair with a
    positive lifting, until none drops. The set left is the largest whose
    zero reading lifts to 0, which is the least fixpoint's zero set.
    Leaves every pair of keys at 0 in mu."""
    for key in keys:
        mu.values[key] = _ZERO
    changed = True
    while changed:
        changed = False
        for key in keys:
            if mu.values[key]:
                continue
            if _lifted(mu, *choice[key]):
                mu.values[key] = _ONE
                changed = True
    live = [key for key in keys if mu.values[key]]
    for key in live:
        mu.values[key] = _ZERO
    return live


def _least_solution(
    mu: PseudoMetric, keys: list[Key], choice: dict[Key, Succ], plans: dict[Key, dict]
) -> None:
    """Values on keys of fixed labels and plans, into mu: the solution of
    x = c + H·x, where plan k ships h_kj to pair j of keys and c_k is the
    rest of its cost (unmatched mass, and mass shipped to pairs outside
    keys, read from mu), as the optimum of the packing program: maximise
    Σ x_k subject to (I - H)·x ≤ c and x ≥ 0.

    keys lie outside the zero set of their chosen labels (_refine), so
    from every pair of keys the plans reach a positive c_k: pairs that
    reached none would cost 0 when read as 0, and the zero set would not
    be the largest. A row with c_k > 0 ships less than all its mass within
    keys, so the plans form a transient Markov chain on keys, and
    (I - H)⁻¹ = Σ Hⁿ ≥ 0: every feasible x lies below the solution
    (I - H)⁻¹·c. A plan ships at most the lighter side's mass, so c ≥ 0,
    the slack basis is feasible, and so is the solution, the one optimum.
    Were this to fail, the simplex's error would be a fault here, not in
    the input: it is raised as an internal error."""
    inside = set(keys)
    rows = []
    for key in keys:
        ds, dt = choice[key]
        c, row = ds.weight() + dt.weight(), {key: _ONE}
        for (s, t), x in plans[key].items():
            c -= 2 * x
            j = mu.key(s, t)
            if j in inside:
                row[j] = row.get(j, _ZERO) - x
            else:
                c += x * mu.get(s, t)
        rows.append((row, c))
    try:
        _, x = solve_lp_exact(dict.fromkeys(keys, _ONE), rows)
    except (Unbounded, ValueError) as e:
        raise AssertionError(f"cyclic linear system: {e}") from e
    mu.values.update(x)


def _evaluate(mu: PseudoMetric, keys: list[Key], choice: dict[Key, Succ]) -> None:
    """Least fixpoint on keys of the functional with each pair held to the
    lifting of its chosen label, into mu; the pairs outside keys are read
    from mu.

    Past its zero set (_refine), that functional has one fixpoint. Policy
    iteration over couplings finds it: solve fixed plans exactly
    (_least_solution), then give each pair an optimal plan under that
    value wherever it costs less than the value. The value of plans never
    lies below the least fixpoint; each change lowers it strictly at the
    pairs changed, and plans are vertices of their transport polytopes, so
    none comes back; and a value no change improves is a fixpoint that is
    0 on the zero set, hence the least one. lift_primal solves the packing
    polytope, which is the transport polytope with its unmatched-mass
    slacks dropped: the shipped masses fix the slacks, so the two have the
    same vertices. The closed forms' greedy plans are vertices too."""
    live = _refine(mu, keys, choice)
    plans: dict[Key, dict] = {}
    while True:
        moved = False
        for key in live:
            cost, plan = _coupling(mu, *choice[key])
            if key not in plans or cost < mu.values[key]:
                plans[key] = plan
                moved = True
        if not moved:
            return
        _least_solution(mu, live, choice, plans)


def _solve_cycle(mu: PseudoMetric, graph: Graph, comp: list[Key]) -> None:
    """Least fixpoint of the functional on one cyclic component, whose
    successors outside it are solved.

    Strategy iteration over label choices, from the component at 0 with
    each pair held to its first label. Each pass moves a pair to its first
    label of largest lifting under the current value (_best_lift) wherever
    that beats the value, then evaluates the new choice exactly
    (_evaluate). If no pair moves in the first pass, every label lifts to
    0 at 0, so 0 is a fixpoint, hence the least one, and the component
    stops there without a linear solve. Later passes: the value of a
    choice never exceeds the least fixpoint, so a pair whose least
    fixpoint is 0 never moves; each move raises the value strictly at the
    pairs moved, so no choice comes back; and a value no move improves is
    a fixpoint, hence the least one."""
    for key in comp:
        mu.values[key] = _ZERO
    choice = {key: graph[key][0][0] for key in comp}
    while True:
        moved = False
        for key in comp:
            best, succ = _best_lift(mu, graph[key][0])
            if best > mu.values[key]:
                choice[key] = succ
                moved = True
        if not moved:
            return
        _evaluate(mu, comp, choice)


def _solve(mu: PseudoMetric, graph: Graph, root: Key) -> None:
    """Least fixpoint of the functional on the pair graph, into mu.values:
    one strongly connected component at a time, successors first. A pair
    on no cycle is lifted once, from its solved successors."""
    for comp in _components(graph, root):
        succ, nxt = graph[comp[0]]
        if len(comp) > 1 or comp[0] in nxt:
            _solve_cycle(mu, graph, comp)
        else:
            mu.values[comp[0]] = _best_lift(mu, succ)[0]


def bisim_distance(
    m: Term,
    n: Term,
    universe: Sequence[Term],
    max_depth: int,
    state_cap: int = 10000,
    tensor_templates: Sequence[Term] = (),
) -> Fraction:
    """Bisimulation distance between programs m and n on the fragment
    reachable within max_depth interaction rounds: the least fixpoint of
    the functional, read at (_eval(m), _eval(n)), equal to bisim_metric's
    value there wherever that converges. Only the root's pair graph is
    solved, by _solve.

    A root whose value distributions, less the mass they share
    (Dist.cancel), leave one side empty is settled without a fragment: its
    value is |w_m - w_n|, the gap between their weights, whatever the
    metric. The root's one label is eval, which lifts the two
    distributions. Every coupling ships at most min(w_m, w_n) and leaves
    the rest of both sides unmatched, at unit price, so it costs at least
    |w_m - w_n|; where one side is empty after cancelling, it lies below
    the other, and shipping the shared mass along the diagonal, at
    distance 0, leaves exactly |w_m - w_n| unmatched. So a settled root
    builds no fragment, and the state cap cannot bind there.

    The tensor templates are prepared once per set (trace.TensorTemplates),
    and this query hands the fragment the set it checked."""
    tensor = TensorTemplates.of(tensor_templates)
    actions = _checked(m, n, universe, max_depth, state_cap, tensor)
    dm, dn = _eval(m), _eval(n)
    da, db = dm.cancel(dn)
    if not da or not db:
        return abs(dm.weight() - dn.weight())
    frag = build_lmc(m, n, universe, max_depth, state_cap, tensor, actions=actions)
    mu = PseudoMetric(frag.states)
    root = mu.key(dm, dn)
    _solve(mu, _pair_graph(frag, mu, root), root)
    return mu.values[root]

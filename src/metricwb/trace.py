"""Trace observations and the trace distance lower bound.

A trace is a finite word of actions played against a program: `app V`
feeds the value V to an abstraction, `tensor L` destructures a pair
through the two-hole context L (free variables x and y). The probability
of a trace is the chance the program survives every action; distances
compare these probabilities pointwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .dist import EMPTY, Dist, dirac
from .errors import NotAffine, NotClosed, ParseError
from .parser import Tokens, parse_items, read_term
from .semantics import _eval, _lifted_step, _require_program, eval_pair
from .terms import (
    Abs,
    App,
    Pair,
    Term,
    Var,
    affine_violation,
    encode_theta,
    fresh,
    identity,
    is_value,
    pretty,
    rename_free,
    size,
    substitute,
)

_ZERO = Fraction(0)

TENSOR_HOLE_1 = "x"
TENSOR_HOLE_2 = "y"


@dataclass(frozen=True)
class AppAction:
    value: Term


@dataclass(frozen=True)
class TensorAction:
    body: Term  # free variables among {x, y}


Trace = tuple

# the action class that fits each kind of value: the one kind rule of traces
_KIND = {Abs: AppAction, Pair: TensorAction}


def check_trace(s: Sequence) -> None:
    """Raise unless every action of s is well formed: app of a closed affine
    value, or tensor of an affine body over x and y alone."""
    for a in s:
        if isinstance(a, AppAction):
            v = a.value
            if not is_value(v):
                raise ValueError(f"app action argument is not a value: {pretty(v)}")
            if v.free_vars:
                raise NotClosed(f"app action argument is open: {pretty(v)}")
            reason = affine_violation((), v)
        elif isinstance(a, TensorAction):
            extra = a.body.free_vars - {TENSOR_HOLE_1, TENSOR_HOLE_2}
            if extra:
                raise NotClosed(
                    f"tensor body may only mention x and y, found '{min(extra)}'"
                )
            reason = affine_violation((TENSOR_HOLE_1, TENSOR_HOLE_2), a.body)
        else:
            raise TypeError(f"not a trace action: {a!r}")
        if reason is not None:
            raise NotAffine(reason)


def trace_accept(m: Term, s: Sequence) -> Fraction:
    """Probability that program m passes every action of s in order."""
    _require_program(m)
    check_trace(s)
    d = _eval(m)
    for a in s:
        d = d.bind(lambda v: _trace_step(v, a))
    return d.weight()


def interrogate(t: Term, actions: Iterable) -> list:
    """Each of the checked actions whose kind fits the value t, in order,
    with the distribution of programs it moves t to, before evaluation:
    [(a, Dist of programs), ...]. app(V) substitutes V into the body of the
    abstraction t; tensor(L) substitutes each pair of values of the halves
    of the pair t into L, as semantics.eval_pair combines them."""
    kind = _KIND.get(type(t))
    out = []
    for a in actions:
        if type(a) is not kind:
            continue
        if kind is AppAction:
            programs = dirac(substitute(t.body, t.var, a.value))
        else:
            programs = eval_pair(
                t, lambda v, w: substitute(substitute(a.body, TENSOR_HOLE_1, v), TENSOR_HOLE_2, w)
            )
        out.append((a, programs))
    return out


def _trace_step(t: Term, a) -> Dist[Term]:
    """Value distribution after playing the checked action a against the
    value t: the programs interrogate gives, evaluated, and EMPTY where it
    gives none, so a kind that does not fit t loses all mass."""
    fits = interrogate(t, (a,))
    return fits[0][1].bind(_eval) if fits else EMPTY


def reduce_to_values(d: Dist[Term]) -> Dist[Term]:
    """Close a program distribution under internal reduction."""
    while any(not is_value(e) for e in d.support()):
        d = _lifted_step(d)
    return d


def lts_trace_accept(d: Dist[Term], s: Sequence) -> Fraction:
    """Trace probability computed on the transition system over program
    distributions: silently reduce, fire the action on every abstraction,
    repeat. Only app actions are meaningful at this level."""
    for e in d.support():
        _require_program(e)
    check_trace(s)
    for a in s:
        if not isinstance(a, AppAction):
            raise ValueError("the distribution transition system handles app actions only")
        d = reduce_to_values(d)
        v = a.value
        d = d.bind(
            lambda t: dirac(substitute(t.body, t.var, v))
            if isinstance(t, Abs)
            else EMPTY
        )
    return reduce_to_values(d).weight()


def dedupe_values(values: Iterable[Term]) -> tuple[Term, ...]:
    """Drop alpha-duplicates, keeping first occurrences in order."""
    seen = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def enumerate_traces(
    universe: Iterable[Term],
    max_len: int,
    tensor_templates: Sequence[Term] = (),
) -> Iterator[Trace]:
    """All traces over the given actions in length-lexicographic order."""
    actions = [AppAction(v) for v in dedupe_values(universe)]
    actions += [TensorAction(b) for b in tensor_templates]
    for n in range(max_len + 1):
        yield from itertools.product(actions, repeat=n)


def explore(
    start: tuple, actions: Callable, effect: Callable, step: Callable, max_len: int, visit: Callable
) -> None:
    """Breadth-first walk over action words played against a pair of
    distributions. At each length, visit(word, wa, wb) sees the weights of
    every frontier word in order and says whether to extend it.

    A kept node tries the candidates of actions(support) in order, where
    the support lists the states of both sides. An action a moves a state
    s by step(s, e) with e = effect(s, a), so the step depends on s and the
    effect alone; an effect of None means a does not apply to s, so s
    keeps no mass and is never stepped. A candidate is skipped when
    its effects on the support are all None, or all equal those of an
    earlier candidate: it leads nowhere, or where that one led. Below
    max_len each (state, effect) pair is stepped once per walk.

    A successor pair some earlier word reached is skipped: same future,
    and the earlier word comes first in length-lexicographic order, so
    first witnesses survive. Words of length max_len are not built but
    visited with their weights, sum of p * |step(s, a)| on each side, and
    may repeat an earlier pair. That length only reads the memo, since
    nothing extends its successors. The walk ends once no word is left to
    extend, however large max_len is."""
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    memo: dict = {}  # state -> {effect: successor distribution}
    frontier = [((), *start)]
    seen = {start}
    for length in range(max_len):
        last = length == max_len - 1
        kept = [(w, da, db) for w, da, db in frontier if visit(w, da.weight(), db.weight())]
        if not kept:
            return
        frontier = []
        for word, da, db in kept:
            support = list(dict.fromkeys(da.support() + db.support()))
            rows = [memo.get(s, {}) if last else memo.setdefault(s, {}) for s in support]
            tried = {(None,) * len(support)}  # the effects of applying to no state
            for a in actions(support):
                effects = tuple([effect(s, a) for s in support])
                if effects in tried:
                    continue
                tried.add(effects)
                child = {}  # state -> successor, for the states a applies to
                for s, row, e in zip(support, rows, effects):
                    if e is not None:
                        d = row.get(e)
                        if d is None:
                            d = step(s, e)
                            if not last:
                                row[e] = d
                        child[s] = d
                successor = lambda s: child.get(s, EMPTY)
                if last:
                    visit(word + (a,), da.bind_weight(successor), db.bind_weight(successor))
                    continue
                ca, cb = da.bind(successor), db.bind(successor)
                if (ca, cb) not in seen:
                    seen.add((ca, cb))
                    frontier.append((word + (a,), ca, cb))
    for word, da, db in frontier:  # the root alone when max_len is 0
        visit(word, da.weight(), db.weight())


def widest_gap(
    start: tuple, actions: Callable, effect: Callable, step: Callable, max_len: int
) -> tuple:
    """Largest weight gap over the words explore reaches, with the first
    word attaining it. A node whose mass on both sides is at most the best
    gap so far is not extended: probabilities only shrink along a word."""
    best, witness = _ZERO, ()

    def visit(word: tuple, wa: Fraction, wb: Fraction) -> bool:
        nonlocal best, witness
        if abs(wa - wb) > best:
            best, witness = abs(wa - wb), word
        return max(wa, wb) > best

    explore(start, actions, effect, step, max_len, visit)
    return best, witness


def trace_distance_lb(
    m: Term,
    n: Term,
    universe: Iterable[Term],
    max_len: int,
    tensor_templates: Sequence[Term] = (),
) -> tuple[Fraction, Trace]:
    """Largest trace-probability gap over all traces up to max_len, with the
    first trace attaining it. A lower bound on the full trace distance.
    Every node is offered the whole alphabet; an action applies to the
    values whose kind it fits (_trace_effect), and explore skips one that
    fits no state of the node's support."""
    _require_program(m)
    _require_program(n)
    actions = alphabet(universe, tensor_templates)
    return widest_gap((_eval(m), _eval(n)), lambda _: actions, _trace_effect, _trace_step, max_len)


def alphabet(universe: Iterable[Term], tensor_templates: Sequence[Term] = ()) -> list:
    """The actions of the one-action traces over universe and templates, in
    order and checked: what the trace search and the bisimulation fragment
    play against a value."""
    actions = [s[0] for s in enumerate_traces(universe, 1, tensor_templates) if s]
    check_trace(actions)
    return actions


def _trace_effect(t: Term, a):
    """Effect of action a on the value t for the search: a itself where its
    kind fits t, None where _trace_step(t, a) loses all mass."""
    return a if type(a) is _KIND.get(type(t)) else None


def app_combinations(
    linear_atoms: Sequence[Term],
    repeat_atoms: Sequence[Term],
    size_cap: int,
) -> list[Term]:
    """All application trees over the atoms with total size <= size_cap.

    Linear atoms may each occur at most once per tree; repeat atoms are
    unrestricted. Deterministic order, alpha-deduplicated.
    """
    atoms = [(t, frozenset([i]), max(size(t), 1)) for i, t in enumerate(linear_atoms)]
    atoms += [(t, frozenset(), max(size(t), 1)) for t in repeat_atoms]

    def build(cap: int, used: frozenset) -> Iterator[tuple[Term, frozenset, int]]:
        for t, mask, sz in atoms:
            if sz <= cap and not (mask & used):
                yield t, used | mask, sz
        if cap >= 2:  # two operands, each counted as size >= 1 (even omega)
            for lt, lu, ls in build(cap - 1, used):
                for rt, ru, rs in build(cap - ls, lu):
                    yield App(lt, rt), ru, ls + rs

    return list(dedupe_values(t for t, _, _ in build(size_cap, frozenset())))


def default_tensor_templates(universe: Sequence[Term] = ()) -> tuple[Term, ...]:
    """Two-hole contexts for pair observations: let-free applicative
    combinations of x, y, and the universe values, of size at most 6."""
    consts = dedupe_values(universe) if universe else (identity(),)
    return tuple(app_combinations([Var(TENSOR_HOLE_1), Var(TENSOR_HOLE_2)], consts, 6))


def encode_theta_trace(s: Sequence) -> Trace:
    """Translate a pairs-mode trace to act on theta-encoded programs.

    Values inside app actions are encoded too, so pair-containing arguments
    stay meaningful; a tensor context becomes the curried consumer the
    encoded pair is waiting for.
    """
    out = []
    for a in s:
        if isinstance(a, AppAction):
            out.append(AppAction(encode_theta(a.value)))
        elif isinstance(a, TensorAction):
            body = encode_theta(a.body)
            nx, ny = fresh(TENSOR_HOLE_1), fresh(TENSOR_HOLE_2)
            body = rename_free(body, {TENSOR_HOLE_1: nx, TENSOR_HOLE_2: ny})
            out.append(AppAction(Abs(nx, Abs(ny, body))))
        else:
            raise TypeError(f"not a trace action: {a!r}")
    return tuple(out)


def format_trace(s: Sequence) -> str:
    if not s:
        return "eps"
    parts = []
    for a in s:
        if isinstance(a, AppAction):
            parts.append(f"app({pretty(a.value)})")
        else:
            parts.append(f"tensor({pretty(a.body)})")
    return "; ".join(parts)


def parse_trace(text: str) -> Trace:
    """Inverse of format_trace; raises ParseError on malformed input."""
    return tuple(parse_items(text, _read_action))


def _read_action(ts: Tokens):
    _, word, pos = ts.next()
    if word not in ("app", "tensor"):
        raise ParseError("expected app(term) or tensor(term)", pos)
    ts.expect("(")
    t = read_term(ts)
    ts.expect(")")
    a = AppAction(t) if word == "app" else TensorAction(t)
    check_trace((a,))
    return a

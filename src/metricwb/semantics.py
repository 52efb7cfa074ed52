"""Operational semantics: big-step evaluation, one-step reduction, and the
lifted small-step relation on distributions.

Evaluation is call-by-value and probabilistic choice is fair. A stuck
redex (a pair applied as a function, or an abstraction destructured as a
pair) contributes no mass; it is logged, not raised, because such programs
are only ruled out by the optional type discipline.
"""

from __future__ import annotations

import logging
from typing import Iterator

from .dist import EMPTY, Dist, dirac, fair
from .errors import IsValue, NotAffine, NotClosed
from .terms import (
    Abs,
    App,
    Choice,
    LetPair,
    Omega,
    Pair,
    Term,
    Var,
    affine_violation,
    is_value,
    size,
    substitute,
)

logger = logging.getLogger("metricwb")

# a program -> its value distribution, and the observation entries (f, v) ->
# eval_app(f, v), p -> eval_halves(p) for a pair p and (body, v, w) ->
# trace.eval_tensor(body, v, w); keys compare up to alpha
_memo: dict = {}


def clear_memo() -> None:
    """Empty the eval memo: every program's value distribution, and the
    observation entries of eval_app, eval_halves and trace.eval_tensor."""
    _memo.clear()


def _require_program(t: Term) -> None:
    if t.free_vars:
        raise NotClosed(f"free variables remain: {', '.join(sorted(t.free_vars))}")
    reason = affine_violation((), t)
    if reason is not None:
        raise NotAffine(reason)


def eval_big(t: Term) -> Dist[Term]:
    """Value distribution of a closed affine program.

    The total weight is the probability of convergence; mass lost to
    divergence or stuck redexes simply disappears.

    Values come from a process-wide memo keyed up to alpha, which also
    holds the observation entries (eval_app, eval_halves,
    trace.eval_tensor) that evaluation never reads. A memo hit returns
    the values with the binder names of the first alpha-variant the
    process evaluated. The answer is alpha-equal either way; call
    clear_memo() first to get values named after the query itself, as
    cli.main does for each command.
    """
    _require_program(t)
    return _eval(t)


def _eval(t: Term) -> Dist[Term]:
    if is_value(t):
        return dirac(t)
    d = _memo.get(t)
    if d is not None:
        return d
    match t:
        case Omega():
            d = EMPTY
        case Choice(l, r):
            # the one-step distribution, evaluated. Alpha-equal branches
            # merge into one point of weight 1, which binds to _eval(l)
            d = fair(l, r).bind(_eval)
        case App(f, a):
            df, da = _eval(f), _eval(a)

            def call(fv: Term) -> Dist[Term]:
                if isinstance(fv, Abs):
                    return da.bind(lambda av: _eval(substitute(fv.body, fv.var, av)))
                if not da:
                    return EMPTY  # the argument diverges: nothing to drop
                logger.warning(
                    "discarding stuck application of a pair: %s applied to %s"
                    " drops mass %s",
                    fv,
                    a,
                    df.get(fv) * da.weight(),
                )
                return EMPTY

            d = df.bind(call)
        case LetPair(x, y, m, b):
            dm = _eval(m)

            def split(mv: Term) -> Dist[Term]:
                if isinstance(mv, Pair):
                    return _halves(mv).bind(
                        lambda vw: _eval(substitute(substitute(b, x, vw[0]), y, vw[1]))
                    )
                logger.warning(
                    "discarding stuck let on an abstraction: %s destructured as a pair"
                    " drops mass %s",
                    mv,
                    dm.get(mv),
                )
                return EMPTY

            d = dm.bind(split)
        case Var(name):
            raise NotClosed(f"free variable '{name}' reached evaluation")
        case _:
            raise TypeError(f"not a term: {t!r}")
    _memo[t] = d
    return d


# The two observations of a value (app and appl, tensor and cut) read their
# outcomes from the memo. _eval's App and LetPair rules never do: a hit hands
# back the first alpha-variant's values, and a rule must give the value it reaches.


def eval_app(f: Abs, v: Term | None) -> Dist[Term]:
    """The value distribution of the abstraction f applied to the closed
    value v, or of f's body alone where v is None, an argument f's body
    does not use. Memoised under (f, v), up to alpha."""
    d = _memo.get((f, v))
    if d is None:
        d = _memo[f, v] = _eval(f.body if v is None else substitute(f.body, f.var, v))
    return d


def eval_halves(p: Pair) -> Dist[tuple]:
    """The pairs (v, w) of values of the two halves of the pair p, each
    with the product of their weights: what a tensor action and a tuple cut
    take apart. Memoised under p, up to alpha."""
    d = _memo.get(p)
    if d is None:
        d = _memo[p] = _halves(p)
    return d


def _halves(p: Pair) -> Dist[tuple]:
    """eval_halves(p), computed afresh: the one place where a pair is
    taken apart. Halves run left to right, so a first half that diverges
    leaves the second unevaluated."""
    d1 = _eval(p.first)
    if not d1:
        return EMPTY
    d2 = _eval(p.second)
    return d1.bind(lambda v: d2.map_elems(lambda w: (v, w)))


def step_one(t: Term) -> Dist[Term]:
    """One reduction step of a closed program. Values raise IsValue; a term
    with no successor (omega, stuck redexes) steps to the empty distribution.
    """
    _require_program(t)
    if is_value(t):
        raise IsValue(f"cannot step a value: {t}")
    return _step(t)


def _step(t: Term) -> Dist[Term]:
    match t:
        case Omega():
            return EMPTY
        case Choice(l, r):
            return fair(l, r)
        case App(f, a):
            if not is_value(f):
                return _step(f).map_elems(lambda g: App(g, a))
            if not is_value(a):
                return _step(a).map_elems(lambda b: App(f, b))
            if isinstance(f, Abs):
                return dirac(substitute(f.body, f.var, a))
            return EMPTY  # pair in function position
        case LetPair(x, y, m, b):
            if not is_value(m):
                return _step(m).map_elems(lambda m2: LetPair(x, y, m2, b))
            if isinstance(m, Pair):
                v1, v2 = m.first, m.second
                if not is_value(v1):
                    return _step(v1).map_elems(
                        lambda w: LetPair(x, y, Pair(w, v2), b)
                    )
                if not is_value(v2):
                    return _step(v2).map_elems(
                        lambda w: LetPair(x, y, Pair(v1, w), b)
                    )
                return dirac(substitute(substitute(b, x, v1), y, v2))
            return EMPTY  # abstraction scrutinised as a pair
        case Var(name):
            raise NotClosed(f"free variable '{name}' reached reduction")
        case _:
            raise TypeError(f"cannot step: {t!r}")


def support_measure(d: Dist[Term]) -> int:
    """Sum of 3^size over the support; strictly decreases per lifted step."""
    return sum(3 ** size(e) for e in d.support())


def step_count_bound(t: Term) -> int:
    """Upper bound on the number of lifted steps needed to evaluate t."""
    return 3 ** size(t)


def _rounds(d: Dist[Term]) -> Iterator[Dist[Term]]:
    """Yield the distribution after each lifted small step from d, every
    non-value of the support reducing at once and values staying, until
    only values remain: the one reduction loop. Checks as it goes that the
    support measure strictly decreases, which bounds the steps by d's
    measure, step_count_bound(t) for d = dirac(t). Unchecked; callers vouch
    for the programs in d."""
    while any(not is_value(e) for e in d.support()):
        before = support_measure(d)
        d = d.bind(lambda e: dirac(e) if is_value(e) else _step(e))
        after = support_measure(d)
        if after >= before:
            raise AssertionError(f"measure failed to decrease: {before} -> {after}")
        yield d


def _reduce_small(d: Dist[Term]) -> Dist[Term]:
    """The value distribution the checked programs of d reduce to."""
    for d in _rounds(d):
        pass
    return d


def small_step_rounds(t: Term) -> Iterator[Dist[Term]]:
    """Yield the distribution after each lifted step, reducing every
    non-value support element simultaneously, until only values remain."""
    _require_program(t)
    yield from _rounds(dirac(t))


def eval_small(t: Term) -> Dist[Term]:
    """Iterate the lifted small-step relation to the value distribution.

    Agrees with eval_big on every closed affine program.
    """
    _require_program(t)
    return _reduce_small(dirac(t))

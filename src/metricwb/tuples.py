"""Tuple observations: interaction with several values at once.

A tuple state is a row of closed values. A cut splits the pair at one
position into its two evaluated halves; an application consumes some
components as the argument of another and replaces it by the evaluated
result. Tuple traces separate programs that plain traces cannot, because
the observer can correlate what it learned from both halves of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .dist import EMPTY, Dist
from .errors import InvalidAction, NotAffine, NotClosed, ParseError
from .parser import Tokens, format_items, parse_items, read_term
from .semantics import _eval, _require_program, eval_big, eval_pair
from .terms import (
    Abs,
    Choice,
    OMEGA,
    Pair,
    Term,
    Var,
    affine_violation,
    fresh,
    identity,
    pretty,
    rename_free,
    substitute,
)
from .trace import app_combinations, dedupe_values, widest_gap

_ONE = Fraction(1)

TupleState = tuple  # of closed value Terms


@dataclass(frozen=True)
class Cut:
    pos: int  # 1-based component index


@dataclass(frozen=True)
class Appl:
    pos: int  # component applied, 1-based
    consumed: tuple[int, ...]  # components substituted into the argument
    body: Term  # argument context over x<j> for j in consumed


TupleTrace = tuple

_SLOT = "$j"  # marks where a template takes the consumed component


def component_name(j: int) -> str:
    return f"x{j}"


def _shape_error(a) -> Optional[str]:
    """Structural well-formedness, independent of any particular state."""
    if isinstance(a, Cut):
        if a.pos < 1:
            return f"cut position {a.pos} must be positive"
        return None
    if isinstance(a, Appl):
        if a.pos < 1:
            return f"appl position {a.pos} must be positive"
        if list(a.consumed) != sorted(set(a.consumed)):
            return "consumed indices must be strictly increasing"
        if any(j < 1 for j in a.consumed):
            return "consumed indices must be positive"
        if a.pos in a.consumed:
            return "an application cannot consume its own position"
        allowed = {component_name(j) for j in a.consumed}
        extra = a.body.free_vars - allowed
        if extra:
            return f"argument mentions '{min(extra)}' outside the consumed set"
        if isinstance(a.body, (Var, Abs)):
            return None
        return "argument must be a variable or an abstraction"
    return f"not a tuple action: {a!r}"


def check_tuple_trace(s: Sequence) -> None:
    for a in s:
        err = _shape_error(a)
        if err is not None:
            raise InvalidAction(err)
        if isinstance(a, Appl):
            # each consumed component may be used at most once by the argument
            reason = affine_violation(map(component_name, a.consumed), a.body)
            if reason is not None:
                raise NotAffine(reason)


def _effect(k: TupleState, a):
    """Whether action a applies to tuple k, and everything its step needs
    besides k: None where it does not apply, the position for a cut, and
    (pos, consumed, argument) for an application, with the argument None
    when the abstraction ignores its variable. Two actions with equal
    effects on k give equal successors; arguments compare up to
    alpha-equivalence."""
    n = len(k)
    if isinstance(a, Cut):
        return a.pos if a.pos <= n and isinstance(k[a.pos - 1], Pair) else None
    if a.pos > n or any(j > n for j in a.consumed):
        return None
    comp = k[a.pos - 1]
    if not isinstance(comp, Abs):
        return None
    if comp.var not in comp.body.free_vars:
        return a.pos, a.consumed, None
    arg = a.body
    for j in a.consumed:
        arg = substitute(arg, component_name(j), k[j - 1])
    return a.pos, a.consumed, arg


def _successor(k: TupleState, e) -> Dist[TupleState]:
    """Successor distribution of tuple k under an action whose effect on k
    is e, as _effect gives it; e is not None."""
    if isinstance(e, int):
        head, tail = k[: e - 1], k[e:]
        return eval_pair(k[e - 1], lambda v, w: head + (v, w) + tail)
    pos, consumed, arg = e
    comp = k[pos - 1]
    body = comp.body if arg is None else substitute(comp.body, comp.var, arg)
    return _eval(body).map_elems(
        lambda w: tuple(
            w if i == pos else k[i - 1]
            for i in range(1, len(k) + 1)
            if i == pos or i not in consumed
        )
    )


def step_or_zero(k: TupleState, a) -> Dist[TupleState]:
    """Successor distribution of tuple k under action a, built by _effect
    and _successor as the search builds it; the 0 distribution where a does
    not apply to k. A structurally malformed action raises InvalidAction."""
    err = _shape_error(a)
    if err is not None:
        raise InvalidAction(err)
    e = _effect(k, a)
    return EMPTY if e is None else _successor(k, e)


def _replay(m: Term, s: Sequence) -> list[Dist[TupleState]]:
    """Checks program m and then the word s, seeds a singleton tuple with
    each value of m, and plays s; returns the distribution before the first
    action and after each one. Mass on states an action does not apply to
    is lost."""
    _require_program(m)
    check_tuple_trace(s)
    ds = [eval_big(m).map_elems(lambda v: (v,))]
    for a in s:
        ds.append(ds[-1].bind(lambda state: step_or_zero(state, a)))
    return ds


def program_tuple_trace_prob(m: Term, s: Sequence) -> Fraction:
    """Probability that program m survives the whole tuple word s."""
    return _replay(m, s)[-1].weight()


def trace_tuple_lengths(m: Term, s: Sequence) -> tuple[Fraction, list[int]]:
    """From one replay of s from program m: the probability that m survives
    s, and the largest tuple length in the support after each action, 0
    once all mass is gone."""
    ds = _replay(m, s)
    return ds[-1].weight(), [max(map(len, d.support()), default=0) for d in ds[1:]]


# --- distinguished example families -------------------------------------


def build_expair() -> tuple[Term, Term]:
    """The pair of pairs separated by tuple traces but not by plain ones:
    a noisy pair whose halves each converge with probability 1/2, and a
    clean pair that always converges."""
    half = Choice(identity(), OMEGA)
    noisy = Pair(Abs(fresh("z"), half), Abs(fresh("z"), half))
    clean = Pair(Abs(fresh("z"), identity()), Abs(fresh("z"), identity()))
    return noisy, clean


def skewed_choice(a: Term, b: Term, p: Fraction) -> Term:
    """A term behaving as a with probability 1-p and b with probability p,
    built from fair choices; p must be dyadic. Subterm sharing keeps the
    result linear in the number of bits of p."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p.denominator & (p.denominator - 1):
        raise ValueError(f"probability {p} is not dyadic")
    if p == 0:
        return a
    if p == 1:
        return b
    doubled = 2 * p
    if doubled >= 1:
        return Choice(b, skewed_choice(a, b, doubled - 1))
    return Choice(a, skewed_choice(a, b, doubled))


def build_mn_nn(n: int) -> tuple[Term, Term]:
    """The n-th pair of the tower family.

    Both start from a pair of diverging abstractions. At each level the
    first tower nests the previous stage behind a clean abstraction while
    the second leaks probability 1/2^(level) to divergence on the live
    side and to convergence on the dead side. No finite tuple trace
    separates them fully, but the gap 1 - u_n is witnessed by build_sn(n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    dead = Abs(fresh("x"), OMEGA)
    m = Pair(dead, Abs(fresh("x"), OMEGA))
    nn = m
    for level in range(1, n + 1):
        leak = Fraction(1, 2**level)
        m = Pair(Abs(fresh("x"), m), Abs(fresh("x"), OMEGA))
        nn = Pair(
            Abs(fresh("x"), skewed_choice(nn, OMEGA, leak)),
            Abs(fresh("x"), skewed_choice(OMEGA, identity(), leak)),
        )
    return m, nn


def build_sn(n: int) -> TupleTrace:
    """Spine trace for the tower family: n rounds of cut the front pair,
    then apply its live half to the identity. Length 2n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for _ in range(n):
        out.append(Cut(1))
        out.append(Appl(1, (), identity()))
    return tuple(out)


def u_seq(n: int) -> Fraction:
    """Product of (1 - 1/2^i) for i = 1..n; the survival probability of the
    leaky tower along its spine."""
    u = _ONE
    for i in range(1, n + 1):
        u *= 1 - Fraction(1, 2**i)
    return u


# --- action templates and the distance lower bound ----------------------


def default_templates(universe: Sequence[Term] = ()) -> tuple[Term, ...]:
    """What the observer feeds an abstraction component, in order and each
    once: the universe values, the slot '$j' alone (hand over a consumed
    component directly), then small abstractions applying their own
    argument, the slot and universe values, up to body size 5."""
    consts = dedupe_values(universe) if universe else (identity(),)
    bodies = app_combinations([Var("y"), Var(_SLOT)], consts, 5)
    return dedupe_values((*consts, Var(_SLOT), *(Abs("y", b) for b in bodies)))


def _check_templates(templates: Iterable[Term]) -> tuple[Term, ...]:
    """The templates without alpha-duplicates, each checked."""
    templates = dedupe_values(templates)
    for t in templates:
        extra = t.free_vars - {_SLOT}
        if extra:
            raise NotClosed(f"template mentions '{min(extra)}' besides {_SLOT}")
        if not isinstance(t, Abs) and t != Var(_SLOT):
            raise InvalidAction(f"template is neither {_SLOT} nor an abstraction: {pretty(t)}")
        reason = affine_violation((_SLOT,), t)
        if reason is not None:
            raise NotAffine(reason)
    return templates


def _arguments(templates: Iterable[Term], width: int) -> list:
    """(consumed, argument) for each template in order: one with '$j' once
    per component x1 .. x<width>, any other as it is, consuming nothing."""
    out: list = []
    for t in templates:
        if _SLOT in t.free_vars:
            out += (((j,), rename_free(t, {_SLOT: component_name(j)})) for j in range(1, width + 1))
        else:
            out.append(((), t))
    return out


def enumerate_actions(states: Iterable[TupleState], arguments: Sequence[tuple]) -> list:
    """Deterministically ordered candidate actions for the given support: a
    cut wherever some state holds a pair, and an application of each
    (consumed, argument) of arguments, which _arguments lists for the
    support's width, wherever some state holds an abstraction outside the
    consumed set. The search skips those that act like an earlier one.

    Where no state's abstraction uses its variable, an application's effect
    (_effect) does not depend on its argument, so only the first argument of
    each consumed set is listed there; the search would skip the rest."""
    pair_at: set[int] = set()
    abs_at: set[int] = set()
    live: set[int] = set()  # positions where some abstraction uses its variable
    for k in states:
        for pos, comp in enumerate(k, start=1):
            if isinstance(comp, Pair):
                pair_at.add(pos)
            elif isinstance(comp, Abs):
                abs_at.add(pos)
                if comp.var in comp.body.free_vars:
                    live.add(pos)
    actions: list = [Cut(i) for i in sorted(pair_at)]
    firsts: dict = {}  # consumed -> its first argument, filled where needed
    for i in sorted(abs_at):
        if i in live:
            listed = arguments
        else:
            if not firsts:
                for consumed, arg in arguments:
                    firsts.setdefault(consumed, arg)
            listed = firsts.items()
        actions += (Appl(i, consumed, arg) for consumed, arg in listed if i not in consumed)
    return actions


def tuple_distance_lb(
    m: Term,
    n: Term,
    template_set: Union[Sequence[Term], Callable[[], Sequence[Term]], None] = None,
    max_len: int = 4,
) -> tuple[Fraction, TupleTrace]:
    """Largest tuple-trace probability gap between programs m and n over
    traces up to max_len, with the first witness in search order. The
    templates are the arguments fed to abstraction components, '$j' marking
    a consumed component; alpha-duplicates are dropped. template_set is
    the templates themselves, or a function of no arguments that derives
    them (default_templates by default).

    The search is trace.widest_gap: breadth-first, exploring branches with
    identical joint distributions once, dropping branches that keep no
    more mass than the best gap, and stepping each state once per distinct
    action effect (_effect). Templates are checked once per search, so the
    steps skip the affinity check: given templates at entry, and derived
    ones when the search first lists actions, which a search whose start
    pair is settled at once never does. The (consumed, argument) table of
    _arguments is built once per tuple width for the whole search;
    enumerate_actions lists one argument per consumed set where the
    argument cannot matter.
    """
    if template_set is None:
        template_set = default_templates
    templates = None if callable(template_set) else _check_templates(template_set)
    by_width: dict[int, list] = {}

    def actions(support):
        nonlocal templates
        if templates is None:
            templates = _check_templates(template_set())
        width = max(map(len, support), default=0)
        if width not in by_width:
            by_width[width] = _arguments(templates, width)
        return enumerate_actions(support, by_width[width])

    dm = eval_big(m).map_elems(lambda v: (v,))
    dn = eval_big(n).map_elems(lambda v: (v,))
    return widest_gap((dm, dn), actions, _effect, _successor, max_len)


# --- surface syntax for tuple traces ------------------------------------


def format_tuple_trace(s: Sequence) -> str:
    return format_items(s, _show_action)


def parse_tuple_trace(text: str) -> TupleTrace:
    """Inverse of format_tuple_trace; raises ParseError on malformed input."""
    return tuple(parse_items(text, _read_action))


def _show_action(a) -> str:
    if isinstance(a, Cut):
        return f"cut({a.pos})"
    gamma = ", ".join(component_name(j) for j in a.consumed)
    return f"appl({a.pos}; {gamma}; {pretty(a.body)})"


def _read_action(ts: Tokens):
    _, word, pos = ts.next()
    if word not in ("cut", "appl"):
        raise ParseError("expected cut(i) or appl(i; ...; term)", pos)
    ts.expect("(")
    i = int(ts.expect("nat"))
    if word == "cut":
        a = Cut(i)
    else:
        ts.expect(";")
        consumed = () if ts.peek() == ";" else tuple(ts.separated(",", _read_component))
        ts.expect(";")
        a = Appl(i, consumed, read_term(ts))
    ts.expect(")")
    try:
        check_tuple_trace((a,))
    except InvalidAction as e:
        raise ParseError(str(e), pos) from None
    return a


def _read_component(ts: Tokens) -> int:
    _, name, pos = ts.next()
    if name[:1] != "x" or not name[1:].isdigit():
        raise ParseError(f"bad component name {name!r}", pos)
    return int(name[1:])

"""Tuple observations: interaction with several values at once.

A tuple state is a row of closed values. A cut splits the pair at one
position into its two evaluated halves; an application consumes some
components as the argument of another and replaces it by the evaluated
result. Tuple traces separate programs that plain traces cannot, because
the observer can correlate what it learned from both halves of a pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .dist import EMPTY, Dist, dirac
from .errors import InvalidAction, NotAffine, ParseError
from .parser import parse
from .semantics import _eval, _require_program, eval_big
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
    is_value,
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

_SLOT = "$j"  # placeholder in abstraction templates for the consumed component


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


def _check_affine_argument(a) -> None:
    # Each consumed component may be used at most once by the argument.
    if isinstance(a, Appl):
        reason = affine_violation(map(component_name, a.consumed), a.body)
        if reason is not None:
            raise NotAffine(reason)


def check_tuple_trace(s: Sequence) -> None:
    for a in s:
        err = _shape_error(a)
        if err is not None:
            raise InvalidAction(err)
        _check_affine_argument(a)


def tuple_step(k: TupleState, a) -> Dist[TupleState]:
    """Successor distribution of tuple k under action a, both checked
    first; raises InvalidAction when a does not apply to k."""
    _check_tuple_state(k)
    check_tuple_trace((a,))
    return _tuple_step(k, a)


def _tuple_step(k: TupleState, a) -> Dist[TupleState]:
    # k and a are already checked; evaluation skips the affinity re-check.
    n = len(k)
    if isinstance(a, Cut):
        if a.pos > n:
            raise InvalidAction(f"cut position {a.pos} exceeds tuple length {n}")
        comp = k[a.pos - 1]
        if not isinstance(comp, Pair):
            raise InvalidAction(f"component {a.pos} is not a pair")
        return Dist(
            (k[: a.pos - 1] + (v, w) + k[a.pos :], p * q)
            for v, p in _eval(comp.first).items()
            for w, q in _eval(comp.second).items()
        )

    if a.pos > n:
        raise InvalidAction(f"appl position {a.pos} exceeds tuple length {n}")
    if any(j > n for j in a.consumed):
        raise InvalidAction("a consumed index exceeds the tuple length")
    comp = k[a.pos - 1]
    if not isinstance(comp, Abs):
        raise InvalidAction(f"component {a.pos} is not an abstraction")
    gone = set(a.consumed)
    return _eval(substitute(comp.body, comp.var, _argument(k, a))).map_elems(
        lambda w: tuple(
            w if pos == a.pos else k[pos - 1]
            for pos in range(1, n + 1)
            if pos == a.pos or pos not in gone
        )
    )


def _argument(k: TupleState, a: Appl) -> Term:
    arg = a.body
    for j in a.consumed:
        arg = substitute(arg, component_name(j), k[j - 1])
    return arg


def _effect(k: TupleState, a):
    """Everything _tuple_step(k, a) depends on besides k: two actions with
    equal effects on k give equal successor distributions. None when a
    does not apply to k. An abstraction that ignores its variable makes
    the argument irrelevant; arguments compare up to alpha-equivalence."""
    n = len(k)
    if isinstance(a, Cut):
        return a.pos if a.pos <= n and isinstance(k[a.pos - 1], Pair) else None
    if a.pos > n or any(j > n for j in a.consumed):
        return None
    comp = k[a.pos - 1]
    if not isinstance(comp, Abs):
        return None
    if comp.var not in comp.body.free_vars:
        return a.pos, a.consumed
    return a.pos, a.consumed, _argument(k, a)


def _check_tuple_state(k: TupleState) -> None:
    for comp in k:
        _require_program(comp)
        if not is_value(comp):
            raise ValueError(f"tuple component is not a value: {pretty(comp)}")


def step_or_zero(k: TupleState, a) -> Dist[TupleState]:
    """tuple_step, with inapplicability folded into the 0 distribution.
    Structurally malformed actions still raise."""
    err = _shape_error(a)
    if err is not None:
        raise InvalidAction(err)
    try:
        return _tuple_step(k, a)
    except InvalidAction:
        return EMPTY


def tuple_trace_prob(k: TupleState, s: Sequence) -> Fraction:
    """Probability that tuple k survives the whole action word s; mass
    sitting on states an action does not apply to is lost."""
    _check_tuple_state(k)
    check_tuple_trace(s)
    return _play(dirac(k), s).weight()


def program_tuple_trace_prob(m: Term, s: Sequence) -> Fraction:
    """Evaluate the program, seed a singleton tuple with each value, and
    play the trace."""
    _require_program(m)
    check_tuple_trace(s)
    return _play(eval_big(m).map_elems(lambda v: (v,)), s).weight()


def _play(d: Dist[TupleState], s: Sequence) -> Dist[TupleState]:
    for a in s:
        d = d.bind(lambda state: step_or_zero(state, a))
    return d


# --- distinguished example families -------------------------------------


def build_expair() -> tuple[Term, Term]:
    """The pair of pairs separated by tuple traces but not by plain ones:
    a noisy pair whose halves each converge with probability 1/2, and a
    clean pair that always converges."""
    half = Choice(identity(), OMEGA)
    noisy = Pair(Abs(fresh("z"), half), Abs(fresh("z"), half))
    clean = Pair(Abs(fresh("z"), identity()), Abs(fresh("z"), identity()))
    return noisy, clean


def trace_tuple_lengths(m: Term, s: Sequence) -> list[int]:
    """Largest tuple length in the support after each action of s, replayed
    from program m; 0 once all mass is gone."""
    _require_program(m)
    check_tuple_trace(s)
    d = eval_big(m).map_elems(lambda v: (v,))
    out = []
    for a in s:
        d = d.bind(lambda state: step_or_zero(state, a))
        out.append(max((len(k) for k in d.support()), default=0))
    return out


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


@dataclass(frozen=True)
class ActionTemplates:
    """What the observer may feed to an abstraction component.

    values: closed values, consumed from nowhere.
    component_args: allow handing over another component directly.
    abs_templates: abstractions, optionally with a '$j' slot marking where
    a consumed component is spliced in.
    """

    values: tuple[Term, ...] = ()
    component_args: bool = False
    abs_templates: tuple[Term, ...] = ()


def value_templates(values: Iterable[Term]) -> ActionTemplates:
    return ActionTemplates(values=dedupe_values(values))


def default_templates(
    universe: Sequence[Term] = (), body_size_cap: int = 5
) -> ActionTemplates:
    """Values from the universe, single components, and small abstractions
    applying their own argument, a component, and universe values."""
    consts = dedupe_values(universe) if universe else (identity(),)
    y = Var("y")
    bodies = app_combinations([y, Var(_SLOT)], consts, body_size_cap)
    abs_templates = tuple(Abs("y", b) for b in bodies)
    return ActionTemplates(
        values=consts, component_args=True, abs_templates=abs_templates
    )


def _check_templates(templates: ActionTemplates) -> None:
    for v in templates.values:
        _require_program(v)
        if not isinstance(v, Abs):
            raise InvalidAction(f"template value is not an abstraction: {pretty(v)}")
    for t in templates.abs_templates:
        reason = affine_violation((_SLOT,), t)
        if reason is not None:
            raise NotAffine(reason)


def enumerate_actions(
    states: Iterable[TupleState], templates: ActionTemplates
) -> list:
    """Deterministically ordered actions worth trying from the given
    support: a cut or application wherever some state has the right shape.
    An action is left out when an earlier one has the same effect on every
    state, since both lead to the same successor distributions."""
    states = list(states)
    max_len = 0
    pair_at: set[int] = set()
    abs_at: set[int] = set()
    for k in states:
        max_len = max(max_len, len(k))
        for pos, comp in enumerate(k, start=1):
            if isinstance(comp, Pair):
                pair_at.add(pos)
            elif isinstance(comp, Abs):
                abs_at.add(pos)
    actions: list = []
    effects: set = set()

    def add(a) -> None:
        key = tuple(_effect(k, a) for k in states)
        if key not in effects:
            effects.add(key)
            actions.append(a)

    for i in sorted(pair_at):
        add(Cut(i))
    for i in sorted(abs_at):
        for v in templates.values:
            add(Appl(i, (), v))
        if templates.component_args:
            for j in range(1, max_len + 1):
                if j != i:
                    add(Appl(i, (j,), Var(component_name(j))))
        for tmpl in templates.abs_templates:
            if _SLOT in tmpl.free_vars:
                for j in range(1, max_len + 1):
                    if j != i:
                        add(Appl(i, (j,), rename_free(tmpl, {_SLOT: component_name(j)})))
            else:
                add(Appl(i, (), tmpl))
    return actions


def tuple_distance_lb(
    m: Term,
    n: Term,
    template_set: Optional[ActionTemplates] = None,
    max_len: int = 4,
) -> tuple[Fraction, TupleTrace]:
    """Largest tuple-trace probability gap between programs m and n over
    traces up to max_len, with the first witness in search order.

    The search is trace.widest_gap: breadth-first, exploring branches with
    identical joint distributions once, dropping branches that keep no
    more mass than the best gap, and stepping each state once per distinct
    action effect. Templates are checked once here, so the steps skip the
    affinity check.
    """
    if template_set is None:
        template_set = default_templates()
    _check_templates(template_set)
    dm = eval_big(m).map_elems(lambda v: (v,))
    dn = eval_big(n).map_elems(lambda v: (v,))
    return widest_gap(
        (dm, dn),
        lambda support: enumerate_actions(support, template_set),
        step_or_zero,
        max_len,
        _effect,
    )


# --- surface syntax for tuple traces ------------------------------------


def format_tuple_trace(s: Sequence) -> str:
    if not s:
        return "eps"
    parts = []
    for a in s:
        if isinstance(a, Cut):
            parts.append(f"cut({a.pos})")
        else:
            gamma = ", ".join(component_name(j) for j in a.consumed)
            parts.append(f"appl({a.pos}; {gamma}; {pretty(a.body)})")
    return "; ".join(parts)


_CUT_RE = re.compile(r"cut\(\s*(\d+)\s*\)")
_APPL_RE = re.compile(r"appl\(\s*(\d+)\s*;([^;]*);(.*)\)\s*", re.S)
_COMP_RE = re.compile(r"x(\d+)")


def parse_tuple_trace(text: str) -> TupleTrace:
    """Inverse of format_tuple_trace.

    Because appl items contain semicolons, items are recognised greedily:
    each starts with 'cut(' or 'appl(' and runs to the matching close.
    """
    if text.strip() == "eps":
        return ()
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos] in " \t\n;":
            pos += 1
        if pos >= n:
            break
        m = _CUT_RE.match(text, pos)
        if m:
            out.append(Cut(int(m.group(1))))
            pos = m.end()
            continue
        if not text.startswith("appl(", pos):
            raise ParseError("expected cut(i) or appl(i; ...; term)", pos)
        depth = 0
        end = pos
        while end < n:
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        if depth != 0:
            raise ParseError("unbalanced parentheses in appl", pos)
        m = _APPL_RE.fullmatch(text, pos, end + 1)
        if m is None:
            raise ParseError("malformed appl item", pos)
        i = int(m.group(1))
        gamma_text = m.group(2).strip()
        consumed = []
        if gamma_text:
            for part in gamma_text.split(","):
                cm = _COMP_RE.fullmatch(part.strip())
                if cm is None:
                    raise ParseError(f"bad component name {part.strip()!r}", pos)
                consumed.append(int(cm.group(1)))
        body = parse(m.group(3))
        a = Appl(i, tuple(consumed), body)
        err = _shape_error(a)
        if err is not None:
            raise ParseError(err, pos)
        _check_affine_argument(a)
        out.append(a)
        pos = end + 1
    return tuple(out)

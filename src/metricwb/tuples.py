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
from .semantics import _require_program, eval_app, eval_big, eval_halves
from .terms import (
    Abs,
    Choice,
    OMEGA,
    Pair,
    Term,
    Var,
    affine_violation,
    identity,
    pretty,
    rename_free,
    substitute,
)
from .trace import (
    TemplateSet,
    app_combinations,
    dedupe_values,
    normal_form,
    template_constants,
    widest_gap,
)

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


def _step(k: TupleState, e) -> Dist[TupleState]:
    """Successor distribution of tuple k under an action whose effect on k
    is e, as _effect gives it, e not None: the one step of the replay
    (step_or_zero) and the search. The outcome depends on one component
    and the argument fed to it, not on the rest of the tuple, and comes
    from the eval memo: a cut puts the two halves (semantics.eval_halves)
    in place of the pair, and an application puts each value of the
    abstraction applied to its argument (semantics.eval_app) in place of
    the abstraction and drops the consumed components."""
    if isinstance(e, int):
        head, tail = k[: e - 1], k[e:]
        return eval_halves(k[e - 1]).map_elems(lambda vw: head + vw + tail)
    pos, consumed, arg = e
    return eval_app(k[pos - 1], arg).map_elems(
        lambda w: tuple(
            w if i == pos else k[i - 1]
            for i in range(1, len(k) + 1)
            if i == pos or i not in consumed
        )
    )


def step_or_zero(k: TupleState, a) -> Dist[TupleState]:
    """Successor distribution of tuple k under action a, by _effect and
    _step as the search steps it; the 0 distribution where a does not
    apply to k. A structurally malformed action raises InvalidAction."""
    err = _shape_error(a)
    if err is not None:
        raise InvalidAction(err)
    e = _effect(k, a)
    return EMPTY if e is None else _step(k, e)


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
    noisy = Pair(Abs("z", half), Abs("z", half))
    clean = Pair(Abs("z", identity()), Abs("z", identity()))
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
    dead = Abs("x", OMEGA)
    m = Pair(dead, Abs("x", OMEGA))
    nn = m
    for level in range(1, n + 1):
        leak = Fraction(1, 2**level)
        m = Pair(Abs("x", m), Abs("x", OMEGA))
        nn = Pair(
            Abs("x", skewed_choice(nn, OMEGA, leak)),
            Abs("x", skewed_choice(OMEGA, identity(), leak)),
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


def default_templates(universe: Sequence[Term] = ()) -> "TupleTemplates":
    """What the observer feeds an abstraction component, in order and each
    once: the universe values, the slot '$j' alone (hand over a consumed
    component directly), then small abstractions applying their own
    argument, the slot and universe values, up to body size 5. One set,
    which the searches handed it prepare once."""
    consts = template_constants(universe)
    bodies = app_combinations([Var("y"), Var(_SLOT)], consts, 5)
    return TupleTemplates(dedupe_values((*consts, Var(_SLOT), *(Abs("y", b) for b in bodies))))


def check_templates(templates: Iterable[Term]) -> tuple[Term, ...]:
    """The templates, each checked in order."""
    templates = tuple(templates)
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


def _class_firsts(templates: Iterable[Term]) -> tuple[Term, ...]:
    r"""The first template of each call-by-value class of the checked
    templates, in order. Two templates are in one class where both take
    '$j' or neither does, and both are '$j' or both are abstractions \y. B
    with alpha-equal \y. normal_form(B) (trace.normal_form), so
    alpha-duplicates are one class. Slot use is part of the class: over
    {I, K}, \y. K y $j normalises to \y. y, but it consumes its component
    and I does not."""
    firsts: dict = {}
    for t in templates:
        key = t
        if type(t) is Abs:
            body = normal_form(t.body)
            if body is not t.body:
                key = Abs(t.var, body)
        firsts.setdefault((_SLOT in t.free_vars, key), t)
    return tuple(firsts.values())


class TupleTemplates(TemplateSet):
    """Tuple templates with, once per set, what the tuple search derives
    from them: the first of each call-by-value class, once every template
    passes check_templates (firsts), and the (consumed, argument) table of
    each tuple width (arguments). A function of no arguments in place of
    the templates derives them when first needed."""

    __slots__ = ("_firsts", "_renames", "_by_width")

    def __init__(self, templates: Union[Iterable[Term], Callable[[], Iterable[Term]]] = ()):
        if callable(templates):
            self._source = templates  # TemplateSet._items calls it once
        else:
            super().__init__(templates)
        self._firsts = self._renames = None
        self._by_width: dict[int, tuple] = {}

    def firsts(self) -> tuple[Term, ...]:
        """_class_firsts of the checked templates."""
        firsts = self._firsts
        if firsts is None:
            firsts = _class_firsts(check_templates(self._items))
            # each first that takes '$j': its arguments for x1, x2, ... so far
            self._renames = [[] if _SLOT in t.free_vars else None for t in firsts]
            self._firsts = firsts
        return firsts

    def arguments(self, width: int) -> tuple:
        """(consumed, argument) for each first in order: one with '$j' once
        per component x1 .. x<width>, any other as it is, consuming
        nothing. Built once per width; each '$j' template is renamed once
        per component index, for all widths."""
        out = self._by_width.get(width)
        if out is None:
            out = []
            for t, renamed in zip(self.firsts(), self._renames):
                if renamed is None:
                    out.append(((), t))
                    continue
                for j in range(len(renamed) + 1, width + 1):
                    renamed.append(rename_free(t, {_SLOT: component_name(j)}))
                out += (((j,), a) for j, a in enumerate(renamed[:width], 1))
            out = self._by_width[width] = tuple(out)
        return out


def enumerate_actions(states: Iterable[TupleState], arguments: Sequence[tuple]) -> list:
    """Deterministically ordered candidate actions for the given support: a
    cut wherever some state holds a pair, and an application of each
    (consumed, argument) of arguments, which TupleTemplates.arguments
    lists for the support's width, wherever some state holds an
    abstraction outside the consumed set. One that acts like an earlier
    one steps nothing new and reaches that one's pair, so the search adds
    no word for it.

    Where no state's abstraction uses its variable, an application's effect
    (_effect) does not depend on its argument, so only the first argument of
    each consumed set is listed there; the rest would add no word."""
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

    The search is trace.widest_gap: breadth-first, dropping branches that
    keep no more mass than the best gap, on the engine's rules
    (trace.explore): the mass both sides share cancels, each state is
    stepped once per distinct action effect (_effect), a successor pair
    whose sides both weigh at most the best gap before cancelling is not
    built, and branches with identical joint distributions are explored
    once. An unbuilt pair could not beat the best gap nor be extended, and
    a later word that reaches it has cancelled sides no heavier, so it
    cannot either (widest_gap). The search steps by _step, as step_or_zero
    does: a step's outcome depends on one component and the argument fed
    to it, so the eval memo computes it once per query and every state
    that holds the component reads it there. The memo is keyed up to
    alpha-equivalence, as states are, so an alpha-variant of a component
    gets the values of the first one's outcome, binder names and all.

    The templates are prepared once per set (TupleTemplates): checked, so
    the steps skip the affinity check, cut to the first of each
    call-by-value class (_class_firsts), and made into the (consumed,
    argument) table of each tuple width. A search handed a TupleTemplates
    reuses what earlier searches prepared on it; other templates, or a
    function, are wrapped in a set of the search's own. Given templates
    are checked at entry, and derived ones when the search first lists
    actions, which a search whose start pair is settled at once never
    does. enumerate_actions lists one argument per consumed set where the
    argument cannot matter.

    Offering class firsts alone is exact. The search steps and names each
    class by its first template as written, so a witness replays to the
    reported gap. trace.normal_form is exact for closed values in its free
    variables, so two members of a class, applied to one closed value with
    '$j' bound to one component, give one value distribution: they are
    applicatively bisimilar, and applicative bisimilarity is a congruence
    for the probabilistic call-by-value lambda-calculus, hence sound for
    contextual equivalence (Dal Lago, Sangiorgi and Alberti, POPL 2014;
    Crubillé and Dal Lago, ESOP 2014). So a word that feeds a later member
    has, on both sides, the probability of the word that feeds the first
    member in its place, and that word comes earlier in search order: the
    value and the first witness do not change.
    """
    if template_set is None:
        template_set = default_templates
    templates = TupleTemplates.of(template_set)
    if not callable(template_set):
        templates.firsts()

    def actions(support):
        return enumerate_actions(support, templates.arguments(max(map(len, support), default=0)))

    dm = eval_big(m).map_elems(lambda v: (v,))
    dn = eval_big(n).map_elems(lambda v: (v,))
    return widest_gap((dm, dn), actions, _effect, _step, max_len)


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
    at = ts.next()
    word = ts.words[at]
    if word not in ("cut", "appl"):
        raise ParseError("expected cut(i) or appl(i; ...; term)", ts.offset(at))
    ts.expect("(")
    i = int(ts.expect("nat"))
    if word == "cut":
        a = Cut(i)
    else:
        ts.expect(";")
        consumed = () if ts.kinds[ts.i] == ";" else tuple(ts.separated(",", _read_component))
        ts.expect(";")
        a = Appl(i, consumed, read_term(ts))
    ts.expect(")")
    try:
        check_tuple_trace((a,))
    except InvalidAction as e:
        raise ParseError(str(e), ts.offset(at)) from None
    return a


def _read_component(ts: Tokens) -> int:
    at = ts.next()
    name = ts.words[at]
    if name[:1] != "x" or not name[1:].isdigit():
        raise ParseError(f"bad component name {name!r}", ts.offset(at))
    return int(name[1:])

"""Trace observations and the trace distance lower bound.

A trace is a finite word of actions played against a program: `app V`
feeds the value V to an abstraction, `tensor L` destructures a pair
through the two-hole context L (free variables x and y). The probability
of a trace is the chance the program survives every action; distances
compare these probabilities pointwise.
"""

from __future__ import annotations

import itertools
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .dist import EMPTY, Dist, dirac
from .errors import NotAffine, NotClosed, ParseError
from .parser import Tokens, format_items, parse_items, read_term
from .semantics import _eval, _memo, _reduce_small, _require_program, eval_app, eval_halves
from .terms import (
    Abs,
    App,
    Pair,
    Term,
    Var,
    affine_violation,
    encode_theta,
    identity,
    is_value,
    pretty,
    size,
    substitute,
)

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


def _fits(t: Term, a) -> bool:
    return type(a) is _KIND.get(type(t))


def normal_form(t: Term) -> Term:
    r"""The affine term t with its call-by-value beta_v redexes reduced
    along its application spine: through App nodes only, never under an
    Abs or into a Pair, Choice or LetPair. It serves two callers: a tensor
    template, checked by check_trace, whose free variables are the holes x
    and y, and the body of a tuple template \y. B, checked by
    tuples.check_templates, whose free variables are y and '$j'. Two rules
    rewrite an App whose function part, once in normal form, is an
    abstraction \z. B:

    - (\z. B) V -> B[V/z] where V is an Abs, a Pair or a Var. A Var
      reached through App nodes is free in t, and both callers bind every
      free variable of t to a closed value before they evaluate it;
    - (\z. z) M -> M for any M.

    It ends: each rewrite lowers terms.size, and a rewritten argument or
    function lowers the size of every App above it, which adds its
    children. (\z. z) M has size 2 + size(M). (\z. B) V has size
    1 + size(B) + size(V), while an affine B holds z at most once per
    branch of a choice, so size(B[V/z]) <= size(B) + size(V) - 1 where z
    occurs and size(B) where it does not.

    It is exact: for every substitution s of closed values for the free
    variables of t, whichever they are, _eval(t s) == _eval(normal_form(t)
    s), weights and all. _eval of an App binds the value distribution of
    its function part to that of its argument, so a part may be swapped
    for one with the same value distribution. ((\z. B) V) s is
    (\z. B s) (V s), where V s is a value (a free variable becomes a
    closed value), so it evaluates as B s [V s/z], which is B[V/z] s:
    substitute renames a binder of B that would capture a free variable of
    V, and the values of s are closed. ((\z. z) M) s evaluates M s, then
    each of its values to itself.

    The result is cached on the App node, as skeleton ids and scope
    summaries are, so subtrees that templates share, and templates that
    queries share, are normalised once. An App in normal form holds True,
    not itself, so nodes stay acyclic; every App that normal_form returns
    holds it."""
    if type(t) is not App:
        return t
    nf = t._nf
    if nf is None:
        fn, arg = normal_form(t.fn), normal_form(t.arg)
        if type(fn) is Abs and type(fn.body) is Var and fn.body.name == fn.var:
            nf = arg
        elif type(fn) is Abs and type(arg) in (Abs, Pair, Var):
            nf = normal_form(substitute(fn.body, fn.var, arg))
        elif fn is t.fn and arg is t.arg:
            nf = True
        else:
            nf = App(fn, arg)
            nf._nf = True
        t._nf = nf
    return t if nf is True else nf


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


def _move(t: Abs, a: AppAction) -> Dist[Term]:
    """The program the checked action app(V) moves the abstraction t to,
    before evaluation: V substituted into t's body."""
    return dirac(substitute(t.body, t.var, a.value))


def _plug(body: Term, v: Term, w: Term) -> Term:
    """The tensor template body with the values v and w in its holes x and
    y: the one substitution rule of a tensor move, whose program
    eval_tensor builds only where it cannot take the template apart."""
    return substitute(substitute(body, TENSOR_HOLE_1, v), TENSOR_HOLE_2, w)


def eval_tensor(body: Term, v: Term, w: Term) -> Dist[Term]:
    """The value distribution of _eval(_plug(body, v, w)), support order
    and weights, mostly without building that program: the checked tensor
    template body with the closed values v and w in its holes. A hole
    gives its value and a closed subterm its values (_eval). An App
    applies each abstraction its function part gives to each value of its
    argument, as _eval's App rule does. One whose function part gives a
    pair is stuck and is evaluated plugged, as is any other node with a
    hole (a let, a choice, an abstraction), so _eval logs a stuck
    application once per program, as it did when every template was
    plugged. An App's values are an observation entry of the eval memo
    under (body, v, w), a key that no program, pair or (f, v) equals: the
    normal forms of a kind share their subterms, so one pair of values
    evaluates each shared part once for all the templates. A hit hands
    back the values of the first alpha-variant, as eval_app's do."""
    if not body.free_vars:
        return _eval(body)
    if type(body) is App:
        key = (body, v, w)
        d = _memo.get(key)
        if d is None:
            df, da = eval_tensor(body.fn, v, w), eval_tensor(body.arg, v, w)
            if da and Pair in map(type, df.support()):  # a pair applied: stuck
                d = _eval(_plug(body, v, w))
            else:
                d = df.bind(lambda f: da.bind(lambda a: _eval(substitute(f.body, f.var, a))))
            _memo[key] = d
        return d
    if type(body) is Var:
        return dirac(v if body.name == TENSOR_HOLE_1 else w)
    return _eval(_plug(body, v, w))


def _trace_step(t: Term, a) -> Dist[Term]:
    """Value distribution after playing the checked action a against the
    value t, and EMPTY where a's kind does not fit t, which loses all mass:
    the one step of the replay (trace_accept) and the search. app(V) reads
    t applied to V from the eval memo (semantics.eval_app); tensor(L)
    reads the values of t's halves (semantics.eval_halves), and those of L
    with each pair of them in its holes (eval_tensor), from the memo."""
    if not _fits(t, a):
        return EMPTY
    if type(a) is AppAction:
        return eval_app(t, a.value)
    return eval_halves(t).bind(lambda vw: eval_tensor(a.body, *vw))


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
        d = _reduce_small(d)
        v = a.value
        d = d.bind(
            lambda t: dirac(substitute(t.body, t.var, v))
            if isinstance(t, Abs)
            else EMPTY
        )
    return _reduce_small(d).weight()


def dedupe_values(values: Iterable[Term]) -> tuple[Term, ...]:
    """Drop alpha-duplicates, keeping first occurrences in order."""
    return tuple(dict.fromkeys(values))  # a repeated key keeps its first object


def enumerate_traces(
    universe: Iterable[Term],
    max_len: int,
    tensor_templates: Sequence[Term] = (),
) -> Iterator[Trace]:
    """All traces over the distinct actions in length-lexicographic order."""
    actions = [AppAction(v) for v in dedupe_values(universe)]
    actions += [TensorAction(b) for b in dedupe_values(tensor_templates)]
    for n in range(max_len + 1):
        yield from itertools.product(actions, repeat=n)


def explore(
    start: tuple,
    actions: Callable,
    effect: Callable,
    step: Callable,
    max_len: int,
    visit: Callable,
    floor: Callable = lambda: (-1, 1),
) -> None:
    """Breadth-first walk over action words played against a pair of
    distributions. At each length, visit(word, da, db) sees the pair of
    distributions of every frontier word in order and says whether to
    extend it. The walk ends after the words of length max_len, or once no
    word is left to extend, however large max_len is. It keeps four rules:

    - Shared mass cancels (Dist.cancel) at the start pair and every
      successor pair, before visit and the reached-pair test: the walk
      carries the difference of the two distributions, visit sees the
      cancelled pair (widest_gap says why that is sound for it), and the
      two sides share no state. A walk that needs each side's own
      probabilities tags every state with its side, so nothing cancels.
    - Each (state, effect) is stepped once per walk: a candidate a of
      actions(support), the states of both sides, moves a state s by
      step(s, e) with e = effect(s, a). None means a does not apply to s,
      so s keeps no mass and is never stepped; a candidate that applies
      to no state is skipped.
    - A successor pair is not built where each side weighs at most
      floor(), a weight as (numerator, positive denominator) that the
      walk reads once per length, after the visits. The weights are read
      before cancelling, from the stepped successors
      (Dist.bind_weight_parts). The caller vouches that visit would
      neither extend nor need to see a pair whose sides weigh at most the
      floor, and that the floor never falls: widest_gap's best gap is
      such a floor. The default, -1, builds every pair.
    - Each reached pair is kept once: a later word that reaches it has the
      same future and comes later in length-lexicographic order, so first
      witnesses survive. So a candidate of the tuple search whose effects
      equal an earlier one's reaches that one's pair and adds no word. A
      pair that was not built is not kept either. A later word that
      reaches it is built where its sides before cancelling outweigh the
      floor, and visited; its cancelled sides, those of the unbuilt pair,
      weigh at most the floor of the length that skipped it."""
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    start = start[0].cancel(start[1])
    memo: dict = {}  # state -> {effect: successor distribution}
    frontier = [((), *start)]
    seen = {start}
    for length in range(max_len + 1):
        kept = [node for node in frontier if visit(*node)]
        if length == max_len or not kept:
            return
        fn, fd = floor()
        frontier = []
        for word, da, db in kept:
            support = [*da.support(), *db.support()]  # disjoint: both are cancelled
            rows = [memo.setdefault(s, {}) for s in support]
            for a in actions(support):
                child = {}  # state -> successor, for the states a applies to
                for s, row in zip(support, rows):
                    e = effect(s, a)
                    if e is not None:
                        d = row.get(e)
                        if d is None:
                            d = row[e] = step(s, e)
                        child[s] = d
                if not child:  # a applies to no state
                    continue
                successor = lambda s: child.get(s, EMPTY)
                na, ka = da.bind_weight_parts(successor)
                nb, kb = db.bind_weight_parts(successor)
                if na * fd <= fn * ka and nb * fd <= fn * kb:
                    continue  # both sides at most the floor
                ca, cb = da.bind(successor).cancel(db.bind(successor))
                if (ca, cb) not in seen:
                    seen.add((ca, cb))
                    frontier.append((word + (a,), ca, cb))


def widest_gap(
    start: tuple, actions: Callable, effect: Callable, step: Callable, max_len: int
) -> tuple:
    """Largest weight gap over the words explore reaches, with the first
    word attaining it. A node whose mass on both sides is at most the best
    gap so far is not extended: probabilities only shrink along a word.

    explore cancels the mass both sides share, at the root and after every
    step. A word's probability is linear in the distribution, Pr_da(w) -
    Pr_db(w) = sum over s of (da(s) - db(s)) * Pr_s(w), so a node's future
    gaps depend on da - db alone, and:
    - cancelling leaves wa - wb unchanged, so every visited gap is the same;
    - nodes with equal differences merge in explore's reached pairs;
    - a node lists candidates for the states left after cancelling, and
      a candidate that moves none of them leaves a zero difference, whose
      words all have gap 0;
    - every extension's gap is at most max(wa', wb') of the cancelled
      weights, since 0 <= Pr_s(w) <= 1, and that is never more than
      max(wa, wb). So pruning on the cancelled weights drops only words
      that cannot beat the best gap, and first witnesses survive, as they
      do when explore skips a reached pair.

    The best gap is also explore's floor, so a successor pair whose sides
    both weigh at most the best gap before cancelling is never built. That
    drops nothing either. The best gap only grows, and it moves only on a
    strict increase. The unbuilt pair's cancelled sides weigh no more than
    its sides before cancelling, so its gap would not have beaten the best
    gap, nor would it have been extended. A later word that reaches the
    same cancelled pair has those same cancelled weights, at most the best
    gap by then, so it neither moves the best gap nor is extended, and the
    value and the first witness are those of the walk that builds every
    pair (gen.fraction_widest_gap over the default floor, in the tests).

    The visitor reads each side's weight as integers (Dist.weight_parts),
    brings the two over one denominator and keeps the best gap as a
    numerator over a positive denominator, so it compares by
    cross-multiplying and no visited word builds a Fraction; the answer
    is one Fraction."""
    bn, bd, witness = 0, 1, ()  # the best gap is bn / bd

    def visit(word: tuple, da: Dist, db: Dist) -> bool:
        nonlocal bn, bd, witness
        na, den = da.weight_parts()
        nb, d = db.weight_parts()
        if d != den:
            na, nb, den = na * d, nb * den, den * d
        gap = abs(na - nb)
        if gap * bd > bn * den:
            bn, bd, witness = gap, den, word
        return max(na, nb) * bd > bn * den

    explore(start, actions, effect, step, max_len, visit, lambda: (bn, bd))
    return Fraction(bn, bd), witness


def trace_distance_lb(
    m: Term,
    n: Term,
    universe: Iterable[Term],
    max_len: int,
    tensor_templates: Sequence[Term] = (),
) -> tuple[Fraction, Trace]:
    """Largest trace-probability gap over all traces up to max_len, with the
    first trace attaining it. A lower bound on the full trace distance.
    A node is offered one candidate per effect class (_kind_table) of the
    kinds its support holds, in alphabet order: a later label of a class
    moves the node's states as its first label does, so it adds no word.
    The witness names each class by its first label. Each state moves by
    _trace_step, the replay's own step, whose outcomes the eval memo keeps
    for the query: a pair state's halves are evaluated once for all its
    tensor effects. The tensor classes are the template set's
    (TensorTemplates.pair_table), worked out once per set, at the first
    query that holds a pair; plain templates are wrapped in a set of this
    query's own. Each app action is its own class."""
    _require_program(m)
    _require_program(n)
    tensor = TensorTemplates.of(tensor_templates)
    actions = alphabet(universe, tensor)
    apps = _kind_table(Abs, actions)[1]

    def offer(support: list) -> list:
        out = []
        for kind in _KIND:  # Abs first, as app actions come first in the alphabet
            if any(type(s) is kind for s in support):
                out += apps if kind is Abs else tensor.pair_table()[1]
        return out

    effect = lambda s, e: e if _fits(s, e) else None
    gap, word = widest_gap((_eval(m), _eval(n)), offer, effect, _trace_step, max_len)
    if any(type(e) is TensorAction for e in word):  # so the pair table is built
        _, effects, firsts, _ = tensor.pair_table()
        first = dict(zip(effects, firsts))
        word = tuple(first.get(e, e) for e in word)  # an app effect is its own first label
    return gap, word


def alphabet(universe: Iterable[Term], tensor_templates: Sequence[Term] = ()) -> list:
    """The actions of the one-action traces over universe and templates, in
    order and checked: what the trace search and the bisimulation fragment
    play against a value. The app actions are built and checked per call;
    the tensor actions are the template set's (TensorTemplates.actions),
    checked once per set, after the app actions."""
    actions = [AppAction(v) for v in dedupe_values(universe)]
    check_trace(actions)
    actions += TensorTemplates.of(tensor_templates).actions()
    return actions


class TemplateSet(abc.Sequence):
    """Observer templates in order, as given, carrying what the queries
    derive from them. A subclass works each part out on first use and
    keeps it on the set, so every query handed the same set reuses it, and
    it dies with the set. A part whose working out raises is not kept, so
    every query raises alike. A query wraps any other sequence in a set of
    its own (of), prepared for that query alone. Slices are plain tuples,
    and a set equals the tuple of its templates."""

    __slots__ = ("_source", "__weakref__")

    def __init__(self, templates: Iterable[Term] = ()):
        self._source = tuple(templates)

    @classmethod
    def of(cls, templates):
        """templates itself where it is a set of this class, else a new one."""
        return templates if isinstance(templates, cls) else cls(templates)

    @property
    def _items(self) -> tuple:
        items = self._source
        if type(items) is not tuple:  # a function that derives them (TupleTemplates)
            items = self._source = tuple(items())
        return items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self) -> Iterator[Term]:
        return iter(self._items)

    def __eq__(self, other):
        if isinstance(other, TemplateSet):
            other = other._items
        return self._items == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"


class TensorTemplates(TemplateSet):
    """Tensor templates with, once per set, what the trace search and the
    bisimulation fragment derive from them: their checked actions
    (actions), and the pair kind's effect classes (pair_table)."""

    __slots__ = ("_actions", "_table")

    def __init__(self, templates: Iterable[Term] = ()):
        super().__init__(templates)
        self._actions = self._table = None

    def actions(self) -> tuple:
        """The distinct templates as tensor actions, in order, checked
        (check_trace)."""
        actions = self._actions
        if actions is None:
            actions = tuple(TensorAction(b) for b in dedupe_values(self._items))
            check_trace(actions)
            self._actions = actions
        return actions

    def pair_table(self) -> tuple:
        """_kind_table(Pair, ...) over the actions, its parts as tuples,
        since every query shares them: which act alike on pairs. Worked out
        when first asked, which a query does at the first pair value it
        holds."""
        table = self._table
        if table is None:
            table = self._table = tuple(map(tuple, _kind_table(Pair, self.actions())))
        return table


def _kind_table(kind: type, actions: Sequence) -> tuple[tuple, list, list, list[int]]:
    """Which of the checked actions fit the values of kind (Abs or Pair),
    and which of those act alike: the fitting labels in order, their
    effects in order of first label, each effect's first label, and each
    label's effect index. A class is keyed by a term: an app action's
    value, a tensor action's template in normal form (normal_form). Its
    effect is its first label where that holds the key itself, else the
    one action built for the class, with the template in normal form.
    Every label steps each value of the kind as its effect does
    (_trace_step)."""
    fit = _KIND.get(kind)
    labels, classes, effects, firsts, slot = [], {}, [], [], []
    for a in actions:
        if type(a) is fit:
            key = a.value if fit is AppAction else normal_form(a.body)
            i = classes.setdefault(key, len(classes))
            if i == len(firsts):
                effects.append(a if fit is AppAction or key is a.body else TensorAction(key))
                firsts.append(a)
            labels.append(a)
            slot.append(i)
    return tuple(labels), effects, firsts, slot


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

    # Each (cap, used) list is built once, and each tree is one node however
    # many lists hold it, so its skeleton and affinity summary are computed once.
    built: dict[tuple[int, frozenset], list] = {}
    apps: dict[tuple[int, int], App] = {}  # ids of the operands -> their node

    def build(cap: int, used: frozenset) -> list[tuple[Term, frozenset, int]]:
        out = built.get((cap, used))
        if out is None:
            out = [(t, used | mask, sz) for t, mask, sz in atoms if sz <= cap and not (mask & used)]
            if cap >= 2:  # two operands, each counted as size >= 1 (even omega)
                for lt, lu, ls in build(cap - 1, used):
                    for rt, ru, rs in build(cap - ls, lu):
                        t = apps.get((id(lt), id(rt)))
                        if t is None:
                            t = apps[id(lt), id(rt)] = App(lt, rt)
                        out.append((t, ru, ls + rs))
            built[cap, used] = out
        return out

    trees = list(dedupe_values(t for t, _, _ in build(size_cap, frozenset())))
    # build's closure refers to build, so what it holds would wait for the
    # cycle collector; emptying the tables frees the spare trees now
    built.clear()
    apps.clear()
    return trees


def template_constants(universe: Sequence[Term]) -> tuple[Term, ...]:
    """The distinct universe values as given, in order, I for an empty
    universe: the constants that templates combine. A constant's binder may
    be named like a hole or a binder of the template around it: the
    constant is closed, so the name is only hygiene."""
    return dedupe_values(universe) if universe else (identity(),)


def default_tensor_templates(universe: Sequence[Term] = ()) -> TensorTemplates:
    """Two-hole contexts for pair observations: let-free applicative
    combinations of x, y, and the universe values, of size at most 6, as
    one set, which the queries handed it prepare once."""
    consts = template_constants(universe)
    return TensorTemplates(app_combinations([Var(TENSOR_HOLE_1), Var(TENSOR_HOLE_2)], consts, 6))


def encode_theta_trace(s: Sequence) -> Trace:
    """Translate a pairs-mode trace to act on theta-encoded programs.

    Values inside app actions are encoded too, so pair-containing arguments
    stay meaningful; a tensor context becomes the curried consumer the
    encoded pair is waiting for, binding the holes themselves (a binder
    inside the context named like a hole just shadows it).
    """
    out = []
    for a in s:
        if isinstance(a, AppAction):
            out.append(AppAction(encode_theta(a.value)))
        elif isinstance(a, TensorAction):
            consumer = Abs(TENSOR_HOLE_1, Abs(TENSOR_HOLE_2, encode_theta(a.body)))
            out.append(AppAction(consumer))
        else:
            raise TypeError(f"not a trace action: {a!r}")
    return tuple(out)


def format_trace(s: Sequence) -> str:
    return format_items(s, _show_action)


def parse_trace(text: str) -> Trace:
    """Inverse of format_trace; raises ParseError on malformed input."""
    return tuple(parse_items(text, _read_action))


def _show_action(a) -> str:
    return f"app({pretty(a.value)})" if isinstance(a, AppAction) else f"tensor({pretty(a.body)})"


def _read_action(ts: Tokens):
    at = ts.next()
    word = ts.words[at]
    if word not in ("app", "tensor"):
        raise ParseError("expected app(term) or tensor(term)", ts.offset(at))
    ts.expect("(")
    t = read_term(ts)
    ts.expect(")")
    a = AppAction(t) if word == "app" else TensorAction(t)
    check_trace((a,))
    return a

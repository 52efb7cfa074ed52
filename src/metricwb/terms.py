"""Abstract syntax for the affine probabilistic lambda-calculus.

Terms are immutable. Equality and hashing are alpha-equivalence, computed
through interned de-Bruijn skeletons so that both are O(1) after the first
use of a node. Subterm sharing is preserved everywhere (substitution copies
only the path it rewrites), which keeps the deeply nested example families
tractable even though their fully expanded trees are astronomically large.

Terms are taken up to alpha-equivalence, so binder names are hygiene, not
part of any rule: a binder may shadow another or a context variable, and
two terms that differ only in their binder names give the same answers.
Two places care about names. `substitute` renames a binder that would
capture a free variable of what it substitutes, and `pretty` gives each
binder a display name that holds only inside its scope.

Affinity is judged from the first double use in a term, computed once per
node and cached. A double use is an overlap of the `free_vars` of two
subterms that both run, so it does not depend on binder names.
`affine_violation` reports a double use, then a free variable outside the
context.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

_fresh_counter = itertools.count(1)


def fresh(base: str = "x") -> str:
    """Return a globally fresh variable name.

    Only two places need one: `substitute`, to rename a binder that would
    capture, and `encode_theta`, whose pair binder wraps open code. The '%'
    marker cannot occur in a source identifier, so fresh names never
    collide with written ones. The pretty-printer strips the marker again
    when choosing display names.
    """
    base = base.split("%", 1)[0] or "x"
    return f"{base}%{next(_fresh_counter)}"


# Interned alpha-skeletons: every distinct skeleton shape gets an integer id,
# so alpha-equality of two terms is an integer comparison.
_skel_table: dict[tuple, int] = {}


def _intern(key: tuple) -> int:
    sid = _skel_table.get(key)
    if sid is None:
        sid = len(_skel_table)
        _skel_table[key] = sid
    return sid


class Term:
    __slots__ = ("free_vars", "_skel", "_size", "_scope")

    def __init__(self):
        self._skel: Optional[int] = None
        self._size: Optional[int] = None
        self._scope: Optional[str] = None

    def _skel_id(self, binders: tuple[str, ...] = ()) -> int:
        # A skeleton computed under binders the term never mentions equals
        # the binder-free one, so it can be cached on the node.
        if not binders or self.free_vars.isdisjoint(binders):
            sid = self._skel
            if sid is None:
                sid = self._compute_skel(())
                self._skel = sid
            return sid
        return self._compute_skel(binders)

    def _compute_skel(self, binders: tuple[str, ...]) -> int:
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self._skel_id() == other._skel_id()

    def __hash__(self):
        # the id itself, which hash() of a small nonnegative int would give
        sid = self._skel
        return sid if sid is not None else self._skel_id()

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, f)) for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return pretty(self)


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.free_vars = frozenset((name,))

    def _compute_skel(self, binders):
        try:
            return _intern(("V", binders.index(self.name)))
        except ValueError:
            return _intern(("F", self.name))


class Abs(Term):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Term):
        super().__init__()
        self.var = var
        self.body = body
        self.free_vars = body.free_vars - {var}

    def _compute_skel(self, binders):
        return _intern(("L", self.body._skel_id((self.var,) + binders)))


class App(Term):
    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        super().__init__()
        self.fn = fn
        self.arg = arg
        self.free_vars = fn.free_vars | arg.free_vars

    def _compute_skel(self, binders):
        return _intern(("A", self.fn._skel_id(binders), self.arg._skel_id(binders)))


class Choice(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        super().__init__()
        self.left = left
        self.right = right
        self.free_vars = left.free_vars | right.free_vars

    def _compute_skel(self, binders):
        return _intern(("C", self.left._skel_id(binders), self.right._skel_id(binders)))


class Omega(Term):
    __slots__ = ()
    __match_args__ = ()

    def __init__(self):
        super().__init__()
        self.free_vars = frozenset()

    def _compute_skel(self, binders):
        return _intern(("O",))


OMEGA = Omega()


class Pair(Term):
    __slots__ = ("first", "second")
    __match_args__ = ("first", "second")

    def __init__(self, first: Term, second: Term):
        super().__init__()
        self.first = first
        self.second = second
        self.free_vars = first.free_vars | second.free_vars

    def _compute_skel(self, binders):
        return _intern(("P", self.first._skel_id(binders), self.second._skel_id(binders)))


class LetPair(Term):
    __slots__ = ("var1", "var2", "scrutinee", "body")
    __match_args__ = ("var1", "var2", "scrutinee", "body")

    def __init__(self, var1: str, var2: str, scrutinee: Term, body: Term):
        super().__init__()
        if var1 == var2:
            raise ValueError("pair pattern variables must be distinct")
        self.var1 = var1
        self.var2 = var2
        self.scrutinee = scrutinee
        self.body = body
        self.free_vars = scrutinee.free_vars | (body.free_vars - {var1, var2})

    def _compute_skel(self, binders):
        inner = (self.var1, self.var2) + binders
        return _intern(
            ("Q", self.scrutinee._skel_id(binders), self.body._skel_id(inner))
        )


_IDENTITY = Abs("x", Var("x"))


def identity() -> Abs:
    """The identity combinator, written I in the surface syntax: one shared
    node, as OMEGA is."""
    return _IDENTITY


def is_value(t: Term) -> bool:
    """Abstractions and pairs are values; pair components stay unevaluated
    until a let destructures them."""
    return isinstance(t, (Abs, Pair))


def size(t: Term) -> int:
    """Size measure driving the termination bound.

    Omega counts 0 and choice takes the max of its branches, so the measure
    shrinks strictly under every reduction rule.
    """
    s = t._size
    if s is not None:
        return s
    match t:
        case Omega():
            s = 0
        case Var(_):
            s = 1
        case Abs(_, b):
            s = 1 + size(b)
        case App(f, a):
            s = size(f) + size(a)
        case Choice(l, r):
            s = 1 + max(size(l), size(r))
        case Pair(a, b):
            s = 1 + size(a) + size(b)
        case LetPair(_, _, m, b):
            s = 2 + size(m) + size(b)
        case _:
            raise TypeError(f"not a term: {t!r}")
    t._size = s
    return s


def _display(name: str) -> str:
    return name.split("%", 1)[0] or name


def _double_use(left: frozenset, right: frozenset, where: str) -> str:
    if left.isdisjoint(right):
        return ""
    offender = _display(min(left & right))
    return f"variable '{offender}' is used on both sides of {where}"


def _scope(t: Term) -> str:
    """The first double use in t as a message, "" if there is none, cached
    on the node.

    Choice branches may share (only one runs); children are checked before
    the node, the left child first.
    """
    s = t._scope
    if s is not None:
        return s
    # dispatch on the exact type, commonest kinds first: every template and
    # program is checked, and class patterns of a match cost about twice this
    kind = type(t)
    if kind is App or kind is Pair:
        l, r = (t.fn, t.arg) if kind is App else (t.first, t.second)
        where = "an application" if kind is App else "a pair"
        s = _scope(l) or _scope(r) or _double_use(l.free_vars, r.free_vars, where)
    elif kind is Abs:
        s = _scope(t.body)
    elif kind is Var or kind is Omega:
        s = ""
    elif kind is Choice:
        s = _scope(t.left) or _scope(t.right)
    elif kind is LetPair:
        m, b = t.scrutinee, t.body
        inner = b.free_vars - {t.var1, t.var2}
        s = _scope(m) or _scope(b) or _double_use(m.free_vars, inner, "a let binding")
    else:
        raise TypeError(f"not a term: {t!r}")
    t._scope = s
    return s


def affine_violation(ctx: Iterable[str], t: Term) -> Optional[str]:
    """None if ctx |- t is derivable in the affine discipline, up to
    alpha-equivalence, else a human-readable reason: a double use, then a
    free variable outside ctx."""
    use = _scope(t)
    if use:
        return use
    missing = t.free_vars - frozenset(ctx)
    if missing:
        return f"variable '{_display(min(missing))}' is not in the context"
    return None


def check_affine(ctx: Iterable[str], t: Term) -> bool:
    return affine_violation(ctx, t) is None


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution t{v/x}.

    Returns t itself when x does not occur, so shared subtrees stay shared.
    A binder that would capture a free variable of v is renamed to a fresh
    name of the same base; the semantics substitutes closed values only, so
    it never has to.
    """
    if x not in t.free_vars:
        return t
    kind = type(t)  # dispatched like _scope: the search substitutes at every step
    if kind is Var:
        return v
    if kind is App:
        return App(substitute(t.fn, x, v), substitute(t.arg, x, v))
    if kind is Abs:
        if t.var in v.free_vars:
            y, b = _rename_bound(t.var, t.body)
            return Abs(y, substitute(b, x, v))
        return Abs(t.var, substitute(t.body, x, v))
    if kind is Choice:
        return Choice(substitute(t.left, x, v), substitute(t.right, x, v))
    if kind is Pair:
        return Pair(substitute(t.first, x, v), substitute(t.second, x, v))
    if kind is LetPair:
        y1, y2, m, b = t.var1, t.var2, t.scrutinee, t.body
        if x in (y1, y2):
            return LetPair(y1, y2, substitute(m, x, v), b)
        if y1 in v.free_vars:
            y1, b = _rename_bound(y1, b)
        if y2 in v.free_vars:
            y2, b = _rename_bound(y2, b)
        return LetPair(y1, y2, substitute(m, x, v), substitute(b, x, v))
    raise TypeError(f"not a term: {t!r}")


def _rename_bound(y: str, body: Term) -> tuple[str, Term]:
    """A fresh name for the binder y, and body with y renamed to it."""
    z = fresh(y)
    return z, substitute(body, y, Var(z))


def rename_free(t: Term, mapping: dict[str, str]) -> Term:
    """Rename free variables, in the order of mapping; a target must not be
    free in t already. A binder named like a target is renamed apart
    (substitute)."""
    for old, new in mapping.items():
        t = substitute(t, old, Var(new))
    return t


def encode_theta(t: Term) -> Term:
    """Compile pairs and lets into the pure fragment.

    A pair becomes a closure waiting for a consumer; a let applies the
    encoded scrutinee to the curried continuation.
    """
    match t:
        case Var(_) | Omega():
            return t
        case Abs(x, b):
            return Abs(x, encode_theta(b))
        case App(f, a):
            return App(encode_theta(f), encode_theta(a))
        case Choice(l, r):
            return Choice(encode_theta(l), encode_theta(r))
        case Pair(a, b):
            z = fresh("p")
            return Abs(z, App(App(Var(z), encode_theta(a)), encode_theta(b)))
        case LetPair(x, y, m, b):
            return App(encode_theta(m), Abs(x, Abs(y, encode_theta(b))))
        case _:
            raise TypeError(f"not a term: {t!r}")


_PREC_TERM = 0
_PREC_CHOICE = 1
_PREC_APP = 2
_PREC_ATOM = 3


def pretty(t: Term) -> str:
    """Render t in the surface syntax, choosing readable binder names. Each
    binder gets a display name no free variable or other binder has, and it
    holds only inside the binder's scope, so shadowing prints faithfully."""
    used = {name for name in t.free_vars}
    display: dict[str, Optional[str]] = {}
    # per base, the first suffix not yet tried: every candidate below it is
    # in used, which only grows, so the scan resumes there
    untried: dict[str, int] = {}

    def pick(name: str) -> str:
        base = name.split("%", 1)[0] or "x"
        n = untried.get(base, 0)
        cand = f"{base}{n}" if n else base
        while cand in used:
            n += 1
            cand = f"{base}{n}"
        untried[base] = n + 1
        used.add(cand)
        return cand

    def render(t: Term, prec: int) -> str:
        match t:
            case Var(name):
                s, p = display.get(name) or name, _PREC_ATOM
            case Omega():
                s, p = "omega", _PREC_ATOM
            case Pair(a, b):
                s = f"<{render(a, _PREC_TERM)}, {render(b, _PREC_TERM)}>"
                p = _PREC_ATOM
            case Abs(x, b):
                # a binder's display name holds in its body only; outside
                # it the name means what it meant before (None: itself)
                outer, dx = display.get(x), pick(x)
                display[x] = dx
                s, p = f"\\{dx}. {render(b, _PREC_TERM)}", _PREC_TERM
                display[x] = outer
            case LetPair(x, y, m, b):
                ms = render(m, _PREC_TERM)
                outer, dx, dy = (display.get(x), display.get(y)), pick(x), pick(y)
                display[x], display[y] = dx, dy
                s = f"let <{dx}, {dy}> = {ms} in {render(b, _PREC_TERM)}"
                display[x], display[y] = outer
                p = _PREC_TERM
            case Choice(l, r):
                s = f"{render(l, _PREC_CHOICE)} (+) {render(r, _PREC_APP)}"
                p = _PREC_CHOICE
            case App(f, a):
                s = f"{render(f, _PREC_APP)} {render(a, _PREC_ATOM)}"
                p = _PREC_APP
            case _:
                raise TypeError(f"not a term: {t!r}")
        return f"({s})" if p < prec else s

    return render(t, _PREC_TERM)

"""Abstract syntax for the affine probabilistic lambda-calculus.

Terms are immutable. Equality and hashing are alpha-equivalence, computed
through interned de-Bruijn skeletons so that both are O(1) after the first
use of a node. Subterm sharing is preserved everywhere (substitution copies
only the path it rewrites), which keeps the deeply nested example families
tractable even though their fully expanded trees are astronomically large.

Affinity is judged from one summary per node, computed once and cached: the
first double use, the binder names, and whether a binder is reused along one
scope chain. A double use is an overlap of the `free_vars` of two subterms
that both run. `affine_violation` reports a double use, then a free variable
outside the context, then a binder named like a context variable, then a
binder reused within its own scope.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

_fresh_counter = itertools.count(1)


def fresh(base: str = "x") -> str:
    """Return a globally fresh variable name.

    The '%' marker cannot occur in a source identifier, so fresh names never
    collide with parsed free variables. The pretty-printer strips the marker
    again when choosing display names.
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
        self._scope: "tuple[Optional[str], frozenset, bool] | None" = None

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


def identity() -> Abs:
    """The identity combinator, written I in the surface syntax."""
    x = fresh("x")
    return Abs(x, Var(x))


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


def _double_use(left: frozenset, right: frozenset, where: str) -> Optional[str]:
    if left.isdisjoint(right):
        return None
    offender = _display(min(left & right))
    return f"variable '{offender}' is used on both sides of {where}"


_LEAF_SCOPE = (None, frozenset(), False)


def _scope(t: Term) -> tuple[Optional[str], frozenset, bool]:
    """(first double use as a message or None, binder names, whether a
    binder is reused along one scope chain), cached on the node.

    Choice branches may share (only one runs); children are checked before
    the node, the left child first. Binder names must be distinct along any
    scope chain, mirroring the disjoint context extension of the typing
    rules; parallel reuse is fine.
    """
    s = t._scope
    if s is not None:
        return s
    # dispatch on the exact type, commonest kinds first: every template and
    # program is checked, and class patterns of a match cost about twice this
    kind = type(t)
    if kind is App or kind is Pair:
        l, r = (t.fn, t.arg) if kind is App else (t.first, t.second)
        (ul, bl, rl), (ur, br, rr) = _scope(l), _scope(r)
        where = "an application" if kind is App else "a pair"
        use = ul or ur or _double_use(l.free_vars, r.free_vars, where)
        s = (use, bl | br, rl or rr)
    elif kind is Abs:
        use, binders, reused = _scope(t.body)
        s = (use, binders | {t.var}, reused or t.var in binders)
    elif kind is Var or kind is Omega:
        s = _LEAF_SCOPE
    elif kind is Choice:
        (ul, bl, rl), (ur, br, rr) = _scope(t.left), _scope(t.right)
        s = (ul or ur, bl | br, rl or rr)
    elif kind is LetPair:
        x, y, m, b = t.var1, t.var2, t.scrutinee, t.body
        (um, bm, rm), (ub, bb, rb) = _scope(m), _scope(b)
        inner = b.free_vars - {x, y}
        use = um or ub or _double_use(m.free_vars, inner, "a let binding")
        s = (use, bm | bb | {x, y}, rm or rb or x in bb or y in bb)
    else:
        raise TypeError(f"not a term: {t!r}")
    t._scope = s
    return s


def affine_violation(ctx: Iterable[str], t: Term) -> Optional[str]:
    """None if ctx |- t is derivable in the affine discipline, else a
    human-readable reason: a double use, then a free variable outside ctx,
    then a binder named like a context variable, then a binder reused
    within its own scope."""
    use, binders, reused = _scope(t)
    if use:
        return use
    ctx_set = frozenset(ctx)
    missing = t.free_vars - ctx_set
    if missing:
        return f"variable '{_display(min(missing))}' is not in the context"
    clash = ctx_set & binders
    if clash:
        return f"binder '{_display(min(clash))}' shadows a context variable"
    if reused:
        return "a binder is reused within its own scope"
    return None


def check_affine(ctx: Iterable[str], t: Term) -> bool:
    return affine_violation(ctx, t) is None


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution t{v/x}.

    Returns t itself when x does not occur, so shared subtrees stay shared.
    Relies on globally fresh binder names; a would-be capture raises.
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
            raise ValueError(f"substitution would capture '{t.var}'")
        return Abs(t.var, substitute(t.body, x, v))
    if kind is Choice:
        return Choice(substitute(t.left, x, v), substitute(t.right, x, v))
    if kind is Pair:
        return Pair(substitute(t.first, x, v), substitute(t.second, x, v))
    if kind is LetPair:
        y1, y2, m, b = t.var1, t.var2, t.scrutinee, t.body
        if x in (y1, y2):
            return LetPair(y1, y2, substitute(m, x, v), b)
        if y1 in v.free_vars or y2 in v.free_vars:
            raise ValueError("substitution would capture a pair binder")
        return LetPair(y1, y2, substitute(m, x, v), substitute(b, x, v))
    raise TypeError(f"not a term: {t!r}")


def rename_free(t: Term, mapping: dict[str, str]) -> Term:
    """Rename free variables; targets must be fresh for t."""
    for old, new in mapping.items():
        t = substitute(t, old, Var(new))
    return t


def rename_binders(t: Term) -> Term:
    """t with every binder renamed to a globally fresh name of the same
    base: alpha-equal to t and printed alike, but sharing no binder name
    with any other term."""

    def go(t: Term, names: dict[str, str]) -> Term:
        match t:
            case Var(x):
                return Var(names[x]) if x in names else t
            case Omega():
                return t
            case Abs(x, b):
                nx = fresh(x)
                return Abs(nx, go(b, {**names, x: nx}))
            case App(f, a):
                return App(go(f, names), go(a, names))
            case Choice(l, r):
                return Choice(go(l, names), go(r, names))
            case Pair(a, b):
                return Pair(go(a, names), go(b, names))
            case LetPair(x, y, m, b):
                nx, ny = fresh(x), fresh(y)
                return LetPair(nx, ny, go(m, names), go(b, {**names, x: nx, y: ny}))
            case _:
                raise TypeError(f"not a term: {t!r}")

    return go(t, {})


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
    """Render t in the surface syntax, choosing readable binder names."""
    used = {name for name in t.free_vars}
    display: dict[str, str] = {}
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
                s, p = display.get(name, name), _PREC_ATOM
            case Omega():
                s, p = "omega", _PREC_ATOM
            case Pair(a, b):
                s = f"<{render(a, _PREC_TERM)}, {render(b, _PREC_TERM)}>"
                p = _PREC_ATOM
            case Abs(x, b):
                dx = pick(x)
                display[x] = dx
                s, p = f"\\{dx}. {render(b, _PREC_TERM)}", _PREC_TERM
            case LetPair(x, y, m, b):
                ms = render(m, _PREC_TERM)
                dx, dy = pick(x), pick(y)
                display[x], display[y] = dx, dy
                s = f"let <{dx}, {dy}> = {ms} in {render(b, _PREC_TERM)}"
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

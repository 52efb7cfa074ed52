"""Seeded random generators and independent oracles shared by the tests.

Everything here is deliberately written against the public surface only,
in a different style from the package internals, so that agreement
between an oracle and the implementation is evidence rather than an
echo. All randomness flows through an explicit random.Random instance.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import deque
from fractions import Fraction

from metricwb.bisim import EVAL_LABEL, LmcFragment
from metricwb.dist import Dist, dirac
from metricwb.errors import CoefficientOverflow, ParseError
from metricwb.terms import (
    Abs,
    App,
    Choice,
    LetPair,
    OMEGA,
    Omega,
    Pair,
    Term,
    Var,
    affine_violation,
    fresh,
    identity,
    is_value,
    rename_free,
    size,
    substitute,
)
from metricwb import semantics
from metricwb.semantics import _eval, eval_big
from metricwb.trace import AppAction, TensorAction, _fits, _move, alphabet, explore
from metricwb.tuples import (
    Appl,
    Cut,
    _arguments,
    _effect,
    _step,
    build_mn_nn,
    enumerate_actions,
    skewed_choice,
)
from metricwb.types import Arrow, Base, IOTA, Tensor, Type

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# --- random untyped programs (affine and closed by construction) ---------


def _gen_term(rng, avail: frozenset, fuel: int, names, prefix: str = "v") -> Term:
    # Each name in avail may be consumed at most once in this subtree.
    # Splitting constructs hand disjoint parts to their children; choice
    # shares, because only one branch ever runs.
    if fuel <= 0:
        kinds = ["omega"] + (["var", "var"] if avail else [])
        kind = rng.choice(kinds)
    else:
        kinds = ["omega", "abs", "abs", "app", "choice", "choice", "pair", "letpair"]
        if avail:
            kinds += ["var", "var"]
        kind = rng.choice(kinds)

    if kind == "omega":
        return OMEGA
    if kind == "var":
        return Var(rng.choice(sorted(avail)))
    if kind == "abs":
        x = f"{prefix}{next(names)}"
        return Abs(x, _gen_term(rng, avail | {x}, fuel - 1, names, prefix))
    if kind == "choice":
        return Choice(
            _gen_term(rng, avail, fuel - 1, names, prefix),
            _gen_term(rng, avail, fuel - 1, names, prefix),
        )
    pool = sorted(avail)
    rng.shuffle(pool)
    cut = rng.randint(0, len(pool))
    left, right = frozenset(pool[:cut]), frozenset(pool[cut:])
    if kind == "app":
        return App(
            _gen_term(rng, left, fuel - 1, names, prefix),
            _gen_term(rng, right, fuel - 1, names, prefix),
        )
    if kind == "pair":
        return Pair(
            _gen_term(rng, left, fuel - 1, names, prefix),
            _gen_term(rng, right, fuel - 1, names, prefix),
        )
    x, y = f"{prefix}{next(names)}", f"{prefix}{next(names)}"
    return LetPair(
        x,
        y,
        _gen_term(rng, left, fuel - 1, names, prefix),
        _gen_term(rng, right | {x, y}, fuel - 1, names, prefix),
    )


def random_program(rng, max_size: int = 30, fuel: int = 5, prefix: str = "v") -> Term:
    """A closed affine program with size(t) <= max_size, its binders named
    with the given prefix."""
    while True:
        t = _gen_term(rng, frozenset(), fuel, itertools.count(), prefix)
        if size(t) <= max_size:
            return t


def random_value(rng, max_size: int = 12, fuel: int = 3, prefix: str = "u") -> Term:
    """A closed affine abstraction, for universes and app actions.

    All binders carry the given prefix; callers that substitute several
    generated values into one term must give each a distinct prefix.
    """
    while True:
        x = f"{prefix}w{rng.randint(0, 2)}"
        t = Abs(x, _gen_term(rng, frozenset((x,)), fuel, itertools.count(), prefix))
        if size(t) <= max_size:
            return t


def random_open_term(rng, ctx: tuple, fuel: int = 4) -> Term:
    """An affine term over the given context (not necessarily closed)."""
    return _gen_term(rng, frozenset(ctx), fuel, itertools.count())


def arbitrary_term(rng, fuel: int, pool=("a", "b", "c")) -> Term:
    """A term with no ownership discipline at all, so affinity checks see a
    healthy mix of valid and invalid inputs."""
    if fuel <= 0:
        return rng.choice([OMEGA, Var(rng.choice(pool))])
    kind = rng.choice(
        ["omega", "var", "var", "abs", "app", "choice", "pair", "letpair"]
    )
    if kind == "omega":
        return OMEGA
    if kind == "var":
        return Var(rng.choice(pool))
    if kind == "abs":
        return Abs(rng.choice(pool), arbitrary_term(rng, fuel - 1, pool))
    if kind == "app":
        return App(
            arbitrary_term(rng, fuel - 1, pool), arbitrary_term(rng, fuel - 1, pool)
        )
    if kind == "choice":
        return Choice(
            arbitrary_term(rng, fuel - 1, pool), arbitrary_term(rng, fuel - 1, pool)
        )
    if kind == "pair":
        return Pair(
            arbitrary_term(rng, fuel - 1, pool), arbitrary_term(rng, fuel - 1, pool)
        )
    x, y = rng.sample(pool, 2)
    return LetPair(
        x,
        y,
        arbitrary_term(rng, fuel - 1, pool),
        arbitrary_term(rng, fuel - 1, pool),
    )


def alpha_variant(rng, t: Term, pool=("x", "y", "z", "a")) -> Term:
    """A term alpha-equal to t whose binders are named from pool, so that
    they shadow each other, free variables and hole names as often as
    capture allows. A binder takes a pool name that no other free variable
    of its scope has after renaming, or a fresh name when every pool name
    is taken. Free variables keep their names."""

    def pick(body: Term, bound: tuple, names: dict, taken=()) -> str:
        # bound[0] is the binder named; a name in taken is also unavailable
        outside = {names.get(v, v) for v in body.free_vars - set(bound)} | set(taken)
        free = [n for n in pool if n not in outside]
        return rng.choice(free) if free else fresh(bound[0])

    def go(t: Term, names: dict) -> Term:
        if isinstance(t, Var):
            return Var(names.get(t.name, t.name))
        if isinstance(t, Omega):
            return t
        if isinstance(t, Abs):
            x = pick(t.body, (t.var,), names)
            return Abs(x, go(t.body, {**names, t.var: x}))
        if isinstance(t, LetPair):
            x = pick(t.body, (t.var1, t.var2), names)
            y = pick(t.body, (t.var2, t.var1), names, (x,))
            inner = {**names, t.var1: x, t.var2: y}
            return LetPair(x, y, go(t.scrutinee, names), go(t.body, inner))
        return type(t)(*(go(getattr(t, f), names) for f in t.__match_args__))

    return go(t, {})


# --- occurrence-counting affinity oracle ---------------------------------


def _occurrence_bounds(t: Term) -> "dict[str, int] | None":
    """Worst-case use count of each free variable, treating choice branches
    as alternatives; None marks a detected double use.
    """
    if isinstance(t, Var):
        return {t.name: 1}
    if isinstance(t, Omega):
        return {}
    if isinstance(t, Abs):
        inner = _occurrence_bounds(t.body)
        if inner is None:
            return None
        return {k: v for k, v in inner.items() if k != t.var}
    if isinstance(t, Choice):
        a, b = _occurrence_bounds(t.left), _occurrence_bounds(t.right)
        if a is None or b is None:
            return None
        return {k: max(a.get(k, 0), b.get(k, 0)) for k in {*a, *b}}
    if isinstance(t, (App, Pair)):
        parts = (t.fn, t.arg) if isinstance(t, App) else (t.first, t.second)
        a, b = _occurrence_bounds(parts[0]), _occurrence_bounds(parts[1])
        if a is None or b is None:
            return None
        out = {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}
        return None if any(v > 1 for v in out.values()) else out
    if isinstance(t, LetPair):
        a = _occurrence_bounds(t.scrutinee)
        b = _occurrence_bounds(t.body)
        if a is None or b is None:
            return None
        b = {k: v for k, v in b.items() if k not in (t.var1, t.var2)}
        out = {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}
        return None if any(v > 1 for v in out.values()) else out
    raise TypeError(f"not a term: {t!r}")


def affine_oracle(ctx: tuple, t: Term) -> bool:
    """check_affine re-derived by brute-force occurrence counting."""
    counts = _occurrence_bounds(t)
    if counts is None:
        return False
    ctx_set = set(ctx)
    return all(k in ctx_set for k in t.free_vars)


# --- reference big-step evaluator ----------------------------------------


def naive_eval(t: Term) -> dict:
    """Plain-dict big-step evaluation, no memo, no distribution class."""
    if is_value(t):
        return {t: ONE}
    if isinstance(t, Omega):
        return {}
    if isinstance(t, Choice):
        out: dict = {}
        for branch in (t.left, t.right):
            for v, p in naive_eval(branch).items():
                out[v] = out.get(v, ZERO) + p * HALF
        return out
    if isinstance(t, App):
        out = {}
        for fv, p in naive_eval(t.fn).items():
            if not isinstance(fv, Abs):
                continue
            for av, q in naive_eval(t.arg).items():
                for rv, r in naive_eval(substitute(fv.body, fv.var, av)).items():
                    out[rv] = out.get(rv, ZERO) + p * q * r
        return out
    if isinstance(t, LetPair):
        out = {}
        for sv, p in naive_eval(t.scrutinee).items():
            if not isinstance(sv, Pair):
                continue
            for v1, q1 in naive_eval(sv.first).items():
                for v2, q2 in naive_eval(sv.second).items():
                    inst = substitute(
                        substitute(t.body, t.var1, v1), t.var2, v2
                    )
                    for rv, r in naive_eval(inst).items():
                        out[rv] = out.get(rv, ZERO) + p * q1 * q2 * r
        return out
    raise TypeError(f"not a closed program: {t!r}")


def reference_halves(p: Pair) -> Dist:
    """The pairs (v, w) of values of the halves of the pair p, with the
    product of their weights, from _eval of each half: no observation
    entry of the eval memo is read or made."""
    d1, d2 = _eval(p.first), _eval(p.second)
    return Dist(((v, w), x * y) for v, x in d1.items() for w, y in d2.items())


def observations() -> list:
    """The keys of the observation entries the eval memo holds, in the
    order they were made: (f, v) for an abstraction applied to a value
    (semantics.eval_app), the pair itself for its halves
    (semantics.eval_halves). Every other key is a program."""
    return [key for key in semantics._memo if type(key) is tuple or type(key) is Pair]


# --- reference distributions: every weight a Fraction ---------------------


class ReferenceDist:
    """The Fraction-weighted subdistribution that metricwb.dist.Dist
    replaced with integer numerators over one denominator. It keeps one
    Fraction per element and re-normalises on every operation; the
    property tests in test_dist.py hold the two to the same answers,
    insertion order and error messages."""

    __slots__ = ("_items", "_weight", "_hash")

    def __init__(self, items=()):
        if isinstance(items, dict):
            items = items.items()
        acc: dict = {}
        for elem, p in items:
            p = Fraction(p)
            if p < 0:
                raise ValueError(f"negative weight {p} for {elem!r}")
            if p == 0:
                continue
            acc[elem] = acc.get(elem, ZERO) + p
        total = sum(acc.values(), ZERO)
        if total > 1:
            raise CoefficientOverflow(f"total mass {total} exceeds 1")
        self._items = acc
        self._weight = total
        self._hash = None

    def weight(self) -> Fraction:
        return self._weight

    def support(self) -> tuple:
        return tuple(self._items)

    def items(self):
        return iter(self._items.items())

    def get(self, elem) -> Fraction:
        return self._items.get(elem, ZERO)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other):
        if not isinstance(other, ReferenceDist):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{e!r}: {p}" for e, p in self._items.items())
        return f"Dist({{{body}}})"

    def map_elems(self, f) -> "ReferenceDist":
        return ReferenceDist((f(e), p) for e, p in self._items.items())

    def bind(self, k) -> "ReferenceDist":
        acc: dict = {}
        for e, p in self._items.items():
            for e2, q in k(e).items():
                acc[e2] = acc.get(e2, ZERO) + p * q
        return ReferenceDist(acc)

    def to_json(self, pretty_elem=str) -> dict:
        entries = sorted(
            ((pretty_elem(e), p) for e, p in self._items.items()), key=lambda ep: ep[0]
        )
        return {
            "support": [{"elem": e, "p": f"{p.numerator}/{p.denominator}"} for e, p in entries],
            "weight": f"{self._weight.numerator}/{self._weight.denominator}",
        }


def reference_mix(weighted) -> ReferenceDist:
    acc: dict = {}
    total_c = ZERO
    for c, d in weighted:
        c = Fraction(c)
        if c < 0:
            raise ValueError(f"negative mixing coefficient {c}")
        total_c += c
        if total_c > 1:
            raise CoefficientOverflow(f"mixing coefficients total {total_c}")
        for e, p in d.items():
            acc[e] = acc.get(e, ZERO) + c * p
    return ReferenceDist(acc)


# --- random distributions and ground metrics -----------------------------


def random_dist(rng, elems, allow_empty: bool = False) -> Dist:
    """Dyadic subdistribution over a subset of elems."""
    while True:
        denom = 2 ** rng.randint(3, 6)
        share = max(1, denom // max(1, len(elems)))
        parts = [(e, Fraction(rng.randint(0, share), denom)) for e in elems]
        d = Dist(parts)
        if d or allow_empty:
            return d


def random_metric(rng, states, triangle: bool = False):
    """Random symmetric dyadic matrix in [0,1]; optionally closed under
    shortest paths so the triangle inequality holds."""
    from metricwb.kantorovich import PseudoMetric

    mu = PseudoMetric(states)
    for i, s in enumerate(states):
        for t in states[i + 1 :]:
            mu.set(s, t, Fraction(rng.randint(0, 16), 16))
    if triangle:
        for mid in states:
            for s in states:
                for t in states:
                    if s is t:
                        continue
                    through = mu.get(s, mid) + mu.get(mid, t)
                    if through < mu.get(s, t):
                        mu.set(s, t, through)
    return mu


# --- exhaustive vertex-enumeration LP oracle -----------------------------


def _solve_square(a: list, b: list) -> "list | None":
    """Solve the square rational system a x = b, or None if singular."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = ONE / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def lp_vertex_min(objective: dict, constraints) -> Fraction:
    """Minimum of the LP by enumerating every basic feasible solution.

    Exponential and only for tiny instances; correct whenever the optimum
    is attained at a vertex (always true here: x >= 0 keeps the region
    pointed and the callers use objectives bounded below).
    """
    var_order: list = []
    seen = set()
    for src in (objective, *(c for c, _, _ in constraints)):
        for k in src:
            if k not in seen:
                seen.add(k)
                var_order.append(k)
    nv = len(var_order)
    col = {k: i for i, k in enumerate(var_order)}

    n_ineq = sum(1 for _, sense, _ in constraints if sense in ("<=", ">="))
    total = nv + n_ineq
    a_rows: list = []
    b_vec: list = []
    slack = 0
    for coeffs, sense, b in constraints:
        row = [ZERO] * total
        for k, c in coeffs.items():
            row[col[k]] += Fraction(c)
        if sense == "<=":
            row[nv + slack] = ONE
            slack += 1
        elif sense == ">=":
            row[nv + slack] = -ONE
            slack += 1
        elif sense != "=":
            raise ValueError(f"bad sense {sense!r}")
        a_rows.append(row)
        b_vec.append(Fraction(b))

    m = len(a_rows)
    cost = [Fraction(objective.get(k, ZERO)) for k in var_order] + [ZERO] * n_ineq
    best = None
    for cols in itertools.combinations(range(total), m):
        sol = _solve_square(
            [[a_rows[i][j] for j in cols] for i in range(m)], b_vec
        )
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [ZERO] * total
        for c, v in zip(cols, sol):
            x[c] = v
        val = sum((ci * xi for ci, xi in zip(cost, x)), ZERO)
        if best is None or val < best:
            best = val
    if best is None:
        raise ValueError("infeasible")
    return best


# --- typed instances for the encoding-transfer property ------------------


def random_type(rng, depth: int) -> Type:
    if depth <= 0:
        return IOTA
    r = rng.random()
    if r < 0.4:
        return IOTA
    if r < 0.7:
        return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return Tensor(random_type(rng, depth - 1), random_type(rng, depth - 1))


def _split_env(rng, env: dict) -> tuple[dict, dict]:
    a: dict = {}
    b: dict = {}
    for k in sorted(env):
        (a if rng.random() < 0.5 else b)[k] = env[k]
    return a, b


def typed_value(rng, ty: Type, env: dict, fuel: int, names) -> "Term | None":
    """A value of the given type over env, or None when none exists (the
    base type has no values)."""
    if isinstance(ty, Arrow):
        x = f"t{next(names)}"
        return Abs(x, typed_program(rng, ty.res, {**env, x: ty.arg}, fuel, names))
    if isinstance(ty, Tensor):
        e1, e2 = _split_env(rng, env)
        return Pair(
            typed_program(rng, ty.first, e1, fuel, names),
            typed_program(rng, ty.second, e2, fuel, names),
        )
    return None


def typed_program(rng, ty: Type, env: dict, fuel: int, names) -> Term:
    """A program of the given type over env, affine by the same ownership
    discipline as the untyped generator. Always succeeds: divergence
    inhabits every type."""
    kinds = ["omega"]
    if any(t == ty for t in env.values()):
        kinds += ["var", "var"]
    if not isinstance(ty, Base):
        kinds += ["value", "value"]
    if fuel > 0:
        kinds += ["choice", "app", "letpair"]
    kind = rng.choice(kinds)

    if kind == "omega":
        return OMEGA
    if kind == "var":
        return Var(rng.choice(sorted(k for k, t in env.items() if t == ty)))
    if kind == "value":
        v = typed_value(rng, ty, env, max(fuel - 1, 0), names)
        assert v is not None
        return v
    if kind == "choice":
        return Choice(
            typed_program(rng, ty, env, fuel - 1, names),
            typed_program(rng, ty, env, fuel - 1, names),
        )
    if kind == "app":
        arg_ty = random_type(rng, 1)
        e1, e2 = _split_env(rng, env)
        return App(
            typed_program(rng, Arrow(arg_ty, ty), e1, fuel - 1, names),
            typed_program(rng, arg_ty, e2, fuel - 1, names),
        )
    a, b = random_type(rng, 1), random_type(rng, 1)
    e1, e2 = _split_env(rng, env)
    x, y = f"t{next(names)}", f"t{next(names)}"
    return LetPair(
        x,
        y,
        typed_program(rng, Tensor(a, b), e1, fuel - 1, names),
        typed_program(rng, ty, {**e2, x: a, y: b}, fuel - 1, names),
    )


def _tensor_step(rng, a: Type, b: Type, names) -> tuple[Term, Type]:
    """A two-hole tensor body typed against components a and b, with the
    type the trace continues at afterwards."""
    options: list = [
        (Var("x"), a),
        (Var("y"), b),
        (Pair(Var("x"), Var("y")), Tensor(a, b)),
        (Pair(Var("y"), Var("x")), Tensor(b, a)),
    ]
    if isinstance(a, Arrow):
        v = typed_value(rng, a.arg, {}, 1, names)
        if v is not None:
            options.append((App(Var("x"), v), a.res))
    if isinstance(b, Arrow):
        v = typed_value(rng, b.arg, {}, 1, names)
        if v is not None:
            options.append((App(Var("y"), v), b.res))
    return options[rng.randrange(len(options))]


def typed_trace(rng, ty: Type, max_len: int, names) -> tuple:
    out: list = []
    while len(out) < max_len and rng.random() < 0.85:
        if isinstance(ty, Arrow):
            v = typed_value(rng, ty.arg, {}, 2, names)
            if v is None:
                break
            out.append(AppAction(v))
            ty = ty.res
        elif isinstance(ty, Tensor):
            body, ty = _tensor_step(rng, ty.first, ty.second, names)
            out.append(TensorAction(body))
        else:
            break
    return tuple(out)


def typed_instance(rng, want_tensor: bool = False) -> tuple[Term, tuple]:
    """A closed typed program together with a trace shaped by its type, so
    every action meets a value of the matching kind."""
    names = itertools.count()
    if want_tensor:
        ty: Type = Tensor(random_type(rng, 1), random_type(rng, 1))
    else:
        ty = random_type(rng, 2)
    m = typed_program(rng, ty, {}, 3, names)
    s = typed_trace(rng, ty, 3, names)
    return m, s


# --- instances and walker for the two-class trace partition --------------


def noisy_abs(k: int) -> Term:
    """Constant function converging to the identity with probability 2^-k."""
    return Abs("x", skewed_choice(OMEGA, identity(), Fraction(1, 2**k)))


def dead_abs() -> Term:
    return Abs("x", OMEGA)


def partition_instances(n: int) -> list[tuple[tuple, tuple]]:
    """Representative state pairs from the indexed family: the tower pair
    extended with dead / noisy spares whose leak exponents sit at and just
    above the n+1 threshold."""
    m_term, n_term = build_mn_nn(n)
    out = []
    for ks in ((), (n + 1,), (n + 2,), (n + 1, n + 1), (n + 1, n + 2)):
        k_state = (m_term,) + tuple(dead_abs() for _ in ks)
        h_state = (n_term,) + tuple(noisy_abs(k) for k in ks)
        out.append((k_state, h_state))
    return out


def partition_violations(
    k_state: tuple, h_state: tuple, u_bound: Fraction, templates, max_len: int
) -> tuple[int, list]:
    """Classify every tuple trace up to max_len over the enumerable actions.

    Returns (number of classified trace states, violations). A violation is
    a trace outside both classes {Pr_K = 0 and Pr_H <= 1/2} and
    {Pr_K = 1 and Pr_H >= u_bound}. Probabilities only shrink when a trace
    is extended, so once a prefix lands in the first class every extension
    stays there and the branch is closed; only second-class prefixes are
    expanded. sided_walk classifies identical distribution pairs once, at
    every length.
    """
    checked = 0
    violations: list = []

    def classify(trace, dk, dh) -> bool:
        nonlocal checked
        checked += 1
        pk, ph = dk.weight(), dh.weight()
        if pk == 0 and ph <= HALF:
            return False
        if pk == 1 and ph >= u_bound:
            return True
        violations.append((trace, pk, ph))
        return False

    sided_walk(k_state, h_state, templates, max_len, classify)
    return checked, violations


def sided_walk(k_state: tuple, h_state: tuple, templates, max_len: int, visit) -> None:
    """trace.explore over the tuple words from the tuples k_state and
    h_state, with every state tagged with its side, ("K", k) or ("H", h):
    the two supports share no state, so explore cancels no mass and visit
    sees each side's own distribution, whose weight is its probability."""

    def step(s, e) -> Dist:
        side, k = s
        return _step(k, e).map_elems(lambda k2: (side, k2))

    explore(
        (dirac(("K", k_state)), dirac(("H", h_state))),
        lambda support: search_actions((k for _, k in support), templates),
        lambda s, a: _effect(s[1], a),
        step,
        max_len,
        visit,
    )


def fraction_widest_gap(
    start: tuple, actions, effect, step, max_len: int
) -> tuple[Fraction, tuple]:
    """trace.widest_gap scored in Fraction arithmetic over the same
    trace.explore: each visited pair's weights as Fractions, the best gap
    as a Fraction, the first word attaining it kept on a strict increase,
    and a word extended while one side keeps more mass than the best gap.
    The reference for widest_gap's integer visitor."""
    best, witness = ZERO, ()

    def visit(word, da, db) -> bool:
        nonlocal best, witness
        wa, wb = da.weight(), db.weight()
        if abs(wa - wb) > best:
            best, witness = abs(wa - wb), word
        return max(wa, wb) > best

    explore(start, actions, effect, step, max_len, visit)
    return best, witness


def search_actions(states, templates) -> list:
    """The candidates enumerate_actions lists at a node whose support is
    states, over the argument table of its width built from every one of
    the templates: the all-templates listing that sided_walk and the
    enumeration tests use. tuples.tuple_distance_lb builds its table from
    the first template of each class alone (tuples._class_firsts)."""
    states = list(states)
    width = max((len(k) for k in states), default=0)
    return enumerate_actions(states, _arguments(templates, width))


# --- reference tuple actions: duplicates removed by action equality only --


def reference_actions(states, templates) -> list:
    """Every action the templates allow on the given support, in the order
    tuples.enumerate_actions lists its share of them, dropping only
    repeated actions and none that merely act alike."""
    states = list(states)
    width = max((len(k) for k in states), default=0)

    def positions(shape):
        return sorted({i + 1 for k in states for i, c in enumerate(k) if isinstance(c, shape)})

    out = [Cut(i) for i in positions(Pair)]
    for i in positions(Abs):
        others = [j for j in range(1, width + 1) if j != i]
        for t in templates:
            if "$j" in t.free_vars:
                out.extend(Appl(i, (j,), rename_free(t, {"$j": f"x{j}"})) for j in others)
            else:
                out.append(Appl(i, (), t))
    return list(dict.fromkeys(out))


def reference_tuple_step(k: tuple, a) -> "Dist | None":
    """Successor distribution of tuple k under action a, or None where a
    does not apply to k. Decides applicability from the action itself, as
    tuples._effect does from the state, and always substitutes the argument,
    which tuples._step skips for an abstraction ignoring its variable.
    Evaluates without the affinity re-check, like the search."""
    width = len(k)
    target = k[a.pos - 1] if a.pos <= width else None
    if isinstance(a, Cut):
        if not isinstance(target, Pair):
            return None
        return Dist(
            (k[: a.pos - 1] + (v, w) + k[a.pos :], p * q)
            for v, p in _eval(target.first).items()
            for w, q in _eval(target.second).items()
        )
    if not isinstance(target, Abs) or any(j > width for j in a.consumed):
        return None
    arg = a.body
    for j in a.consumed:
        arg = substitute(arg, f"x{j}", k[j - 1])
    kept = [j for j in range(1, width + 1) if j == a.pos or j not in a.consumed]
    return _eval(substitute(target.body, target.var, arg)).map_elems(
        lambda w: tuple(w if j == a.pos else k[j - 1] for j in kept)
    )


def _reference_or_zero(k: tuple, a) -> Dist:
    d = reference_tuple_step(k, a)
    return Dist() if d is None else d


def reference_tuple_search(m: Term, n: Term, templates, max_len: int) -> tuple:
    """tuples.tuple_distance_lb re-derived without trace.explore,
    tuples._effect or the search's outcome table: a plain breadth-first
    search over reference_actions, scored in Fraction arithmetic. Each
    word's pair of distributions is built from its parent's with
    reference_tuple_step, mass included, never cancelled. A word that
    reaches a pair an earlier word reached is skipped, since it has the
    same future and comes later; actions acting alike are still tried one
    by one. A word whose mass on both sides is at most the best gap is not
    extended, since no extension can beat it."""
    best, witness = ZERO, ()
    start = tuple(eval_big(t).map_elems(lambda v: (v,)) for t in (m, n))
    frontier, reached = [((), *start)], {start}
    for length in range(max_len + 1):
        extend = []
        for word, da, db in frontier:
            wa, wb = da.weight(), db.weight()
            if abs(wa - wb) > best:
                best, witness = abs(wa - wb), word
            if max(wa, wb) > best:
                extend.append((word, da, db))
        if length == max_len:
            break
        frontier = []
        for word, da, db in extend:
            for a in reference_actions({*da.support(), *db.support()}, templates):
                pair = tuple(d.bind(lambda s: _reference_or_zero(s, a)) for d in (da, db))
                if pair not in reached:
                    reached.add(pair)
                    frontier.append((word + (a,), *pair))
    return best, witness


# --- the context oracle: small contexts by brute force --------------------

HOLE = "[·]"  # a variable no parsed program can mention


def contexts(max_size: int) -> list:
    """Every closed affine one-hole context up to max_size, one per
    alpha-class, as a term whose only free variable is HOLE. The size
    counts 1 per variable, omega, abstraction, application, pair or choice
    node and 2 per let. Binders are named by their depth, '%0', '%1', ...,
    which neither the parser nor terms.fresh ever produces. A choice may
    hold the hole in both branches, since only one of them runs."""

    @functools.cache
    def of_size(k: int, depth: int) -> list:
        # every term of size k under depth binders, however it uses them
        if k == 1:
            return [Var(f"%{i}") for i in range(depth)] + [Var(HOLE), OMEGA]
        x, y = f"%{depth}", f"%{depth + 1}"
        out = [Abs(x, b) for b in of_size(k - 1, depth + 1)]
        for j in range(1, k - 1):
            for l, r in itertools.product(of_size(j, depth), of_size(k - 1 - j, depth)):
                out += (App(l, r), Pair(l, r), Choice(l, r))
        for j in range(1, k - 2):
            bodies = of_size(k - 2 - j, depth + 2)
            for m, b in itertools.product(of_size(j, depth), bodies):
                out.append(LetPair(x, y, m, b))
        return out

    every = (c for k in range(1, max_size + 1) for c in of_size(k, 0))
    return list(
        dict.fromkeys(
            c
            for c in every
            if HOLE in c.free_vars and affine_violation((HOLE,), c) is None
        )
    )


def plug(c: Term, m: Term) -> Term:
    """C[M]. M is closed, so plain substitution captures nothing."""
    return substitute(c, HOLE, m)


def context_gap(c: Term, m: Term, n: Term) -> Fraction:
    """|Pr(C[M] converges) - Pr(C[N] converges)|."""
    return abs(_eval(plug(c, m)).weight() - _eval(plug(c, n)).weight())


def best_context(m: Term, n: Term, max_size: int) -> tuple:
    """(widest gap, first context that opens it) over contexts(max_size):
    a lower bound on the context distance between closed programs m and n."""
    best, witness = ZERO, Var(HOLE)
    for c in contexts(max_size):
        gap = context_gap(c, m, n)
        if gap > best:
            best, witness = gap, c
    return best, witness


# --- reference bisimulation fragment: one program state per program ------


def interrogate(t: Term, actions) -> list:
    """Each of the checked actions whose kind fits the value t, in order,
    with the distribution of programs it moves t to (trace._move): [(a,
    Dist of programs), ...]. Each action moves t by its own template, not
    by its effect, so this is the reference that bisim.build_lmc's shared
    moves are tested against (reference_lmc)."""
    return [
        (a, _move(t if type(a) is AppAction else reference_halves(t), a))
        for a in actions
        if _fits(t, a)
    ]


def reference_lmc(m: Term, n: Term, universe, max_depth: int, tensor_templates=()) -> LmcFragment:
    """The fragment build_lmc gives with a state for every program, not for
    every value distribution: the tuple ("prog", t) is the state of the
    program t, and its eval label leads to _eval(t). A value state is the
    value itself, as in build_lmc. States come in breadth-first order,
    each at its least depth, with the same labels as build_lmc's, each
    moved by its own template (interrogate)."""
    actions = alphabet(universe, tensor_templates)
    depth = {}
    labels, succ = {}, {}
    queue = deque()

    def discover(s, d):
        if s not in depth:
            depth[s] = d
            queue.append(s)

    discover(("prog", m), 0)
    discover(("prog", n), 0)
    while queue:
        s = queue.popleft()
        d = depth[s]
        out = []  # (label, successors)
        if isinstance(s, tuple):
            values = _eval(s[1])
            for t in values.support():
                discover(t, d)
            out.append((EVAL_LABEL, values))
        elif d < max_depth:
            for a, programs in interrogate(s, actions):
                programs = programs.map_elems(lambda t: ("prog", t))
                for t in programs.support():
                    discover(t, d + 1)
                out.append((a, programs))
        labels[s] = tuple(a for a, _ in out)
        succ[s] = tuple(dist for _, dist in out)
    return LmcFragment(list(depth), labels, succ)


def reference_shared(frag: LmcFragment, s, t) -> list:
    """The successor distributions of the labels both s and t answer to,
    each distinct pair once, in s's label order, looked up label by label
    in frag.trans: what bisim._shared gives without assuming that two
    states' labels are equal or disjoint."""
    t_labels = set(frag.labels[t])
    return list(
        dict.fromkeys(
            (frag.trans[(s, label)], frag.trans[(t, label)])
            for label in frag.labels[s]
            if label in t_labels
        )
    )


# --- reference tokenizer: one match object per token ----------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<nat>[0-9]+)"
    r"|(?P<sym>\(\+\)|[\\().<>,;=])|(?P<bad>\S)"
)
_REFERENCE_KEYWORDS = frozenset({"let", "in", "omega", "I"})


def reference_tokens(text: str) -> list:
    """The (kind, word, offset) of every token of text, ending in
    ("eof", "", len(text)), as parser.Tokens read them when it kept one
    regex match per token; raises the same ParseError on a stray character."""
    toks = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        group, tok, pos = m.lastgroup, m.group(), m.start()
        if group == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        kind = tok if group == "sym" or tok in _REFERENCE_KEYWORDS else group
        toks.append((kind, tok, pos))
    toks.append(("eof", "", len(text)))
    return toks


# --- reference renderer: every binder name scanned from suffix 0 ----------


def reference_pretty(t: Term) -> str:
    """terms.pretty as it was before it resumed each base name's suffix
    scan: quadratic in the binders that share a base name. A binder's
    display name holds in its scope only, as in terms.pretty."""
    used = set(t.free_vars)
    display = {}

    def pick(name):
        base = name.split("%", 1)[0] or "x"
        cand, n = base, 0
        while cand in used:
            n += 1
            cand = f"{base}{n}"
        used.add(cand)
        return cand

    def render(t, prec):
        # precedence: 0 term, 1 choice, 2 application, 3 atom
        if isinstance(t, Var):
            s, p = display.get(t.name, t.name), 3
        elif isinstance(t, Omega):
            s, p = "omega", 3
        elif isinstance(t, Pair):
            s, p = f"<{render(t.first, 0)}, {render(t.second, 0)}>", 3
        elif isinstance(t, Abs):
            saved = dict(display)
            display[t.var] = dx = pick(t.var)
            s, p = f"\\{dx}. {render(t.body, 0)}", 0
            display.clear()
            display.update(saved)
        elif isinstance(t, LetPair):
            ms = render(t.scrutinee, 0)
            saved = dict(display)
            dx, dy = pick(t.var1), pick(t.var2)
            display[t.var1], display[t.var2] = dx, dy
            s, p = f"let <{dx}, {dy}> = {ms} in {render(t.body, 0)}", 0
            display.clear()
            display.update(saved)
        elif isinstance(t, Choice):
            s, p = f"{render(t.left, 1)} (+) {render(t.right, 2)}", 1
        else:
            s, p = f"{render(t.fn, 2)} {render(t.arg, 3)}", 2
        return f"({s})" if p < prec else s

    return render(t, 0)

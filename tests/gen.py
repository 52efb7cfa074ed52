"""Seeded random generators and independent oracles shared by the tests.

Everything here is deliberately written against the public surface only,
in a different style from the package internals, so that agreement
between an oracle and the implementation is evidence rather than an
echo. All randomness flows through an explicit random.Random instance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from metricwb.dist import Dist, dirac
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
    identity,
    is_value,
    rename_free,
    size,
    substitute,
)
from metricwb.semantics import _eval, eval_big
from metricwb.trace import AppAction, TensorAction, explore
from metricwb.tuples import (
    Appl,
    Cut,
    _effect,
    _successor,
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


def random_program(rng, max_size: int = 30, fuel: int = 5) -> Term:
    """A closed affine program with size(t) <= max_size."""
    while True:
        t = _gen_term(rng, frozenset(), fuel, itertools.count())
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


# --- occurrence-counting affinity oracle ---------------------------------


def _occurrence_bounds(t: Term) -> "dict[str, int] | None":
    """Worst-case use count of each free variable, treating choice branches
    as alternatives; None marks a detected double use or a nested rebinding.
    """
    if isinstance(t, Var):
        return {t.name: 1}
    if isinstance(t, Omega):
        return {}
    if isinstance(t, Abs):
        inner = _occurrence_bounds(t.body)
        if inner is None or t.var in _binders_below(t.body):
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
        if t.var1 in _binders_below(t.body) or t.var2 in _binders_below(t.body):
            return None
        b = {k: v for k, v in b.items() if k not in (t.var1, t.var2)}
        out = {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}
        return None if any(v > 1 for v in out.values()) else out
    raise TypeError(f"not a term: {t!r}")


def _binders_below(t: Term) -> set:
    if isinstance(t, (Var, Omega)):
        return set()
    if isinstance(t, Abs):
        return {t.var} | _binders_below(t.body)
    if isinstance(t, App):
        return _binders_below(t.fn) | _binders_below(t.arg)
    if isinstance(t, Choice):
        return _binders_below(t.left) | _binders_below(t.right)
    if isinstance(t, Pair):
        return _binders_below(t.first) | _binders_below(t.second)
    return (
        {t.var1, t.var2}
        | _binders_below(t.scrutinee)
        | _binders_below(t.body)
    )


def affine_oracle(ctx: tuple, t: Term) -> bool:
    """check_affine re-derived by brute-force occurrence counting."""
    counts = _occurrence_bounds(t)
    if counts is None:
        return False
    ctx_set = set(ctx)
    if any(k not in ctx_set for k in t.free_vars):
        return False
    if ctx_set & _binders_below(t):
        return False
    return True


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
    expanded. trace.explore classifies identical distribution pairs below
    max_len once.
    """
    checked = 0
    violations: list = []

    def classify(trace, pk, ph) -> bool:
        nonlocal checked
        checked += 1
        if pk == 0 and ph <= HALF:
            return False
        if pk == 1 and ph >= u_bound:
            return True
        violations.append((trace, pk, ph))
        return False

    explore(
        (dirac(k_state), dirac(h_state)),
        lambda support: enumerate_actions(support, templates),
        _effect,
        _successor,
        max_len,
        classify,
    )
    return checked, violations


# --- reference tuple actions: duplicates removed by action equality only --


def reference_actions(states, templates) -> list:
    """Every action the templates allow on the given support, in the order
    tuples.enumerate_actions tries them, dropping only repeated actions and
    none that merely act alike."""
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
    which tuples._successor skips for an abstraction ignoring its variable.
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
    """tuples.tuple_distance_lb re-derived without trace.explore: a plain
    breadth-first search over reference_actions. Every word up to max_len
    is built with reference_tuple_step and scored in order; no step is
    remembered, no action is skipped for acting like another, and no word
    is skipped for reaching an earlier pair. A word whose mass on both
    sides is at most the best gap is not extended, since no extension can
    beat it."""
    best, witness = ZERO, ()
    frontier = [((), *(eval_big(t).map_elems(lambda v: (v,)) for t in (m, n)))]
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
        frontier = [
            (word + (a,), *(d.bind(lambda s: _reference_or_zero(s, a)) for d in (da, db)))
            for word, da, db in extend
            for a in reference_actions(set(da.support()) | set(db.support()), templates)
        ]
    return best, witness

"""Exact transport lifting of a state metric to subdistributions.

The primal program ships mass h between supports at cost mu and pays unit
price for unmatched mass on either side. The dual is implemented from its
own formulation (after substituting away the free variables) rather than
read off the primal solution, so the two routes genuinely cross-check.
All arithmetic is over Fraction; the simplex uses Bland's rule, so it
terminates on degenerate instances too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Optional, Sequence

from .dist import Dist
from .errors import Infeasible, Unbounded

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PseudoMetric:
    """Symmetric [0,1]-valued distances with zero diagonal over indexed
    states, stored sparsely: values holds each pair once, keyed by (lower
    index, higher index), and a missing key reads 0."""

    __slots__ = ("states", "index", "values")

    def __init__(self, states: Sequence[Hashable]):
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("duplicate states")
        self.values: dict[tuple[int, int], Fraction] = {}

    def key(self, s, t) -> Optional[tuple[int, int]]:
        """The pair's key; None on the diagonal."""
        i, j = self.index[s], self.index[t]
        if i == j:
            return None
        return (i, j) if i < j else (j, i)

    def get(self, s, t) -> Fraction:
        key = self.key(s, t)
        return _ZERO if key is None else self.values.get(key, _ZERO)

    def set(self, s, t, value: Fraction) -> None:
        value = Fraction(value)
        if not _ZERO <= value <= _ONE:
            raise ValueError(f"metric value {value} outside [0, 1]")
        key = self.key(s, t)
        if key is not None:
            self.values[key] = value
        elif value:
            raise ValueError("diagonal must stay zero")

    def copy(self) -> "PseudoMetric":
        out = PseudoMetric(self.states)
        out.values = dict(self.values)
        return out

    def __eq__(self, other):
        if not isinstance(other, PseudoMetric):
            return NotImplemented
        return (
            self.states == other.states
            and self.pointwise_le(other)
            and other.pointwise_le(self)
        )

    def pointwise_le(self, other: "PseudoMetric") -> bool:
        return all(v <= other.values.get(k, _ZERO) for k, v in self.values.items())

    def triangle_defect(self) -> Fraction:
        """Worst violation of the triangle inequality; 0 for a pseudometric."""
        s = self.states
        gaps = (self.get(a, b) - self.get(a, c) - self.get(c, b) for a in s for b in s for c in s)
        return max(gaps, default=_ZERO)


@dataclass
class TransportPlan:
    """Primal solution: shipped mass h plus unmatched slack on each side."""

    h: dict = field(default_factory=dict)  # (s, t) -> mass
    w: dict = field(default_factory=dict)  # s -> unmatched in d
    z: dict = field(default_factory=dict)  # t -> unmatched in e

    def row_sum(self, s) -> Fraction:
        total = sum((v for (a, _), v in self.h.items() if a == s), _ZERO)
        return total + self.w.get(s, _ZERO)

    def col_sum(self, t) -> Fraction:
        total = sum((v for (_, b), v in self.h.items() if b == t), _ZERO)
        return total + self.z.get(t, _ZERO)


def solve_lp_exact(
    objective: dict,
    constraints: Sequence[tuple[dict, str, Fraction]],
    minimize: bool = True,
) -> tuple[Fraction, dict]:
    """Optimise c.x over {x >= 0 : constraints}, exactly.

    Variables are the keys of the objective and constraint dictionaries;
    senses are '<=', '>=', or '='. Returns (optimal value, assignment on
    the objective's variables). Raises Infeasible or Unbounded.
    """
    var_order: list = []
    seen = set()
    for src in (objective, *(c for c, _, _ in constraints)):
        for k in src:
            if k not in seen:
                seen.add(k)
                var_order.append(k)
    nv = len(var_order)
    col_of = {k: i for i, k in enumerate(var_order)}

    sign = _ONE if minimize else -_ONE
    cost = [sign * Fraction(objective.get(k, _ZERO)) for k in var_order]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    senses: list[str] = []
    for coeffs, sense, b in constraints:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {sense!r}")
        row = [_ZERO] * nv
        for k, c in coeffs.items():
            row[col_of[k]] += Fraction(c)
        b = Fraction(b)
        if b < 0:
            row = [-c for c in row]
            b = -b
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        rows.append(row)
        rhs.append(b)
        senses.append(sense)

    # Columns: structural, then one slack/surplus per inequality, then one
    # artificial per row that needs it.
    m = len(rows)
    ncols = nv
    slack_col = [-1] * m
    for i, sense in enumerate(senses):
        if sense in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    art_col = [-1] * m
    for i, sense in enumerate(senses):
        if sense in (">=", "="):
            art_col[i] = ncols
            ncols += 1

    tab = [row + [_ZERO] * (ncols - nv) for row in rows]
    basis = [-1] * m
    for i, sense in enumerate(senses):
        if sense == "<=":
            tab[i][slack_col[i]] = _ONE
            basis[i] = slack_col[i]
        elif sense == ">=":
            tab[i][slack_col[i]] = -_ONE
            tab[i][art_col[i]] = _ONE
            basis[i] = art_col[i]
        else:
            tab[i][art_col[i]] = _ONE
            basis[i] = art_col[i]

    artificials = frozenset(c for c in art_col if c >= 0)

    if artificials:
        phase1 = [_ZERO] * ncols
        for c in artificials:
            phase1[c] = _ONE
        value = _pivot_until_optimal(tab, rhs, basis, phase1, banned=frozenset())
        if value != 0:
            raise Infeasible("no feasible point")
        # Artificials still basic sit at zero; pivot them out so phase 2
        # cannot re-inflate them. An all-zero row is redundant and dropped.
        keep = []
        for i in range(m):
            if basis[i] in artificials:
                enter = next(
                    (
                        j
                        for j in range(ncols)
                        if j not in artificials and tab[i][j] != 0
                    ),
                    -1,
                )
                if enter < 0:
                    continue
                _raw_pivot(tab, rhs, basis, i, enter)
            keep.append(i)
        if len(keep) < m:
            tab = [tab[i] for i in keep]
            rhs = [rhs[i] for i in keep]
            basis = [basis[i] for i in keep]
            m = len(tab)

    full_cost = cost + [_ZERO] * (ncols - nv)
    value = _pivot_until_optimal(tab, rhs, basis, full_cost, banned=artificials)

    assignment = {}
    x = [_ZERO] * ncols
    for i, bcol in enumerate(basis):
        x[bcol] = rhs[i]
    for k in objective:
        assignment[k] = x[col_of[k]]
    return sign * value, assignment


def _raw_pivot(tab, rhs, basis, leave: int, enter: int) -> None:
    inv = _ONE / tab[leave][enter]
    tab[leave] = [a * inv for a in tab[leave]]
    rhs[leave] *= inv
    prow, pb = tab[leave], rhs[leave]
    for i in range(len(tab)):
        if i != leave:
            f = tab[i][enter]
            if f:
                tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
                rhs[i] -= f * pb
    basis[leave] = enter


def _pivot_until_optimal(tab, rhs, basis, cost, banned) -> Fraction:
    """Run simplex iterations in place; returns the optimal objective value."""
    m = len(tab)
    ncols = len(cost)
    zrow = list(cost)
    zval = _ZERO
    for i in range(m):
        c = cost[basis[i]]
        if c != 0:
            zval -= c * rhs[i]
            row = tab[i]
            for j in range(ncols):
                if row[j]:
                    zrow[j] -= c * row[j]
    # Invariant: zrow[j] is the reduced cost of column j, -zval the current
    # objective; basic columns have reduced cost zero.
    while True:
        enter = -1
        for j in range(ncols):
            if j not in banned and zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return -zval
        leave = -1
        best_ratio = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise Unbounded("objective is unbounded")
        _raw_pivot(tab, rhs, basis, leave, enter)
        f = zrow[enter]
        if f:
            zrow = [a - f * b for a, b in zip(zrow, tab[leave])]
            zval -= f * rhs[leave]


def lift_primal(
    mu: PseudoMetric, d: Dist, e: Dist
) -> tuple[Fraction, TransportPlan]:
    """Minimum transport cost between d and e under ground metric mu,
    charging unmatched mass at unit price. Returns the optimal plan too."""
    si = d.support()
    tj = e.support()
    objective: dict = {}
    for i, s in enumerate(si):
        for j, t in enumerate(tj):
            objective[("h", i, j)] = mu.get(s, t)
    for i in range(len(si)):
        objective[("w", i)] = _ONE
    for j in range(len(tj)):
        objective[("z", j)] = _ONE
    constraints = []
    for i, s in enumerate(si):
        coeffs = {("h", i, j): _ONE for j in range(len(tj))}
        coeffs[("w", i)] = _ONE
        constraints.append((coeffs, "=", d.get(s)))
    for j, t in enumerate(tj):
        coeffs = {("h", i, j): _ONE for i in range(len(si))}
        coeffs[("z", j)] = _ONE
        constraints.append((coeffs, "=", e.get(t)))
    value, x = solve_lp_exact(objective, constraints, minimize=True)
    plan = TransportPlan()
    for i, s in enumerate(si):
        for j, t in enumerate(tj):
            v = x[("h", i, j)]
            if v:
                plan.h[(s, t)] = v
        plan.w[s] = x[("w", i)]
    for j, t in enumerate(tj):
        plan.z[t] = x[("z", j)]
    return value, plan


def lift_dual(mu: PseudoMetric, d: Dist, e: Dist) -> Fraction:
    """Same lifted distance through the dual program.

    The dual maximises a.d + b.e subject to a <= 1, b <= 1 and
    a_s + b_t <= mu(s,t) + [unmatched penalties], with a and b otherwise
    free. Substituting a = 1 - alpha, b = 1 - beta (alpha, beta >= 0)
    turns it into the covering program solved here.
    """
    si = d.support()
    tj = e.support()
    objective: dict = {}
    for i, s in enumerate(si):
        objective[("a", i)] = d.get(s)
    for j, t in enumerate(tj):
        objective[("b", j)] = e.get(t)
    constraints = []
    for i, s in enumerate(si):
        for j, t in enumerate(tj):
            constraints.append(
                (
                    {("a", i): _ONE, ("b", j): _ONE},
                    ">=",
                    2 - mu.get(s, t),
                )
            )
    value, _ = solve_lp_exact(objective, constraints, minimize=True)
    return d.weight() + e.weight() - value

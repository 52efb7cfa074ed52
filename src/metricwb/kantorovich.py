"""Exact transport lifting of a state metric to subdistributions.

Both routes solve a packing program: maximise c.x subject to A.x <= b and
x >= 0, with b >= 0. Such a program is feasible at x = 0, so the simplex
starts from the slack basis, where every constraint's slack is basic, and
needs no first phase. The primal ships mass between the supports to save
the unit price of unmatched mass; the dual is built from its own
constraints, after shifting its variables to be nonnegative, rather than
read off the primal solution, so the two routes genuinely cross-check.
All arithmetic is over Fraction; the simplex uses Bland's rule, so it
terminates on degenerate instances too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional, Sequence

from .dist import Dist
from .errors import Unbounded

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TWO = Fraction(2)


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


def solve_lp_exact(
    objective: dict, constraints: Sequence[tuple[dict, Fraction]]
) -> tuple[Fraction, dict]:
    """Maximise c.x over {x >= 0 : a.x <= b for each (a, b) in
    constraints}, exactly.

    Variables are the keys of the objective and constraint dictionaries,
    in order of first appearance. Every b must be nonnegative, so that the
    slack basis is feasible. Returns (optimal value, assignment on the
    objective's variables). Raises ValueError on a negative b and
    Unbounded if the objective is.
    """
    col_of: dict = {}
    for src in (objective, *(a for a, _ in constraints)):
        for k in src:
            col_of.setdefault(k, len(col_of))
    nv, m = len(col_of), len(constraints)

    # Rows: one per constraint, with its slack column nv + i, then the
    # objective row, whose entries are the reduced costs (-c at the start)
    # and whose right-hand side is the current value.
    tab: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, (coeffs, b) in enumerate(constraints):
        b = Fraction(b)
        if b < 0:
            raise ValueError(f"right-hand side {b} is negative")
        row = [_ZERO] * (nv + m)
        for k, c in coeffs.items():
            row[col_of[k]] += Fraction(c)
        row[nv + i] = _ONE
        tab.append(row)
        rhs.append(b)
    zrow = [_ZERO] * (nv + m)
    for k, c in objective.items():
        zrow[col_of[k]] -= Fraction(c)
    tab.append(zrow)
    rhs.append(_ZERO)
    basis = list(range(nv, nv + m))

    while True:
        # Bland's rule: the lowest column that improves enters, and the
        # lowest basic column among the tied ratios leaves.
        enter = next((j for j, r in enumerate(tab[m]) if r < 0), -1)
        if enter < 0:
            break
        leave, best = -1, _ZERO
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if (
                    leave < 0
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise Unbounded("objective is unbounded")
        inv = _ONE / tab[leave][enter]
        prow = tab[leave] = [a * inv for a in tab[leave]]
        pb = rhs[leave] = rhs[leave] * inv
        for i in range(m + 1):
            f = tab[i][enter]
            if f and i != leave:
                tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
                rhs[i] -= f * pb
        basis[leave] = enter

    x = [_ZERO] * (nv + m)
    for i, col in enumerate(basis):
        x[col] = rhs[i]
    return rhs[m], {k: x[col_of[k]] for k in objective}


def lift_primal(mu: PseudoMetric, d: Dist, e: Dist) -> tuple[Fraction, dict]:
    """Minimum transport cost between d and e under ground metric mu,
    charging unmatched mass at unit price, with an optimal plan
    {(s, t): mass shipped from s to t} that lists positive masses only.

    Shipping h from s to t costs h·mu(s, t) and leaves 2h less mass
    unmatched, so the program maximises the saving Σ h_st·(2 - mu(s, t))
    with row sums at most d(s) and column sums at most e(t); the mass left
    over is the slack, and the cost is |d| + |e| - saving."""
    si = d.support()
    tj = e.support()
    objective = {(s, t): _TWO - mu.get(s, t) for s in si for t in tj}
    constraints = [({(s, t): _ONE for t in tj}, d.get(s)) for s in si]
    constraints += [({(s, t): _ONE for s in si}, e.get(t)) for t in tj]
    saving, h = solve_lp_exact(objective, constraints)
    plan = {st: x for st, x in h.items() if x}
    return d.weight() + e.weight() - saving, plan


def lift_dual(mu: PseudoMetric, d: Dist, e: Dist) -> Fraction:
    """Same lifted distance through the dual program.

    The dual maximises a.d + b.e subject to a <= 1, b <= 1 and
    a_s + b_t <= mu(s, t), with a and b otherwise free. Some optimum has
    a, b >= -1: raise each a_s to min(1, min_t mu(s, t) - b_t), which
    keeps it feasible and, as d >= 0, no worse; then a_s >= -1, because
    mu >= 0 and b_t <= 1. Raise each b_t likewise, against the new a. So
    substitute a = alpha - 1 and b = beta - 1 with alpha, beta >= 0: the
    packing program alpha <= 2, beta <= 2, alpha_s + beta_t <= 2 +
    mu(s, t) has value a.d + b.e + |d| + |e| at the optimum.
    """
    si = d.support()
    tj = e.support()
    objective = {("a", s): d.get(s) for s in si}
    objective.update({("b", t): e.get(t) for t in tj})
    constraints = [({k: _ONE}, _TWO) for k in objective]
    constraints += [
        ({("a", s): _ONE, ("b", t): _ONE}, _TWO + mu.get(s, t)) for s in si for t in tj
    ]
    value, _ = solve_lp_exact(objective, constraints)
    return value - d.weight() - e.weight()

"""Finite subdistributions with exact rational weights.

A Dist stores positive integer numerators over one shared positive
denominator, in lowest terms (gcd(den, *numerators) == 1), so each
distribution has exactly one representation and equality and hashing
compare it directly. bind, map_elems, cancel, dirac and fair work on
the integers, and distributions combine through bind alone. Fraction
appears only at the interface: the constructor, weight, get, items,
to_json and printed messages; weight_parts and bind_weight_parts read
weights as integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Generic, Hashable, Iterable, Iterator, Tuple, TypeVar

from .errors import CoefficientOverflow

Rational = Fraction
T = TypeVar("T", bound=Hashable)
U = TypeVar("U", bound=Hashable)

_ZERO = Fraction(0)


class Dist(Generic[T]):
    """Immutable finite map from elements to positive weights, total <= 1.

    Zero-weight entries are pruned on construction; equal elements (for
    terms: alpha-equal) are merged. The support keeps the order in which
    elements first appear.
    """

    __slots__ = ("_num", "_den", "_total", "_weight", "_hash")

    def __init__(self, items: "Iterable[tuple[T, Rational]] | dict[T, Rational]" = ()):
        if isinstance(items, dict):
            items = items.items()
        parts = []
        for elem, p in items:
            if type(p) is not Fraction:
                p = Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative weight {p} for {elem!r}")
            if p.numerator:
                parts.append((elem, p.numerator, p.denominator))
        den = lcm(*(d for _, _, d in parts))
        num: dict = {}
        for elem, n, d in parts:
            num[elem] = num.get(elem, 0) + n * (den // d)
        self._set(num, den)

    def _set(self, num: dict, den: int) -> None:
        # num holds positive numerators; bring them to lowest terms with den
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: n // g for e, n in num.items()}
        total = sum(num.values())
        if total > den:
            raise CoefficientOverflow(f"total mass {Fraction(total, den)} exceeds 1")
        self._num = num
        self._den = den
        self._total = total
        self._weight: "Fraction | None" = None
        self._hash: "int | None" = None

    def weight(self) -> Rational:
        w = self._weight
        if w is None:
            w = self._weight = Fraction(self._total, self._den)
        return w

    def weight_parts(self) -> tuple[int, int]:
        """The weight as (total numerator, positive denominator), not
        necessarily in lowest terms: integers a caller can cross-multiply
        to compare weights without building a Fraction."""
        return self._total, self._den

    def bind_weight_parts(self, k: "Callable[[T], Dist[U]]") -> tuple[int, int]:
        """The weight of self.bind(k) as weight_parts reads it, without
        building self.bind(k): only the weights of k's distributions are read."""
        total, den = 0, 1  # k's weights so far, over their common denominator
        for e, n in self._num.items():
            d = k(e)
            if d._total:
                if den % d._den:
                    f = d._den // gcd(den, d._den)
                    total, den = total * f, den * f
                total += n * d._total * (den // d._den)
        return total, self._den * den

    def support(self) -> Tuple[T, ...]:
        return tuple(self._num)

    def items(self) -> Iterator[tuple[T, Rational]]:
        den = self._den
        return ((e, Fraction(n, den)) for e, n in self._num.items())

    def get(self, elem: T) -> Rational:
        n = self._num.get(elem)
        return _ZERO if n is None else Fraction(n, self._den)

    def __contains__(self, elem) -> bool:
        return elem in self._num

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, Dist):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self._den, frozenset(self._num.items())))
        return h

    def __repr__(self):
        body = ", ".join(f"{e!r}: {p}" for e, p in self.items())
        return f"Dist({{{body}}})"

    def map_elems(self, f: Callable[[T], U]) -> "Dist[U]":
        """Pushforward along f; colliding images are merged."""
        acc: dict = {}
        for e, n in self._num.items():
            e = f(e)
            acc[e] = acc.get(e, 0) + n
        return _make(acc, self._den)

    def bind(self, k: "Callable[[T], Dist[U]]") -> "Dist[U]":
        """Monadic bind: run k on every support element, weight and sum,
        elements in order of first appearance. A point mass of weight 1
        hands back k's own distribution."""
        if self._den == 1:  # weight 1 on one element, or nothing at all
            for e in self._num:
                return k(e)
            return self
        parts = [(n, k(e)) for e, n in self._num.items()]
        den = lcm(*(d._den for _, d in parts))
        acc: dict = {}
        for n, d in parts:
            f = n * (den // d._den)
            for e, q in d._num.items():
                acc[e] = acc.get(e, 0) + f * q
        return _make(acc, self._den * den)

    def cancel(self, other: "Dist[T]") -> "tuple[Dist[T], Dist[T]]":
        """Both distributions less the mass they share: min(self(s),
        other(s)) is taken from each side at every common element s, so
        the supports come out disjoint and self(s) - other(s) is unchanged
        everywhere. Elements keep their order. Disjoint inputs come back
        as they are."""
        na, nb = self._num, other._num
        if na.keys().isdisjoint(nb):
            return self, other
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        a = {e: n * fa for e, n in na.items()}
        b = {e: n * fb for e, n in nb.items()}
        for e in na.keys() & nb.keys():
            gap = a[e] - b[e]
            if gap > 0:
                a[e] = gap  # an existing key keeps its place
                del b[e]
            elif gap < 0:
                b[e] = -gap
                del a[e]
            else:
                del a[e], b[e]
        return _make(a, den), _make(b, den)

    def to_json(self, pretty_elem: Callable[[T], str] = str) -> dict:
        entries = sorted(
            ((pretty_elem(e), p) for e, p in self.items()),
            key=lambda ep: ep[0],
        )
        return {
            "support": [{"elem": e, "p": frac_str(p)} for e, p in entries],
            "weight": frac_str(self.weight()),
        }


def _make(num: dict, den: int) -> Dist:
    """The Dist with weights num[e] / den, for positive numerators."""
    d = object.__new__(Dist)
    d._set(num, den)
    return d


def frac_str(p: Rational) -> str:
    return f"{p.numerator}/{p.denominator}"


def dirac(elem: T) -> Dist[T]:
    """The point mass of weight 1 on elem, its slots set directly: it is in
    lowest terms and within mass 1 as it stands."""
    d = object.__new__(Dist)
    d._num, d._den, d._total, d._weight, d._hash = {elem: 1}, 1, 1, None, None
    return d


def fair(a: T, b: T) -> Dist[T]:
    """The fair choice 1/2·a + 1/2·b, built from integers: equal elements
    are one point of weight 1. a comes first, as Dist(((a, 1/2), (b, 1/2)))
    gives it."""
    return dirac(a) if a == b else _make({a: 1, b: 1}, 2)


EMPTY: Dist = Dist()

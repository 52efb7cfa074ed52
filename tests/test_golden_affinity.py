"""Golden answers of `affine_violation`.

`DIGEST` is the sha256 of one line per query, `seed ctx message`, over
seeded `gen.arbitrary_term` terms with pools of two to four names, each
checked under the empty context, `a` alone and the whole pool. `None`
stands for an affine term. The answers were recorded from an earlier
tree and must stay byte-identical under refactoring; a change that means
to alter them re-records with `PYTHONPATH=src python
tests/test_golden_affinity.py` and says so.

`CASES` spells out what the digest covers: each of the two reasons, each
place a double use can happen, the order in which reasons are reported,
and binder names that are no reason at all, since terms are taken up to
alpha-equivalence.
"""

import hashlib
import random

import gen
import pytest
from metricwb.parser import parse
from metricwb.terms import OMEGA, Abs, App, LetPair, Var, affine_violation

TERMS = 4000
POOLS = (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"))
DIGEST = "fce2b3ce50ae0f8e180e7772b7cff86dd98da319a72a2e0acadaebbb626516fd"
VIOLATIONS = 5851


def answers() -> list[str]:
    lines = []
    for seed in range(TERMS):
        rng = random.Random(seed)
        pool = POOLS[seed % len(POOLS)]
        t = gen.arbitrary_term(rng, rng.randint(1, 5), pool)
        for ctx in ((), ("a",), pool):
            lines.append(f"{seed} {','.join(ctx)} {affine_violation(ctx, t)}")
    return lines


def summary() -> tuple[int, str]:
    """The number of violations among the answers, and their digest."""
    lines = answers()
    violations = sum(not line.endswith(" None") for line in lines)
    return violations, hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_seeded_answers():
    assert summary() == (VIOLATIONS, DIGEST)


def used_twice(name: str, where: str) -> str:
    return f"variable '{name}' is used on both sides of {where}"


CASES = [
    # a double use, at each of the three nodes that split their variables
    ((), "\\x. x x", used_twice("x", "an application")),
    ((), "\\x. <x, x>", used_twice("x", "a pair")),
    ((), "\\p. let <a, b> = p in p a b", used_twice("p", "a let binding")),
    # the two sides of a choice share
    ((), "\\x. x (+) x", None),
    # the least name of an overlap is named
    ((), "\\b. \\a. <a b, a b>", used_twice("a", "a pair")),
    # a child's double use comes before the node's own, the left child's first
    (("x",), "(x x) x", used_twice("x", "an application")),
    (("x", "y"), "<y, y> x x", used_twice("y", "a pair")),
    (("x", "y"), "(y y) (x x)", used_twice("y", "an application")),
    (("x",), "let <a, b> = <x, x> in x", used_twice("x", "a pair")),
    (("x",), "let <a, b> = x in <a, a> x", used_twice("a", "a pair")),
    # a free variable outside the context
    ((), "x", "variable 'x' is not in the context"),
    (("a",), "\\y. <x, b> y", "variable 'b' is not in the context"),
    # a binder named like a context variable is no reason
    (("x",), Abs("x", Var("x")), None),
    (("b", "c"), LetPair("c", "b", OMEGA, OMEGA), None),
    # nor is a binder reused along one scope chain, or in parallel
    ((), Abs("x", Abs("x", Var("x"))), None),
    ((), LetPair("a", "b", OMEGA, Abs("b", Var("b"))), None),
    ((), App(Abs("y", Var("y")), Abs("y", Var("y"))), None),
    ((), LetPair("a", "b", Abs("a", Var("a")), OMEGA), None),
    # the reasons in the order they are reported
    ((), "x x", used_twice("x", "an application")),
    (("y",), App(Abs("y", Var("y")), Var("z")), "variable 'z' is not in the context"),
    (("x",), Abs("x", Abs("x", Var("x"))), None),
]


@pytest.mark.parametrize("ctx, term, expected", CASES)
def test_reason(ctx, term, expected):
    t = parse(term) if isinstance(term, str) else term
    assert affine_violation(ctx, t) == expected


if __name__ == "__main__":
    violations, digest = summary()
    print(f"VIOLATIONS = {violations}")
    print(f'DIGEST = "{digest}"')

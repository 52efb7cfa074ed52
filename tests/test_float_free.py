"""The semantic path stays float-free: integers and Fraction only.

Fraction(1, 2) == 0.5 holds in Python, so an equality test lets a float
through. These tests read the source for floats and check the exact type
of the distances the library returns.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import metricwb
from metricwb import bisim
from metricwb.bisim import bisim_distance
from metricwb.dist import EMPTY, Dist
from metricwb.kantorovich import lift_dual, lift_primal
from metricwb.parser import parse
from metricwb.trace import trace_distance_lb
from metricwb.tuples import tuple_distance_lb

MODULES = sorted(Path(metricwb.__file__).parent.glob("*.py"))
MATH_NAMES = {"gcd", "lcm"}


def float_uses(tree: ast.AST) -> list[str]:
    """Float literals, names `float`, and math imports other than gcd/lcm."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {a.name}"
                for a in node.names
                if a.name.split(".")[0] == "math"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in MATH_NAMES
            ]
    return found


def test_the_guard_sees_each_kind_of_float():
    src = "import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(1)\n"
    assert len(float_uses(ast.parse(src))) == 4


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats_in_the_source(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


def test_liftings_return_fractions():
    rng = random.Random(20261101)
    shapes = set()
    for _ in range(60):
        states = [f"s{j}" for j in range(rng.randint(1, 4))]
        mu = gen.random_metric(rng, states)
        d = gen.random_dist(rng, states, allow_empty=True)
        e = gen.random_dist(rng, states, allow_empty=True)
        value, plan = lift_primal(mu, d, e)
        assert type(value) is Fraction
        assert all(type(m) is Fraction for m in plan.values())
        assert type(lift_dual(mu, d, e)) is Fraction
        assert type(bisim._lifted(mu, d, e)) is Fraction
        shapes.add((min(len(d), 2), min(len(e), 2)))
    mu = gen.random_metric(rng, ["a"])
    assert type(bisim._lifted(mu, EMPTY, EMPTY)) is Fraction
    assert type(bisim._lifted(mu, Dist([("a", Fraction(1, 2))]), EMPTY)) is Fraction
    assert {(2, 2), (1, 2), (2, 1)} <= shapes


@pytest.mark.parametrize(
    "m, n, universe",
    [
        ("I", "I", "I"),
        ("I", "omega", "I"),
        ("I", "I (+) omega", "I"),
        ("\\x. ((\\y. y) (+) omega)", "(\\x. \\y. y) (+) (\\x. omega)", "I"),
        ("\\x. x (+) omega", "\\x. \\z. z (+) omega", "\\x. \\z. z (+) omega"),
    ],
)
def test_bisim_distance_returns_a_fraction(m, n, universe):
    value = bisim_distance(parse(m), parse(n), (parse(universe),), 4)
    assert type(value) is Fraction


@pytest.mark.parametrize(
    "m, n, universe, max_len, witness_len",
    [
        # settled at the root: nothing is left to extend
        ("I", "I", "I", 3, 0),
        ("I", "omega", "I", 3, 0),
        # the root alone is scored
        ("I", "\\x. omega", "I", 0, 0),
        # no action to play
        ("I", "\\x. omega", "", 2, 0),
        # apart only at the last length
        ("\\x. \\y. y", "\\x. \\y. omega", "I", 2, 2),
        ("\\x. x (+) omega", "\\x. x", "I", 1, 1),
    ],
)
def test_search_distances_return_fractions(m, n, universe, max_len, witness_len):
    m, n = parse(m), parse(n)
    universe = (parse(universe),) if universe else ()
    for value, witness in (
        trace_distance_lb(m, n, universe, max_len),
        tuple_distance_lb(m, n, universe, max_len),
    ):
        assert type(value) is Fraction
        assert len(witness) == witness_len

"""Binder names are hygiene: alpha-variants give the originals' answers.

Programs, universe values and tensor and tuple templates are renamed
capture-free into a four-name pool (gen.alpha_variant), so that binders
shadow each other, the tensor holes x and y, and the names of the
constants a template combines. Every query must answer exactly as on the
originals, and every value eval_big returns must be a program again.
"""

import random

import gen
from metricwb import (
    bisim_distance,
    eval_big,
    program_tuple_trace_prob,
    trace_accept,
    trace_distance_lb,
    tuple_distance_lb,
)
from metricwb.terms import Abs, App, LetPair, Omega, Term, Var
from metricwb.trace import AppAction, TensorAction, default_tensor_templates
from metricwb.tuples import Appl, default_templates


def rebinds(t: Term, bound: frozenset = frozenset()) -> bool:
    """Whether some binder of t reuses a name bound around it."""
    match t:
        case Abs(x, b):
            return x in bound or rebinds(b, bound | {x})
        case LetPair(x, y, m, b):
            return bool({x, y} & bound) or rebinds(m, bound) or rebinds(b, bound | {x, y})
        case Var(_) | Omega():
            return False
        case _:
            return any(rebinds(getattr(t, f), bound) for f in t.__match_args__)


def renamed_action(rng, a):
    if isinstance(a, AppAction):
        return AppAction(gen.alpha_variant(rng, a.value))
    if isinstance(a, TensorAction):
        return TensorAction(gen.alpha_variant(rng, a.body))
    if isinstance(a, Appl):
        return Appl(a.pos, a.consumed, gen.alpha_variant(rng, a.body))
    return a


def test_alpha_variants_answer_as_the_originals():
    shadowing = values = 0
    for seed in range(150):
        rng = random.Random(seed)
        m = gen.random_program(rng, max_size=20, prefix="v")
        n = gen.random_program(rng, max_size=20, prefix="w")
        universe = [gen.random_value(rng, max_size=8), gen.random_value(rng, max_size=8, prefix="t")]
        tensor = default_tensor_templates(universe)[:12]
        templates = default_templates(universe)[:8]

        def variant(t):
            return gen.alpha_variant(rng, t)

        m2, n2 = variant(m), variant(n)
        universe2 = [variant(u) for u in universe]
        tensor2 = [variant(t) for t in tensor]
        templates2 = [variant(t) for t in templates]
        shadowing += any(map(rebinds, (m2, n2, *universe2, *tensor2, *templates2)))

        assert eval_big(m2) == eval_big(m)
        for v in eval_big(m2).support():
            assert eval_big(v).weight() == 1  # a returned value is a program
            values += 1
        gap, word = trace_distance_lb(m, n, universe, 2, tensor)
        assert trace_distance_lb(m2, n2, universe2, 2, tensor2) == (gap, word)
        word2 = tuple(renamed_action(rng, a) for a in word)
        assert trace_accept(m2, word2) == trace_accept(m, word)
        assert bisim_distance(m2, n2, universe2, 2, tensor_templates=tensor2) == bisim_distance(
            m, n, universe, 2, tensor_templates=tensor
        )
        gap, word = tuple_distance_lb(m, n, templates, 2)
        assert tuple_distance_lb(m2, n2, templates2, 2) == (gap, word)
        word2 = tuple(renamed_action(rng, a) for a in word)
        assert program_tuple_trace_prob(m2, word2) == program_tuple_trace_prob(m, word)
    assert shadowing > 100 and values > 50


def test_a_value_that_rebinds_a_name_is_a_program():
    # (\x. \y. x) (\y. y) reuses y in parallel; its value \y. \y. y nests it
    v = Abs("y", Abs("y", Var("y")))
    assert rebinds(v)
    assert eval_big(App(Abs("x", Abs("y", Var("x"))), Abs("y", Var("y")))) == eval_big(v)
    assert eval_big(App(v, Abs("z", Var("z")))) == eval_big(Abs("y", Var("y")))

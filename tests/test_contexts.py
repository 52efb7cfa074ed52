"""The context oracle: the paper's own distance, bounded from below by brute
force.

The context distance between closed programs M and N is the supremum over
closed affine one-hole contexts C of |Pr(C[M] converges) - Pr(C[N]
converges)|. gen.contexts enumerates the small contexts, so the widest gap
over them is a lower bound that shares only evaluation and substitution
with the searches it checks. No known exact value may lie below it.
"""

import random
from fractions import Fraction

import pytest

import gen
from metricwb import build_expair, build_mn_nn, u_seq
from metricwb.semantics import eval_small
from metricwb.terms import affine_violation, identity


class TestEnumeration:
    @pytest.mark.parametrize("max_size, count", [(4, 48), (5, 229)])
    def test_counts(self, max_size, count):
        assert len(gen.contexts(max_size)) == count

    def test_each_plugs_into_a_closed_affine_program(self):
        program = identity()
        for c in gen.contexts(5):
            assert c.free_vars == {gen.HOLE}
            assert affine_violation((), gen.plug(c, program)) is None

    def test_the_hole_alone_is_the_termination_gap(self):
        m, n = build_expair()
        assert gen.context_gap(gen.contexts(1)[0], m, n) == abs(
            eval_small(m).weight() - eval_small(n).weight()
        )


def _replayed(c, m, n):
    return abs(eval_small(gen.plug(c, m)).weight() - eval_small(gen.plug(c, n)).weight())


class TestKnownValues:
    # Every context up to size 5 gives the towers and expair gap 0; the
    # first to separate them, let <x, y> = [·] in x y, has size 6.
    KNOWN = [
        *((f"tower n={n}", build_mn_nn(n), 1 - u_seq(n)) for n in (1, 2, 3)),
        ("expair", build_expair(), Fraction(3, 4)),
    ]

    @pytest.mark.parametrize("name, pair, exact", KNOWN, ids=[k[0] for k in KNOWN])
    def test_no_context_beats_the_exact_value(self, name, pair, exact):
        m, n = pair
        best, witness = gen.best_context(m, n, 6)
        assert 0 < best <= exact
        assert _replayed(witness, m, n) == best


class TestReplay:
    def test_best_context_replays_on_random_pairs(self):
        rng = random.Random(20261018)
        separated = 0
        for _ in range(200):
            m = gen.random_program(rng, max_size=15, fuel=4)
            n = gen.random_program(rng, max_size=15, fuel=4)
            best, witness = gen.best_context(m, n, 5)
            assert _replayed(witness, m, n) == best
            separated += best > 0
        assert separated >= 100

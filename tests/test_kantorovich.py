import random
from fractions import Fraction

import pytest

import gen
from metricwb import Unbounded, dirac
from metricwb.dist import Dist, EMPTY
from metricwb.kantorovich import (
    PseudoMetric,
    lift_dual,
    lift_primal,
    solve_lp_exact,
)

F = Fraction
HALF = F(1, 2)


class TestPseudoMetric:
    def test_zero_start_and_symmetric_set(self):
        mu = PseudoMetric(["a", "b"])
        assert mu.get("a", "b") == 0
        mu.set("a", "b", HALF)
        assert mu.get("a", "b") == HALF
        assert mu.get("b", "a") == HALF

    def test_range_is_enforced(self):
        mu = PseudoMetric(["a", "b"])
        with pytest.raises(ValueError):
            mu.set("a", "b", F(3, 2))
        with pytest.raises(ValueError):
            mu.set("a", "b", F(-1, 2))

    def test_diagonal_stays_zero(self):
        mu = PseudoMetric(["a"])
        with pytest.raises(ValueError):
            mu.set("a", "a", HALF)
        mu.set("a", "a", F(0))

    def test_a_missing_pair_reads_zero(self):
        lo, hi = PseudoMetric(["a", "b", "c"]), PseudoMetric(["a", "b", "c"])
        hi.set("b", "a", F(0))
        assert lo.values == {} and hi.values == {(0, 1): 0}
        assert lo.get("a", "b") == hi.get("a", "b") == 0
        assert lo == hi

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            PseudoMetric(["a", "a"])

    def test_pointwise_le(self):
        lo = PseudoMetric(["a", "b"])
        hi = PseudoMetric(["a", "b"])
        hi.set("a", "b", HALF)
        assert lo.pointwise_le(hi)
        assert not hi.pointwise_le(lo)

    def test_triangle_defect(self):
        mu = PseudoMetric(["a", "b", "c"])
        mu.set("a", "b", F(1, 4))
        mu.set("b", "c", F(1, 4))
        mu.set("a", "c", F(1))
        assert mu.triangle_defect() == HALF
        closed = gen.random_metric(random.Random(1), ["a", "b", "c"], triangle=True)
        assert closed.triangle_defect() == 0


class TestSolver:
    """solve_lp_exact maximises c.x subject to rows a.x <= b, b >= 0, x >= 0."""

    def test_unconstrained_minimum_is_zero(self):
        value, x = solve_lp_exact({"x": F(-1)}, [])
        assert value == 0
        assert x["x"] == 0

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp_exact({"x": F(1)}, [])
        with pytest.raises(Unbounded):
            solve_lp_exact({"x": F(1), "y": F(1)}, [({"x": F(1), "y": F(-1)}, F(2))])

    def test_a_negative_right_hand_side_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            solve_lp_exact({"x": F(1)}, [({"x": F(1)}, F(-1))])

    def test_maximisation(self):
        value, x = solve_lp_exact({"x": F(1)}, [({"x": F(1)}, F(5))])
        assert value == 5
        assert x["x"] == 5

    def test_degenerate_vertex_terminates(self):
        value, _ = solve_lp_exact(
            {"x": F(1), "y": F(1)},
            [
                ({"x": F(1)}, F(0)),
                ({"y": F(1)}, F(0)),
                ({"x": F(-1), "y": F(-1)}, F(0)),
            ],
        )
        assert value == 0

    def test_bland_rule_stops_on_beales_cycling_example(self):
        # Beale's example, as Chvatal (Linear Programming, ch. 3) gives it:
        # the largest-coefficient rule cycles on it from the slack basis.
        value, x = solve_lp_exact(
            {"x4": F(3, 4), "x5": F(-20), "x6": F(1, 2), "x7": F(-6)},
            [
                ({"x4": F(1, 4), "x5": F(-8), "x6": F(-1), "x7": F(9)}, F(0)),
                ({"x4": F(1, 2), "x5": F(-12), "x6": F(-1, 2), "x7": F(3)}, F(0)),
                ({"x6": F(1)}, F(1)),
            ],
        )
        assert value == F(5, 4)
        assert x == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}

    def test_agrees_with_vertex_enumeration(self):
        # The optimum against gen.lp_vertex_min on the negated objective. A
        # program is unbounded iff some ray r >= 0 with A.r <= 0 and
        # sum(r) = 1 has c.r > 0, which lp_vertex_min decides too (it
        # raises ValueError when there is no such ray at all).
        rng = random.Random(20260340)
        n_bounded = n_unbounded = 0
        for _ in range(80):
            names = [f"x{j}" for j in range(rng.randint(1, 3))]
            obj = {v: F(rng.randint(-1, 5)) for v in names}
            rows = [
                ({v: F(rng.randint(-2, 3)) for v in names}, F(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 4))
            ]
            neg = {v: -c for v, c in obj.items()}
            ray = [(a, "<=", F(0)) for a, _ in rows]
            ray.append(({v: F(1) for v in names}, "=", F(1)))
            try:
                unbounded = gen.lp_vertex_min(neg, ray) < 0
            except ValueError:
                unbounded = False
            if unbounded:
                with pytest.raises(Unbounded):
                    solve_lp_exact(obj, rows)
                n_unbounded += 1
                continue
            got, x = solve_lp_exact(obj, rows)
            assert got == -gen.lp_vertex_min(neg, [(a, "<=", b) for a, b in rows])
            assert all(v >= 0 for v in x.values())
            for a, b in rows:
                assert sum(c * x[v] for v, c in a.items()) <= b
            assert sum(c * x[v] for v, c in obj.items()) == got
            n_bounded += 1
        assert n_bounded > 30 and n_unbounded > 5


class TestLift:
    def test_identical_diracs_cost_nothing(self):
        mu = PseudoMetric(["a", "b"])
        mu.set("a", "b", F(1))
        v, _ = lift_primal(mu, dirac("a"), dirac("a"))
        assert v == 0
        assert lift_dual(mu, dirac("a"), dirac("a")) == 0

    def test_unmatched_mass_pays_unit_price(self):
        mu = PseudoMetric(["a"])
        d = Dist([("a", F(1))])
        e = Dist([("a", HALF)])
        v, _ = lift_primal(mu, d, e)
        assert v == HALF
        assert lift_dual(mu, d, e) == HALF

    def test_empty_against_empty(self):
        mu = PseudoMetric(["a"])
        v, _ = lift_primal(mu, EMPTY, EMPTY)
        assert v == 0
        assert lift_dual(mu, EMPTY, EMPTY) == 0

    def test_empty_against_full(self):
        mu = PseudoMetric(["a"])
        v, _ = lift_primal(mu, dirac("a"), EMPTY)
        assert v == 1
        assert lift_dual(mu, dirac("a"), EMPTY) == 1

    def test_dirac_pairs_recover_the_ground_metric(self):
        rng = random.Random(20260341)
        for _ in range(25):
            states = [f"s{j}" for j in range(rng.randint(2, 5))]
            mu = gen.random_metric(rng, states)
            for s in states:
                for t in states:
                    v, _ = lift_primal(mu, dirac(s), dirac(t))
                    assert v == mu.get(s, t)

    def test_strong_duality_on_random_instances(self):
        rng = random.Random(20260342)
        for _ in range(40):
            states = [f"s{j}" for j in range(rng.randint(1, 5))]
            mu = gen.random_metric(rng, states)
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            v1, _ = lift_primal(mu, d, e)
            v2 = lift_dual(mu, d, e)
            assert v1 == v2

    def test_agrees_with_an_independent_vertex_formulation(self):
        rng = random.Random(20260343)
        for _ in range(25):
            states = ["p", "q", "r"][: rng.randint(1, 3)]
            mu = gen.random_metric(rng, states)
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            v1, _ = lift_primal(mu, d, e)
            sup_d, sup_e = list(d.support()), list(e.support())
            obj = {("h", s, t): mu.get(s, t) for s in sup_d for t in sup_e}
            cons = []
            for s in sup_d:
                obj[("w", s)] = F(1)
                row = {("h", s, t): F(1) for t in sup_e}
                row[("w", s)] = F(1)
                cons.append((row, "=", d.get(s)))
            for t in sup_e:
                obj[("z", t)] = F(1)
                row = {("h", s, t): F(1) for s in sup_d}
                row[("z", t)] = F(1)
                cons.append((row, "=", e.get(t)))
            want = gen.lp_vertex_min(obj, cons) if obj else F(0)
            assert v1 == want

    def test_value_stays_in_the_unit_interval(self):
        rng = random.Random(20260344)
        for _ in range(30):
            states = [f"s{j}" for j in range(rng.randint(1, 4))]
            mu = gen.random_metric(rng, states)
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            v, _ = lift_primal(mu, d, e)
            assert 0 <= v <= 1

    def test_weight_gap_is_a_lower_bound(self):
        rng = random.Random(20260345)
        for _ in range(30):
            states = [f"s{j}" for j in range(rng.randint(1, 4))]
            mu = gen.random_metric(rng, states)
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            v, _ = lift_primal(mu, d, e)
            assert v >= abs(d.weight() - e.weight())

    def test_monotone_in_the_ground_metric(self):
        rng = random.Random(20260346)
        for _ in range(20):
            states = [f"s{j}" for j in range(rng.randint(2, 4))]
            lo = gen.random_metric(rng, states)
            hi = PseudoMetric(states)
            for i, s in enumerate(states):
                for t in states[i + 1 :]:
                    bump = F(rng.randint(0, 4), 16)
                    hi.set(s, t, min(F(1), lo.get(s, t) + bump))
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            assert lift_primal(lo, d, e)[0] <= lift_primal(hi, d, e)[0]

    def test_triangle_transfer_through_a_middle_distribution(self):
        rng = random.Random(20260347)
        for _ in range(30):
            states = ["p", "q", "r"][: rng.randint(2, 3)]
            rho = gen.random_metric(rng, states)
            nu = gen.random_metric(rng, states)
            mu = PseudoMetric(states)
            for s in states:
                for u in states:
                    if s == u:
                        continue
                    fwd = min(rho.get(s, t) + nu.get(t, u) for t in states)
                    bwd = min(rho.get(u, t) + nu.get(t, s) for t in states)
                    mu.set(s, u, min(F(1), fwd, bwd))
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            f = gen.random_dist(rng, states, allow_empty=True)
            assert (
                lift_primal(mu, d, f)[0]
                <= lift_primal(rho, d, e)[0] + lift_primal(nu, e, f)[0]
            )

    def test_plan_ships_within_the_marginals_along_a_forest(self):
        # The plan is a vertex of the packing polytope, so its positive
        # entries form a forest in the bipartite graph of the supports:
        # an edge never joins two nodes that are already connected.
        rng = random.Random(20260348)
        n_edges = 0
        for _ in range(60):
            states = [f"s{j}" for j in range(rng.randint(1, 5))]
            mu = gen.random_metric(rng, states)
            d = gen.random_dist(rng, states, allow_empty=True)
            e = gen.random_dist(rng, states, allow_empty=True)
            v, plan = lift_primal(mu, d, e)
            assert all(m > 0 for m in plan.values())
            for s in d.support():
                assert sum(m for (a, _), m in plan.items() if a == s) <= d.get(s)
            for t in e.support():
                assert sum(m for (_, b), m in plan.items() if b == t) <= e.get(t)
            shipped = sum(plan.values(), F(0))
            cost = sum((mu.get(s, t) * m for (s, t), m in plan.items()), F(0))
            assert cost + (d.weight() - shipped) + (e.weight() - shipped) == v
            root = {}

            def find(node):
                while root.get(node, node) != node:
                    node = root[node]
                return node

            for s, t in plan:
                a, b = find(("d", s)), find(("e", t))
                assert a != b, f"cycle through {(s, t)} in {plan}"
                root[a] = b
            n_edges += len(plan)
        assert n_edges > 100

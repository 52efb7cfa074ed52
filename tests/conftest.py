from fractions import Fraction

import hypothesis
import pytest

from metricwb import trace, tuples

hypothesis.settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    deadline=None,
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def search_step(monkeypatch):
    """search_step(search) is the step function that search(), a trace or
    tuple distance query, hands trace.widest_gap, taken before the search
    makes its first step."""

    def take_step(search):
        handed = []

        def take(start, actions, effect, step, max_len):
            handed.append(step)
            return Fraction(0), ()

        with monkeypatch.context() as patch:
            patch.setattr(trace, "widest_gap", take)
            patch.setattr(tuples, "widest_gap", take)
            search()
        return handed[0]

    return take_step

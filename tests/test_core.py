"""Unit and property tests for the action box and the deviation score."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.core import ActionSpace, ContractViolation, deviation_score
from specverify.env import EnvState, Geometry
from specverify.planner import NominalRolloutPlanner


def unit_space(dim=3):
    return ActionSpace(lower=[0.0] * dim, upper=[1.0] * dim)


def wide_space(dim):
    """A box whose range sum (200 per dimension) keeps test distances below the clamp."""
    return ActionSpace(lower=[-100.0] * dim, upper=[100.0] * dim)


def plan_once(max_len=None):
    state = EnvState(agent_pos=[0.2, 0.2], object_pos=[1.0, 1.0],
                     goal_pos=[1.8, 1.8], gripper=0, step=0)
    planner = NominalRolloutPlanner(Geometry(), chunk_size=4, context_width=16)
    return planner.plan(state, max_len=max_len)


class TestActionSpace:
    def test_range_sum(self):
        space = ActionSpace(lower=[-0.25, -0.25, 0.0], upper=[0.25, 0.25, 1.0])
        assert space.range_sum == pytest.approx(2.0)

    def test_clamp_and_action_factory(self):
        """Clamping is how actions are built: out-of-box components land on the box."""
        space = unit_space(2)
        assert space.clamp([-5.0, 0.3]).tolist() == [0.0, 0.3]
        assert np.all(space.clamp([2.0, -2.0]) == [1.0, 0.0])

    def test_arrays_are_read_only(self):
        space = ActionSpace(lower=[0, 0], upper=[1, 1])
        assert space.lower.dtype == space.upper.dtype == np.float64
        with pytest.raises(ValueError):
            space.lower[0] = -1.0


class TestValueObjects:
    """Actions are 1-D arrays in a 1-D box; planner output is a (length, dim)
    chunk and a context vector."""

    def test_action_requires_vector(self):
        with pytest.raises(ContractViolation):
            deviation_score(np.zeros((1, 3)), np.zeros(3), unit_space())

    def test_chunk_requires_nonempty(self):
        assert len(plan_once(max_len=0).chunk) == 1

    def test_chunk_indexing(self):
        out = plan_once()
        assert len(out.chunk) == 4 and np.array(out.chunk).shape == (4, 3)
        assert out.chunk[0] == (0.25, 0.25, 0.0)  # toward the object

    def test_context_width(self):
        assert plan_once().context.shape == (16,)

    def test_deviation_score_bounds(self):
        space = unit_space()
        assert deviation_score(np.zeros(3), np.zeros(3), space) == 0.0
        assert deviation_score(np.zeros(3), np.ones(3), space) == 1.0
        assert deviation_score(np.zeros(3), np.full(3, 5.0), space) == 1.0


class TestL1Distance:
    """deviation_score is the L1 distance over the range sum; in a wide box the
    clamp never binds, so it keeps the metric properties."""

    def test_known_value(self):
        a = np.array([0.0, 0.5, 1.0])
        b = np.array([0.25, 0.5, 0.0])
        assert deviation_score(a, b, unit_space()) == pytest.approx(1.25 / 3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            deviation_score(np.array([0.0]), np.array([0.0, 1.0]), unit_space(2))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.data())
    def test_symmetry_and_identity(self, xs, data):
        ys = data.draw(st.lists(st.floats(-10, 10), min_size=len(xs),
                                max_size=len(xs)))
        a, b = np.array(xs), np.array(ys)
        space = wide_space(len(xs))
        assert deviation_score(a, b, space) == deviation_score(b, a, space)
        assert deviation_score(a, a, space) == 0.0
        assert deviation_score(a, b, space) >= 0.0

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=4), st.data())
    def test_triangle_inequality(self, xs, data):
        n = len(xs)
        ys = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        zs = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        a, b, c = np.array(xs), np.array(ys), np.array(zs)
        space = wide_space(n)
        assert (deviation_score(a, c, space)
                <= deviation_score(a, b, space) + deviation_score(b, c, space) + 1e-9)


class TestNormalizeDiscrepancy:
    """The raw L1 distance is normalized by the action-space range sum."""

    def test_exact_fraction(self):
        space = ActionSpace(lower=[-0.25, -0.25, 0.0], upper=[0.25, 0.25, 1.0])
        planned = np.array([0.25, 0.0, 0.5])
        reference = np.array([0.0, 0.0, 0.0])
        assert deviation_score(planned, reference, space) == pytest.approx(0.375)
        assert deviation_score(np.array([0.0, 0.0, 1.0]), reference, space) == pytest.approx(0.5)

    def test_clamps_to_one(self):
        assert deviation_score(np.full(3, 99.0), np.zeros(3), unit_space()) == 1.0

    def test_zero(self):
        assert deviation_score(np.full(3, 0.5), np.full(3, 0.5), unit_space()) == 0.0

    def test_rejects_nonfinite(self):
        """min(1.0, nan) is 1.0, so a NaN distance would silently read as a
        full deviation; it raises instead."""
        for bad in (np.nan, np.inf, -np.inf):
            planned = np.array([0.0, bad, 0.0])
            with pytest.raises(ContractViolation):
                deviation_score(planned, np.zeros(3), unit_space())
            with pytest.raises(ContractViolation):
                deviation_score(np.zeros(3), planned, unit_space())

    @settings(max_examples=200)
    @given(st.floats(0, 100), st.integers(1, 6))
    def test_range_and_monotonicity(self, raw, dim):
        space = unit_space(dim)
        zero = np.zeros(dim)
        moved = np.zeros(dim)
        moved[0] = raw
        score = deviation_score(moved, zero, space)
        assert 0.0 <= score <= 1.0
        moved[0] = raw * 2 + 0.1
        assert deviation_score(moved, zero, space) >= score

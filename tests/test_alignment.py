import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stepalign.alignment import (
    decode_segments, drop_dtw, drop_dtw_stack, percentile_drop_cost,
    percentile_drop_cost_stack,
)
from stepalign.data import Segment
from stepalign.errors import ValidationError
from oracles import brute_force_align, cosine_matrix, drop_dtw_loop


def _cells(visited):
    """The visited cells in path order (row-major is path order)."""
    return [tuple(cell) for cell in np.argwhere(visited).tolist()]


def _dropped(visited):
    """The items no row visits."""
    return np.flatnonzero(~visited.any(axis=0)).tolist()


def _path_cost(cost, visited, di):
    """Recompute a path's total from first principles."""
    total = sum(cost[i][j] for i, j in _cells(visited))
    return total + di * len(_dropped(visited))


def _check_staircase(visited):
    """Every row visits an item, and row i's last visited item is before
    row i+1's first."""
    assert visited.dtype == bool and visited.ndim == 2
    rows = [np.flatnonzero(row) for row in visited]
    assert all(cols.size for cols in rows), "a row visits no item"
    for above, below in zip(rows, rows[1:]):
        assert above[-1] < below[0], "rows are not strictly monotone"


def _priced_out(cost):
    """A finite drop cost high enough that, at the sizes tested here, the
    best alignment drops nothing."""
    return float(np.abs(cost).max()) * cost.size + 1.0


class TestPercentileDropCost:
    def test_nearest_rank_example(self):
        cost = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        # oracle: sort and take the ceil(0.8 * 5) = 4th smallest
        flat = sorted(cost.ravel())
        assert flat[math.ceil(80 * len(flat) / 100) - 1] == 4.0
        assert percentile_drop_cost(cost, 80) == 4.0

    def test_constant_matrix(self):
        assert percentile_drop_cost(np.full((3, 4), 2.5), 37.0) == 2.5

    def test_pct_100_is_max(self):
        rng = np.random.default_rng(0)
        cost = rng.normal(size=(4, 6))
        assert percentile_drop_cost(cost, 100) == cost.max()

    def test_tiny_pct_is_min(self):
        rng = np.random.default_rng(1)
        cost = rng.normal(size=(4, 6))
        assert percentile_drop_cost(cost, 1e-9) == cost.min()

    @pytest.mark.parametrize("pct", [0.5, 80.0, 100.0])
    @pytest.mark.parametrize("kind", ["real", "integer", "ties"])
    def test_equals_sorted_nearest_rank(self, kind, pct):
        # the selected element is the one a full sort puts at the rank,
        # for every matrix of a stack, each taken on its own
        rng = np.random.default_rng(["real", "integer", "ties"].index(kind))
        for _ in range(50):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 13)),
                     int(rng.integers(1, 60)))
            if kind == "real":
                stack = rng.normal(size=shape)
            elif kind == "integer":
                stack = rng.integers(-3, 4, size=shape).astype(float)
            else:
                stack = rng.choice([-0.5, 0.0, 0.5], size=shape, p=[0.1, 0.8, 0.1])
            rank = max(1, math.ceil(pct * stack[0].size / 100.0))
            expected = [np.sort(cost, axis=None)[rank - 1] for cost in stack]
            assert [percentile_drop_cost(cost, pct) for cost in stack] == expected

    @pytest.mark.parametrize("pct", [0.5, 80.0, 100.0])
    @pytest.mark.parametrize("kind", ["real", "integer", "ties"])
    def test_stack_equals_each_matrix_alone(self, kind, pct):
        rng = np.random.default_rng(10 + ["real", "integer", "ties"].index(kind))
        for _ in range(50):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 13)),
                     int(rng.integers(1, 60)))
            if kind == "real":
                stack = rng.normal(size=shape)
            elif kind == "integer":
                stack = rng.integers(-3, 4, size=shape)
            else:
                stack = rng.choice([-0.5, 0.0, 0.5], size=shape, p=[0.1, 0.8, 0.1])
            got = percentile_drop_cost_stack(stack, pct)
            assert got.dtype == np.float64
            assert got.tolist() == [percentile_drop_cost(cost, pct)
                                    for cost in stack]


class TestDtw:
    """drop_dtw with drops priced out of reach: every item is visited."""

    def test_singleton(self):
        cost = np.array([[3.5]])
        visited, total = drop_dtw(cost, _priced_out(cost))
        assert _cells(visited) == [(0, 0)]
        assert total == 3.5

    def test_identity_favoring_matrix(self):
        cost = np.ones((3, 3)) - np.eye(3)
        visited, total = drop_dtw(cost, _priced_out(cost))
        assert total == 0.0
        assert _cells(visited) == [(0, 0), (1, 1), (2, 2)]


class TestDropDtw:
    def test_middle_item_dropped(self):
        cost = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        visited, total = drop_dtw(cost, drop_item_cost=0.5)
        assert total == pytest.approx(0.5)
        assert _cells(visited) == [(0, 0), (1, 2)]
        assert _dropped(visited) == [1]

    def test_zero_costs_mean_no_drops(self):
        visited, total = drop_dtw(np.zeros((3, 5)), drop_item_cost=0.25)
        assert total == 0.0
        assert _dropped(visited) == []

    @pytest.mark.parametrize("drop", ["1", True, None],
                             ids=["string", "bool", "none"])
    def test_drop_cost_not_a_number_rejected(self, drop):
        # a string or None raised a bare TypeError, and True ran as 1
        with pytest.raises(ValidationError,
                           match=rf"^drop_item_cost must be int or float, "
                                 rf"got {drop!r}$"):
            drop_dtw(np.zeros((2, 3)), drop)

    def test_infinite_drop_cost_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            drop_dtw(np.ones((2, 2)), math.inf)

    @pytest.mark.parametrize("cost, kind", [
        ([["0", "1", "2"]], "<U1"), ([[True, False, True]], "bool"),
        ([[1 + 1j, 0.0, 2.0]], "complex128"), ([[0.0, None, 1.0]], "object")],
        ids=["string", "bool", "complex", "object"])
    def test_cost_not_numbers_rejected(self, cost, kind):
        # the strings and bools aligned as the numbers they cast to, and a
        # complex matrix lost its imaginary part with a warning
        with pytest.raises(ValidationError,
                           match=rf"^cost matrix must be ints or floats, "
                                 rf"got an array of {kind}$"):
            drop_dtw(cost, 0.5)

    @pytest.mark.parametrize("shape", [(2, 1), (5, 3), (13, 12)])
    def test_more_rows_than_columns_rejected(self, shape):
        rule = f"^cost matrix has {shape[0]} rows but only {shape[1]} columns$"
        with pytest.raises(ValidationError, match=rule):
            drop_dtw(np.zeros(shape), 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, value):
        cost = np.ones((2, 3))
        cost[1, 2] = value
        with pytest.raises(ValidationError,
                           match="^cost matrix contains non-finite entries$"):
            drop_dtw(cost, 0.5)

    def test_monotone_in_drop_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cost = rng.normal(size=(3, 6))
            deltas = sorted(rng.normal(size=4))
            totals = [drop_dtw(cost, d)[1] for d in deltas]
            for lo, hi in zip(totals, totals[1:]):
                assert lo <= hi + 1e-12

    def test_scaling_by_powers_of_two_is_exact(self):
        rng = np.random.default_rng(13)
        for lam in (0.5, 2.0, 4.0):
            cost = rng.normal(size=(3, 5))
            di = 0.4
            base, base_total = drop_dtw(cost, di)
            scaled, scaled_total = drop_dtw(cost * lam, di * lam)
            assert scaled_total == base_total * lam
            np.testing.assert_array_equal(scaled, base)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        cost = rng.normal(size=(4, 7))
        a, a_total = drop_dtw(cost, 0.3)
        b, b_total = drop_dtw(cost, 0.3)
        np.testing.assert_array_equal(a, b)
        assert a_total == b_total


class TestBruteForceEquivalence:
    def test_sweep_one_sided(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 8))
            cost = rng.normal(size=(n, m))
            di = float(rng.normal())
            fast, fast_total = drop_dtw(cost, di)
            slow, slow_total = brute_force_align(cost, di)
            assert fast_total == pytest.approx(slow_total, abs=1e-12)
            _check_staircase(fast)
            _check_staircase(slow)
            assert _path_cost(cost, fast, di) == pytest.approx(
                fast_total, abs=1e-12)

    def test_size_cap_enforced(self):
        with pytest.raises(ValidationError, match="capped"):
            brute_force_align(np.zeros((5, 7)), 0.1)
        with pytest.raises(ValidationError, match="capped"):
            brute_force_align(np.zeros((2, 8)), 0.1)


def _random_problem(rng, kind):
    """A cost matrix up to 12x59, with no more rows than columns, and a
    drop cost: real-valued, small integers (tie-heavy), or real with the
    pipeline's percentile drop cost."""
    n = int(rng.integers(1, 13))
    m = int(rng.integers(n, 60))
    if kind == "integer":
        return rng.integers(-3, 4, size=(n, m)).astype(float), float(rng.integers(-2, 4))
    cost = rng.normal(size=(n, m))
    if kind == "percentile":
        return cost, percentile_drop_cost(cost, 80)
    return cost, float(rng.normal())


def _assert_same_as_loop(cost, di, exact=False):
    (fast, fast_total), (slow, slow_total) = drop_dtw(cost, di), drop_dtw_loop(cost, di)
    np.testing.assert_array_equal(fast, slow)
    _check_staircase(fast)
    # each step spans its row's first to last match in the loop's path
    rows = [np.flatnonzero(row) for row in slow]
    assert decode_segments(fast) == [(i + 1, Segment(int(c[0]), int(c[-1]) + 1))
                                     for i, c in enumerate(rows)]
    if exact:
        assert fast_total == slow_total
    else:
        assert fast_total == pytest.approx(slow_total, rel=1e-12, abs=0)


class TestAgainstLoop:
    """The row-scan kernel against the cell-by-cell loop it replaced."""

    @pytest.mark.parametrize("kind", ["real", "integer", "percentile"])
    def test_random_matrices(self, kind):
        rng = np.random.default_rng(["real", "integer", "percentile"].index(kind))
        for _ in range(300):
            cost, di = _random_problem(rng, kind)
            _assert_same_as_loop(cost, di, exact=kind == "integer")

    @pytest.mark.parametrize("shape", [(8, 32), (12, 32), (8, 160), (12, 1340)])
    def test_negative_cosine_at_pipeline_shapes(self, shape):
        rng = np.random.default_rng(shape[1])
        for _ in range(20 if shape[1] < 1000 else 2):
            cost = -cosine_matrix(rng.normal(size=(shape[0], 16)),
                                  rng.normal(size=(shape[1], 16)))
            _assert_same_as_loop(cost, percentile_drop_cost(cost, 80))

    def test_exact_tie_keeps_diagonal(self):
        # entering (1, 2) diagonally from (0, 1) and by a row move from
        # (1, 1) both cost -0.2 + 0.3, summed in the same order; the
        # diagonal comes first
        cost = np.array([[-0.2, 0.3, 0.9], [0.6, 0.3, -0.8]])
        assert _cells(drop_dtw(cost, 0.7)[0]) == [(0, 0), (0, 1), (1, 2)]
        _assert_same_as_loop(cost, 0.7)

    def test_real_ties_give_an_optimal_path(self):
        # On a one-decimal grid many paths tie in real arithmetic, and the
        # loop's rounding may break such a tie either way; the kernel's
        # path must still be optimal.
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            cost = rng.integers(-9, 10, size=(n, int(rng.integers(n, 12)))) / 10
            di = percentile_drop_cost(cost, 80)
            (fast, fast_total), (_, slow_total) = (drop_dtw(cost, di),
                                                   drop_dtw_loop(cost, di))
            _check_staircase(fast)
            assert fast_total == pytest.approx(slow_total, abs=1e-12)
            assert _path_cost(cost, fast, di) == pytest.approx(
                slow_total, abs=1e-12)


@st.composite
def _integer_problem(draw):
    n = draw(st.integers(1, 6))
    shape = (n, draw(st.integers(n, 12)))
    cost = draw(arrays(np.float64, shape, elements=st.integers(-5, 5).map(float)))
    return cost, float(draw(st.integers(-5, 5)))


@settings(max_examples=300, deadline=None)
@given(_integer_problem())
def test_integer_costs_match_loop_bit_for_bit(problem):
    # integer sums are exact in any order, so nothing may differ at all
    _assert_same_as_loop(*problem, exact=True)


@st.composite
def _integer_stack(draw):
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    shape = (b, n, draw(st.integers(n, 12)))
    costs = draw(arrays(np.float64, shape, elements=st.integers(-5, 5).map(float)))
    drops = draw(arrays(np.float64, shape[:1], elements=st.integers(-5, 5).map(float)))
    return costs, drops


@settings(max_examples=300, deadline=None)
@given(_integer_stack())
def test_integer_stacks_match_loop_bit_for_bit(problem):
    # each matrix of a stack gets the loop's path and total on its own
    costs, drops = problem
    visited, totals = drop_dtw_stack(costs, drops)
    for cost, di, mask, total in zip(costs, drops, visited, totals):
        expected, expected_total = drop_dtw_loop(cost, di)
        np.testing.assert_array_equal(mask, expected)
        assert total == expected_total


@settings(max_examples=300, deadline=None)
@given(_integer_stack(), st.sampled_from([1.0, 0.1, 1e-3]))
def test_no_two_rows_share_a_column(problem, scale):
    # every row visits an item, and no item is visited by two rows, in a
    # stack and in each of its matrices aligned alone
    costs, drops = problem[0] * scale, problem[1] * scale
    visited, _ = drop_dtw_stack(costs, drops)
    masks = [visited] + [drop_dtw(cost, di)[0][None]
                         for cost, di in zip(costs, drops)]
    for mask in masks:
        assert mask.any(axis=2).all(), "a row visits no item"
        assert mask.sum(axis=1).max() <= 1, "two rows share an item"


def _assert_stack_same_as_loop(costs, drops):
    visited, totals = drop_dtw_stack(costs, drops)
    for cost, di, mask, total in zip(costs, drops, visited, totals):
        expected, expected_total = drop_dtw_loop(cost, di)
        np.testing.assert_array_equal(mask, expected)
        assert total == pytest.approx(expected_total, rel=1e-12, abs=0)
    return visited


def _planted_stack(rng, b, n, m, place):
    """A B x n x m stack in which row i favours the i-th of n equal bands of
    items (cost about -1 there, +1 elsewhere) and drops cost 0, with a run
    of items planted in every band that cost about +1 to every row, so the
    best path drops them: half a band long, at the band's ``start``, its
    ``end``, ``inside`` it, or ``across`` its boundary with the next band.
    Returns the stack, the drop costs and the planted items."""
    costs = np.ones((b, n, m)) + rng.normal(scale=0.05, size=(b, n, m))
    width = m // n
    run = width // 2
    planted = np.zeros(m, dtype=bool)
    for i in range(n):
        lo, hi = i * width, (i + 1) * width
        costs[:, i, lo:hi] -= 2.0
        if place == "start":
            planted[lo:lo + run] = True
        elif place == "end":
            planted[hi - run:hi] = True
        elif place == "inside":
            planted[lo + width // 4:lo + width // 4 + run] = True
        elif i < n - 1:
            planted[hi - run // 2:hi + run // 2] = True
    costs[:, :, planted] += 2.0 * (costs[:, :, planted] < 0)
    return costs, np.zeros(b), planted


class TestStacksAgainstLoop:
    """Stacks of several matrices at the pipeline's largest shape, and long
    runs of dropped items where the backtrace's searches start and stop."""

    def test_long_video_shape(self):
        rng = np.random.default_rng(1340)
        costs = np.stack([-cosine_matrix(rng.normal(size=(12, 16)),
                                         rng.normal(size=(1340, 16)))
                          for _ in range(3)])
        drops = np.array([percentile_drop_cost(cost, 80) for cost in costs])
        _assert_stack_same_as_loop(costs, drops)

    @pytest.mark.parametrize("shape", [(3, 8, 160), (2, 12, 1340)])
    @pytest.mark.parametrize("place", ["start", "end", "inside", "across"])
    def test_planted_drop_runs(self, place, shape):
        rng = np.random.default_rng(shape[2])
        costs, drops, planted = _planted_stack(rng, *shape, place)
        visited = _assert_stack_same_as_loop(costs, drops)
        # each row visits its band but for the planted run, which is dropped
        b, n, m = shape
        width = m // n
        bands = np.arange(m) // width == np.arange(n)[:, None]
        np.testing.assert_array_equal(visited, np.broadcast_to(
            bands & ~planted, (b, n, m)))


class TestDropDtwStack:
    def test_each_matrix_as_alone(self):
        # one matrix's path must not depend on the others in its stack,
        # even when their scales differ by orders of magnitude
        rng = np.random.default_rng(12)
        for _ in range(40):
            b, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            m = int(rng.integers(n, 40))
            scales = 10.0 ** rng.integers(-8, 9, size=(b, 1, 1))
            costs = rng.normal(size=(b, n, m)) * scales
            drops = np.array([percentile_drop_cost(cost, 80) for cost in costs])
            visited, totals = drop_dtw_stack(costs, drops)
            for cost, di, mask, total in zip(costs, drops, visited, totals):
                alone, alone_total = drop_dtw(cost, di)
                np.testing.assert_array_equal(mask, alone)
                assert total == alone_total

    def test_malformed_input_rejected(self):
        with pytest.raises(ValidationError, match="3-d"):
            drop_dtw_stack(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValidationError, match="one drop cost per matrix"):
            drop_dtw_stack(np.zeros((2, 3, 4)), np.zeros(3))
        with pytest.raises(ValidationError, match="finite"):
            drop_dtw_stack(np.zeros((2, 3, 4)), np.array([0.0, np.inf]))

    @pytest.mark.parametrize("shape", [(1, 2, 1), (3, 5, 3), (2, 13, 12)])
    def test_more_rows_than_columns_rejected(self, shape):
        rule = f"^cost matrix has {shape[1]} rows but only {shape[2]} columns$"
        with pytest.raises(ValidationError, match=rule):
            drop_dtw_stack(np.zeros(shape), np.zeros(shape[0]))

    @pytest.mark.parametrize("costs, kind", [
        ([[["0", "1", "2"]]], "<U1"), ([[[True, False, True]]], "bool")],
        ids=["string", "bool"])
    def test_costs_not_numbers_rejected(self, costs, kind):
        # the stack was cast to float as drop_dtw cast a matrix
        with pytest.raises(ValidationError,
                           match=rf"^cost matrix must be ints or floats, "
                                 rf"got an array of {kind}$"):
            drop_dtw_stack(costs, [0.5])

    @pytest.mark.parametrize("drops, kind", [
        (["1"], "<U1"), ([True], "bool"), ([None], "object")],
        ids=["string", "bool", "none"])
    def test_drop_costs_not_numbers_rejected(self, drops, kind):
        # the strings and bools were cast to float, and None to NaN
        with pytest.raises(ValidationError,
                           match=rf"^drop_item_cost must be ints or floats, "
                                 rf"got an array of {kind}$"):
            drop_dtw_stack(np.zeros((1, 2, 3)), drops)


class TestDecodeSegments:
    @staticmethod
    def _mask(shape, cells):
        visited = np.zeros(shape, dtype=bool)
        visited[tuple(np.array(cells).T)] = True
        return visited

    def test_min_max_per_step(self):
        # a segment spans the items its row drops between two visits
        visited = self._mask((2, 10), [(0, 2), (0, 4), (1, 5), (1, 7)])
        out = decode_segments(visited)
        assert out == [(1, Segment(2, 5)), (2, Segment(5, 8))]

    def test_empty_matches(self):
        assert decode_segments(np.zeros((0, 5), dtype=bool)) == []

    def test_full_cover(self):
        visited = np.ones((1, 6), dtype=bool)
        assert decode_segments(visited) == [(1, Segment(0, 6))]

    def test_sorted_by_step(self):
        visited = self._mask((3, 8), [(0, 0), (1, 2), (2, 4)])
        out = decode_segments(visited)
        assert [step for step, _ in out] == [1, 2, 3]

    def test_empty_row_rejected(self):
        # step 2 decoded as [0, 6), the whole video
        visited = self._mask((3, 6), [(0, 0), (2, 4)])
        with pytest.raises(ValidationError,
                           match=r"^visited mask row 1 \(step 2\) visits no item$"):
            decode_segments(visited)

    def test_int_mask_rejected(self):
        # an int mask decoded as if it were bool
        visited = self._mask((2, 4), [(0, 0), (1, 2)]).astype(np.int64)
        with pytest.raises(ValidationError,
                           match="^visited mask must be bool, got an array of int64$"):
            decode_segments(visited)

    def test_3d_mask_rejected(self):
        # a 3-d mask raised a bare TypeError
        visited = np.ones((2, 2, 4), dtype=bool)
        with pytest.raises(ValidationError,
                           match=r"^visited mask must be 2-d, got shape \(2, 2, 4\)$"):
            decode_segments(visited)

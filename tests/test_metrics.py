import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recaudit.metrics import (
    CalibrationBin,
    CalibrationCurve,
    Period,
    TrendPoint,
    TrendSeries,
    calibration_curve,
    clopper_pearson,
    coverage,
    filter_bubble_matrix,
    raw_frequency,
    regularized_incomplete_beta,
    rolling_mean,
    weighted_frequency,
)

from conftest import edge_columns, make_edge

DAY = dt.date(2019, 6, 1)


# ---------------------------------------------------------------------------
# Independent Clopper-Pearson oracle: bisection on exact binomial tail sums.
# For integer parameters, I_p(k, n-k+1) = P(Bin(n, p) >= k), so the interval
# bounds solve tail-probability equations that need no beta function at all.
# ---------------------------------------------------------------------------


def _binom_tail_geq(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Bin(n, p), by direct summation."""
    if p <= 0.0:
        return 0.0 if k > 0 else 1.0
    if p >= 1.0:
        return 1.0
    total = 0.0
    for i in range(k, n + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * math.log(p)
            + (n - i) * math.log1p(-p)
        )
        total += math.exp(log_term)
    return min(total, 1.0)


def oracle_clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    def bisect(fn, target, rising: bool) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            value = fn(mid)
            if (value < target) == rising:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # low solves P(X >= k) = alpha/2; high solves P(X <= k) = alpha/2,
    # i.e. P(X >= k+1) = 1 - alpha/2. Both tails rise with p.
    low = 0.0 if k == 0 else bisect(lambda p: _binom_tail_geq(k, n, p), alpha / 2, rising=True)
    high = (
        1.0
        if k == n
        else bisect(lambda p: _binom_tail_geq(k + 1, n, p), 1 - alpha / 2, rising=True)
    )
    return low, high


class TestClopperPearson:
    def test_k_equals_n_upper_is_exactly_one(self):
        assert clopper_pearson(10, 10)[1] == 1.0

    def test_k_zero_lower_is_exactly_zero(self):
        assert clopper_pearson(0, 10)[0] == 0.0

    def test_k_zero_closed_form_upper(self):
        # Beta(1, n) quantile inverts in closed form: 1 - (alpha/2)^(1/n).
        _, high = clopper_pearson(0, 10, 0.05)
        assert high == pytest.approx(1 - 0.025 ** 0.1, abs=1e-9)
        assert high == pytest.approx(0.3085, abs=5e-5)

    def test_seven_of_ten(self):
        low, high = clopper_pearson(7, 10, 0.05)
        assert low == pytest.approx(0.3475, abs=5e-5)
        assert high == pytest.approx(0.9333, abs=5e-5)

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
    def test_matches_binomial_tail_oracle(self, n):
        for k in range(n + 1):
            low, high = clopper_pearson(k, n, 0.05)
            olow, ohigh = oracle_clopper_pearson(k, n, 0.05)
            assert low == pytest.approx(olow, abs=1e-6)
            assert high == pytest.approx(ohigh, abs=1e-6)

    def test_stricter_alpha_nests(self):
        for k, n in [(0, 7), (3, 9), (25, 50), (50, 50)]:
            low5, high5 = clopper_pearson(k, n, 0.05)
            low1, high1 = clopper_pearson(k, n, 0.01)
            assert low1 <= low5 and high5 <= high1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 0)
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            clopper_pearson(1, 4, alpha=0.0)

    def test_incomplete_beta_endpoints_and_symmetry(self):
        assert regularized_incomplete_beta(2, 3, 0.0) == 0.0
        assert regularized_incomplete_beta(2, 3, 1.0) == 1.0
        x = 0.37
        left = regularized_incomplete_beta(2.5, 4.5, x)
        right = 1.0 - regularized_incomplete_beta(4.5, 2.5, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-12)


class TestRawFrequency:
    def test_hand_fixture(self):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}", rank=1) for i in range(4)])
        likes = {"r0": 0.9, "r1": 0.6, "r2": 0.4, "r3": 0.1}
        assert raw_frequency(edges, likes, 0.5) == pytest.approx(0.375)

    def test_all_below_threshold(self):
        edges = edge_columns([make_edge("s", "r")])
        assert raw_frequency(edges, {"r": 0.2}, 0.5) == 0.0

    def test_all_certain(self):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(3)])
        assert raw_frequency(edges, {f"r{i}": 1.0 for i in range(3)}, 0.5) == 1.0

    def test_unclassifiable_edges_drop_out_entirely(self):
        edges = edge_columns([make_edge("s1", "r1"), make_edge("s2", "r2")])
        likes = {"r1": 0.8, "r2": None}
        assert raw_frequency(edges, likes, 0.5) == pytest.approx(0.8)
        assert coverage(edges, likes) == pytest.approx(0.5)

    def test_undefined_when_nothing_classifiable(self):
        assert raw_frequency(edge_columns([make_edge("s", "r")]), {}, 0.5) is None


class TestWeightedFrequency:
    def test_hand_fixture(self):
        edges = edge_columns([make_edge("s1", "r1"), make_edge("s2", "r2")])
        likes = {"r1": 0.9, "r2": 0.4}
        views = {"s1": 100, "s2": 300}
        assert weighted_frequency(edges, likes, views, 0.5) == pytest.approx(0.225)

    def test_uniform_views_equal_raw(self):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(5)])
        likes = {f"r{i}": v for i, v in enumerate([0.9, 0.6, 0.55, 0.2, 0.05])}
        views = {f"s{i}": 77 for i in range(5)}
        assert weighted_frequency(edges, likes, views, 0.5) == raw_frequency(edges, likes, 0.5)

    def test_single_dominant_edge(self):
        edges = edge_columns([make_edge("s1", "r1"), make_edge("s2", "r2")])
        likes = {"r1": 0.7, "r2": 0.9}
        views = {"s1": 1000, "s2": 0}
        assert weighted_frequency(edges, likes, views, 0.5) == pytest.approx(0.7)

    def test_zero_total_views_is_undefined(self):
        edges = edge_columns([make_edge("s", "r")])
        assert weighted_frequency(edges, {"r": 0.9}, {"s": 0}, 0.5) is None

    def test_a_source_without_a_view_count_is_undefined(self):
        # Whether or not the edge's recommended video could be classified.
        edges = edge_columns([make_edge("s1", "r1"), make_edge("s2", "r2")])
        for likes in ({"r1": 0.9, "r2": 0.7}, {"r1": 0.9, "r2": None}, {"r1": 0.9}):
            assert weighted_frequency(edges, likes, {"s1": 10}, 0.5) is None

    def test_negative_view_count_raises(self):
        edges = edge_columns([make_edge("s1", "r1"), make_edge("s2", "r2")])
        with pytest.raises(ValueError, match="negative view count for source video s2"):
            weighted_frequency(edges, {"r1": 0.9, "r2": 0.7}, {"s1": 10, "s2": -5}, 0.5)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_fuzz_frequencies_stay_in_unit_interval(self, likes):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(len(likes))])
        like_map = {f"r{i}": l for i, l in enumerate(likes)}
        views = {f"s{i}": (i * 37) % 11 + 1 for i in range(len(likes))}
        raw = raw_frequency(edges, like_map, 0.5)
        weighted = weighted_frequency(edges, like_map, views, 0.5)
        assert 0.0 <= raw <= 1.0
        assert 0.0 <= weighted <= 1.0


class TestRollingMean:
    def days(self, values, start=DAY):
        return [(start + dt.timedelta(days=i), v) for i, v in enumerate(values)]

    def test_constant_series(self):
        rows = self.days([0.3] * 10)
        assert all(v == pytest.approx(0.3) for _, v in rolling_mean(rows, 7))

    def test_spike_on_day_seven(self):
        rows = self.days([0, 0, 0, 0, 0, 0, 0.7])
        assert rolling_mean(rows, 7)[-1][1] == pytest.approx(0.1)

    def test_first_day_is_its_own_value(self):
        rows = self.days([0.42, 0.0, 0.0])
        assert rolling_mean(rows, 7)[0][1] == pytest.approx(0.42)

    def test_undefined_days_excluded_from_both_sides(self):
        rows = self.days([0.4, None, 0.2])
        out = rolling_mean(rows, 7)
        assert out[1][1] == pytest.approx(0.4)
        assert out[2][1] == pytest.approx(0.3)

    def test_window_respects_calendar_gaps(self):
        rows = [(DAY, 0.2), (DAY + dt.timedelta(days=30), 0.8)]
        assert rolling_mean(rows, 7)[1][1] == pytest.approx(0.8)

    def test_all_undefined_window_stays_undefined(self):
        rows = self.days([None, None])
        assert [v for _, v in rolling_mean(rows, 7)] == [None, None]

    @given(st.lists(st.floats(0.01, 1), min_size=1, max_size=15), st.floats(0.1, 5))
    def test_commutes_with_scaling(self, values, scale):
        rows = self.days(values)
        scaled = [(d, v * scale) for d, v in rows]
        base = [v for _, v in rolling_mean(rows, 7)]
        after = [v for _, v in rolling_mean(scaled, 7)]
        for a, b in zip(base, after):
            assert b == pytest.approx(a * scale, rel=1e-9)

    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            rolling_mean([(DAY, 0.1), (DAY, 0.2)], 7)


class TestTrendSeries:
    def test_rejects_non_increasing_dates(self):
        p = TrendPoint(date=DAY, raw=0.1, weighted=0.1, coverage=1.0)
        with pytest.raises(ValueError):
            TrendSeries(points=(p, p))

    def test_rejects_out_of_range_frequency(self):
        with pytest.raises(ValueError):
            TrendSeries(points=(TrendPoint(date=DAY, raw=1.2, weighted=None, coverage=1.0),))


class TestCalibration:
    def test_bins_partition_unit_interval(self):
        curve = calibration_curve([0.05, 0.5, 0.999], [1, 0, 1], bin_count=10)
        assert curve.bins[0].lower == 0.0 and curve.bins[-1].upper == 1.0
        for left, right in zip(curve.bins, curve.bins[1:]):
            assert left.upper == right.lower

    def test_all_positive_labels(self):
        preds = [i / 10 + 0.05 for i in range(10)]
        curve = calibration_curve(preds, [1] * 10, bin_count=10)
        for b in curve.bins:
            if b.n:
                assert b.proportion == 1.0

    def test_empty_bin_has_undefined_proportion(self):
        curve = calibration_curve([0.05], [1], bin_count=10)
        assert curve.bins[0].n == 1
        assert curve.bins[5] == CalibrationBin(0.5, 0.6, 0, 0, None, None, None)

    def test_prediction_of_exactly_one_lands_in_last_bin(self):
        curve = calibration_curve([1.0], [1], bin_count=10)
        assert curve.bins[-1].n == 1

    def test_well_calibrated_synthetic_data(self):
        rng = np.random.default_rng(5)
        preds = rng.random(10_000)
        labels = (rng.random(10_000) < preds).astype(int)
        curve = calibration_curve(preds.tolist(), labels.tolist(), bin_count=10)
        hits = sum(
            1 for b in curve.bins if b.n and b.ci_low <= (b.lower + b.upper) / 2 <= b.ci_high
        )
        assert hits >= 9

    def test_interval_brackets_proportion(self):
        curve = calibration_curve([0.45] * 20, [1] * 7 + [0] * 13, bin_count=10)
        b = curve.bins[4]
        assert b.k == 7 and b.n == 20
        assert b.ci_low <= b.proportion <= b.ci_high


class TestApplyCalibration:
    def curve(self):
        # Two bins: low scores were right 10% of the time, high scores 90%.
        return CalibrationCurve(
            bins=(
                CalibrationBin(0.0, 0.5, 10, 1, 0.1, 0.0, 0.4),
                CalibrationBin(0.5, 1.0, 10, 9, 0.9, 0.6, 1.0),
            ),
        )

    def test_maps_to_bin_proportion(self):
        from recaudit.metrics import apply_calibration

        out = apply_calibration({"a": 0.2, "b": 0.75, "c": 1.0}, self.curve())
        assert out == {"a": 0.1, "b": 0.9, "c": 0.9}

    def test_unclassifiable_stays_unclassifiable(self):
        from recaudit.metrics import apply_calibration

        assert apply_calibration({"a": None}, self.curve())["a"] is None

    def test_empty_bin_falls_back_to_raw_value(self):
        from recaudit.metrics import apply_calibration

        curve = CalibrationCurve(
            bins=(
                CalibrationBin(0.0, 0.5, 0, 0, None, None, None),
                CalibrationBin(0.5, 1.0, 10, 9, 0.9, 0.6, 1.0),
            ),
        )
        assert apply_calibration({"a": 0.3}, curve)["a"] == 0.3


class TestFilterBubble:
    def test_single_period_single_bin_equals_raw_frequency(self):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(4)])
        likes = {"r0": 0.9, "r1": 0.6, "r2": 0.4, "r3": 0.1}
        likes.update({f"s{i}": 0.5 for i in range(4)})
        matrix = filter_bubble_matrix(edges, likes, [Period(DAY, DAY)], source_bins=1)
        assert matrix.cells[0][0] == raw_frequency(edges, likes, 0.5)

    def test_zero_likelihoods_give_zero_cells(self):
        edges = edge_columns([make_edge(f"s{i}", f"r{i}") for i in range(3)])
        likes = dict.fromkeys(edges.ids, 0.0)
        matrix = filter_bubble_matrix(edges, likes, [Period(DAY, DAY)], source_bins=2)
        assert matrix.cells[0][0] == 0.0

    def test_edges_split_by_source_bin_and_period(self):
        later = DAY + dt.timedelta(days=10)
        edges = edge_columns([
            make_edge("hot", "r1", day=DAY),
            make_edge("cold", "r2", day=DAY),
            make_edge("hot", "r3", rank=2, day=later),
        ])
        likes = {"hot": 0.9, "cold": 0.1, "r1": 1.0, "r2": 0.0, "r3": 0.0}
        periods = [Period(DAY, DAY), Period(later, later)]
        matrix = filter_bubble_matrix(edges, likes, periods, source_bins=2)
        assert matrix.cells[0][1] == 1.0  # hot source, first period
        assert matrix.cells[0][0] == 0.0  # cold source, first period
        assert matrix.cells[1][1] == 0.0  # hot source, second period
        assert matrix.cells[1][0] is None  # no cold-source edges later
        assert matrix.edge_counts[0] == (1, 1)

    def test_edges_without_endpoint_likelihoods_are_excluded(self):
        edges = edge_columns([make_edge("s", "r"), make_edge("s2", "r2")])
        likes = {"s": 0.9, "r": 1.0}  # s2/r2 unknown
        matrix = filter_bubble_matrix(edges, likes, [Period(DAY, DAY)], source_bins=1)
        assert matrix.edge_counts[0][0] == 1

    def test_period_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            Period(DAY, DAY - dt.timedelta(days=1))

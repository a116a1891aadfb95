import math
import statistics

import pytest

import stats


def span(name, start, end, parent=None, op=0, folded=None):
    return [name, start, end, parent, op, folded, 0]


class TestQuantiles:
    def test_q10_interpolates_between_order_statistics(self):
        # 11 samples: the 10th percentile is exactly the second one.
        assert stats.q10(list(range(10, 21))) == 11
        # 10 samples: position 0.9 between the first and the second.
        assert stats.q10([1.0] + [2.0] * 9) == pytest.approx(1.9)

    def test_q10_ignores_interference_in_the_high_tail(self):
        quiet = [1.0, 1.01, 1.02, 1.0, 1.01, 1.0, 1.02, 1.01, 1.0, 1.01]
        disturbed = quiet[:5] + [value * 3 for value in quiet[5:]]
        assert stats.q10(disturbed) == pytest.approx(stats.q10(quiet), rel=0.02)
        assert stats.median(disturbed) > 1.5 * stats.median(quiet)

    def test_single_sample_and_order_independence(self):
        assert stats.q10([7.0]) == 7.0
        assert stats.quantile([3, 1, 2], 0.5) == 2

    def test_rejects_no_samples_and_bad_quantile(self):
        with pytest.raises(ValueError):
            stats.q10([])
        with pytest.raises(ValueError):
            stats.quantile([1.0], 1.5)


class TestGeomean:
    def test_every_value_weighs_the_same(self):
        assert stats.geomean([1, 100]) == pytest.approx(10)
        # Halving the small one moves it as much as halving the big one.
        assert stats.geomean([0.5, 100]) == pytest.approx(
            stats.geomean([1, 50])
        )

    def test_rejects_no_samples_and_non_positive(self):
        with pytest.raises(ValueError):
            stats.geomean([])
        with pytest.raises(ValueError):
            stats.geomean([1.0, 0.0])


class TestTailPercentile:
    def test_p95_needs_two_hundred_samples(self):
        percentile, value = stats.tail_percentile(list(range(200)))
        assert percentile == 95.0
        assert sum(1 for sample in range(200) if sample > value) >= 10

    def test_fewer_samples_lower_the_percentile(self):
        percentile, value = stats.tail_percentile(list(range(40)))
        assert percentile == pytest.approx(75.0)
        assert sum(1 for sample in range(40) if sample > value) >= 10

    def test_never_below_the_median(self):
        percentile, value = stats.tail_percentile(list(range(12)))
        assert percentile == 50.0
        assert value == stats.median(list(range(12)))

    def test_cap(self):
        percentile, _ = stats.tail_percentile(list(range(10000)), cap=90)
        assert percentile == 90


def test_spread_is_the_contracts_interquartile_share():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        root = span("launch", 0.0, 10.0)
        manager = span("manager", 1.0, 9.0, parent=root)
        warp = span("execute", 2.0, 5.0, parent=manager)
        totals = stats.self_times([warp, manager, root])
        assert totals == {"launch": 2.0, "manager": 5.0, "execute": 3.0}
        assert sum(totals.values()) == 10.0  # the root's duration

    def test_folded_calls_count_as_children(self):
        manager = span(
            "manager", 0.0, 10.0, folded={"execute": [4, 6.0], "lookup": [4, 1.0]}
        )
        totals = stats.self_times([manager])
        assert totals == {"manager": 3.0, "execute": 6.0, "lookup": 1.0}
        assert stats.call_counts([manager]) == {
            "manager": 1, "execute": 4, "lookup": 4,
        }

    def test_same_name_sums_and_siblings_do_not_nest(self):
        root = span("op", 0.0, 6.0)
        first = span("copy", 0.0, 1.0, parent=root)
        second = span("copy", 4.0, 6.0, parent=root)
        assert stats.self_times([first, second, root]) == {
            "op": 3.0, "copy": 3.0,
        }

    def test_per_span_self_seconds_keep_order(self):
        root = span("request", 0.0, 5.0)
        child = span("session", 1.0, 2.0, parent=root)
        assert stats.span_self_seconds([root, child]) == [4.0, 1.0]


def test_summarize_kinds_weights_and_speed_correction():
    samples = {"run": [2.0] * 30, "write": [1.0] * 4 + [3.0]}
    weights = {"run": 6, "write": 1}
    summary = stats.summarize_kinds(samples, weights)
    assert summary["pass_ms"] == pytest.approx(13000.0)
    assert summary["op_ms_geomean"] == pytest.approx(1e3 * math.sqrt(2.0))
    assert summary["typical_pass_ms"] == pytest.approx(13000.0)
    # A machine running 25 % slow by its quiet probe, 50 % by its median.
    corrected = stats.summarize_kinds(samples, weights, 1.25, 1.5)
    assert corrected["pass_ms"] == pytest.approx(13000.0 / 1.25)
    assert corrected["op_ms_geomean"] == pytest.approx(
        summary["op_ms_geomean"] / 1.25
    )
    assert corrected["typical_pass_ms"] == pytest.approx(13000.0 / 1.5)

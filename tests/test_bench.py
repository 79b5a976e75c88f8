import pytest

from coneighbor.bench import (DEFAULT_WIDTHS, WIDTH_FIT_POINTS, _best_of,
                              _fit_axis, format_report, run_bench)
from coneighbor.errors import ConfigError


class TestFitAxis:
    def test_linear_through_origin_doubles(self):
        ax = _fit_axis("sequence_length", [4, 8, 16, 32],
                       [0.004, 0.008, 0.016, 0.032])
        assert ax.doubling_ratio == pytest.approx(2.0)
        assert ax.slope == pytest.approx(1e-3)

    def test_constant_time_ratio_one(self):
        ax = _fit_axis("hashtable_size", [16, 32, 64], [0.01, 0.01, 0.01])
        assert ax.doubling_ratio == pytest.approx(1.0)

    def test_offset_dominated_ratio_between(self):
        # large fixed cost, small linear part: ratio lands in (1, 2)
        ax = _fit_axis("sequence_length", [8, 16, 32],
                       [0.010 + 8e-5 * 8, 0.010 + 8e-5 * 16,
                        0.010 + 8e-5 * 32])
        assert 1.0 < ax.doubling_ratio < 2.0

    def test_quadratic_caught_only_by_top_fit(self):
        # a line through the whole width grid flattens M^2 below the 2.5
        # bound; a line through its largest widths does not
        secs = [m * m * 1e-6 for m in DEFAULT_WIDTHS]
        whole = _fit_axis("hashtable_size", DEFAULT_WIDTHS, secs)
        top = _fit_axis("hashtable_size", DEFAULT_WIDTHS, secs,
                        top=WIDTH_FIT_POINTS)
        assert whole.doubling_ratio < 2.5 < top.doubling_ratio
        assert top.seconds == secs          # every timing is reported

    def test_top_fit_of_linear_times_doubles(self):
        secs = [0.002 + m * 1e-5 for m in DEFAULT_WIDTHS]
        ax = _fit_axis("hashtable_size", DEFAULT_WIDTHS, secs, top=3)
        assert ax.slope == pytest.approx(1e-5)
        assert ax.intercept == pytest.approx(0.002)

    def test_degenerate_fit_rejected(self):
        # fitted line crosses zero at the half-range evaluation point
        with pytest.raises(ConfigError):
            _fit_axis("sequence_length", [4, 8], [0.0, 0.02])


def test_each_round_times_every_point_once_in_order():
    calls = []
    steps = [lambda i=i: calls.append(i) for i in range(3)]
    best = _best_of(4, steps)
    assert calls == [0, 1, 2] * 4
    assert len(best) == 3 and all(0 <= b < 1 for b in best)


@pytest.fixture(scope="module")
def report():
    return run_bench(batch_size=50, num_nodes=80, num_events=1_500,
                     seq_lens=(4, 8, 16), widths=(16, 32, 64), repeats=2,
                     seed=0)


class TestRunBench:
    def test_structure(self, report):
        assert report.seq_axis.values == [4, 8, 16]
        assert report.width_axis.values == [16, 32, 64]
        assert all(s > 0 for s in report.seq_axis.seconds)
        assert all(s > 0 for s in report.width_axis.seconds)
        assert report.notes

    def test_roundtrips_to_dict(self, report):
        d = report.to_dict()
        assert d["sequence_length"]["values"] == [4, 8, 16]
        assert len(d["hashtable_size"]["seconds"]) == 3

    def test_reports_ungated_diagnostics(self, report):
        d = report.to_dict()
        # three lengths: the top-three fit is the whole-grid fit
        seq = d["sequence_length"]
        assert seq["top_fit_doubling_ratio"] == pytest.approx(
            seq["doubling_ratio"])
        wid = d["hashtable_size"]
        assert wid["positions"] == 2 * 50 * 20     # two sides of 50 pairs
        assert wid["ns_per_position"] == pytest.approx(
            [s / 2000 * 1e9 for s in wid["seconds"]])
        text = format_report(report)
        assert "largest lengths (not gated)" in text
        assert text.count("ns/position") == 4    # three widths, fixed part

    def test_format_mentions_both_axes(self, report):
        text = format_report(report)
        assert "sequence_length" in text
        assert "hashtable_size" in text
        assert "doubling ratio" in text
        # the timed path has no dense layers, so no hidden width d
        assert text.splitlines()[-1] == ("claimed per-sample cost: O(l_s) "
                                         "extraction + O(l_s*M) co-neighbor "
                                         "encoding")

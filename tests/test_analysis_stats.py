"""Tests for the statistics helpers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import stats
from repro.analysis.stats import (
    MeanCI,
    aggregate_series,
    aggregate_series_ci,
    mean_ci,
    summarize,
)


class TestMeanCI:
    def test_single_value(self):
        ci = mean_ci([4.0])
        assert ci.mean == 4.0
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_constant_sample_zero_width(self):
        ci = mean_ci([2.0, 2.0, 2.0])
        assert ci.mean == 2.0
        assert ci.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_known_t_interval(self):
        # n=4, sd=1: t(0.975, 3) = 3.1824, half = 3.1824/2 = 1.5912
        values = [-1.0, 0.0, 1.0, 0.0]
        ci = mean_ci(values)
        sd = (sum(v * v for v in values) / 3) ** 0.5
        assert ci.mean == pytest.approx(0.0)
        assert ci.half_width == pytest.approx(3.1824 * sd / 2, rel=1e-3)

    def test_bounds(self):
        ci = MeanCI(5.0, 1.5, 10)
        assert ci.low == 3.5
        assert ci.high == 6.5

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))

    def test_ci_shrinks_with_n(self):
        wide = mean_ci([0.0, 1.0])
        narrow = mean_ci([0.0, 1.0] * 20)
        assert narrow.half_width < wide.half_width


class TestLazyScipy:
    """``scipy.stats`` loads with the first quantile lookup, never with
    the package: simulations, the claims gate and workers never ask for
    a confidence interval."""

    SAMPLE = [1.0, 2.0, 4.0, 7.0]  # sd/sqrt(n) = sqrt(7)/2

    @pytest.fixture(autouse=True)
    def fresh_quantile_cache(self):
        stats._t_quantile.cache_clear()
        yield
        stats._t_quantile.cache_clear()

    def test_runtime_imports_leave_scipy_out(self):
        code = (
            "import sys\n"
            "import repro.experiments.scenario, repro.runtime.checkpoint, repro.eval\n"
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_pinned_student_t_with_scipy(self):
        pytest.importorskip("scipy.stats")
        assert mean_ci(self.SAMPLE).half_width == pytest.approx(4.209980742298516)
        assert mean_ci(self.SAMPLE, 0.90).half_width == pytest.approx(3.113207196519196)

    def test_pinned_normal_fallback_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # import raises
        assert mean_ci(self.SAMPLE).half_width == pytest.approx(2.592788640868113)
        # The fallback follows ``confidence`` (it used to return z(0.975)
        # whatever was asked).
        assert mean_ci(self.SAMPLE, 0.90).half_width == pytest.approx(2.1759368200081015)


class TestAggregateSeries:
    def test_roundwise_mean(self):
        runs = [[1.0, 2.0], [3.0, 4.0]]
        assert aggregate_series(runs) == [2.0, 3.0]

    def test_truncates_to_shortest(self):
        runs = [[1.0, 2.0, 3.0], [1.0, 2.0]]
        assert len(aggregate_series(runs)) == 2

    def test_empty(self):
        assert aggregate_series([]) == []

    def test_ci_version(self):
        out = aggregate_series_ci([[1.0, 2.0], [3.0, 2.0]])
        assert len(out) == 2
        assert out[0].mean == pytest.approx(2.0)
        assert out[1].half_width == 0.0


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["n"] == 3

    def test_single(self):
        assert summarize([5.0])["std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

import pytest

from redsim import _sampler_py, oracle
from redsim.analysis import fom_fixed_kappa
from redsim.oracle import (
    BACKEND,
    McConfig,
    deterministic_value,
    mc_class_histogram,
    mc_estimate,
)
from redsim._threads import thread_budget
from redsim.locc import w_class_weight

try:
    from redsim import _sampler_cy
except ImportError:  # extension not built in this environment
    _sampler_cy = None

needs_extension = pytest.mark.skipif(
    _sampler_cy is None, reason="compiled sampler not built"
)


class TestConfigValidation:
    def test_party_range(self):
        with pytest.raises(ValueError):
            McConfig(2, 1, 0.5, 10, 1)

    def test_sample_count(self):
        with pytest.raises(ValueError):
            McConfig(4, 1, 0.5, 0, 1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            McConfig(4, 1, 0.5, 10, -1)
        with pytest.raises(ValueError):
            McConfig(4, 1, 0.5, 10, 1 << 64)

    def test_strength_range(self):
        with pytest.raises(ValueError):
            McConfig(4, 1, 0.5, 10, 1, kappa=1.5)


class TestDeterminism:
    def test_repeated_runs_are_bit_identical(self):
        cfg = McConfig(5, 2, 0.3, 20_000, 123)
        first = mc_estimate(cfg)
        second = mc_estimate(cfg)
        assert first == second

    def test_different_seeds_differ(self):
        a = mc_estimate(McConfig(5, 2, 0.3, 20_000, 1))
        b = mc_estimate(McConfig(5, 2, 0.3, 20_000, 2))
        assert a.mean != b.mean

    def test_thread_count_does_not_change_result(self, monkeypatch):
        cfg = McConfig(6, 2, 0.4, 150_000, 99)
        monkeypatch.delenv("REDSIM_THREADS", raising=False)
        serial = mc_estimate(cfg)
        monkeypatch.setenv("REDSIM_THREADS", "4")
        threaded = mc_estimate(cfg)
        assert serial == threaded


class TestBackendParity:
    @needs_extension
    def test_accumulators_are_bit_identical(self):
        table = [0.4, 0.45, 0.5, 0.55]
        py = _sampler_py.mc_accumulate(977, 0, 50_000, 5, 3, 0.35, table)
        cy = _sampler_cy.mc_accumulate(977, 0, 50_000, 5, 3, 0.35, table)
        assert py == cy

    @needs_extension
    def test_class_counts_match(self):
        py = _sampler_py.class_counts(31, 0, 30_000, 6, 0.6)
        cy = _sampler_cy.class_counts(31, 0, 30_000, 6, 0.6)
        assert py == cy

    @needs_extension
    def test_rng_primitives_match(self):
        for z in (0, 1, 42, (1 << 64) - 1):
            assert _sampler_py._mix(z) == _sampler_cy.mix64(z)
        for t in range(5):
            assert _sampler_py._u01(12345, t) == _sampler_cy.u01(12345, t)


class TestEstimates:
    def test_lossless_w3_mean(self):
        cfg = McConfig(3, 1, 0.0, 100_000, 7, kappa=0.25)
        est = mc_estimate(cfg)
        assert est.standard_error > 0.0
        assert abs(est.mean - 0.75) <= 3.0 * est.standard_error

    def test_reference_uses_fixed_strength_when_given(self):
        cfg = McConfig(4, 1, 0.5, 10, 7, kappa=0.3)
        assert deterministic_value(cfg) == fom_fixed_kappa(4, 1, 0.5, 0.3)

    def test_single_sample_is_degenerate(self):
        est = mc_estimate(McConfig(4, 1, 0.5, 1, 7))
        assert est.samples == 1
        assert est.standard_error == 0.0
        assert est.degenerate

    def test_certain_total_loss(self):
        est = mc_estimate(McConfig(4, 1, 1.0, 5_000, 11))
        assert abs(est.mean - 0.5) < 1e-12
        assert est.standard_error == 0.0


class TestClassHistogram:
    def test_half_strength_three_parties(self):
        hist = mc_class_histogram(3, 0.5, 100_000, 5)
        freq = hist.frequencies
        assert abs(freq[3] - 0.25) < 0.01
        assert abs(freq[2] - 0.5) < 0.01
        assert abs(freq[1] - 0.25) < 0.01
        assert hist.chi_square < 25.0

    def test_zero_strength_keeps_everyone(self):
        hist = mc_class_histogram(5, 0.0, 2_000, 5)
        assert hist.counts[5] == 2_000

    def test_full_strength_strands_one_party(self):
        hist = mc_class_histogram(5, 1.0, 2_000, 5)
        assert hist.counts[1] == 2_000

    def test_chi_square_matches_weights(self):
        hist = mc_class_histogram(4, 0.3, 50_000, 17)
        expected = 0.0
        for j in range(1, 5):
            mean = 50_000 * w_class_weight(4, j, 0.3)
            gap = hist.counts[j] - mean
            expected += gap * gap / mean
        assert abs(hist.chi_square - expected) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_class_histogram(0, 0.5, 10, 1)
        with pytest.raises(ValueError):
            mc_class_histogram(3, 0.5, 0, 1)


class TestThreadPool:
    """Blocks go to a thread pool only for the compiled kernel, which runs
    without the GIL; no real threads are started here."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(oracle, "BLOCK_SAMPLES", 100)
        monkeypatch.setenv("REDSIM_THREADS", "100000")
        return made

    def test_workers_capped_at_block_count(self, monkeypatch, pools):
        monkeypatch.setattr(oracle, "BACKEND", "compiled")
        cfg = McConfig(4, 2, 0.3, 250, 8)
        pooled = mc_estimate(cfg)
        assert pools == [3]
        monkeypatch.delenv("REDSIM_THREADS")
        assert mc_estimate(cfg) == pooled

    def test_python_kernel_never_builds_a_pool(self, monkeypatch, pools):
        monkeypatch.setattr(oracle, "BACKEND", "python")
        mc_estimate(McConfig(4, 2, 0.3, 250, 8))
        mc_class_histogram(4, 0.3, 250, 8)
        assert pools == []


class TestThreadBudget:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REDSIM_THREADS", raising=False)
        assert thread_budget() == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("REDSIM_THREADS", "0")
        assert thread_budget() >= 1

    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setenv("REDSIM_THREADS", "3")
        assert thread_budget() == 3

    @pytest.mark.parametrize("raw", ["-1", "two", "1.5"])
    def test_invalid_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REDSIM_THREADS", raw)
        with pytest.raises(ValueError):
            thread_budget()


def test_backend_is_reported():
    assert BACKEND in ("compiled", "python")

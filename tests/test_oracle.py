import numpy as np
import pytest

import scalar_sampler
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
    """The numpy kernel against the one-sample-at-a-time scalar reference."""

    def test_accumulators_are_bit_identical(self):
        table = [0.4, 0.45, 0.5, 0.55]
        fast = _sampler_py.mc_accumulate(977, 0, 50_000, 5, 3, 0.35, table)
        scalar = scalar_sampler.mc_accumulate(977, 0, 50_000, 5, 3, 0.35, table)
        assert fast == scalar

    def test_class_counts_match(self):
        fast = _sampler_py.class_counts(31, 0, 30_000, 6, 0.6)
        scalar = scalar_sampler.class_counts(31, 0, 30_000, 6, 0.6)
        assert fast == scalar

    def test_rng_primitives_match(self):
        words = (0, 1, 42, (1 << 64) - 1)
        mixed = _sampler_py._mix(np.array(words, dtype=np.uint64))
        assert [int(z) for z in mixed] == [scalar_sampler._mix(z) for z in words]
        for t in range(5):
            draws = _sampler_py._u01(np.array(words, dtype=np.uint64), t)
            assert draws.tolist() == [scalar_sampler._u01(z, t) for z in words]


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


class TestBlocks:
    def test_blocks_are_walked_lazily(self):
        assert next(oracle._blocks(10**18)) == (0, oracle.BLOCK_SAMPLES)


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

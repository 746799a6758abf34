"""Tests for frequency translation and the FLOPs cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StreamItError
from repro.linear import (
    FrequencyFilter,
    LinearFilter,
    LinearRep,
    best_block,
    compare,
    direct_flops_per_firing,
    direct_flops_per_input,
    fir_rep,
    freq_flops_per_input,
    frequency_replace,
)
from repro.linear.costmodel import fft_size
from repro.runtime import ArrayChannel
from tests.helpers import assert_same_bits, run_pipeline

rng = np.random.default_rng(99)


def run_rep_directly(rep, data, periods):
    return run_pipeline(LinearFilter(rep), data=data, periods=periods)


def run_rep_freq(rep, data, periods, block):
    return run_pipeline(FrequencyFilter(rep, block=block), data=data, periods=periods)


class TestFrequencyCorrectness:
    def test_fir_matches_direct(self):
        rep = fir_rep(rng.normal(size=11))
        data = list(rng.normal(size=32))
        direct = run_rep_directly(rep, data, periods=128)
        freq = run_rep_freq(rep, data, periods=8, block=16)
        m = min(len(direct), len(freq))
        assert m >= 128 and np.allclose(direct[:m], freq[:m])

    def test_decimating_multi_output(self):
        rep = LinearRep(rng.normal(size=(3, 8)), rng.normal(size=3), pop=2)
        data = list(rng.normal(size=64))
        direct = run_rep_directly(rep, data, periods=160)
        freq = run_rep_freq(rep, data, periods=20, block=8)
        m = min(len(direct), len(freq))
        assert m > 100 and np.allclose(direct[:m], freq[:m])

    def test_bias_vector_applied(self):
        rep = LinearRep(np.array([[1.0]]), np.array([5.0]), pop=1)
        freq = run_rep_freq(rep, [1.0, 2.0], periods=2, block=4)
        assert np.allclose(freq, [6.0, 7.0] * 4)

    def test_rates_scale_with_block(self):
        rep = fir_rep([1.0] * 5)
        f = FrequencyFilter(rep, block=16)
        assert f.rate.pop == 16
        assert f.rate.push == 16
        assert f.rate.peek == 16 + 4

    def test_block_validation(self):
        with pytest.raises(StreamItError):
            FrequencyFilter(fir_rep([1.0]), block=0)

    def test_default_block_from_cost_model(self):
        rep = fir_rep(rng.normal(size=64))
        f = frequency_replace(rep)
        assert f.block == best_block(rep)

    @settings(max_examples=15, deadline=None)
    @given(
        taps=st.integers(min_value=1, max_value=10),
        block=st.sampled_from([4, 8, 16]),
    )
    def test_freq_equals_direct_property(self, taps, block):
        rep = fir_rep(rng.normal(size=taps))
        data = list(rng.normal(size=24))
        direct = run_rep_directly(rep, data, periods=2 * block)
        freq = run_rep_freq(rep, data, periods=2, block=block)
        m = min(len(direct), len(freq))
        assert np.allclose(direct[:m], freq[:m])


def _gathered_frequency_batch(filt, window, n):
    """``FrequencyFilter.work_batch`` as it was before it wrote its result
    once: index-array gather, ``+ b``, transpose, reshape copy, concatenate."""
    rep, rate = filt.rep, filt.rate
    W = np.lib.stride_tricks.sliding_window_view(window, rate.peek)[:: rate.pop][:n]
    slab = max(1, (1 << 21) // max(rep.push * filt.n_fft, 1))
    outs = []
    for s in range(0, n, slab):
        Wb = W[s : s + slab]
        spectra = np.fft.rfft(Wb, n=filt.n_fft, axis=1)
        conv = np.fft.irfft(
            filt._spectra[None, :, :] * spectra[:, None, :], n=filt.n_fft, axis=2
        )
        outputs = conv[:, :, filt._taps] + rep.b[None, :, None]
        outs.append(np.transpose(outputs, (0, 2, 1)).reshape(len(Wb), -1))
    return np.concatenate(outs).reshape(-1), -(-n // slab)


def _batch_output(filt, window, n):
    filt.input = ArrayChannel(initial=window)
    filt.output = ArrayChannel()
    filt.work_batch(n)
    assert filt.input.popped_count == n * filt.rate.pop
    return filt.output.pop_block(filt.output.occupancy)


class TestOneWriteKernels:
    """The batch kernels build their output once; every bit stays where the
    gather / temporary / concatenate formulations put it."""

    @pytest.mark.parametrize("pop", [1, 3])
    @pytest.mark.parametrize("push", [1, 2, 16])
    def test_frequency_filter(self, pop, push):
        gen = np.random.default_rng(10 * pop + push)
        A = gen.standard_normal((push, 61))
        A[0, ::2] = 0.0  # exact and signed zeros reach the ``+ b``
        b = gen.standard_normal(push)
        b[0] = 0.0
        filt = FrequencyFilter(LinearRep(A, b, pop=pop), block=8)
        n = 3 * ((1 << 21) // (push * filt.n_fft)) // 2 + 5  # ends mid-slab
        window = gen.standard_normal((n - 1) * filt.rate.pop + filt.rate.peek)
        window[: filt.rate.peek * 40] = 0.0
        want, slabs = _gathered_frequency_batch(filt, window, n)
        assert slabs == 2
        assert_same_bits(_batch_output(filt, window, n), want)

    @pytest.mark.parametrize("pop", [1, 3])
    @pytest.mark.parametrize("push", [1, 2, 16])
    def test_linear_filter(self, pop, push):
        gen = np.random.default_rng(20 * pop + push)
        rep = LinearRep(gen.standard_normal((push, 9)), gen.standard_normal(push), pop=pop)
        rep.b[0] = 0.0
        n = 700
        window = gen.standard_normal((n - 1) * pop + rep.peek)
        window[:50] = -0.0
        X = np.lib.stride_tricks.sliding_window_view(window, rep.peek)[::pop][:n]
        want = (X @ rep.A.T + rep.b).reshape(-1)
        assert_same_bits(_batch_output(LinearFilter(rep), window, n), want)


class TestCostModel:
    def test_direct_counts_nonzeros(self):
        rep = fir_rep([1.0, 0.0, 3.0])
        assert direct_flops_per_firing(rep) == 4.0  # 2 muls + 2 adds
        assert direct_flops_per_input(rep) == 4.0

    def test_fft_size_covers_window(self):
        rep = fir_rep([1.0] * 10)
        assert fft_size(rep, 8) >= 8 + 9
        assert fft_size(rep, 8) & (fft_size(rep, 8) - 1) == 0  # power of two

    def test_crossover_with_tap_count(self):
        short = compare(fir_rep([1.0] * 4))
        long = compare(fir_rep([1.0] * 256))
        assert not short.freq_wins
        assert long.freq_wins
        assert long.direct / long.freq > 2.0

    def test_freq_cost_amortizes_with_block(self):
        rep = fir_rep([1.0] * 64)
        assert freq_flops_per_input(rep, 256) < freq_flops_per_input(rep, 8)

    def test_best_block_minimizes(self):
        rep = fir_rep([1.0] * 32)
        block = best_block(rep)
        for candidate in (8, 64, 512):
            assert freq_flops_per_input(rep, block) <= freq_flops_per_input(rep, candidate)

    def test_report_best(self):
        rpt = compare(fir_rep([1.0] * 128))
        assert rpt.best == min(rpt.direct, rpt.freq)

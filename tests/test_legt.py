"""Sliding-window Legendre baseline, validated against a least-squares oracle.

The oracle fits numpy's own Legendre basis (independent of the module's
recurrence and polynomial evaluation) to the trailing-window samples.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from fourier_kv.legt import (
    LegTState,
    compare_bases,
    legt_fold,
    legt_reconstruct,
    token_offsets,
)
from fourier_kv.traceio import KVTrace, TinyModelConfig, gen_synthetic, tiny_forward


def oracle_fit(samples, order, offsets):
    """Least-squares Legendre fit via numpy.polynomial, evaluated at offsets."""
    z = 2.0 * np.asarray(offsets) - 1.0
    design = np.stack([npleg.legval(z, np.eye(order)[n]) for n in range(order)], axis=1)
    sol, *_ = np.linalg.lstsq(design, samples, rcond=None)
    return design @ sol


def fold_sequence(state, signal_1d):
    for x in signal_1d:
        legt_fold(state, [x])
    return state


class TestFold:
    def test_zero_input_keeps_zero_state(self):
        state = LegTState.zeros(order=6, window=32, dim=2)
        for _ in range(100):
            legt_fold(state, np.zeros(2))
        assert np.all(state.coeffs == 0.0)
        assert state.token_count == 100

    def test_constant_input_midpoint_recovery(self):
        window = 64
        state = LegTState.zeros(order=8, window=window, dim=1)
        for _ in range(2 * window):
            legt_fold(state, np.ones(1))
        mid = legt_reconstruct(state, [0.5])[0, 0]
        assert abs(mid - 1.0) < 0.05

    def test_constant_trailing_window_within_5_percent(self):
        window = 64
        state = LegTState.zeros(order=8, window=window, dim=1)
        for _ in range(2 * window):
            legt_fold(state, np.ones(1))
        recon = legt_reconstruct(state, token_offsets(window))[:, 0]
        assert np.sqrt(np.mean((recon - 1.0) ** 2)) < 0.05

    def test_ramp_tracks_oracle(self):
        # warm start on the first window, stream the second; in-span signals
        # fold exactly, so both MSEs sit at rounding level
        window, order = 64, 8
        ramp = 0.01 * np.arange(2 * window, dtype=np.float64)
        state = LegTState.from_window(ramp[:window, None], order=order, window=window)
        for x in ramp[window:]:
            legt_fold(state, [x])
        offsets = token_offsets(window)
        recon = legt_reconstruct(state, offsets)[:, 0]
        target = ramp[window:]
        mse = np.mean((recon - target) ** 2)
        oracle = oracle_fit(target[:, None], order, offsets)[:, 0]
        oracle_mse = np.mean((oracle - target) ** 2)
        assert mse <= 2.0 * oracle_mse + 1e-12

    def test_ramp_from_cold_start_settles(self):
        window = 64
        ramp = 0.01 * np.arange(2 * window, dtype=np.float64)
        state = fold_sequence(LegTState.zeros(order=8, window=window, dim=1), ramp)
        recon = legt_reconstruct(state, token_offsets(window))[:, 0]
        assert np.mean((recon - ramp[window:]) ** 2) < 1e-6

    def test_fold_is_linear(self):
        rng = np.random.default_rng(4)
        signal = rng.standard_normal(40)
        base = fold_sequence(LegTState.zeros(order=6, window=20, dim=1), signal)
        doubled = fold_sequence(LegTState.zeros(order=6, window=20, dim=1), 2.0 * signal)
        np.testing.assert_array_equal(doubled.coeffs, 2.0 * base.coeffs)

    def test_steady_start_keeps_constants_exact(self):
        state = LegTState.steady(np.array([2.0, -1.0]), order=8, window=32)
        for _ in range(100):
            legt_fold(state, [2.0, -1.0])
        recon = legt_reconstruct(state, token_offsets(32))
        assert np.max(np.abs(recon - np.array([2.0, -1.0]))) < 1e-12


class TestReconstruct:
    def test_zero_state_reconstructs_zero(self):
        state = LegTState.zeros(order=4, window=16, dim=3)
        out = legt_reconstruct(state, [0.0, 0.25, 0.5])
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_order_zero_coefficient_gives_constant(self):
        state = LegTState.zeros(order=5, window=16, dim=1)
        state.coeffs[0, 0] = 3.5
        out = legt_reconstruct(state, np.linspace(0.0, 0.99, 7))
        np.testing.assert_allclose(out[:, 0], 3.5, atol=1e-12)  # normalized P0 == 1

    def test_smooth_signal_matches_direct_fit(self):
        window, order = 64, 8
        rng = np.random.default_rng(0)
        length = 4 * window
        t = np.arange(length, dtype=np.float64)
        signal = np.zeros(length)
        for _ in range(4):
            freq = rng.uniform(0.2, 1.0) / (4 * window)
            signal += rng.standard_normal() * np.cos(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        state = LegTState.from_window(signal[:window, None], order=order, window=window)
        for x in signal[window:]:
            legt_fold(state, [x])
        offsets = token_offsets(window)
        recon = legt_reconstruct(state, offsets)[:, 0]
        fit = oracle_fit(signal[length - window :, None], order, offsets)[:, 0]
        assert np.max(np.abs(recon - fit)) < 1e-3

    def test_offset_out_of_range(self):
        state = LegTState.zeros(order=4, window=16, dim=1)
        with pytest.raises(ValueError):
            legt_reconstruct(state, [1.0])
        with pytest.raises(ValueError):
            legt_reconstruct(state, [-0.01])

    def test_in_span_polynomials_track_fit_within_5_percent(self):
        window, order = 64, 8
        offsets = token_offsets(window)
        rng = np.random.default_rng(11)
        t = np.arange(2 * window, dtype=np.float64) / window
        for degree in (0, 1, 3, 5):
            coeffs = rng.standard_normal(degree + 1)
            signal = np.polyval(coeffs, t)
            state = LegTState.from_window(signal[:window, None], order=order, window=window)
            for x in signal[window:]:
                legt_fold(state, [x])
            recon = legt_reconstruct(state, offsets)[:, 0]
            fit = oracle_fit(signal[window:, None], order, offsets)[:, 0]
            scale = np.sqrt(np.mean(signal[window:] ** 2)) + 1e-12
            assert np.sqrt(np.mean((recon - fit) ** 2)) / scale < 0.05


class TestCompareBases:
    def test_constant_trace_both_tiny_fourier_wins_ties(self):
        trace = gen_synthetic("constant", layers=1, kv_heads=1, head_dim=4, seq_len=64)
        report = compare_bases(trace, k_states=4)
        for *_ , mf, ml in report.rows:
            assert mf < 1e-8 and ml < 1e-8
        assert report.win_rate == 1.0

    def test_tone_trace_fourier_exact_legt_not(self):
        trace = gen_synthetic(
            "tone", layers=1, kv_heads=2, head_dim=4, seq_len=64, seed=2,
            period=64, tone_order=2,
        )
        report = compare_bases(trace, k_states=4)
        for *_ , mf, ml in report.rows:
            assert mf < 1e-8
            assert ml > mf
        assert report.win_rate == 1.0

    def test_tiny_transformer_trace_win_rate(self):
        cfg = TinyModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, seed=3)
        tokens = np.random.default_rng(5).integers(0, 64, size=96)
        trace = tiny_forward(cfg, tokens)
        report = compare_bases(trace, k_states=4)
        assert len(report.rows) == 2 * 2 * 8
        assert 0.0 <= report.win_rate <= 1.0
        assert report.win_rate >= 0.5

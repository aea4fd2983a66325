"""Spectral core: operator structure, folding, and reconstruction.

Expected values come from independent oracles: a two-loop brute-force fold
and a least-squares projection onto explicitly built cosine/sine columns.
"""

import functools
import gc
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_kv import spectral
from fourier_kv.cache import PartitionParams
from fourier_kv.spectral import (
    FoldOrderError,
    FourierBasis,
    ReconstructionRangeError,
    SpectralState,
    build_basis,
    compress_batch,
    fold_blocks,
    fold_token,
    reconstruct,
    reconstruction_mse,
)
from harness import ONE_COLUMN, TRANSFORMS, forced, paired_products


def brute_force_fold(orders, period, rows, start_pos):
    """Two-loop oracle for the spectral coefficients."""
    rows = np.asarray(rows, dtype=np.float64)
    coeffs = np.zeros((2 * orders, rows.shape[1]))
    for i in range(rows.shape[0]):
        t = start_pos + i
        for n in range(orders):
            ang = 2.0 * math.pi * n * t / period
            coeffs[2 * n] += math.cos(ang) * rows[i]
            coeffs[2 * n + 1] += math.sin(ang) * rows[i]
    return coeffs


def lstsq_projection(orders, period, signal, positions):
    """Least-squares fit of a signal onto the cosine/sine columns."""
    positions = np.asarray(positions)
    design = np.zeros((positions.size, 2 * orders))
    for n in range(orders):
        design[:, 2 * n] = np.cos(2.0 * math.pi * n * positions / period)
        design[:, 2 * n + 1] = np.sin(2.0 * math.pi * n * positions / period)
    sol, *_ = np.linalg.lstsq(design, signal, rcond=None)
    return design @ sol


class TestFourierBasis:
    def test_row_structure_matches_direct_trig(self):
        basis = build_basis(orders=3, period=16)
        rows = basis.columns(range(16))
        for n in range(3):
            for t in range(16):
                assert rows[2 * n, t] == pytest.approx(math.cos(2 * math.pi * n * t / 16), abs=1e-12)
                assert rows[2 * n + 1, t] == pytest.approx(math.sin(2 * math.pi * n * t / 16), abs=1e-12)

    def test_order_zero_rows(self):
        basis = build_basis(orders=4, period=32)
        rows = basis.columns(range(32))
        assert np.all(rows[0] == 1.0)
        assert np.all(rows[1] == 0.0)

    def test_column_examples(self):
        basis = build_basis(orders=2, period=8)
        np.testing.assert_allclose(basis.column(0), [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        # at t=2 the order-1 pair is cos(pi/2), sin(pi/2)
        np.testing.assert_allclose(basis.column(2), [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_order_one_full_matrix(self):
        basis = build_basis(orders=1, period=4)
        np.testing.assert_array_equal(basis.columns(range(4)), [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("call", [
        lambda basis: basis.column(2.5),
        lambda basis: basis.column(2.0),
        lambda basis: basis.column(True),
        lambda basis: basis.column(np.float64(3)),
        lambda basis: basis.columns([1.5]),
        lambda basis: basis.columns([True, False]),
        lambda basis: reconstruct(compress_batch(basis, np.ones((4, 1)), 0), basis, [2.9]),
        lambda basis: compress_batch(basis, np.ones((3, 1)), 1.5),
        lambda basis: compress_batch(basis, np.ones((3, 1)), True),
        lambda basis: fold_blocks(basis, [np.ones((3, 1))], 1.5),
        lambda basis: fold_token(SpectralState.zeros(4, 1), basis, [1.0], 2.5),
    ], ids=["half-column", "float-column", "bool-column", "numpy-float-column",
            "half-columns", "bool-columns", "half-reconstruct", "half-start", "bool-start",
            "half-block-start", "half-fold-token"])
    def test_positions_that_are_not_integers_raise(self, call):
        # each used to read int(pos), a truncated position, or, for a bool, 0 or 1
        with pytest.raises(ValueError, match="integer"):
            call(FourierBasis(4, 16))

    def test_numpy_integer_and_empty_positions_pass(self):
        basis = FourierBasis(4, 16)
        np.testing.assert_array_equal(basis.column(np.int32(2)), basis.column(2))
        np.testing.assert_array_equal(basis.columns(np.array([1, 2], np.uint8)),
                                      basis.columns([1, 2]))
        assert basis.columns([]).shape == (8, 0)
        state = compress_batch(basis, np.ones((4, 1)), np.int64(1))
        assert (state.first_pos, state.last_pos) == (1, 4)
        assert reconstruct(state, basis, []).shape == (0, 1)
        assert reconstruct(state, basis, np.array([2])).shape == (1, 1)
        fold_token(state, basis, [1.0], np.int64(5))
        assert state.last_pos == 5

    def test_periodicity(self):
        basis = build_basis(orders=5, period=12)
        for t in [0, 3, 11, 25, 12 * 1000 + 7]:
            np.testing.assert_allclose(basis.column(t), basis.column(t % 12), atol=1e-6)
            np.testing.assert_allclose(basis.column(t), basis.column(t + 12), atol=1e-6)

    def test_periodicity_is_exact_with_integer_phases(self):
        # the (n*t) mod period phase trick makes wrapped columns bit-equal
        basis = build_basis(orders=7, period=37)
        for t in [1, 36, 38, 37 * 991 + 5]:
            np.testing.assert_array_equal(basis.column(t), basis.column(t % 37))

    def test_columns_transient_is_a_fraction_of_the_output(self):
        basis = build_basis(orders=512, period=32768)
        positions = np.arange(1000, 1128)
        tracemalloc.start()
        try:
            out = basis.columns(positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 2**20
        assert peak <= 1.5 * out.nbytes

    def test_synthesis_weights_are_built_once_and_read_only(self):
        basis = build_basis(orders=3, period=16)
        weights = basis.synthesis_weights()
        assert weights is basis.synthesis_weights()
        np.testing.assert_array_equal(weights, [1 / 16, 1 / 16] + [2 / 16] * 4)
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_column_is_read_only_and_one_is_cached(self):
        basis = build_basis(orders=5, period=32)
        col = basis.column(7)
        with pytest.raises(ValueError):
            col[0] = 2.0
        np.testing.assert_allclose(col, basis.columns([7])[:, 0], rtol=0, atol=1e-15)
        # the same geometry shares the column; another position replaces it
        assert build_basis(orders=5, period=32).column(7) is col
        for pos in (8, 40, 7):
            basis.column(pos)
            assert spectral._column.cache_info().currsize == 1
        assert spectral._column.cache_info().maxsize == 1
        np.testing.assert_array_equal(basis.column(7), col)

    def test_read_only_tables_leave_no_traced_memory(self):
        # a plan built inside a held-bytes measurement must leave nothing behind
        # once it is dropped; each write through flags.writeable keeps a few 57-byte blocks
        def build_plans(count, first=0):
            for i in range(first, first + count):
                spectral._chirp_plan(4, 64, i, 8)
                spectral._trig_tables(4, 64, i, 4, 2)
                FourierBasis(orders=4, period=64 + i).synthesis_weights()
            spectral._chirp_plan.cache_clear()
            spectral._trig_tables.cache_clear()

        build_plans(1, first=1000)  # first calls set up what numpy keeps for good
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_plans(100)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1024

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            build_basis(0, 8)
        with pytest.raises(ValueError):
            build_basis(2, 0)
        with pytest.raises(ValueError):
            build_basis(2, 8).column(-1)

    @pytest.mark.parametrize("period", [*range(1, 41), 4096, 32768])
    def test_rejects_orders_past_half_the_period(self, period):
        # orders past (period + 1) // 2 alias onto other orders' frequencies
        largest = (period + 1) // 2
        for make in (lambda k: FourierBasis(orders=k, period=period),
                     lambda k: build_basis(k, period),
                     lambda k: PartitionParams(init_len=0, local_len=1, period=period, orders=k)):
            assert make(largest).orders == largest
            with pytest.raises(ValueError, match=f"orders={largest + 1} at period={period}"):
                make(largest + 1)


class TestCompressBatch:
    def test_single_row_is_outer_product(self):
        basis = build_basis(orders=3, period=16)
        v = np.array([[0.5, -2.0, 3.25]])
        state = compress_batch(basis, v, start_pos=5)
        np.testing.assert_array_equal(state.coeffs, np.outer(basis.column(5), v[0]))
        assert state.token_count == 1
        assert state.first_pos == state.last_pos == 5

    def test_empty_input_yields_zero_state(self):
        basis = build_basis(orders=2, period=8)
        state = compress_batch(basis, np.zeros((0, 4)), start_pos=0)
        assert state.token_count == 0
        assert np.all(state.coeffs == 0.0)
        assert state.first_pos is None

    def test_constant_over_full_period(self):
        # sums of sin and order>=1 cos over one full period vanish
        basis = build_basis(orders=2, period=8)
        values = np.ones((8, 1))
        state = compress_batch(basis, values, start_pos=0)
        expected = brute_force_fold(2, 8, values, 0)
        np.testing.assert_allclose(state.coeffs, expected, atol=1e-12)
        np.testing.assert_allclose(state.coeffs[:, 0], [8.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_matches_brute_force_on_random_input(self):
        rng = np.random.default_rng(7)
        basis = build_basis(orders=4, period=32)
        values = rng.standard_normal((20, 3))
        state = compress_batch(basis, values, start_pos=9)
        np.testing.assert_allclose(state.coeffs, brute_force_fold(4, 32, values, 9), atol=1e-10)

    def test_rejects_bad_shapes(self):
        basis = build_basis(orders=2, period=8)
        with pytest.raises(ValueError):
            compress_batch(basis, np.zeros(4), start_pos=0)
        with pytest.raises(ValueError):
            compress_batch(basis, np.zeros((2, 2)), start_pos=-1)


class TestFoldToken:
    def test_fold_into_empty_equals_single_batch(self):
        basis = build_basis(orders=3, period=16)
        v = np.array([1.0, -0.5])
        state = fold_token(SpectralState.zeros(3, 2), basis, v, pos=4)
        batch = compress_batch(basis, v[None, :], start_pos=4)
        np.testing.assert_array_equal(state.coeffs, batch.coeffs)

    def test_sequential_fold_bitwise_equals_batch(self):
        rng = np.random.default_rng(11)
        basis = build_basis(orders=4, period=64)
        values = rng.standard_normal((40, 5))
        batch = compress_batch(basis, values, start_pos=3)
        state = SpectralState.zeros(4, 5)
        for i in range(40):
            fold_token(state, basis, values[i], pos=3 + i)
        np.testing.assert_array_equal(state.coeffs, batch.coeffs)
        assert (state.first_pos, state.last_pos, state.token_count) == (3, 42, 40)

    def test_zero_vector_only_advances_counters(self):
        basis = build_basis(orders=2, period=8)
        state = compress_batch(basis, np.ones((3, 2)), start_pos=0)
        before = state.coeffs.copy()
        fold_token(state, basis, np.zeros(2), pos=3)
        np.testing.assert_array_equal(state.coeffs, before)
        assert state.token_count == 4
        assert state.last_pos == 3

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_updates_the_states_own_array(self, order):
        # BLAS updates a C-ordered state's buffer itself and any other layout in
        # a copy, which must land back in the same array
        basis = build_basis(orders=8, period=64)
        rng = np.random.default_rng(2)
        state = compress_batch(basis, rng.standard_normal((5, 3)), start_pos=2)
        state.coeffs = np.asarray(state.coeffs, order=order)
        coeffs, expected = state.coeffs, state.coeffs + np.outer(basis.column(7), [1.0, -2.0, 0.5])
        fold_token(state, basis, np.array([1.0, -2.0, 0.5]), pos=7)
        assert state.coeffs is coeffs
        np.testing.assert_allclose(coeffs, expected, rtol=0, atol=1e-12 * 3.5)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(period=st.integers(1, 64), orders_extra=st.integers(-31, 0), dim=st.integers(0, 5),
           length=st.integers(1, 40), start=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def test_stream_equals_columns_product(self, period, orders_extra, dim, length, start, seed):
        # orders up to the largest the period accepts, (period + 1) // 2
        basis = build_basis(orders=max(1, (period + 1) // 2 + orders_extra), period=period)
        values = np.random.default_rng(seed).standard_normal((length, dim))
        state = SpectralState.zeros(basis.orders, dim)
        for i in range(length):
            fold_token(state, basis, values[i], pos=start + i)
        expected = basis.columns(np.arange(start, start + length)) @ values
        scale = np.maximum(1.0, np.abs(values).sum(axis=0))
        assert np.all(np.abs(state.coeffs - expected) <= 1e-12 * scale)

    def test_non_contiguous_fold_rejected(self):
        basis = build_basis(orders=2, period=8)
        state = fold_token(SpectralState.zeros(2, 1), basis, np.ones(1), pos=0)
        with pytest.raises(FoldOrderError):
            fold_token(state, basis, np.ones(1), pos=2)
        with pytest.raises(FoldOrderError):
            fold_token(state, basis, np.ones(1), pos=0)


class TestReconstruct:
    def test_constant_recovers_exactly_over_full_period(self):
        basis = build_basis(orders=2, period=8)
        values = np.ones((8, 1))
        state = compress_batch(basis, values, start_pos=0)
        recon = reconstruct(state, basis, np.arange(8))
        oracle = lstsq_projection(2, 8, values[:, 0], np.arange(8))
        np.testing.assert_allclose(recon[:, 0], oracle, atol=1e-9)
        assert np.max(np.abs(recon - 1.0)) < 1e-6

    def test_in_band_tone_recovers_exactly(self):
        period = 8
        t = np.arange(period)
        signal = np.cos(2 * np.pi * t / period)
        for orders in (2, 3, 4):
            basis = build_basis(orders=orders, period=period)
            state = compress_batch(basis, signal[:, None], start_pos=0)
            recon = reconstruct(state, basis, t)[:, 0]
            oracle = lstsq_projection(orders, period, signal, t)
            np.testing.assert_allclose(recon, oracle, atol=1e-9)
            assert np.max(np.abs(recon - signal)) < 1e-6

    @pytest.mark.parametrize("period", range(1, 41))
    def test_every_in_band_tone_recovers_at_the_largest_orders(self, period):
        # (period + 1) // 2 orders: every cosine and sine below them, folded over
        # one full period from its start or across a multiple of it, comes back
        orders = (period + 1) // 2
        basis = build_basis(orders, period)
        for start in (0, period + 3):
            t = np.arange(start, start + period)
            angles = 2 * np.pi * np.outer(t, np.arange(orders)) / period
            tones = np.hstack([np.cos(angles), np.sin(angles)])
            state = compress_batch(basis, tones, start_pos=start)
            np.testing.assert_allclose(reconstruct(state, basis, t), tones, rtol=0, atol=1e-9)

    def test_out_of_range_rejected(self):
        basis = build_basis(orders=2, period=8)
        state = compress_batch(basis, np.ones((4, 1)), start_pos=2)
        with pytest.raises(ReconstructionRangeError):
            reconstruct(state, basis, [1])
        with pytest.raises(ReconstructionRangeError):
            reconstruct(state, basis, [6])
        with pytest.raises(ReconstructionRangeError):
            reconstruct(SpectralState.zeros(2, 1), basis, [0])

    def test_empty_positions_ok(self):
        basis = build_basis(orders=2, period=8)
        state = compress_batch(basis, np.ones((4, 1)), start_pos=0)
        assert reconstruct(state, basis, []).shape == (0, 1)


class TestReconstructionMse:
    def test_identical_inputs(self):
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(reconstruction_mse(x, x), np.zeros(3))

    def test_constant_offset(self):
        zero = np.zeros((5, 2))
        np.testing.assert_allclose(reconstruction_mse(zero, zero + 1.5), [2.25, 2.25])

    def test_matches_two_loop_reference(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 4))
        b = rng.standard_normal((16, 4))
        expected = np.zeros(4)
        for d in range(4):
            for i in range(16):
                expected[d] += (a[i, d] - b[i, d]) ** 2
        expected /= 16
        np.testing.assert_allclose(reconstruction_mse(a, b), expected, atol=1e-7)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_mse(np.zeros((3, 2)), np.zeros((2, 3)))


class TestProperties:
    def test_streaming_equals_batch_on_random_sequences(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            orders = int(rng.integers(1, 6))
            period = int(rng.integers(8, 128))
            length = int(rng.integers(0, 60))
            start = int(rng.integers(0, 50))
            dim = int(rng.integers(1, 5))
            values = rng.standard_normal((length, dim))
            batch = compress_batch(basis := build_basis(orders, period), values, start)
            state = SpectralState.zeros(orders, dim)
            for i in range(length):
                fold_token(state, basis, values[i], start + i)
            np.testing.assert_array_equal(state.coeffs, batch.coeffs)

    def test_band_limited_exactness(self):
        rng = np.random.default_rng(5)
        period = 32
        orders = 4
        basis = build_basis(orders, period)
        t = np.arange(period)
        for _ in range(20):
            signal = np.zeros(period)
            for n in range(orders):
                signal += rng.standard_normal() * np.cos(2 * np.pi * n * t / period)
                signal += rng.standard_normal() * np.sin(2 * np.pi * n * t / period)
            state = compress_batch(basis, signal[:, None], start_pos=0)
            recon = reconstruct(state, basis, t)[:, 0]
            assert np.max(np.abs(recon - signal)) < 1e-5

    def test_projection_mse_non_increasing_in_orders(self):
        rng = np.random.default_rng(17)
        period = 64
        t = np.arange(period)
        signal = rng.standard_normal((period, 2))
        previous = None
        for orders in (1, 2, 4, 8, 16):
            basis = build_basis(orders, period)
            state = compress_batch(basis, signal, start_pos=0)
            mse = reconstruction_mse(signal, reconstruct(state, basis, t)).sum()
            if previous is not None:
                assert mse <= previous + 1e-12
            previous = mse

    def test_reconstruction_scales_linearly(self):
        rng = np.random.default_rng(9)
        basis = build_basis(orders=3, period=24)
        values = rng.standard_normal((24, 2))
        t = np.arange(24)
        base = reconstruct(compress_batch(basis, values, 0), basis, t)
        doubled = reconstruct(compress_batch(basis, 2.0 * values, 0), basis, t)
        np.testing.assert_array_equal(doubled, 2.0 * base)  # exact for power-of-two scale
        scaled = reconstruct(compress_batch(basis, 1.7 * values, 0), basis, t)
        np.testing.assert_allclose(scaled, 1.7 * base, rtol=1e-12, atol=1e-12)


@st.composite
def basis_and_positions(draw):
    """A basis whose orders reach the largest a period accepts, ``(period + 1) // 2``,
    with short runs that start in the first four periods or far past them."""
    period = draw(st.integers(1, 80))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    length = draw(st.integers(0, 40))
    start = draw(st.one_of(st.integers(0, 4 * period), st.integers(0, 2**40)))
    seed = draw(st.integers(0, 2**32 - 1))
    return FourierBasis(orders=orders, period=period), range(start, start + length), seed


class TestFftBasisOperations:
    """``evaluate`` and ``project`` against products with explicit columns, and what they accept."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(basis_and_positions())
    def test_evaluate_equals_columns_transpose_product(self, case):
        basis, positions, seed = case
        coeffs = np.random.default_rng(seed).standard_normal(basis.n_rows)
        expected = basis.columns(positions).T @ coeffs
        got = basis.evaluate(coeffs, positions)
        assert got.shape == (len(positions),)
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(coeffs).sum()))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(basis_and_positions())
    def test_project_equals_columns_product(self, case):
        basis, positions, seed = case
        weights = np.random.default_rng(seed).standard_normal(len(positions))
        expected = basis.columns(positions) @ weights
        got = basis.project(weights, positions)
        assert got.shape == (basis.n_rows,)
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights).sum()))

    def test_rejects_bad_shapes_and_negative_positions(self):
        basis = FourierBasis(orders=3, period=16)
        run, coeffs, weights = range(0, 2), np.zeros(6), np.zeros(2)
        assert basis.evaluate(coeffs, run).shape == (2,)
        assert basis.project(weights, run).shape == (6,)
        # each case changes one input of the valid calls above
        with pytest.raises(ValueError, match="coeffs must have shape"):
            basis.evaluate(np.zeros(5), run)
        with pytest.raises(ValueError, match="weights must have shape"):
            basis.project(np.zeros(3), run)
        for positions, reason in ((range(-1, 1), r"start >= 0, got range\(-1, 1\)"),
                                  (np.arange(2), "must be a range, got ndarray"),
                                  ([0, 1], "must be a range, got list"),
                                  (range(0, 4, 2), r"step 1 .*, got range\(0, 4, 2\)"),
                                  (range(1, -1, -1), r"step 1 .*, got range\(1, -1, -1\)")):
            with pytest.raises(ValueError, match=reason):
                basis.evaluate(coeffs, positions)
            with pytest.raises(ValueError, match=reason):
                basis.project(weights, positions)
        # an empty run has no position to be negative
        assert basis.evaluate(coeffs, range(-4, -4)).shape == (0,)
        np.testing.assert_array_equal(basis.project(np.zeros(0), range(-4, -4)), np.zeros(6))


@st.composite
def basis_and_run(draw):
    """A basis and one contiguous run of positions, as decode attention reads.

    Runs reach a full period and past it, start anywhere in the first three
    periods (so they often wrap past a multiple of the period), and include
    empty runs, single positions and period 1; orders reach the largest the
    period accepts, ``(period + 1) // 2``, so the bin count ``R = orders``
    may exceed the run's span.
    """
    period = draw(st.one_of(st.just(1), st.integers(2, 80)))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    length = draw(st.one_of(st.just(0), st.just(1), st.integers(1, period),
                            st.integers(period, 2 * period)))
    start = draw(st.integers(0, 3 * period))
    seed = draw(st.integers(0, 2**32 - 1))
    return FourierBasis(orders=orders, period=period), range(start, start + length), seed


class TestContiguousRuns:
    """``evaluate``/``project`` on runs against explicit columns, what they
    allocate, and which transform serves them."""

    # each forces one transform of a column, or leaves the cost rule to pick
    @pytest.mark.parametrize("transform", ONE_COLUMN)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=basis_and_run())
    def test_evaluate_and_project_equal_columns_products(self, transform, case):
        basis, positions, seed = case
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(basis.n_rows)
        weights = rng.standard_normal(len(positions))
        cols = basis.columns(positions)
        with forced(transform):
            evaluated = basis.evaluate(coeffs, positions)
            projected = basis.project(weights, positions)
        np.testing.assert_allclose(evaluated, cols.T @ coeffs, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(coeffs).sum()))
        np.testing.assert_allclose(projected, cols @ weights, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights).sum()))

    def test_transient_memory_does_not_grow_with_the_period(self):
        weights = np.ones(1000)

        def transient(period, start=4):
            positions = range(start, start + 1000)
            basis = FourierBasis(orders=16, period=period)
            coeffs = np.ones(basis.n_rows)
            peaks = []
            for call in (lambda: basis.evaluate(coeffs, positions),
                         lambda: basis.project(weights, positions)):
                call()  # the first call for a run length builds its cached tables
                tracemalloc.start()
                try:
                    call()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks

        # orders 16 would run the trig tables: force the chirp-z transform
        with forced(_TABLE_COST_RATIO=0):
            short = transient(2**12)
            # the last run wraps past the period and still costs its own length
            longs = (transient(2**20), transient(2**20, start=2**20 - 500))
        for long in longs:
            for small, large in zip(short, long):
                assert large <= small + 4096
                assert small < 2**17  # a few length-1024 complex arrays

    def test_trig_tables_do_not_grow_with_the_period(self):
        # desk geometry: 16 orders over a middle region of 960 positions
        positions, weights = range(4, 964), np.ones(960)

        def footprint(period):
            basis = FourierBasis(orders=16, period=period)
            coeffs = np.ones(basis.n_rows)
            tables = basis._transform(positions).tables
            assert isinstance(tables, spectral._TrigTables)
            peaks = []
            for call in (lambda: basis.evaluate(coeffs, positions),
                         lambda: basis.project(weights, positions)):
                call()
                tracemalloc.start()
                try:
                    call()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return sum(t.nbytes for t in tables), peaks

        table_bytes, peaks = footprint(2**12)
        # 16 bins x (32 head rows + 32 tail positions), complex
        assert table_bytes == 16 * 16 * (32 + 32)
        for period in (2**16, 2**24):
            long_bytes, long_peaks = footprint(period)
            assert long_bytes == table_bytes
            for small, large in zip(peaks, long_peaks):
                assert large <= small + 4096

    def test_chirp_z_serves_fft_lengths_up_to_a_quarter_period(self):
        # the chirp-z's FFT pair, 2 n log2 n, runs while it costs at most the
        # length-period FFT's L log2 L (L = period/2 + 1): up to a quarter period,
        # whose next fast length, 9/8 of it, costs more
        for period in (2**12, 2**15):
            basis = FourierBasis(orders=16, period=period)
            coeffs = np.ones(basis.n_rows)
            reach, past = period // 4, 9 * period // 32
            fft_len = period // 2 + 1
            assert spectral._fast_len(reach + 1) == past
            assert (2 * reach * reach.bit_length() <= fft_len * fft_len.bit_length()
                    < 2 * past * past.bit_length())
            # span + 16 - 1 positions of linear convolution; orders 16 would run the
            # trig tables, so the chirp-z transform is forced
            for n, tables in ((3 * period // 16, 1), (reach, 1), (reach + 1, 0)):
                run = range(3, 3 + n - 15)
                spectral._chirp_plan.cache_clear()
                with forced(_TABLE_COST_RATIO=0):
                    basis.evaluate(coeffs, run)
                    plan = basis._plan(run)
                assert spectral._chirp_plan.cache_info().currsize == tables
                if tables:
                    assert plan.chirp.spectrum.size == n
                else:
                    assert plan.chirp is None

    def test_the_chirp_z_reach_is_a_quarter_period_at_powers_of_two(self):
        # for power-of-two n and period the derived reach is n <= period / 4, but
        # for one order over one position at period 2, which the tables serve
        differ = {(1 << a, 1 << p) for a in range(21) for p in range(21)
                  if spectral._chirp_reaches(1 << a, 1 << p) != (4 << a <= 1 << p)}
        assert differ == {(1, 2)}
        assert FourierBasis(orders=1, period=2)._pick(1)[0] == "tables"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(period=st.integers(1, 2**15), fraction=st.floats(0, 1), span=st.integers(1, 5000),
           start=st.integers(0, 2**20), columns=st.integers(1, 300))
    def test_chirp_plans_run_the_least_fast_length(self, period, fraction, span, start, columns):
        def fast(m):
            # 2**a times an odd 5-smooth factor of at most 2**a
            power = m & -m
            odd = m // power
            for p in (3, 5):
                while odd % p == 0:
                    odd //= p
            return odd == 1 and m // power <= power

        orders = 1 + int(fraction * ((period - 1) // 2))
        basis = FourierBasis(orders=orders, period=period)
        target = span + orders - 1
        with forced("chirp-z"):
            kind, n, _ = basis._pick(span, columns)
            plan = basis._transform(range(start, start + span))
        assert kind == "chirp" and plan.chirp.spectrum.size == n >= target
        assert fast(n) and not any(fast(m) for m in range(target, n))
        assert (plan.chirp.pre.size, plan.chirp.chirp.size) == (orders, n - orders + 1)

    def test_fast_lengths_run_no_slower_factorisations_than_the_stock_middles(self):
        # 1536 = 2**9 * 3 and 1600 = 2**6 * 5**2 serve the benchmark's stock
        # middles; 2025 = 3**4 * 5**2, 1944 = 2**3 * 3**5 and 4050 = 2 * 3**4 *
        # 5**2, the least 5-smooth lengths at these targets, ran slower than the
        # power of two after them
        assert [spectral._fast_len(t) for t in (1532, 1536, 1537, 1545)] == [1536, 1536, 1600, 1600]
        assert [spectral._fast_len(t) for t in (1925, 2011, 3539 + 511)] == [2048, 2048, 4096]

    def test_a_run_past_a_quarter_period_costs_at_most_the_period(self):
        # a full period of positions: a chirp-z transform would need n = 2 * period
        period = 2**12
        basis = FourierBasis(orders=16, period=period)
        positions = range(5, 5 + period)
        coeffs, weights = np.ones(basis.n_rows), np.ones(period)
        cols = basis.columns(positions)
        for call, expected in ((lambda: basis.evaluate(coeffs, positions), cols.T @ coeffs),
                               (lambda: basis.project(weights, positions), cols @ weights)):
            # orders 16 would run the trig tables: the FFTs are what is tested here
            with forced(_TABLE_COST_RATIO=0):
                call()  # numpy sets up its FFT of this length on first use
                tracemalloc.start()
                try:
                    got = call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * period)
            # at most five length-period float64 arrays; the chirp-z pair of
            # length 2 * period would take nine to eleven
            assert peak <= 6 * 8 * period


@st.composite
def basis_and_range(draw):
    """A basis and positions given as a ``range``, as decode attention passes them.

    Unit-step runs reach exactly one period and past it, start anywhere in
    the first three periods (so they often wrap past a multiple of the
    period) or far past them, and may be empty or single positions; orders
    reach the largest the period accepts, ``(period + 1) // 2``, so the bin
    count ``R = orders`` may exceed the run's span, and the period may be 1.
    Other steps, negative ones included, must be rejected.
    """
    period = draw(st.one_of(st.just(1), st.integers(2, 80)))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    count = draw(st.one_of(st.just(0), st.just(1), st.just(period), st.integers(1, period),
                           st.integers(period, 2 * period)))
    start = draw(st.one_of(st.integers(0, 3 * period), st.integers(0, 2**40)))
    step = draw(st.one_of(st.just(1), st.sampled_from([-3, -1, 2, 5])))
    if step < 0:
        start += -step * count  # the lowest position stays >= 0
    seed = draw(st.integers(0, 2**32 - 1))
    return FourierBasis(orders=orders, period=period), range(start, start + step * count, step), seed


class TestRangePositions:
    """A unit-step ``range`` reads as its positions given as an array; other steps are rejected."""

    # each forces one transform of a column; about half the examples are
    # unit-step runs, which evaluate and project, and the rest are rejected
    @pytest.mark.parametrize("transform", ONE_COLUMN)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=basis_and_range())
    def test_range_equals_array_and_columns_products(self, transform, case):
        basis, run, seed = case
        positions = np.asarray(run, dtype=np.int64)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(basis.n_rows)
        weights = rng.standard_normal(len(run))
        cols = basis.columns(positions)
        np.testing.assert_array_equal(basis.columns(run), cols)
        with forced(transform):
            if run.step != 1:
                with pytest.raises(ValueError, match="step 1"):
                    basis.evaluate(coeffs, run)
                with pytest.raises(ValueError, match="step 1"):
                    basis.project(weights, run)
                return
            evaluated = basis.evaluate(coeffs, run)
            projected = basis.project(weights, run)
        assert evaluated.shape == (len(run),) and projected.shape == (basis.n_rows,)
        np.testing.assert_allclose(evaluated, cols.T @ coeffs, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(coeffs).sum()))
        np.testing.assert_allclose(projected, cols @ weights, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights).sum()))

    def test_a_run_is_read_without_scanning_it(self):
        # far from the origin and wrapping past a multiple of the period: its
        # residues span the whole period, but the run costs only its length
        period = 2**16
        basis = FourierBasis(orders=16, period=period)
        run = range(1000 * period - 5, 1000 * period + 5)
        assert basis._transform(run).span == len(run)
        coeffs, weights = np.ones(basis.n_rows), np.ones(len(run))
        cols = basis.columns(run)
        for call, expected in ((lambda: basis.evaluate(coeffs, run), cols.T @ coeffs),
                               (lambda: basis.project(weights, run), cols @ weights)):
            call()  # builds the cached tables
            tracemalloc.start()
            try:
                got = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * basis.n_rows)
            assert peak < 2**15  # a transform over 10 offsets, not a length-period FFT

    def test_rejects_negative_and_mismatched_ranges(self):
        basis = FourierBasis(orders=3, period=16)
        for run in (range(-1, 3), range(-5, -1)):
            with pytest.raises(ValueError, match="start >= 0"):
                basis.evaluate(np.zeros(6), run)
            with pytest.raises(ValueError, match="start >= 0"):
                basis.project(np.zeros(len(run)), run)
        with pytest.raises(ValueError, match="weights must have shape"):
            basis.project(np.zeros(3), range(0, 4))
        # empty runs, whatever their bounds, read as no positions
        for run in (range(-4, -4), range(5, 2)):
            assert basis.evaluate(np.zeros(6), run).shape == (0,)
            np.testing.assert_array_equal(basis.project(np.zeros(0), run), np.zeros(6))


@st.composite
def basis_run_and_columns(draw):
    """A basis, a run and a column count for ``(len(run), c)`` weights.

    Runs are empty, single positions, up to one period or up to two, and
    start in the first three periods (so they often wrap past a multiple of
    the period) or anywhere up to 2**40; orders reach the largest the period
    accepts, ``(period + 1) // 2``; column counts are 0, odd or even.
    """
    period = draw(st.one_of(st.just(1), st.integers(2, 80)))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    length = draw(st.one_of(st.just(0), st.just(1), st.integers(1, period),
                            st.integers(period, 2 * period)))
    start = draw(st.one_of(st.integers(0, 3 * period), st.integers(0, 2**40)))
    cols = draw(st.integers(0, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return FourierBasis(orders=orders, period=period), range(start, start + length), cols, seed


class TestBatchedProject:
    """The one projection of many columns, :func:`fold_blocks` of a ``(len(run), c)``
    block, against ``columns(run) @ weights``."""

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=basis_run_and_columns())
    def test_equals_columns_product_per_column(self, transform, case):
        basis, run, cols, seed = case
        weights = np.random.default_rng(seed).standard_normal((len(run), cols))
        expected = basis.columns(run) @ weights
        scale = np.maximum(1.0, np.abs(weights).sum(axis=0))
        with forced(transform):
            (state,) = fold_blocks(basis, [weights], run.start)
        assert state.coeffs.shape == (basis.n_rows, cols)
        assert np.all(np.abs(state.coeffs - expected) <= 1e-12 * scale)

    def test_float32_weights_are_cast_in_the_transform(self):
        weights = np.random.default_rng(4).standard_normal((40, 5)).astype(np.float32)
        for basis in (FourierBasis(16, 4096), FourierBasis(512, 32768), FourierBasis(3, 8)):
            (got,) = fold_blocks(basis, [weights], 7)
            (expected,) = fold_blocks(basis, [weights.astype(np.float64)], 7)
            np.testing.assert_array_equal(got.coeffs, expected.coeffs)

    @pytest.mark.parametrize("orders, period, span, cols, transform, kind", [
        (512, 32768, 1020, 24, "chirp-z", "chirp"),
        (16, 4096, 956, 70, "dispatch", "tables"),
        (64, 4096, 3000, 9, "length-period", "fft"),
        (512, 32768, 1020, 48, "dispatch", "moments"),
    ], ids=["chirp-z", "tables", "length-period", "moments"])
    def test_project_floats_bound_each_transforms_buffers(
            self, orders, period, span, cols, transform, kind):
        # what the batch fold sizes its groups by: weights as the fold passes
        # them, float32 columns gathered from a block, and the plan built
        # beforehand. The trig tables and the moments fold a block in place,
        # as centred pairs, into states the fold holds
        basis = FourierBasis(orders=orders, period=period)
        run = range(7, 7 + span)
        weights = np.ones((span, cols), dtype=np.float32)
        with forced(transform):
            assert basis._pick(span, cols)[0] == kind
            plan = basis._transform(run, cols)
            fixed, per_column = basis._project_floats(span, cols)
        if kind in ("tables", "moments"):
            assert per_column == plan.degree == (2 * orders if kind == "tables" else 98)
            outs = [np.zeros((basis.n_rows, cols))]
            # the run's rows and waves read from their cached tables, or built
            # per chunk as a sub-run's are
            for cached in (True, False):
                fold = functools.partial(spectral._fold_moments, basis, plan, [weights],
                                         [np.arange(cols)], outs, [0], 0, span, cached)
                fold()  # the run's tables, and numpy's own first-call allocations
                tracemalloc.start()
                try:
                    fold()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 * (fixed + cols * per_column) + 1024
            return
        project = functools.partial(basis._project_columns, weights, plan)
        project()  # numpy's own first-call allocations
        tracemalloc.start()
        try:
            project()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + weights.nbytes <= 8 * (fixed + cols * per_column) + 1024

    def test_rejects_bad_shapes(self):
        # project takes one column; many go through fold_blocks, whose picks ascend
        basis = FourierBasis(orders=3, period=16)
        assert basis.project(np.zeros(2), range(0, 2)).shape == (6,)
        for weights in (np.zeros((2, 4)), np.zeros((2, 4, 1)), np.zeros(())):
            with pytest.raises(ValueError, match="weights must have shape .*fold_blocks"):
                basis.project(weights, range(0, 2))
        with pytest.raises(ValueError, match="step 1"):
            basis.project(np.zeros(2), range(0, 4, 2))
        block = np.ones((2, 4))
        assert fold_blocks(basis, [block], 0, dims=[[0, 2]])[0].coeffs.shape == (6, 2)
        for pick in ([2, 0], [1, 1], [4], slice(None), slice(None, None, -1)):
            with pytest.raises(ValueError, match="strictly ascending"):
                fold_blocks(basis, [block], 0, dims=[pick])


class TestOneColumn:
    """One weight column, as decode attention passes, runs its own transform."""

    @pytest.mark.parametrize("span", [1026, 1027, 1034])
    def test_stock_runs_the_chirp_z_at_one_columns_length(self, span):
        # one column runs the least fast n >= span + 511, 1600 here, and never
        # the moments, which a head's K and V columns over the same run take
        basis = FourierBasis(orders=512, period=32768)
        run = range(4, 4 + span)
        weights = np.random.default_rng(span).standard_normal(span)
        seen, transform = [], FourierBasis._transform
        assert basis._pick(span, 204)[0] == "moments"

        def spy(self, run, columns=0, cached=True):
            plan = transform(self, run, columns, cached)
            seen.append(plan.chirp)
            return plan

        spectral._run_plan.cache_clear()  # the run's plan is resolved under the spy
        with mock.patch.object(FourierBasis, "_transform", spy):
            got = basis.project(weights, run)
        assert len(seen) == 1 and isinstance(seen[0], spectral._ChirpPlan)
        assert seen[0].spectrum.size == 1600
        np.testing.assert_allclose(got, basis.columns(run) @ weights, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights).sum()))

    @pytest.mark.parametrize("span", [956, 963])
    def test_desk_sums_one_column_on_the_tables_and_a_fold_on_centred_rows(self, span):
        # one column reads the run's trig tables; a fold of more builds the
        # run's centred rows once and no tables
        basis = FourierBasis(orders=16, period=4096)
        run = range(4, 4 + span)
        weights = np.random.default_rng(span).standard_normal((span, 2))
        spectral._run_plan.cache_clear()
        spectral._trig_tables.cache_clear()
        spectral._run_table.cache_clear()
        with mock.patch.object(spectral, "_centred_rows", wraps=spectral._centred_rows) as rows:
            one = basis.project(weights[:, 0], run)
            assert rows.call_count == 0 and spectral._trig_tables.cache_info().misses == 1
            (two,) = fold_blocks(basis, [weights], run.start)
            assert rows.call_count == 1 and spectral._trig_tables.cache_info().misses == 1
        cols = basis.columns(run)
        np.testing.assert_allclose(one, cols @ weights[:, 0], rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights[:, 0]).sum()))
        np.testing.assert_allclose(two.coeffs[:, 0], one, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights[:, 0]).sum()))


def assert_fold_matches_oracle(state, basis, block, start_pos, oracle=None):
    """``state`` equals ``compress_batch`` of ``block`` within 1e-12 of each column's scale."""
    if oracle is None:
        oracle = compress_batch(basis, block, start_pos)
    scale = np.maximum(1.0, np.abs(np.asarray(block, dtype=np.float64)).sum(axis=0))
    assert state.coeffs.shape == oracle.coeffs.shape
    assert np.all(np.abs(state.coeffs - oracle.coeffs) <= 1e-12 * scale)
    assert (state.token_count, state.first_pos, state.last_pos) == (
        oracle.token_count, oracle.first_pos, oracle.last_pos)


@st.composite
def blocks_on_one_run(draw):
    """Blocks sharing one run of positions, with optional per-block column picks.

    Lengths reach exactly one period; orders reach the largest the period
    accepts, ``(period + 1) // 2``, and orders 4096, at period 8191, make
    column groups of about 15 columns, fewer than some draws have; blocks
    may have no columns and picks may be empty or full.
    """
    period = draw(st.integers(1, 64))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2),
                            st.just(4096)))
    length = draw(st.one_of(st.integers(0, period), st.just(period)))
    period = max(period, 2 * orders - 1)
    start_pos = draw(st.integers(0, 3 * period))
    widths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.standard_normal((length, w)).astype(np.float32) for w in widths]
    picks = None
    if draw(st.booleans()):
        picks = [np.asarray(draw(st.sets(st.integers(0, w - 1)).map(sorted)) if w else [],
                            dtype=np.int64) for w in widths]
    return FourierBasis(orders=orders, period=period), blocks, start_pos, picks


class TestFoldBlocks:
    """The shared-column batch fold against its oracle ``compress_batch``."""

    @staticmethod
    def assert_every_transform_matches(basis, blocks, start_pos, picks, **patches):
        """Fold under each forced transform, and as the cost rule picks, against the oracle."""
        selected = [block if picks is None else block[:, pick]
                    for block, pick in zip(blocks, picks or blocks)]
        oracles = [compress_batch(basis, block, start_pos) for block in selected]
        for transform in TRANSFORMS:
            with forced(transform, **patches):
                states = fold_blocks(basis, blocks, start_pos, dims=picks)
            assert len(states) == len(blocks)
            for state, block, oracle in zip(states, selected, oracles):
                assert_fold_matches_oracle(state, basis, block, start_pos, oracle)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(blocks_on_one_run())
    def test_equals_compress_batch_of_each_block(self, case):
        self.assert_every_transform_matches(*case)

    # a budget of 2**9 floats folds the strategy's runs in sub-runs and groups
    # narrower than most blocks, single positions and columns at 4096 orders
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(blocks_on_one_run())
    def test_equals_compress_batch_of_each_block_at_a_small_budget(self, case):
        self.assert_every_transform_matches(*case, _FOLD_CHUNK_FLOATS=2**9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=blocks_on_one_run(), a=st.floats(-4, 4), b=st.floats(-4, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_is_linear(self, case, a, b, seed):
        # fold(a X + b Y) = a fold(X) + b fold(Y) under each transform, within
        # 1e-12 of each column's sum of |a X| + |b Y|
        basis, blocks, start_pos, picks = case
        rng = np.random.default_rng(seed)
        others = [rng.standard_normal(block.shape) for block in blocks]
        mixed = [a * x.astype(np.float64) + b * y for x, y in zip(blocks, others)]
        for transform in TRANSFORMS:
            with forced(transform):
                fx, fy, fz = (fold_blocks(basis, group, start_pos, dims=picks)
                              for group in (blocks, others, mixed))
            for i, (sx, sy, sz) in enumerate(zip(fx, fy, fz)):
                pick = slice(None) if picks is None else picks[i]
                scale = (np.abs(a * blocks[i][:, pick].astype(np.float64)).sum(axis=0)
                         + np.abs(b * others[i][:, pick]).sum(axis=0))
                expected = a * sx.coeffs + b * sy.coeffs
                assert np.all(np.abs(sz.coeffs - expected) <= 1e-12 * np.maximum(1.0, scale))

    @pytest.mark.parametrize("span", range(1, 8))
    def test_centred_pairs_join_rows_about_the_centre(self, span):
        # pair p joins the rows p places above and below the centre, an odd
        # span's centre with zero; every chunk of pairs reads the same pairs
        block = np.random.default_rng(span).standard_normal((span, 3)).astype(np.float32)
        half = (span + 1) // 2
        top = block[span - half :].astype(np.float64)
        bottom = block[:half][::-1].astype(np.float64)
        if span % 2:
            bottom[0] = 0.0
        for p0 in range(half):
            for n in range(1, half - p0 + 1):
                out = spectral._centred_pairs(block, p0, np.full((2, n, 3), np.nan))
                np.testing.assert_array_equal(out[0], (top + bottom)[p0 : p0 + n])
                np.testing.assert_array_equal(out[1], (top - bottom)[p0 : p0 + n])
        out = spectral._centred_pairs(block, 0, np.empty((2, half, 3)))
        np.testing.assert_allclose(np.einsum("kij,kij->j", out, out) / 2,
                                   np.einsum("ij,ij->j", block, block, dtype=np.float64),
                                   rtol=1e-15)

    def test_chunks_cover_a_run_longer_than_one_chunk(self):
        basis = FourierBasis(orders=4096, period=8191)  # 8192 rows: the largest states
        block = np.random.default_rng(0).standard_normal((50, 3))
        # 2**9 floats hold less than one column: sub-runs of one position, groups of one column
        with forced(_FOLD_CHUNK_FLOATS=2**9):
            (state,) = fold_blocks(basis, [block], 7)
        assert_fold_matches_oracle(state, basis, block, 7)

    @pytest.mark.parametrize("orders, budget, small, length, sub_runs, builds, span", [
        (64, spectral._FOLD_CHUNK_FLOATS, spectral._SMALL_PRODUCT, 2500, 1, 10, 5),
        (64, spectral._FOLD_CHUNK_FLOATS, 2 * 64 * 125, 2500, 1, 10, 2),
        (8, 2**9, spectral._SMALL_PRODUCT, 90, 15, 90, 5),
        (8, 2**10, spectral._SMALL_PRODUCT, 90, 1, 6, 5),
    ], ids=["pair chunks at the budget", "capped products", "sub-runs and small groups",
            "cached rows and small groups"])
    def test_sub_runs_and_groups_cover_a_long_run(self, orders, budget, small, length,
                                                  sub_runs, builds, span):
        # the trig tables read the run as centred pairs and project spans of a
        # block's columns, from its first pick to its last. 64 orders meet 128
        # rows a pair, built with their grid in chunks of 128 pairs within a
        # quarter of the budget: the 1250 pairs of 2500 positions take 10 chunks
        # of 125 in one sub-run, each block's span whole, the widest 5 columns
        # (picks 1, 3 and 5), or 2 when a product may take only 2 columns of 64
        # rows over 125 pairs. 2**9 floats make sub-runs of 6 positions and
        # groups of 3 state columns, 6 a sub-run, each group building its rows.
        # 2**10 floats hold the whole run's 16 x 45 rows: one sub-run reads
        # them from the cache, built in 6 chunks of 8 pairs, in every one of
        # its 5 groups of up to 5 state columns, where each group built them.
        # The run wraps past a multiple of the period. Picks come with gaps,
        # without, empty, as a stretch and as every second column. The trig tables
        # are forced: the cost rule runs the length-period FFT over the whole run
        basis = FourierBasis(orders=orders, period=4096)
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((length, width)).astype(np.float32)
                  for width in (3, 0, 5, 5, 6, 6)]
        picks = [np.array([0, 2]), np.array([], dtype=np.int64), np.array([1, 2, 3, 4]),
                 np.array([1, 2, 3]), np.arange(2, 5), np.arange(1, 6, 2)]
        with forced("tables", _FOLD_CHUNK_FLOATS=budget, _SMALL_PRODUCT=small), \
                mock.patch.object(FourierBasis, "_transform", autospec=True,
                                  side_effect=FourierBasis._transform) as plans, \
                mock.patch.object(spectral, "_centred_rows",
                                  wraps=spectral._centred_rows) as rows, \
                paired_products() as products:
            states = fold_blocks(basis, blocks, 4090, dims=picks)
        assert len({call.args[1] for call in plans.call_args_list}) == sub_runs
        assert rows.call_count == builds
        assert max(w.shape[0] for w in products) == span
        for state, block, pick in zip(states, blocks, picks):
            assert_fold_matches_oracle(state, basis, block[:, pick], 4090)

    @pytest.mark.parametrize("budget, small, builds, products, widest", [
        (spectral._FOLD_CHUNK_FLOATS, 16 * 478 * 32, 1, 38, 32),
        (spectral._FOLD_CHUNK_FLOATS, 2**62, 1, 22, 64),
        (3 * 2**12, 2**62, 80, 380, 39),
        (2**15, 2**62, 4, 136, 43),
    ], ids=["small products", "whole blocks", "pair chunks and groups", "cached rows and groups"])
    def test_desk_blocks_fold_in_column_spans_like_compress_batch(
            self, budget, small, builds, products, widest):
        # the benchmark's desk middle: 16 orders over 956 positions, which the
        # trig tables read as 478 centred pairs, one chunk of their 32 rows,
        # and project one span of a block's pairs at a time, from its first
        # pick to its last, twice: the sums by the cosine rows, the differences
        # by the sine rows. A cast holds up to 66 columns, so a 64-column
        # block is one span and a 128-column one two (or picks 5 and 120 two
        # spans of 58, and no product for the columns between); products of at
        # most 16 * 478 * 32 multiply-adds take spans of up to 32 columns.
        # 3 * 2**12 floats make chunks of up to 48 pairs, 10 of them for each
        # of 8 groups of up to 70 state columns, and casts of equal widths up
        # to 48 columns, the widest the three of 39 over picks 5 to 120 (the
        # trig tables are forced: the cost rule would run the moments over
        # chunks that short); those rows, 15,296 floats, are past the budget,
        # so each group builds them. 2**15 floats hold them: the run's table,
        # built once in 4 chunks of 120 pairs, serves the 3 groups of up to 215
        # state columns, where each group built them (12 builds). Picks come
        # scattered, as stretches, every second column, empty and whole
        basis = FourierBasis(orders=16, period=4096)
        rng = np.random.default_rng(16)
        blocks = [rng.standard_normal((956, width)).astype(np.float32)
                  for width in (64, 64, 64, 64, 64, 64, 128, 128, 128)]
        picks = [np.sort(rng.choice(64, 58, replace=False)), np.sort(rng.permutation(64)[:32]),
                 np.arange(3, 61), np.arange(1, 64, 2), np.array([], dtype=np.int64),
                 np.array([3, 4]), np.sort(rng.choice(128, 100, replace=False)),
                 np.arange(128), np.array([5, 120])]
        with forced("tables", _FOLD_CHUNK_FLOATS=budget, _SMALL_PRODUCT=small), \
                mock.patch.object(FourierBasis, "_transform", autospec=True,
                                  side_effect=FourierBasis._transform) as plans, \
                mock.patch.object(spectral, "_centred_rows",
                                  wraps=spectral._centred_rows) as rows, \
                paired_products() as taken:
            states = fold_blocks(basis, blocks, 4, dims=picks)
        assert plans.call_count == 1
        assert rows.call_count == builds
        assert len(taken) == products
        assert max(w.shape[0] for w in taken) == widest <= 66
        for state, block, pick in zip(states, blocks, picks):
            assert_fold_matches_oracle(state, basis, block[:, pick], 4)

    def test_non_finite_columns_between_picks_leave_the_picked_states(self):
        # the trig tables project every column from a block's first pick to its
        # last; an Inf or NaN in a column between them reaches no picked
        # column's state and raises no floating-point warning
        basis = FourierBasis(orders=16, period=4096)
        block = np.random.default_rng(7).standard_normal((956, 64)).astype(np.float32)
        block[3, 10], block[5, 10], block[8, 30] = np.inf, -np.inf, np.nan
        pick = np.array([2, 11, 40])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,) = fold_blocks(basis, [block], 4, dims=[pick])
        assert_fold_matches_oracle(state, basis, block[:, pick], 4)

    def test_empty_run_gives_zero_states(self):
        basis = FourierBasis(orders=3, period=16)
        states = fold_blocks(basis, [np.zeros((0, 2)), np.zeros((0, 5))], 4)
        for state, dim in zip(states, (2, 5)):
            assert state.coeffs.shape == (6, dim) and not state.coeffs.any()
            assert (state.token_count, state.first_pos, state.last_pos) == (0, None, None)
        assert fold_blocks(basis, [], 0) == []

    def test_does_not_modify_its_blocks(self):
        basis = FourierBasis(orders=3, period=16)
        block = np.arange(12.0).reshape(4, 3)
        fold_blocks(basis, [block], 0)
        np.testing.assert_array_equal(block, np.arange(12.0).reshape(4, 3))

    def test_rejects_bad_input(self):
        basis = FourierBasis(orders=3, period=16)
        with pytest.raises(ValueError):
            fold_blocks(basis, [np.zeros((2, 1))], -1)
        with pytest.raises(ValueError):
            fold_blocks(basis, [np.zeros((2, 1)), np.zeros((3, 1))], 0)
        with pytest.raises(ValueError):
            fold_blocks(basis, [np.zeros(4)], 0)
        with pytest.raises(ValueError):
            fold_blocks(basis, [np.zeros((2, 1))], 0, dims=[[0], [0]])

    @staticmethod
    def fold_transient(length, transform):
        """The peak traced bytes of a stock fold of 4 blocks of 8 columns over ``length``."""
        basis = FourierBasis(orders=512, period=32768)
        blocks = [np.ones((length, 8), dtype=np.float32) for _ in range(4)]
        tracemalloc.start()
        try:
            with forced(transform):
                fold_blocks(basis, blocks, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_transient_memory_does_not_grow_with_run_length(self):
        # the cost rule runs these 32 columns through the chirp-z transform from
        # 1024 positions on, in sub-runs of 4096 positions past that
        short = self.fold_transient(4096, "dispatch")
        long = self.fold_transient(16384, "dispatch")
        # the states are 4 x 64 KiB; the rest is one chunk of columns and its temporaries
        assert long <= short + 16 * 1024
        assert short < 4 * 2**20

    @pytest.mark.parametrize("kind, short_length, long_length", [
        # chunks of 16 centred pairs, whose 1024 rows and the grid they are
        # built from fill a quarter of the budget
        ("tables", 256, 4096),
        # the moments hold more as their degree grows with the run (1.02 MB at
        # 4096 positions against 0.40 MB at 256), up to sub-runs of 4096
        # positions, whose chunks fill the budget
        ("moments", 4096, 16384),
    ])
    def test_transient_memory_of_a_forced_transform_does_not_grow_with_run_length(
            self, kind, short_length, long_length):
        short = self.fold_transient(short_length, kind)
        long = self.fold_transient(long_length, kind)
        assert long <= short + 16 * 1024
        assert short < 4 * 2**20

    @pytest.mark.parametrize("orders, lengths, widths, sub_runs", [
        (512, range(1020, 1601), (4, 4), None),
        # one column of 512 orders over 17001 positions: the length-period FFT
        # over 17001 or 8501 positions would hold 1.1-1.2 MB, so the fold
        # halves on, to three sub-runs of 4251 positions on the chirp-z and a
        # last, shorter one of 4248
        (512, [17001], (1,), [(4251, "chirp")] * 3 + [(4248, "chirp")]),
        # 256 orders over 1409 positions: the one run on the trig tables' centred
        # pairs, where building the run's columns would have held 3.4 MB
        (256, [1409], (1,), [(1409, "tables")]),
    ], ids=["stock middles", "a shorter last sub-run", "one column on centred pairs"])
    def test_peak_stays_within_the_budget_whatever_the_middle(self, orders, lengths, widths,
                                                             sub_runs):
        basis = FourierBasis(orders=orders, period=32768)
        runs, transform = [], FourierBasis._transform

        def spy(self, run, columns=0, cached=True):
            plan = transform(self, run, columns, cached)
            runs.append((len(run), plan.kind))
            return plan

        for length in lengths:
            blocks = [np.ones((length, width), dtype=np.float32) for width in widths]
            del runs[:]
            tracemalloc.start()
            try:
                with mock.patch.object(FourierBasis, "_transform", spy):
                    states = fold_blocks(basis, blocks, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(s.coeffs.nbytes for s in states)
            assert peak <= held + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024, length
            if sub_runs is not None:
                assert runs == sub_runs

    @pytest.mark.parametrize("period", [4096, 32768])
    def test_peak_stays_within_the_budget_at_any_orders(self, period):
        # the tables a sub-run builds, and the paired fold's rows with the grid
        # they are built from, count against the budget at any orders. Every
        # fold here is its run's first, so the tables it caches count too
        for orders in (8, 16, 32, 64, 128, 256, 512, 1024):
            basis = FourierBasis(orders=orders, period=period)
            for length in (100, 705, *range(250, 5001, 250)):
                blocks = [np.ones((length, 4), dtype=np.float32) for _ in range(2)]
                spectral._run_table.cache_clear()
                tracemalloc.start()
                try:
                    states = fold_blocks(basis, blocks, 4)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                held = sum(s.coeffs.nbytes for s in states)
                assert peak <= held + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024, (orders, length)

    def test_fold_chunk_transient_stays_within_the_budget(self):
        basis = FourierBasis(orders=512, period=32768)
        blocks = [np.ones((1020, 102), dtype=np.float32) for _ in range(2)]
        tracemalloc.start()
        try:
            states = fold_blocks(basis, blocks, 4)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current >= sum(s.coeffs.nbytes for s in states)
        # the states are updated in place; a group's weights, the transform's
        # buffers and its output share 1 MB. The bound is the one the fold had
        # when it built run columns 88 positions at a time: 1 MB of columns and
        # tables, numpy's 8192-element buffer for their complex product, and one
        # chunk of one block, selected in float32 and cast to float64
        bound = 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 8192 + 88 * 102 * 12
        assert peak - current <= bound + 16 * 1024

    @pytest.mark.parametrize("part, kind", [
        ((512, 32768, 4, 1020, 2), "moments"),
        ((16, 4096, 4, 956, 4), "tables"),
    ], ids=["stock", "desk"])
    def test_benchmark_geometries_take_their_transform(self, part, kind):
        # the benchmark's prefill middles: K and V of every head, 80% of their dims
        orders, period, start, length, heads = part
        basis = FourierBasis(orders=orders, period=period)
        rng = np.random.default_rng(3)
        head_dim = 128 if orders == 512 else 64
        blocks = [rng.standard_normal((length, head_dim)).astype(np.float32)
                  for _ in range(2 * heads)]
        picks = [np.sort(rng.choice(head_dim, round(0.8 * head_dim), replace=False))
                 for _ in blocks]
        seen, transform = [], FourierBasis._transform

        def spy(self, run, columns=0, cached=True):
            got = transform(self, run, columns, cached)
            seen.append((run, cached, got))
            return got

        with mock.patch.object(FourierBasis, "_transform", spy):
            states = fold_blocks(basis, blocks, start, dims=picks)
        # one run for every column, read as centred pairs with no tables
        assert len(seen) == 1
        run, cached, got = seen[0]
        assert run == range(start, start + length) and cached
        assert got.kind == kind and got.chirp is None and got.tables is None
        # 98 Chebyshev terms for waves of up to pi * 511 * 1020 / 32768 radians,
        # or the cosine and sine rows of 16 orders
        assert got.degree == (98 if kind == "moments" else 32)
        for state, block, pick in zip(states, blocks, picks):
            assert_fold_matches_oracle(state, basis, block[:, pick], start)

    @pytest.mark.parametrize("orders, period, spans, kind", [
        (512, 32768, range(1021, 1035), "chirp"),
        (16, 4096, range(957, 964), "tables"),
    ], ids=["stock", "desk"])
    def test_benchmark_decode_middles_take_their_transform(self, orders, period, spans, kind):
        # the benchmark's decode middles, one position longer at each step, read
        # one column at a time by attention
        basis = FourierBasis(orders=orders, period=period)
        for span in spans:
            got = basis._transform(range(4, 4 + span))
            assert not got.degree
            if kind == "chirp":
                # the least fast n >= span + 511: 1536 = 2**9 * 3, then 1600 = 2**6 * 5**2
                assert got.tables is None
                assert got.chirp.spectrum.size == (1536 if span <= 1025 else 1600)
            else:
                assert isinstance(got.tables, spectral._TrigTables) and got.chirp is None

    @pytest.mark.parametrize("orders, period, span, columns, kind", [
        (512, 32768, 1020, 33, "chirp"), (512, 32768, 1020, 34, "moments"),
        (256, 32768, 4000, 128, "moments"), (512, 32768, 2000, 256, "moments"),
        (64, 4096, 1000, 32, "moments"), (256, 4096, 512, 1, "tables"),
    ])
    def test_products_are_priced_against_the_power_of_two_chirp(self, orders, period, span,
                                                               columns, kind):
        # the cost ratios were timed against chirp-z pairs of power-of-two n; priced
        # against the fast n below it, these folds and this pair left the moments
        # and the tables for the chirp-z, and ran up to 2.1x slower
        assert FourierBasis(orders=orders, period=period)._pick(span, columns)[0] == kind

    def test_few_columns_leave_tables_whose_run_columns_exceed_the_budget(self):
        # 256 orders over 1000 positions: the run's columns, 4 MB, once made a
        # fold of few columns build its tables in 8 sub-runs (2 columns took 15x
        # the chirp-z's time), and the rule still charges a fold those builds,
        # while one column reads the tables whole
        basis = FourierBasis(orders=256, period=32768)
        assert basis._pick(1000, 1)[0] == "tables"
        assert basis._pick(1000, 2)[0] == "chirp"
        assert basis._pick(4000, 8)[0] == "chirp"
        # the desk fold's run columns fit, so its tables are not charged
        assert FourierBasis(orders=16, period=4096)._pick(956, 2)[0] == "tables"
        # forced onto the tables, the fold reads the run as 500 centred pairs,
        # in chunks of up to 32 pairs of 512 rows, all in one sub-run
        block = np.random.default_rng(5).standard_normal((1000, 2)).astype(np.float32)
        with forced("tables"):
            assert basis._pick(1000, 2)[0] == "tables"
            with mock.patch.object(FourierBasis, "_transform", autospec=True,
                                   side_effect=FourierBasis._transform) as plans, \
                    paired_products() as products:
                tracemalloc.start()
                try:
                    (state,) = fold_blocks(basis, [block], 4)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert plans.call_count == 1
        assert len(products) == 2 * 16 and {w.shape for w in products} == {(2, 32), (2, 20)}
        assert peak <= state.coeffs.nbytes + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024
        assert_fold_matches_oracle(state, basis, block, 4)


class TestRunPlans:
    """A run's transform is resolved once; every later call over it reads the plan."""

    # orders 4: the trig tables hold 8 head rows up to 64 positions and 16 from 65,
    # and the chirp-z transform runs n = 64 up to 61 positions and 80 = 2**4 * 5,
    # the next fast length, from 62
    @pytest.mark.parametrize("transform, first, size, boundary", [
        ("tables", 61, lambda plan: plan.tables.head.shape[0], (8, 16)),
        ("chirp-z", 58, lambda plan: plan.chirp.spectrum.size, (64, 80)),
    ], ids=["tables", "chirp-z"])
    def test_a_middle_grown_one_position_at_a_time_reads_reused_plans(self, transform, first,
                                                                      size, boundary):
        basis = FourierBasis(orders=4, period=4096)
        rng = np.random.default_rng(first)
        sizes, tables = [], []
        with forced(transform):
            for span in range(first, first + 8):
                run = range(5, 5 + span)
                plan = basis._plan(run)
                assert basis._plan(run) is plan  # the second call reads the cache
                sizes.append(size(plan))
                tables.append(plan.tables if plan.tables is not None else plan.chirp)
                cols = basis.columns(run)
                a, p = rng.standard_normal(basis.n_rows), rng.standard_normal(span)
                evaluated = basis._evaluate(a, plan)
                projected = basis._project_columns(p, plan)
                # the public calls resolve the same plan and run the same arithmetic
                np.testing.assert_array_equal(basis.evaluate(a, run), evaluated)
                np.testing.assert_array_equal(basis.project(p, run), projected)
                np.testing.assert_allclose(evaluated, cols.T @ a, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(a).sum()))
                np.testing.assert_allclose(projected, cols @ p, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(p).sum()))
            assert spectral._run_plan.cache_info().misses == 8
        # four spans on each side of the boundary, each side one set of tables
        assert sizes == [boundary[0]] * 4 + [boundary[1]] * 4
        assert [t is tables[0] for t in tables] == [True] * 4 + [False] * 4
        assert all(t is tables[4] for t in tables[4:])

    @pytest.mark.parametrize("orders, period, span", [
        (512, 32768, 64), (512, 32768, 256), (128, 32768, 300), (16, 4096, 956)])
    def test_table_evaluate_holds_its_product(self, orders, period, span):
        # the trig tables' evaluate holds rows x R complex values, written into
        # an array of their own: 0.131 MB at 512 orders over 256 positions,
        # where numpy's buffer for a broadcast product held as many again
        basis = FourierBasis(orders=orders, period=period)
        plan = basis._plan(range(4, 4 + span))
        assert plan.tables is not None
        rows = plan.head.shape[0]
        a = np.random.default_rng(span).standard_normal(basis.n_rows)
        basis._evaluate(a, plan)  # numpy's own first-call allocations
        tracemalloc.start()
        try:
            basis._evaluate(a, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        product = rows * orders
        assert peak <= 16 * product + 8 * span + 4096
        if (orders, span) == (512, 256):
            assert product == 8192 and 0.131e6 < peak < 0.14e6


class TestRunTables:
    """A batch fold's run tables: the rows and the moments' waves, built once
    per run into a cache that every later fold of the run reads."""

    @staticmethod
    def stock_blocks(span, columns=64):
        rng = np.random.default_rng(span)
        return [rng.standard_normal((span, columns)).astype(np.float32) for _ in range(2)]

    def test_a_stock_run_builds_its_rows_and_waves_once(self):
        # 512 orders over 1020 positions at period 32768: 98 Chebyshev rows
        # over 510 pairs (0.40 MB, two chunks of 255) and 512 orders' waves
        # at 98 nodes (0.80 MB), both within the budget, read by every later
        # fold of the run; a fold of the same span elsewhere builds only the
        # waves of its start
        basis = FourierBasis(orders=512, period=32768)
        blocks = self.stock_blocks(1020)
        with forced(), \
                mock.patch.object(spectral, "_chebyshev_rows",
                                  wraps=spectral._chebyshev_rows) as rows, \
                mock.patch.object(spectral, "_moment_waves",
                                  wraps=spectral._moment_waves) as waves:
            first = fold_blocks(basis, blocks, 4)
            assert (rows.call_count, waves.call_count) == (2, 8)
            again = fold_blocks(basis, blocks, 4)
            assert (rows.call_count, waves.call_count) == (2, 8)
            moved = fold_blocks(basis, blocks, 4 + 32768)  # the same run mod the period
            assert (rows.call_count, waves.call_count) == (2, 8)
            other = fold_blocks(basis, blocks, 5)
            assert (rows.call_count, waves.call_count) == (2, 16)
            assert spectral._run_table.cache_info().currsize == 3
        for state, block, shifted in zip(first, blocks, other):
            assert_fold_matches_oracle(state, basis, block, 4)
            assert_fold_matches_oracle(shifted, basis, block, 5)
        for state, *copies in zip(first, again, moved):
            for copy in copies:
                assert copy.coeffs.tobytes() == state.coeffs.tobytes()

    def test_a_runs_first_fold_holds_its_tables_beside_the_budget(self):
        # the stock middle with 2 x 128 columns, as a decode_stock_gqa layer
        # folds it: the first fold of the run builds its Chebyshev rows and
        # waves (1.2 MB) ahead of its own buffers and leaves them held, so it
        # peaks that much above the budget over its states; a later fold reads
        # them and peaks within the budget over its states alone
        basis = FourierBasis(orders=512, period=32768)
        blocks = self.stock_blocks(1020, 128)
        assert basis._pick(1020, 256)[:2] == ("moments", 98)
        tables = 8 * sum(spectral._run_table_floats(512, 1020, 98, False)[:2])
        assert tables == 8 * (98 * 510 + 2 * 512 * 98) == 1_202_656
        with forced():
            fold_blocks(basis, blocks, 4)  # numpy's first-call allocations
            spectral._run_table.cache_clear()
            for held_tables in (tables, 0):
                tracemalloc.start()
                try:
                    states = fold_blocks(basis, blocks, 4)
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                held = sum(s.coeffs.nbytes for s in states) + held_tables
                # and the cache's keys and links
                assert held <= current <= held + 4096
                assert peak <= held + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024

    def test_cached_tables_are_read_only(self):
        basis = FourierBasis(orders=512, period=32768)
        with forced():
            fold_blocks(basis, self.stock_blocks(1020), 4)
            fold_blocks(FourierBasis(orders=16, period=4096), self.stock_blocks(956), 4)
            tables = [spectral._run_table(spectral._pair_table, 512, 32768, 1020, 98, False, 255),
                      spectral._run_table(spectral._wave_table, 512, 32768, 4, 1020, 98, 64),
                      spectral._run_table(spectral._pair_table, 16, 4096, 956, 32, True, 478)]
            info = spectral._run_table.cache_info()
        assert (info.hits, info.misses) >= (3, 3) and info.currsize == 3  # read, not rebuilt
        assert [t.shape for t in tables] == [(98, 510), (98 * 512,), (32, 478)]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_tables_past_the_budget_are_built_per_chunk_and_not_cached(self):
        # 512 orders over 4000 positions on the moments: 299 rows over 2000
        # pairs and the waves at 299 nodes each exceed the budget, so every
        # fold builds them per chunk, as a sub-run's are; 2**13 floats keep
        # the desk middle's 32 x 478 centred rows out of the cache too
        basis = FourierBasis(orders=512, period=32768)
        blocks = self.stock_blocks(4000)
        with forced("moments"), \
                mock.patch.object(spectral, "_chebyshev_rows",
                                  wraps=spectral._chebyshev_rows) as rows, \
                mock.patch.object(spectral, "_moment_waves",
                                  wraps=spectral._moment_waves) as waves:
            assert spectral._run_degree(512, 32768, 4000) == 299
            fold_blocks(basis, blocks, 4)
            builds = rows.call_count, waves.call_count
            assert builds[0] > 1 and builds[1] >= 8
            states = fold_blocks(basis, blocks, 4)
            assert (rows.call_count, waves.call_count) == (2 * builds[0], 2 * builds[1])
            assert spectral._run_table.cache_info().currsize == 0
        for state, block in zip(states, blocks):
            assert_fold_matches_oracle(state, basis, block, 4)
        desk = FourierBasis(orders=16, period=4096)
        with forced("tables", _FOLD_CHUNK_FLOATS=2**13), \
                mock.patch.object(spectral, "_centred_rows",
                                  wraps=spectral._centred_rows) as centred:
            fold_blocks(desk, self.stock_blocks(956), 4)
            builds = centred.call_count
            fold_blocks(desk, self.stock_blocks(956), 4)
            assert builds >= 15 and centred.call_count == 2 * builds  # chunks of 32 pairs
            assert spectral._run_table.cache_info().currsize == 0

    def test_cached_bytes_stay_within_the_budget_per_entry(self):
        # folds over runs whose tables fit the budget and a run whose tables do
        # not: what stays allocated after them is the cache's tables, each at
        # most one budget of float64 values, and the cache keeps four
        basis = FourierBasis(orders=512, period=32768)
        with forced("moments"):
            gc.collect()
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                for span, start in ((1020, 4), (4000, 4), (1020, 9), (700, 4), (1020, 4)):
                    fold_blocks(basis, self.stock_blocks(span), start)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - held
            finally:
                tracemalloc.stop()
            entries = spectral._run_table.cache_info().currsize
        assert entries == spectral._run_table.cache_info().maxsize == 4
        assert held <= entries * 8 * spectral._FOLD_CHUNK_FLOATS
        # the last run's rows and waves, and one other's, are still held
        assert held > 2 * 8 * 98 * 510

    def test_the_trig_turn_holds_no_numpy_buffers(self):
        # the turn multiplies the sums by their orders' phases and adds them,
        # transposed, into state windows: as a broadcast product and a
        # transposed add, numpy held buffers the size of the sums (0.09 and
        # 0.02 MB at desk). Through the scratch it holds none, and its sums
        # are the broadcast product's, bitwise. Windows are whole states,
        # split states and slabs of a window where the scratch holds fewer
        # rows, or no row at all
        rng = np.random.default_rng(3)
        orders = 16
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, orders))
        targets = [rng.standard_normal((2 * orders, cols)) for cols in (90, 90, 40, 40)]
        batch = [(targets[0], 0, 90), (targets[1], 0, 45), (targets[1], 45, 90),
                 (targets[2], 0, 40), (targets[3], 10, 40)]
        count = sum(c1 - c0 for _, c0, c1 in batch)
        sums = rng.standard_normal((count, 2 * orders))
        expected = [target.copy() for target in targets]
        turned = sums.copy()
        turned.view(np.complex128)[...] *= phases
        at = 0
        for (target, c0, c1), out in zip(batch, [0, 1, 1, 2, 3]):
            expected[out][:, c0:c1] += turned[at : at + c1 - c0].T
            at += c1 - c0
        for rows_held in (count, 64, 1, 0):
            got = [target.copy() for target in targets]
            copies = dict(zip(map(id, targets), got))
            windows = [(copies[id(target)], c0, c1) for target, c0, c1 in batch]
            scratch = np.empty(2 * orders * rows_held)
            spectral._turn_into(windows, sums.copy(), phases, scratch)  # first-call allocations
            got = [target.copy() for target in targets]
            copies = dict(zip(map(id, targets), got))
            windows = [(copies[id(target)], c0, c1) for target, c0, c1 in batch]
            work = sums.copy()
            tracemalloc.start()
            try:
                spectral._turn_into(windows, work, phases, scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # views and loop state, not an array's worth; or one fresh row
            assert peak < 2048 + (8 * 2 * orders if rows_held == 0 else 0)
            assert work.tobytes() == turned.tobytes()
            for out, target in zip(got, expected):
                assert out.tobytes() == target.tobytes()

    def test_a_desk_fold_peaks_within_its_counted_values(self):
        # the benchmark's desk middle, 4 heads' K and V blocks: what the fold
        # holds beyond its states is its groups' sums and _moment_chunks'
        # fixed values, with the turn's numpy buffers gone
        basis = FourierBasis(orders=16, period=4096)
        rng = np.random.default_rng(16)
        blocks = [rng.standard_normal((956, 64)).astype(np.float32) for _ in range(8)]
        dims = [np.sort(rng.choice(64, 58 if i < 4 else 32, replace=False)) for i in range(8)]
        assert basis._pick(956, 4 * (58 + 32))[0] == "tables"
        fixed = spectral._moment_chunks(16, 956, 32, True)[-1]
        fold_blocks(basis, blocks, 4, dims=dims)  # the run's tables, first-call allocations
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            states = fold_blocks(basis, blocks, 4, dims=dims)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        sums = 8 * 4 * (58 + 32) * 32
        assert peak - sum(s.coeffs.nbytes for s in states) <= 8 * fixed + sums


def test_fold_errors_rejects_an_empty_run():
    with pytest.raises(ValueError, match="at least one position"):
        spectral.fold_errors(FourierBasis(orders=4, period=64), [[np.zeros((0, 3))]])


@pytest.mark.parametrize("layers, message", [
    ([], "one or more layers"),
    ([[np.ones((10, 3))], [np.ones((10, 3))] * 2], "each of as many blocks"),
    ([[]], "blocks of one shape"),
    ([[np.ones((10, 3)), np.ones((9, 3))]], "blocks of one shape"),
    ([[np.ones((10, 3))], [np.ones((10, 2))]], "blocks of one shape"),
    ([[np.ones(10)]], "2-D blocks"),
    ([[np.ones((10, 3, 1))]], "2-D blocks"),
], ids=["no-layer", "uneven-layers", "no-block", "unequal-lengths", "unequal-widths",
        "1-d", "3-d"])
def test_fold_errors_rejects_blocks_it_cannot_read(layers, message):
    # a 9-row block beside a 10-row one was read as 10 rows past its end
    with pytest.raises(ValueError, match=message):
        spectral.fold_errors(FourierBasis(orders=4, period=64), layers)


def test_fold_errors_builds_no_forms_past_the_cache():
    # 300 orders over 4,000 positions at period 32768, 8 columns: the Fourier
    # Gram forms, 2 x 300**2 floats, do not fit the budget, so they are priced
    # past every form and the convolution runs instead of building them
    basis = FourierBasis(orders=300, period=32768)
    rng = np.random.default_rng(21)
    layers = [[rng.standard_normal((4000, 4)).astype(np.float32) for _ in range(2)]]
    assert not spectral._run_table_floats(300, 4000, 600, True)[2]
    with forced(), mock.patch.object(spectral, "_split_forms",
                                     wraps=spectral._split_forms) as forms:
        errors = spectral.fold_errors(basis, layers)
    assert forms.call_count == 0
    for block, got in zip(layers[0], errors[0]):
        state = compress_batch(basis, block, 0)
        expected = np.sum((block - reconstruct(state, basis, np.arange(4000))) ** 2, axis=0)
        scale = np.sum(block.astype(np.float64) ** 2, axis=0)
        assert np.all(np.abs(got - expected) <= 1e-9 * expected + 1e-12 * scale)

"""Spectral core: operator structure, folding, and reconstruction.

Expected values come from independent oracles: a two-loop brute-force fold
and a least-squares projection onto explicitly built cosine/sine columns.
"""

import functools
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
from harness import ONE_COLUMN, TRANSFORMS, forced


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
        period = 2**12
        basis = FourierBasis(orders=16, period=period)
        coeffs = np.ones(basis.n_rows)
        # span + 16 - 1 positions of linear convolution: n = period/4, then period/2;
        # orders 16 would run the trig tables, so the chirp-z transform is forced
        for length, tables in ((period // 4 - 15, 1), (period // 4 - 14, 0)):
            spectral._chirp_plan.cache_clear()
            with forced(_TABLE_COST_RATIO=0):
                basis.evaluate(coeffs, range(3, 3 + length))
            assert spectral._chirp_plan.cache_info().currsize == tables

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
        # them, float32 columns gathered from a block or, for the tables, a
        # span cast into the fold's float64 buffer, and the plan built
        # beforehand (for the tables, the run's columns, which are fixed).
        # The moments fold a block in place into states the fold holds
        basis = FourierBasis(orders=orders, period=period)
        run = range(7, 7 + span)
        weights = np.ones((span, cols), dtype=np.float64 if kind == "tables" else np.float32)
        with forced(transform):
            assert basis._pick(span, cols)[0] == kind
            plan = basis._transform(run, cols)
            fixed, per_column = basis._project_floats(span, cols)
        if kind == "moments":
            outs = [np.zeros((basis.n_rows, cols))]
            fold = functools.partial(spectral._fold_moments, basis, plan, [weights],
                                     [np.arange(cols)], outs, 0, span)
            fold()  # numpy's own first-call allocations
            tracemalloc.start()
            try:
                fold()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * (fixed + cols * per_column) + 1024
            return
        if kind == "tables":
            # the run's columns, built once per sub-run, are the fixed part
            tracemalloc.start()
            try:
                plan = plan.run_columns()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held <= 8 * fixed + 1024  # and the arrays' headers
            fixed = 0
        if kind == "tables":
            project = functools.partial(np.matmul, plan.T, weights)  # as _fold_spans does
        else:
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
        # one column needs n >= span + 511, 2048 here, and never runs the
        # moments, which a head's K and V columns over the same run take
        basis = FourierBasis(orders=512, period=32768)
        run = range(4, 4 + span)
        weights = np.random.default_rng(span).standard_normal(span)
        seen, transform = [], FourierBasis._transform
        assert basis._pick(span, 204)[0] == "moments"

        def spy(self, run, columns=1, cached=True):
            plan = transform(self, run, columns, cached)
            seen.append(plan.chirp)
            return plan

        spectral._run_plan.cache_clear()  # the run's plan is resolved under the spy
        with mock.patch.object(FourierBasis, "_transform", spy):
            got = basis.project(weights, run)
        assert len(seen) == 1 and isinstance(seen[0], spectral._ChirpPlan)
        assert seen[0].spectrum.size == 2048
        np.testing.assert_allclose(got, basis.columns(run) @ weights, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(weights).sum()))

    @pytest.mark.parametrize("span", [956, 963])
    def test_desk_sums_one_column_without_the_runs_columns(self, span):
        basis = FourierBasis(orders=16, period=4096)
        run = range(4, 4 + span)
        weights = np.random.default_rng(span).standard_normal((span, 2))
        with mock.patch.object(spectral._Run, "run_columns", autospec=True,
                               side_effect=spectral._Run.run_columns) as build:
            one = basis.project(weights[:, 0], run)
            assert build.call_count == 0
            # a fold of more columns takes one product against them
            (two,) = fold_blocks(basis, [weights], run.start)
            assert build.call_count == 1
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

    def test_chunks_cover_a_run_longer_than_one_chunk(self):
        basis = FourierBasis(orders=4096, period=8191)  # 8192 rows: the largest states
        block = np.random.default_rng(0).standard_normal((50, 3))
        # 2**9 floats hold less than one column: sub-runs of one position, groups of one column
        with forced(_FOLD_CHUNK_FLOATS=2**9):
            (state,) = fold_blocks(basis, [block], 7)
        assert_fold_matches_oracle(state, basis, block, 7)

    @pytest.mark.parametrize("orders, budget, small, length, sub_runs, span", [
        (64, spectral._FOLD_CHUNK_FLOATS, spectral._SMALL_PRODUCT, 2500, 4, 5),
        (64, spectral._FOLD_CHUNK_FLOATS, 2 * 128 * 625, 2500, 4, 2),
        (8, 2**9, spectral._SMALL_PRODUCT, 90, 15, 3),
    ], ids=["sub-runs at the budget", "capped products", "small groups"])
    def test_sub_runs_and_groups_cover_a_long_run(self, orders, budget, small, length,
                                                  sub_runs, span, table_products):
        # the trig tables project spans of a block's columns, from its first
        # pick to its last. 64 orders over 2500 positions fold in four sub-runs
        # of 625 positions, each block's span whole, the widest 5 columns (picks
        # 1, 3 and 5), or 2 when a product may take only 2 columns of 128 rows
        # over 625 positions; 2**9 floats, which must hold each sub-run's trig
        # tables too, make sub-runs of 6 positions and spans of up to 3 columns.
        # The run wraps past a multiple of the period. Picks come with gaps,
        # without, empty, as a stretch and as every second column. The trig tables
        # are forced: the cost rule runs the length-period FFT over the whole
        # run, whose columns would overflow the budget
        basis = FourierBasis(orders=orders, period=4096)
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((length, width)).astype(np.float32)
                  for width in (3, 0, 5, 5, 6, 6)]
        picks = [np.array([0, 2]), np.array([], dtype=np.int64), np.array([1, 2, 3, 4]),
                 np.array([1, 2, 3]), np.arange(2, 5), np.arange(1, 6, 2)]
        with forced("tables", _FOLD_CHUNK_FLOATS=budget, _SMALL_PRODUCT=small), \
                mock.patch.object(FourierBasis, "_transform", autospec=True,
                                  side_effect=FourierBasis._transform) as plans, \
                table_products() as products:
            states = fold_blocks(basis, blocks, 4090, dims=picks)
        assert len({call.args[1] for call in plans.call_args_list}) == sub_runs
        assert max(w.shape[1] for w in products) == span
        for state, block, pick in zip(states, blocks, picks):
            assert_fold_matches_oracle(state, basis, block[:, pick], 4090)

    @pytest.mark.parametrize("budget, small, sub_runs, products, widest", [
        (spectral._FOLD_CHUNK_FLOATS, spectral._SMALL_PRODUCT, 1, 19, 32),
        (spectral._FOLD_CHUNK_FLOATS, 2**62, 1, 11, 64),
        (3 * 2**12, 2**62, 8, 8 * 40, 15),
    ], ids=["small products", "whole blocks", "sub-runs and budget spans"])
    def test_desk_blocks_fold_in_column_spans_like_compress_batch(
            self, budget, small, sub_runs, products, widest, table_products):
        # the benchmark's desk middle: 16 orders over 956 positions, which the
        # trig tables project one span of columns at a time, from a block's first
        # pick to its last. Products of at most 100**3 multiply-adds take spans of
        # up to 32 columns. Without that cap, a 64-column block is one span and a
        # 128-column one two at the default budget; picks 5 and 120 take two
        # spans of 58, and no product for the columns between. 3 * 2**12 floats
        # make 8 sub-runs of up to 120 positions and spans of at most 15 columns
        # (the trig tables are forced: the cost rule would run the moments over
        # sub-runs that short). Picks come scattered, as stretches, every
        # second column, empty and whole
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
                table_products() as taken:
            states = fold_blocks(basis, blocks, 4, dims=picks)
        assert plans.call_count == sub_runs
        assert len(taken) == products
        assert max(w.shape[1] for w in taken) == widest
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
        # sub-runs whose trig tables fill the budget
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

    @pytest.mark.parametrize("orders, lengths", [
        (512, range(1020, 1601)),
        # sub-runs of 1537 chirp-z positions leave a last one of 1536, which would
        # run trig tables with 3 MB of run columns
        (128, [3073]),
    ], ids=["stock middles", "a shorter last sub-run"])
    def test_peak_stays_within_the_budget_whatever_the_middle(self, orders, lengths):
        basis = FourierBasis(orders=orders, period=32768)
        for length in lengths:
            blocks = [np.ones((length, 4), dtype=np.float32) for _ in range(2)]
            tracemalloc.start()
            try:
                states = fold_blocks(basis, blocks, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(s.coeffs.nbytes for s in states)
            assert peak <= held + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024, length

    @pytest.mark.parametrize("period", [4096, 32768])
    def test_peak_stays_within_the_budget_at_any_orders(self, period):
        # trig tables built per sub-run and the temporaries that build their run
        # columns count against the budget: 1024 orders over 100 positions and
        # 512 over 705 peaked 1.37 and 1.16 MiB above the states without them
        for orders in (8, 16, 32, 64, 128, 256, 512, 1024):
            basis = FourierBasis(orders=orders, period=period)
            for length in (100, 705, *range(250, 5001, 250)):
                blocks = [np.ones((length, 4), dtype=np.float32) for _ in range(2)]
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

        def spy(self, run, columns=1, cached=True):
            got = transform(self, run, columns, cached)
            seen.append((run, cached, got))
            return got

        with mock.patch.object(FourierBasis, "_transform", spy):
            states = fold_blocks(basis, blocks, start, dims=picks)
        # one run for every column, whose trig tables decode's next call reads from the cache
        assert len(seen) == 1
        run, cached, got = seen[0]
        assert run == range(start, start + length) and cached
        if kind == "moments":
            # 98 Chebyshev terms for waves of up to pi * 511 * 1020 / 32768 radians
            assert got.degree == 98 and got.chirp is None and got.tables is None
        else:
            assert isinstance(got.tables, spectral._TrigTables) and not got.degree
        for state, block, pick in zip(states, blocks, picks):
            assert_fold_matches_oracle(state, basis, block[:, pick], start)

    def test_few_columns_leave_tables_whose_run_columns_exceed_the_budget(self):
        # 256 orders over 1000 positions: the run's columns, 4 MB, would make a
        # fold of few columns build its tables in 8 sub-runs (2 columns took 15x
        # the chirp-z's time), while one column reads the tables whole
        basis = FourierBasis(orders=256, period=32768)
        assert basis._pick(1000, 1)[0] == "tables"
        assert basis._pick(1000, 2)[0] == "chirp"
        assert basis._pick(4000, 8)[0] == "chirp"
        with forced("tables"):
            assert basis._pick(1000, 2)[0] == "tables"
        # the desk fold's run columns fit, so its tables are not charged
        assert FourierBasis(orders=16, period=4096)._pick(956, 2)[0] == "tables"


class TestRunPlans:
    """A run's transform is resolved once; every later call over it reads the plan."""

    # orders 4: the trig tables hold 8 head rows up to 64 positions and 16 from 65,
    # and the chirp-z transform runs n = 64 up to 61 positions and 128 from 62
    @pytest.mark.parametrize("transform, first, size", [
        ("tables", 61, lambda plan: plan.tables.head.shape[0]),
        ("chirp-z", 58, lambda plan: plan.chirp.spectrum.size),
    ], ids=["tables", "chirp-z"])
    def test_a_middle_grown_one_position_at_a_time_reads_reused_plans(self, transform, first,
                                                                      size):
        basis = FourierBasis(orders=4, period=4096)
        rng = np.random.default_rng(first)
        sizes = []
        with forced(transform):
            for span in range(first, first + 8):
                run = range(5, 5 + span)
                plan = basis._plan(run)
                assert basis._plan(run) is plan  # the second call reads the cache
                sizes.append(size(plan))
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
        assert sizes == [sizes[0]] * 4 + [2 * sizes[0]] * 4

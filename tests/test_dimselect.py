"""Dimension ranking, schema application, and selection diagnostics."""

import contextlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_kv import dimselect, spectral
from fourier_kv.cache import PartitionParams
from fourier_kv.dimselect import (
    CompressionSchema,
    MseRanking,
    SelectionReport,
    apply_schema,
    build_selection_report,
    rank_dimensions,
    read_selection_manifest,
    schema_variants,
    selection_histogram,
    temporal_std,
    write_selection_manifest,
)
from fourier_kv.spectral import (
    FourierBasis,
    build_basis,
    compress_batch,
    reconstruct,
    reconstruction_mse,
)
from fourier_kv.traceio import KVTrace, TinyModelConfig, gen_synthetic, tiny_forward
from harness import forced


def calibration_trace(rng, *, layers=1, kv_heads=1, head_dim=4, init=4, local=8, period=32,
                      builder=None):
    """Trace whose middle region spans exactly one period."""
    seq_len = init + period + local
    shape = (layers, kv_heads, seq_len, head_dim)
    data = rng.standard_normal(shape).astype(np.float32)
    if builder is not None:
        data = builder(np.arange(seq_len)).astype(np.float32)
    return KVTrace(keys=data, values=data.copy())


def ties(layers, kv_heads, head_dim):
    """An all-zero ranking: every head compresses its dimensions in index order."""
    zeros = np.zeros((layers, kv_heads, head_dim))
    return MseRanking(k_mse=zeros, v_mse=zeros)


@st.composite
def calibration_cases(draw):
    """A partition, basis and trace whose middle is one position, or shorter than,
    as long as or longer than the period; orders reach the largest the period
    accepts, ``(period + 1) // 2``."""
    period = draw(st.integers(2, 40))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    middle = draw(st.sampled_from(["one", "shorter", "period", "longer"]))
    length = {
        "one": 1,
        "shorter": draw(st.integers(1, period - 1)),
        "period": period,
        "longer": draw(st.integers(period + 1, 2 * period + 5)),
    }[middle]
    part = PartitionParams(init_len=draw(st.integers(0, 3)), local_len=draw(st.integers(1, 3)),
                           period=period, orders=orders)
    layers, kv_heads = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    head_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (layers, kv_heads, part.init_len + length + part.local_len, head_dim)
    keys = rng.standard_normal(shape)
    # K and V differ per layer and head, so a mixed-up block shows
    values = rng.standard_normal(shape) * np.arange(1, head_dim + 1) + 0.5
    if draw(st.booleans()):
        # a constant column: reconstructed exactly over whole periods, where the
        # Gram form cancels down to rounding
        keys[..., 0] = 1.5 + np.arange(layers)[:, None, None]
    trace = KVTrace(keys=keys.astype(np.float32), values=values.astype(np.float32))
    return part, build_basis(orders, period), trace


def rank_oracle(trace, part, basis):
    """Per-head ``compress_batch`` + ``reconstruct`` MSEs, and each block's mean square."""
    first, last = part.init_len, trace.seq_len - part.local_len
    positions = np.arange(first, last)
    mse, scale = [], []
    for data in (trace.keys, trace.values):
        for layer in range(trace.layers):
            for head in range(trace.kv_heads):
                block = data[layer, head, first:last]
                state = compress_batch(basis, block, first)
                mse.append(reconstruction_mse(block, reconstruct(state, basis, positions)))
                scale.append(np.mean(block.astype(np.float64) ** 2, axis=0))
    shape = (2, trace.layers, trace.kv_heads, trace.head_dim)
    return np.reshape(mse, shape), np.reshape(scale, shape)


def rank_branch(trace, part, basis) -> str:
    """Which form ``rank_dimensions`` computes the MSEs with: "gram" (the
    Fourier Gram form), "moments" (the moment Gram form) or "convolution"."""
    forms = ("gram", "moments", "convolution")
    with mock.patch.object(dimselect, "_fourier_split",
                           wraps=dimselect._fourier_split) as gram, \
            mock.patch.object(dimselect, "_moment_split",
                              wraps=dimselect._moment_split) as moments, \
            mock.patch.object(dimselect, "_convolution_sse",
                              wraps=dimselect._convolution_sse) as convolution:
        rank_dimensions(trace, part, basis)
    calls = [gram.call_count, moments.call_count, convolution.call_count]
    assert sorted(calls) == [0, 0, 1]
    return forms[calls.index(1)]


@contextlib.contextmanager
def recorded_row_chunks():
    """Yields a list of the ``(rows, pairs)`` shape of every chunk of basis rows
    the Gram forms build while the manager is open."""
    chunks = []
    split_sse = dimselect._split_sse

    def recording(rows, *args, **kwargs):
        def recorded(u, out):
            chunks.append(out.shape)
            rows(u, out)
        return split_sse(recorded, *args, **kwargs)

    with mock.patch.object(dimselect, "_split_sse", recording):
        yield chunks


# the cost rule's ratios under which ``rank_dimensions`` runs each form: a
# table ratio of 0 forces the convolution, 2**62 a Gram form; a moment ratio
# of 0 then forces the moments, 2**62 the Fourier Gram form
FORMS = {"convolution": {"_TABLE_COST_RATIO": 0},
         "dispatch": {},
         "gram": {"_TABLE_COST_RATIO": 2**62, "_MOMENT_COST_RATIO": 2**62},
         "moments": {"_TABLE_COST_RATIO": 2**62, "_MOMENT_COST_RATIO": 0}}


class TestRankDimensions:
    @pytest.mark.parametrize("form", list(FORMS))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=calibration_cases())
    def test_both_forms_match_the_compress_batch_oracle(self, form, case):
        part, basis, trace = case
        with forced(**FORMS[form]):
            ranking = rank_dimensions(trace, part, basis)
        expected, scale = rank_oracle(trace, part, basis)
        got = np.stack([ranking.k_mse, ranking.v_mse])
        assert np.all(np.abs(got - expected) <= 1e-9 * expected + 1e-12 * scale)

    # middles of one position (the centre alone), two (one pair) and three (a
    # pair and the centre), odd and even middles with every sine row zero
    # (one order) or not, each whole and at a budget that splits the pairs into
    # chunks: 40 floats, or for the moments the least budget that holds their
    # d x d matrices, with a head wide enough to split them
    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    @pytest.mark.parametrize("length, orders", [(1, 3), (2, 3), (3, 3), (10, 1), (11, 1),
                                                (40, 5), (41, 5)])
    @pytest.mark.parametrize("form", ["gram", "moments"])
    def test_pairs_match_the_compress_batch_oracle(self, form, length, orders, chunked):
        part = PartitionParams(init_len=3, local_len=2, period=64, orders=orders)
        basis = build_basis(orders, 64)
        degree = spectral._run_degree(orders, 64, length)
        budget, head_dim = spectral._FOLD_CHUNK_FLOATS, 3
        if chunked:
            budget, head_dim = (40, 3) if form == "gram" else (4 * degree**2, 80)
        rng = np.random.default_rng(length * 10 + orders)
        shape = (2, 2, 3 + length + 2, head_dim)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=(rng.standard_normal(shape) + 0.5).astype(np.float32))
        with forced(**FORMS[form], _FOLD_CHUNK_FLOATS=budget):
            assert rank_branch(trace, part, basis) == form
            with recorded_row_chunks() as chunks:
                ranking = rank_dimensions(trace, part, basis)
        # one chunk of every pair is built once for both layers
        pairs, widths = (length + 1) // 2, [width for _, width in chunks]
        assert sum(widths) == (pairs if len(chunks) == 1 else 2 * pairs)
        assert not chunked or pairs == 1 or max(widths) < pairs
        expected, scale = rank_oracle(trace, part, basis)
        got = np.stack([ranking.k_mse, ranking.v_mse])
        assert np.all(np.abs(got - expected) <= 1e-9 * expected + 1e-12 * scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=calibration_cases(), prefix=st.integers(0, 200), form=st.sampled_from(list(FORMS)))
    def test_errors_do_not_depend_on_where_the_middle_starts(self, case, prefix, form):
        # the same middle and local rows behind another initial region
        part, basis, trace = case
        moved = PartitionParams(init_len=prefix, local_len=part.local_len,
                                period=part.period, orders=part.orders)
        rng = np.random.default_rng(prefix)
        shape = (trace.layers, trace.kv_heads, prefix, trace.head_dim)
        keys, values = ([rng.standard_normal(shape).astype(np.float32), data[:, :, part.init_len:]]
                        for data in (trace.keys, trace.values))
        with forced(**FORMS[form]):
            ranking = rank_dimensions(trace, part, basis)
            other = rank_dimensions(KVTrace(keys=np.concatenate(keys, axis=2),
                                            values=np.concatenate(values, axis=2)), moved, basis)
        np.testing.assert_allclose(other.k_mse, ranking.k_mse, rtol=1e-9, atol=0)
        np.testing.assert_allclose(other.v_mse, ranking.v_mse, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("part, shape, branch", [
        (PartitionParams(init_len=4, local_len=1024, period=32768, orders=512),
         (1, 1, 2048, 128), "moments"),
        (PartitionParams(init_len=4, local_len=64, period=4096, orders=16),
         (1, 1, 1024, 2), "gram"),
        (PartitionParams(init_len=4, local_len=64, period=4096, orders=512),
         (1, 1, 324, 128), "convolution"),
    ], ids=["stock", "desk", "short-middle-many-orders"])
    def test_benchmark_geometries_take_their_form(self, part, shape, branch):
        # the benchmark's calibration middles, 1020 positions at stock and 956
        # at desk, and 512 orders over 256 positions, whose 168 moments' d x d
        # build costs more than the convolution; the stock and short traces
        # have 256 columns, as decode_stock_gqa's, over which the build is spread
        rng = np.random.default_rng(8)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        assert rank_branch(trace, part, build_basis(part.orders, part.period)) == branch

    def test_constant_dimension_ranks_first(self):
        rng = np.random.default_rng(0)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)

        def builder(t):
            out = rng.standard_normal((1, 1, t.size, 4))
            out[0, 0, :, 2] = 1.25  # constant channel
            return out

        trace = calibration_trace(rng, builder=builder)
        ranking = rank_dimensions(trace, part, build_basis(4, 32))
        assert ranking.k_mse[0, 0, 2] < 1e-8
        assert np.argmin(ranking.k_mse[0, 0]) == 2

    def test_tone_ranks_above_noise(self):
        rng = np.random.default_rng(1)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)

        def builder(t):
            out = np.empty((1, 1, t.size, 4))
            out[0, 0, :, 0] = rng.standard_normal(t.size)          # white noise
            out[0, 0, :, 1] = np.cos(2 * np.pi * 2 * t / 32)       # in-band tone
            out[0, 0, :, 2] = rng.standard_normal(t.size)
            out[0, 0, :, 3] = rng.standard_normal(t.size)
            return out

        trace = calibration_trace(rng, builder=builder)
        ranking = rank_dimensions(trace, part, build_basis(4, 32))
        mse = ranking.k_mse[0, 0]
        assert mse[1] < 1e-8
        assert mse[1] < mse[0] and mse[1] < mse[2] and mse[1] < mse[3]

    def test_matches_per_head_compress_batch_oracle(self):
        # K and V differ per layer and head, so a mixed-up block shows
        rng = np.random.default_rng(2)
        part = PartitionParams(init_len=3, local_len=5, period=64, orders=7)
        basis = build_basis(7, 64)
        keys = rng.standard_normal((2, 3, 48, 5)).astype(np.float32)
        values = (rng.standard_normal((2, 3, 48, 5)) * np.arange(1, 6)).astype(np.float32)
        ranking = rank_dimensions(KVTrace(keys=keys, values=values), part, basis)
        positions = np.arange(3, 43)
        for layer in range(2):
            for head in range(3):
                for got, data in ((ranking.k_mse, keys), (ranking.v_mse, values)):
                    block = data[layer, head, 3:43]
                    state = compress_batch(basis, block, 3)
                    expected = reconstruction_mse(block, reconstruct(state, basis, positions))
                    np.testing.assert_allclose(got[layer, head], expected, rtol=1e-9)

    def test_matches_oracle_across_fold_chunks(self):
        # a budget of 150 floats holds six pairs: their 8 rows and the rows'
        # build, 16 floats a pair, and a block's halves, 9: the 100-position
        # middle goes in 9 chunks of its 50 pairs, 8 of six and one of two
        rng = np.random.default_rng(5)
        part = PartitionParams(init_len=2, local_len=3, period=64, orders=4)
        basis = build_basis(4, 64)
        keys = rng.standard_normal((1, 2, 105, 3)).astype(np.float32)
        values = (rng.standard_normal((1, 2, 105, 3)) * np.arange(1, 4)).astype(np.float32)
        trace = KVTrace(keys=keys, values=values)
        assert rank_branch(trace, part, basis) == "gram"
        with forced(_FOLD_CHUNK_FLOATS=150), recorded_row_chunks() as chunks:
            ranking = rank_dimensions(trace, part, basis)
        assert chunks == [(8, 6)] * 8 + [(8, 2)]
        positions = np.arange(2, 102)
        for head in range(2):
            for got, data in ((ranking.k_mse, keys), (ranking.v_mse, values)):
                block = data[0, head, 2:102]
                state = compress_batch(basis, block, 2)
                expected = reconstruction_mse(block, reconstruct(state, basis, positions))
                np.testing.assert_allclose(got[0, head], expected, rtol=1e-9)

    def test_readback_peak_is_below_one_column_block(self):
        # one (2k, M) column block is 1024 x 4096 float64 values, 32 MiB
        part = PartitionParams(init_len=4, local_len=8, period=32768, orders=512)
        basis = build_basis(512, 32768)
        rng = np.random.default_rng(6)
        shape = (1, 1, 4 + 4096 + 8, 4)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        tracemalloc.start()
        try:
            rank_dimensions(trace, part, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.n_rows * 4096 * 8
        assert peak < 2 * 2**20  # one group of FFT columns, plus small states

    def test_gram_peak_is_below_one_column_block(self):
        # the twin of the test above for the Fourier Gram form: one (2k, M)
        # block is 4 MiB. At period 32768 these orders would take the moments
        part = PartitionParams(init_len=4, local_len=8, period=4096, orders=64)
        basis = build_basis(64, 4096)
        rng = np.random.default_rng(9)
        shape = (1, 1, 4 + 4096 + 8, 4)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        assert rank_branch(trace, part, basis) == "gram"
        tracemalloc.start()
        try:
            rank_dimensions(trace, part, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.n_rows * 4096 * 8
        assert peak < 2 * 2**20  # one fold group and its transform's buffers, the Gram matrix

    def test_moment_peak_is_below_one_column_block(self):
        # the twin for the moment Gram form: one (2k, M) block is 16 MiB, and
        # the 165 x 2000 Chebyshev rows (2.5 MiB) are built in chunks; 128
        # columns share the d x d build enough for the rule to pick the moments
        part = PartitionParams(init_len=4, local_len=8, period=32768, orders=512)
        basis = build_basis(512, 32768)
        rng = np.random.default_rng(10)
        shape = (1, 1, 4 + 2000 + 8, 64)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        assert rank_branch(trace, part, basis) == "moments"
        tracemalloc.start()
        try:
            ranking = rank_dimensions(trace, part, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis.n_rows * 2000 * 8
        assert peak < 2 * 2**20  # one chunk of rows and its cast, the d x d matrices
        # the chunks sum to the convolution's errors
        with forced(**FORMS["convolution"]):
            expected = rank_dimensions(trace, part, basis)
        np.testing.assert_allclose(ranking.k_mse, expected.k_mse, rtol=1e-9)
        np.testing.assert_allclose(ranking.v_mse, expected.v_mse, rtol=1e-9)

    def test_stock_selection_equals_the_oracle_selection(self):
        # a tiny model's trace at the stock partition: the ranking takes the
        # moments, and the schema keeps the same dimensions as from the
        # compress_batch + reconstruct MSEs
        part = PartitionParams(init_len=4, local_len=1024, period=32768, orders=512)
        basis = build_basis(512, 32768)
        config = TinyModelConfig(layers=1, heads=2, kv_heads=2, head_dim=16, seed=0)
        tokens = np.random.default_rng(11).integers(0, config.vocab, 2048)
        trace = tiny_forward(config, tokens)
        assert rank_branch(trace, part, basis) == "moments"
        schema = CompressionSchema.inverted_pyramid(1)
        got = apply_schema(rank_dimensions(trace, part, basis), schema, partition=part)
        expected, _ = rank_oracle(trace, part, basis)
        oracle = apply_schema(MseRanking(k_mse=expected[0], v_mse=expected[1]), schema,
                              partition=part)
        np.testing.assert_array_equal(got.compressed, oracle.compressed)

    @pytest.mark.parametrize("basis", [FourierBasis(8, 64), FourierBasis(4, 128)],
                             ids=["orders", "period"])
    def test_a_basis_of_another_geometry_is_rejected(self, basis):
        part = PartitionParams(init_len=4, local_len=8, period=64, orders=4)
        trace = calibration_trace(np.random.default_rng(9), period=64)
        with pytest.raises(ValueError, match="basis geometry does not match the layout partition"):
            rank_dimensions(trace, part, basis)

    def test_too_short_trace_rejected(self):
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        trace = gen_synthetic("constant", layers=1, kv_heads=1, head_dim=4, seq_len=12)
        with pytest.raises(ValueError):
            rank_dimensions(trace, part, build_basis(4, 32))


class TestGram:
    """The centred cosine and sine Gram halves of a run, from its real Dirichlet
    sums, against explicit columns rotated to the run's centre."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(period=st.integers(1, 40), data=st.data())
    def test_equals_columns_gram(self, period, data):
        # orders up to the largest the period accepts, whose sums reach order
        # period - 1; runs shorter or longer than the period, wrapping past a
        # multiple of it, and runs whole periods long, where most sums vanish
        largest = (period + 1) // 2
        orders = data.draw(st.one_of(st.integers(1, largest), st.just(largest)))
        first = data.draw(st.one_of(st.integers(0, 3 * period), st.integers(0, 2**40)))
        length = data.draw(st.one_of(st.integers(1, 2 * period + 5),
                                     st.sampled_from([period, 2 * period])))
        basis = build_basis(orders, period)
        cols = basis.columns(range(first, first + length))
        # order n at the centre c = first + (length - 1)/2 turns by theta_n * c
        turn = spectral._unit_phase(np.arange(orders) * (2 * first + length - 1), period)
        cos, sin = cols[0::2], cols[1::2]
        centred = np.empty_like(cols)
        centred[0::2] = cos * turn.real[:, None] + sin * turn.imag[:, None]
        centred[1::2] = sin * turn.real[:, None] - cos * turn.imag[:, None]
        g_even, g_odd = dimselect._fourier_grams(basis, length)
        assert g_even.shape == g_odd.shape == (orders, orders)
        gram = centred @ centred.T
        # every entry is a sum of ``length`` products of unit-bounded values
        assert np.all(np.abs(g_even - gram[0::2, 0::2]) <= 1e-12 * length)
        assert np.all(np.abs(g_odd - gram[1::2, 1::2]) <= 1e-12 * length)
        assert np.all(np.abs(gram[0::2, 1::2]) <= 1e-12 * length)
        # the split form's rows are the centred columns of the run's top half
        half = (length + 1) // 2
        rows = np.empty((2 * orders, half))
        dimselect._fourier_split(basis, length)[0](
            2 * np.arange(length - half, length) - (length - 1), rows)
        assert np.all(np.abs(rows - centred[:, length - half:]) <= 1e-12)


class TestMomentGrams:
    """The moment Gram form's ``A = G W G.T`` and ``H = P P.T``, from the
    Dirichlet kernel and the Chebyshev sums, against explicit products."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(period=st.integers(1, 400), data=st.data())
    def test_equal_their_explicit_products(self, period, data):
        # runs shorter or longer than the period, at the moments fold's
        # degree or past it; G from the waves at the Chebyshev nodes and
        # their DCT, as the fold reads them, and P from the Chebyshev rows
        largest = (period + 1) // 2
        orders = data.draw(st.one_of(st.integers(1, largest), st.just(largest)))
        length = data.draw(st.integers(1, 2 * period + 5))
        first = data.draw(st.integers(0, 3 * period))
        degree = spectral._run_degree(orders, period, length)
        degree += data.draw(st.integers(0, 3))
        basis = build_basis(orders, period)
        a, h = dimselect._moment_grams(basis, length, degree)
        assert a.shape == h.shape == (degree, degree)

        waves = spectral._moment_waves(period, first % period, length, degree, 0, orders)
        dct3 = scipy.fft.dct(np.eye(degree), type=3, axis=0) / degree
        g = dct3.T @ waves.view(np.float64)
        rows = np.empty((degree, length))
        spectral._chebyshev_rows((2 * np.arange(length) - (length - 1)) / length, rows)
        # the coefficients reproduce the run's columns: C = G.T P
        cols = basis.columns(range(first, first + length))
        assert np.all(np.abs(g.T @ rows - cols) <= 1e-12)
        explicit = (g * basis.synthesis_weights()) @ g.T
        # |G| is at most 2 entrywise and the weights sum to 4R / period
        assert np.all(np.abs(a - explicit) <= 1e-12 * 16 * orders / period)
        assert np.all(np.abs(h - rows @ rows.T) <= 1e-12 * length)
        # the form's entries between an even and an odd moment vanish, to
        # rounding in its two terms (the form itself vanishes over two periods)
        aha = a @ h @ a
        scale = max(np.abs(aha).max(), 2 * np.abs(a).max())
        assert np.all(np.abs((aha - 2.0 * a)[0::2, 1::2]) <= 1e-13 * scale)


class TestApplySchema:
    def test_ratio_zero_keeps_everything(self):
        part = PartitionParams(init_len=4, local_len=8, period=64, orders=4)
        schema = CompressionSchema(ratios=((0.0, 0.0),))
        layout = apply_schema(ties(1, 2, 8), schema, partition=part)
        hd = layout.dims[0][0]
        assert hd.k_compressed.size == 0
        assert hd.v_compressed.size == 0
        assert hd.k_kept.size == 8

    def test_half_ratio_on_128(self):
        part = PartitionParams(init_len=4, local_len=8, period=64, orders=4)
        schema = CompressionSchema(ratios=((0.5, 0.5),))
        layout = apply_schema(ties(1, 1, 128), schema, partition=part)
        assert layout.dims[0][0].k_compressed.size == 64

    def test_counts_follow_round_half_even(self):
        part = PartitionParams(init_len=0, local_len=1, period=8, orders=1)
        # 0.25 * 10 = 2.5 -> 2 under round-half-even; 0.35 * 10 = 3.5 -> 4
        schema = CompressionSchema(ratios=((0.25, 0.35),))
        layout = apply_schema(ties(1, 1, 10), schema, partition=part)
        assert layout.dims[0][0].k_compressed.size == 2
        assert layout.dims[0][0].v_compressed.size == 4

    def test_inverted_pyramid_preset_bands(self):
        schema = CompressionSchema.inverted_pyramid(32)
        assert schema.ratios[0] == (0.90, 0.95)
        assert schema.ratios[3] == (0.90, 0.95)
        assert schema.ratios[4] == (0.80, 0.80)
        assert schema.ratios[23] == (0.80, 0.80)
        assert schema.ratios[24] == (0.50, 0.70)
        assert schema.ratios[31] == (0.50, 0.70)
        assert abs(schema.aggregate_fraction() - 0.765625) < 1e-12

    def test_lowest_mse_dimensions_chosen(self):
        rng = np.random.default_rng(2)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)

        def builder(t):
            out = np.empty((1, 1, t.size, 4))
            for d in range(4):
                # reconstruction error rises with the dimension index
                out[0, 0, :, d] = d * rng.standard_normal(t.size)
            return out

        trace = calibration_trace(rng, builder=builder)
        ranking = rank_dimensions(trace, part, build_basis(4, 32))
        layout = apply_schema(ranking, CompressionSchema(ratios=((0.5, 0.5),)), partition=part)
        np.testing.assert_array_equal(layout.dims[0][0].k_compressed, [0, 1])

    def test_equal_mse_ties_break_by_index(self):
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        trace = gen_synthetic("constant", layers=1, kv_heads=1, head_dim=6, seq_len=44)
        ranking = rank_dimensions(trace, part, build_basis(4, 32))
        layout = apply_schema(ranking, CompressionSchema(ratios=((0.5, 0.5),)), partition=part)
        np.testing.assert_array_equal(layout.dims[0][0].k_compressed, [0, 1, 2])

    def test_monotone_in_ratio(self):
        rng = np.random.default_rng(3)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        trace = calibration_trace(rng, head_dim=8)
        ranking = rank_dimensions(trace, part, build_basis(4, 32))
        previous = set()
        for ratio in (0.25, 0.5, 0.75, 1.0):
            layout = apply_schema(
                ranking, CompressionSchema(ratios=((ratio, ratio),)), partition=part
            )
            chosen = set(layout.dims[0][0].k_compressed.tolist())
            assert previous <= chosen
            previous = chosen

    def test_schema_and_ranking_layers_must_agree(self):
        part = PartitionParams(init_len=0, local_len=1, period=8, orders=1)
        with pytest.raises(ValueError, match="schema covers 1 layers, geometry has 2"):
            apply_schema(ties(2, 1, 4), CompressionSchema(ratios=((0.5, 0.5),)), partition=part)

    def test_ratio_bounds_validated(self):
        with pytest.raises(ValueError):
            CompressionSchema(ratios=((1.2, 0.5),))


class TestSchemaVariants:
    def test_kv_inverted_swaps(self):
        base = CompressionSchema.inverted_pyramid(32)
        variants = schema_variants(base)
        assert variants["kv_inverted"].ratios[0] == (0.95, 0.90)
        assert variants["kv_inverted"].ratios[31] == (0.70, 0.50)

    def test_layer_inverted_reverses(self):
        base = CompressionSchema.inverted_pyramid(32)
        variants = schema_variants(base)
        assert variants["layer_inverted"].ratios[0] == (0.50, 0.70)
        assert variants["layer_inverted"].ratios[31] == (0.90, 0.95)

    def test_uniform_matches_aggregate(self):
        base = CompressionSchema.inverted_pyramid(32)
        uniform = schema_variants(base)["uniform"]
        for k_ratio, v_ratio in uniform.ratios:
            assert abs(k_ratio - 0.765625) < 1e-12
            assert k_ratio == v_ratio

    def test_variants_preserve_aggregate_within_half_point(self):
        base = CompressionSchema.inverted_pyramid(32)
        target = base.aggregate_fraction()
        for variant in schema_variants(base).values():
            assert abs(variant.aggregate_fraction() - target) < 0.005


class TestTemporalStd:
    def test_constant_trace_all_zero(self):
        trace = gen_synthetic("constant", layers=2, kv_heads=2, head_dim=4, seq_len=16)
        np.testing.assert_array_equal(temporal_std(trace), np.zeros((2, 2, 4)))

    def test_alternating_signs_give_unit_std(self):
        data = np.ones((1, 1, 8, 2), dtype=np.float32)
        data[0, 0, 1::2] = -1.0
        trace = KVTrace(keys=data, values=data.copy())
        np.testing.assert_allclose(temporal_std(trace), np.ones((1, 2, 2)))

    def test_equals_the_two_copy_formula_bitwise(self):
        rng = np.random.default_rng(7)
        shape = (3, 2, 97, 5)
        keys = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        values = rng.standard_normal(shape).astype(np.float32)
        expected = np.empty((3, 2, 5))
        for idx, data in enumerate((keys, values)):
            stds = data.astype(np.float64).std(axis=2)
            expected[:, idx, :] = np.sort(stds, axis=2)[:, :, ::-1].mean(axis=1)
        np.testing.assert_array_equal(temporal_std(KVTrace(keys=keys, values=values)), expected)

    def test_calibration_does_not_run_it(self):
        # only `cli analyze` reads the curves, and it computes them itself
        trace = calibration_trace(np.random.default_rng(8), head_dim=8)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        with mock.patch.object(dimselect, "temporal_std", side_effect=AssertionError):
            report = build_selection_report(
                trace, CompressionSchema(ratios=((0.5, 0.5),)), part, build_basis(4, 32)
            )
        assert report.layout.dims[0][0].k_compressed.size == 4

    def test_scaling_k_doubles_k_std(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((1, 2, 64, 4)).astype(np.float32)
        trace = KVTrace(keys=2.0 * base, values=base)
        curves = temporal_std(trace)
        np.testing.assert_allclose(curves[:, 0], 2.0 * curves[:, 1], rtol=1e-6)


class TestSelectionHistogram:
    def make_report(self, ratio, head_dim=128):
        part = PartitionParams(init_len=0, local_len=1, period=16, orders=2)
        schema = CompressionSchema(ratios=((ratio, ratio),))
        layout = apply_schema(ties(1, 2, head_dim), schema, partition=part)
        return SelectionReport(layout=layout, schema=schema)

    def test_all_compressed_fills_groups(self):
        hist = selection_histogram(self.make_report(1.0))
        assert hist.shape == (1, 2, 8)
        np.testing.assert_array_equal(hist, np.full((1, 2, 8), 16.0))

    def test_none_compressed_is_zero(self):
        hist = selection_histogram(self.make_report(0.0))
        np.testing.assert_array_equal(hist, np.zeros((1, 2, 8)))

    def test_rising_mse_fills_low_groups(self):
        rng = np.random.default_rng(5)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)

        def builder(t):
            # one shared noise draw scaled per dimension keeps the realized
            # MSE strictly rising with the index
            noise = rng.standard_normal(t.size)
            out = np.empty((1, 1, t.size, 128))
            for d in range(128):
                out[0, 0, :, d] = (d + 1) * noise
            return out

        trace = calibration_trace(rng, head_dim=128, builder=builder)
        report = build_selection_report(
            trace, CompressionSchema(ratios=((0.5, 0.5),)),
            PartitionParams(init_len=4, local_len=8, period=32, orders=4),
            build_basis(4, 32),
        )
        hist = selection_histogram(report)
        np.testing.assert_array_equal(hist[0, 0, :4], np.full(4, 16.0))
        np.testing.assert_array_equal(hist[0, 0, 4:], np.zeros(4))


def loop_apply_schema(ranking, schema):
    """The per-head loop ``apply_schema`` ran before the layout was one mask:
    compressed K and V index sets per (layer, head)."""

    def select_lowest(mse_row, count):
        order = np.lexsort((np.arange(mse_row.size), mse_row))
        return np.sort(order[:count])

    dims = []
    for layer in range(ranking.layers):
        k_ratio, v_ratio = schema.ratios[layer]
        k_count = round(k_ratio * ranking.head_dim)
        v_count = round(v_ratio * ranking.head_dim)
        dims.append([(select_lowest(ranking.k_mse[layer, head], k_count),
                      select_lowest(ranking.v_mse[layer, head], v_count))
                     for head in range(ranking.kv_heads)])
    return dims


# tie-heavy MSEs: few distinct values, signed zeros and infinities among them
mse_values = st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, np.inf, 1e-300])
ratios = st.one_of(st.sampled_from([0.0, 0.25, 0.35, 0.5, 1 / 3, 0.75, 0.9, 0.95, 1.0]),
                   st.floats(0.0, 1.0))


@st.composite
def rankings_and_schemas(draw):
    layers, kv_heads, head_dim = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                                  draw(st.integers(0, 20)))
    shape = (layers, kv_heads, head_dim)
    mse = [np.array(draw(st.lists(mse_values, min_size=layers * kv_heads * head_dim,
                                  max_size=layers * kv_heads * head_dim))).reshape(shape)
           if draw(st.booleans()) else
           np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, shape) * 0.5
           for _ in range(2)]
    schema = CompressionSchema(ratios=tuple((draw(ratios), draw(ratios)) for _ in range(layers)))
    return MseRanking(k_mse=mse[0], v_mse=mse[1]), schema


class TestMaskDerivations:
    """``apply_schema``'s one stable ``argsort`` against the per-head loop it replaces."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rankings_and_schemas())
    def test_apply_schema_equals_the_per_head_loop(self, case):
        ranking, schema = case
        part = PartitionParams(init_len=0, local_len=1, period=8, orders=1)
        layout = apply_schema(ranking, schema, partition=part)
        assert layout.compressed.shape == (ranking.layers, 2, ranking.kv_heads, ranking.head_dim)
        for layer, row in enumerate(loop_apply_schema(ranking, schema)):
            for head, (k_sel, v_sel) in enumerate(row):
                hd = layout.dims[layer][head]
                np.testing.assert_array_equal(hd.k_compressed, k_sel)
                np.testing.assert_array_equal(hd.v_compressed, v_sel)


class TestManifest:
    def test_round_trip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(6)
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        trace = calibration_trace(rng, layers=2, kv_heads=2, head_dim=8)
        schema = CompressionSchema.inverted_pyramid(2)
        basis = build_basis(4, 32)
        report = build_selection_report(trace, schema, part, basis)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_selection_manifest(report, path_a)
        write_selection_manifest(
            build_selection_report(trace, schema, part, basis), path_b
        )
        assert path_a.read_bytes() == path_b.read_bytes()

        layout, schema_back = read_selection_manifest(path_a, (2, 2, 8))
        assert schema_back.ratios == schema.ratios
        assert layout.partition == part
        for layer in range(2):
            for head in range(2):
                np.testing.assert_array_equal(
                    layout.dims[layer][head].k_compressed,
                    report.layout.dims[layer][head].k_compressed,
                )

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        for text in ('{"hello": 1}', "[1, 2]"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a selection manifest"):
                read_selection_manifest(path, (1, 1, 4))

    def test_rejects_indices_that_are_not_integers_in_range(self, tmp_path):
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        report = build_selection_report(calibration_trace(np.random.default_rng(10), head_dim=8),
                                        CompressionSchema(ratios=((0.5, 0.5),)), part,
                                        build_basis(4, 32))
        path = tmp_path / "sel.json"
        write_selection_manifest(report, path)
        good = json.loads(path.read_text())
        for bad in (0.5, True, False, "1", 1e20, 10**20, -1, 8, None, [0]):
            doc = json.loads(json.dumps(good))
            doc["dims"][0][0]["v_compressed"].append(bad)
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="v_compressed entries must be integers"):
                read_selection_manifest(path, (1, 1, 8))
        # repeats and any order name the same set
        doc = json.loads(json.dumps(good))
        doc["dims"][0][0]["k_compressed"] = [7, 0, 7, 3]
        path.write_text(json.dumps(doc))
        layout, _ = read_selection_manifest(path, (1, 1, 8))
        np.testing.assert_array_equal(layout.dims[0][0].k_compressed, [0, 3, 7])

    @pytest.mark.parametrize("dims", [[], [[], []], [[{}, {}]]], ids=["no-layers", "two-layers",
                                                                      "two-heads"])
    def test_rejects_a_dims_table_of_another_shape(self, tmp_path, dims):
        part = PartitionParams(init_len=4, local_len=8, period=32, orders=4)
        report = build_selection_report(calibration_trace(np.random.default_rng(11)),
                                        CompressionSchema(ratios=((0.5, 0.5),)), part,
                                        build_basis(4, 32))
        path = tmp_path / "sel.json"
        write_selection_manifest(report, path)
        doc = json.loads(path.read_text())
        doc["dims"] = dims
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dims must be a 1 x 1 table"):
            read_selection_manifest(path, (1, 1, 4))

"""Attention paths: reference, compressed-materialized, fused, diagnostics."""

import cProfile
import gc
import math
import pstats
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_kv import attention, spectral
from fourier_kv.attention import (
    attend_compressed_fused,
    attend_compressed_materialized,
    attend_full,
    decompose_scores,
    output_divergence,
    perturb_dims,
)
from fourier_kv.cache import CacheLayout, HeadView, PartitionParams, append_token, prefill
from fourier_kv.spectral import FourierBasis, build_basis
from fourier_kv.traceio import KVTrace, gen_synthetic
from harness import ONE_COLUMN, forced


def naive_attention(q, keys, values):
    """Two-loop softmax oracle."""
    scores = np.array([np.dot(q, k) for k in keys]) / math.sqrt(len(q))
    exp = np.exp(scores - max(scores))
    w = exp / exp.sum()
    out = np.zeros(values.shape[1])
    for i, v in enumerate(values):
        out += w[i] * v
    return out


def build_slice(rng, *, seq_len=64, head_dim=8, init=4, local=8, orders=4, period=None,
                k_comp=(0, 1, 2, 3), v_comp=(0, 1), keys=None, values=None):
    period = period or max(seq_len, 64)
    part = PartitionParams(init_len=init, local_len=local, period=period, orders=orders)
    mask = np.zeros((1, 2, 1, head_dim), dtype=bool)
    mask[0, 0, 0, list(k_comp)] = True
    mask[0, 1, 0, list(v_comp)] = True
    layout = CacheLayout(partition=part, compressed=mask)
    basis = build_basis(orders, period)
    if keys is None:
        keys = rng.standard_normal((1, seq_len, head_dim)).astype(np.float32)
        values = rng.standard_normal((1, seq_len, head_dim)).astype(np.float32)
    sl = HeadView(prefill(keys, values, layout, 0, basis), 0)
    return sl, basis, keys[0], values[0]


class TestAttendFull:
    def test_single_key_returns_its_value(self):
        q = np.array([1.0, 0.0])
        out = attend_full(q, np.array([[1.0, 0.0]]), np.array([[3.0, -2.0]]))
        np.testing.assert_allclose(out.output, [3.0, -2.0])

    def test_two_identical_keys_average_values(self):
        q = np.array([0.3, -0.7])
        keys = np.array([[1.0, 2.0], [1.0, 2.0]])
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = attend_full(q, keys, values)
        np.testing.assert_allclose(out.output, [0.5, 0.5], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(16)
        keys = rng.standard_normal((8, 16))
        values = rng.standard_normal((8, 16))
        out = attend_full(q, keys, values)
        np.testing.assert_allclose(out.output, naive_attention(q, keys, values), atol=1e-5)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(8)
        keys = rng.standard_normal((12, 8))
        values = rng.standard_normal((12, 8))
        out = attend_full(q, keys, values, return_weights=True)
        assert out.weights.shape == (12,)
        np.testing.assert_allclose(out.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(out.output, out.weights @ values, atol=1e-12)

    def test_rejects_non_finite(self):
        q = np.array([np.nan, 0.0])
        with pytest.raises(ValueError):
            attend_full(q, np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            attend_full(np.ones(2), np.full((1, 2), np.inf), np.ones((1, 2)))


class TestCompressedMaterialized:
    def test_lossless_layout_equals_full(self):
        rng = np.random.default_rng(3)
        sl, basis, keys, values = build_slice(rng, k_comp=(), v_comp=())
        q = rng.standard_normal(8)
        ref = attend_full(q, keys, values)
        out = attend_compressed_materialized(q, sl, basis)
        assert np.max(np.abs(out.output - ref.output)) < 1e-6

    def test_empty_middle_equals_full_on_stored_blocks(self):
        rng = np.random.default_rng(4)
        sl, basis, keys, values = build_slice(rng, seq_len=12, init=4, local=8)
        q = rng.standard_normal(8)
        ref = attend_full(q, keys, values)
        out = attend_compressed_materialized(q, sl, basis)
        assert np.max(np.abs(out.output - ref.output)) < 1e-6

    def test_band_limited_middle_matches_full(self):
        # middle spans one full period, content in-band -> exact reconstruction
        rng = np.random.default_rng(5)
        init, local, period, orders = 4, 8, 32, 4
        seq_len = init + period + local
        t = np.arange(seq_len)
        keys = np.zeros((1, seq_len, 8), dtype=np.float32)
        values = np.zeros_like(keys)
        for d in range(8):
            for arr in (keys, values):
                amp, phase = rng.uniform(0.5, 1.5), rng.uniform(0, 2 * np.pi)
                n = rng.integers(0, orders)
                arr[0, :, d] = amp * np.cos(2 * np.pi * n * t / period + phase)
        sl, basis, k_arr, v_arr = build_slice(
            rng, seq_len=seq_len, init=init, local=local, orders=orders, period=period,
            k_comp=range(8), v_comp=range(8), keys=keys, values=values,
        )
        q = rng.standard_normal(8)
        ref = attend_full(q, k_arr, v_arr)
        out = attend_compressed_materialized(q, sl, basis)
        assert np.max(np.abs(out.output - ref.output)) < 1e-4


@st.composite
def decoded_slices(draw):
    """A head slice after prefill and some decode appends, with its query.

    Covers init 0, an empty middle, empty and full compressed sets, orders up
    to and at the largest a period accepts, ``(period + 1) // 2``, and
    evictions folded by ``append_token``.
    """
    head_dim = draw(st.integers(1, 8))
    init = draw(st.integers(0, 5))
    local = draw(st.integers(1, 12))
    seq_len = draw(st.integers(1, 90))
    steps = draw(st.integers(0, 16))
    middle = max(0, seq_len - init - local) + steps
    period = max(1, middle + draw(st.integers(0, 24)))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2)))
    dim_sets = st.one_of(st.just(()), st.just(tuple(range(head_dim))),
                         st.sets(st.integers(0, head_dim - 1)).map(sorted))
    k_comp, v_comp = draw(dim_sets), draw(dim_sets)
    q_scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sl, basis, *_ = build_slice(rng, seq_len=seq_len, head_dim=head_dim, init=init, local=local,
                                orders=orders, period=period, k_comp=k_comp, v_comp=v_comp)
    for _ in range(steps):
        append_token(sl, basis, rng.standard_normal(head_dim), rng.standard_normal(head_dim))
    return sl, basis, q_scale * rng.standard_normal(head_dim)


@pytest.mark.parametrize("attend", [attend_compressed_fused, attend_compressed_materialized],
                         ids=["fused", "materialized"])
@pytest.mark.parametrize("basis", [FourierBasis(8, 128), FourierBasis(4, 64)],
                         ids=["period", "orders"])
def test_a_basis_of_another_geometry_is_rejected(attend, basis):
    # either basis reads a period-64, 8-order slice wrong, and both paths agree on it
    sl, *_ = build_slice(np.random.default_rng(17), seq_len=64, orders=8, period=64)
    with pytest.raises(ValueError, match="basis geometry does not match the layout partition"):
        attend(np.ones(8), sl, basis)


class TestCompressedFused:
    def test_single_tile_matches_materialized_tightly(self):
        """The fused path scores the whole middle in one pass: one tile."""
        rng = np.random.default_rng(6)
        sl, basis, *_ = build_slice(rng, seq_len=64)
        q = rng.standard_normal(8)
        ref = attend_compressed_materialized(q, sl, basis)
        out = attend_compressed_fused(q, sl, basis)
        assert np.max(np.abs(out.output - ref.output)) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(decoded_slices())
    def test_fused_equals_materialized_randomized(self, case):
        sl, basis, q = case
        ref = attend_compressed_materialized(q, sl, basis).output
        out = attend_compressed_fused(q, sl, basis).output
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    # a middle region that starts after the initial block and grows by
    # evictions until it is one period long, so its positions cross a
    # multiple of the period; each forces one transform of a column. 32 is
    # the largest order count period 64 accepts
    @pytest.mark.parametrize("orders", [5, 32])
    @pytest.mark.parametrize("transform", ONE_COLUMN)
    def test_fused_equals_materialized_on_a_middle_across_the_period(self, transform, orders):
        rng = np.random.default_rng(orders)
        init, local, period, head_dim = 5, 8, 64, 8
        sl, basis, *_ = build_slice(rng, seq_len=init + period - 12 + local, head_dim=head_dim,
                                    init=init, local=local, orders=orders, period=period,
                                    k_comp=(0, 2, 3, 5, 6), v_comp=(1, 2, 4, 7))
        for step in range(12):
            append_token(sl, basis, rng.standard_normal(head_dim), rng.standard_normal(head_dim))
            if sl.partition.middle(sl.total_len)[-1] < period:
                continue
            q = 2.0 * rng.standard_normal(head_dim)
            with forced(transform):
                out = attend_compressed_fused(q, sl, basis).output
            ref = attend_compressed_materialized(q, sl, basis).output
            assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        assert sl.middle_count == period
        assert sl.partition.middle(sl.total_len) == range(init, init + period)

    # a budget below twice the narrowest stored block's width splits every
    # block of two or more rows, into chunks of one row or, for wider blocks
    # of more rows, several; a block of width 0 (every dim compressed) holds
    # no floats and never splits
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(decoded_slices(), st.integers(1, 300))
    def test_fused_in_chunks_equals_materialized_randomized(self, case, budget):
        sl, basis, q = case
        dims = sl.layer.dims[sl.head]
        head_dim = q.size
        widths = [w for w in (head_dim, head_dim - dims.k_compressed.size,
                              head_dim - dims.v_compressed.size) if w]
        budget = min(budget, 2 * min(widths) - 1)
        ref = attend_compressed_materialized(q, sl, basis).output
        with mock.patch.object(attention, "_ATTEND_CHUNK_FLOATS", budget):
            out = attend_compressed_fused(q, sl, basis).output
        assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    # the layouts the property above draws among others, each forced through
    # one-row chunks (budget 1) and chunks of several rows (budget 20)
    @pytest.mark.parametrize("budget", [1, 20])
    @pytest.mark.parametrize("case", [
        dict(k_comp=range(8), v_comp=range(8)),
        dict(k_comp=(), v_comp=()),
        dict(seq_len=12),
        dict(seq_len=40, steps=13),
    ], ids=["every-dim-compressed", "every-dim-kept", "empty-middle", "wrapped-ring"])
    def test_fused_in_chunks_equals_materialized(self, case, budget):
        rng = np.random.default_rng(budget)
        case = dict(case)
        steps = case.pop("steps", 0)
        sl, basis, *_ = build_slice(rng, **case)
        for _ in range(steps):
            append_token(sl, basis, rng.standard_normal(8), rng.standard_normal(8))
        q = 2.0 * rng.standard_normal(8)
        ref = attend_compressed_materialized(q, sl, basis).output
        with mock.patch.object(attention, "_ATTEND_CHUNK_FLOATS", budget):
            out = attend_compressed_fused(q, sl, basis).output
        assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_chunks_fit_the_budget_in_equal_rows(self):
        for budget in (1, 7, 20, 64):
            for width in range(11):
                for rows in range(1, 40):
                    with mock.patch.object(attention, "_ATTEND_CHUNK_FLOATS", budget):
                        step = attention._chunk_rows(np.empty((rows, width)))
                    chunks = -(-rows // step)
                    # as few chunks as fit the budget, or one row each
                    assert chunks == -(-rows // max(1, budget // max(1, width)))
                    assert step * width <= budget or step == 1
                    # the last chunk is short of the others by less than one
                    # row per chunk: no short remainder
                    assert step - (rows - (chunks - 1) * step) < chunks

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(decoded_slices(), st.data())
    def test_rejects_nan_query(self, case, data):
        sl, basis, q = case
        q[data.draw(st.integers(0, q.size - 1))] = np.nan
        with pytest.raises(ValueError):
            attend_compressed_fused(q, sl, basis)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(decoded_slices(), st.data())
    def test_rejects_inf_local_key(self, case, data):
        sl, basis, q = case
        part = sl.partition
        local = np.arange(part.middle(sl.total_len).stop, sl.total_len)
        assume(local.size > 0)
        rows = part.init_len + (local - part.init_len) % part.local_len
        row = data.draw(st.sampled_from(rows.tolist()))
        sl.layer.exact[0, 0, row, data.draw(st.integers(0, sl.layer.exact.shape[3] - 1))] = np.inf
        with pytest.raises(ValueError):
            attend_compressed_fused(q, sl, basis)

    # the fused path checks its scores and output, not the stored blocks: a bad
    # middle row or state must still fail loudly through them
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("where", ["kept_k", "kept_v", "spec_k", "spec_v"])
    def test_rejects_non_finite_middle_storage(self, where):
        rng = np.random.default_rng(4)
        sl, basis, *_ = build_slice(rng, seq_len=64)
        q = rng.standard_normal(8)
        layer = sl.layer
        if where.startswith("kept"):
            getattr(layer, where)[0, 10, 1] = np.nan
        else:
            # K's compressed columns lead the state, V's from k_cols on
            layer.states[0, 3, 1 + (layer.k_cols if where == "spec_v" else 0)] = np.inf
        with pytest.raises(ValueError):
            attend_compressed_fused(q, sl, basis)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_inf_local_value_under_a_zero_weight(self):
        rng = np.random.default_rng(5)
        sl, basis, *_ = build_slice(rng, seq_len=64)
        q = rng.standard_normal(8)
        oldest = sl.partition.middle(sl.total_len).stop  # the oldest local position
        row = 4 + (oldest - 4) % 8  # its ring row at init 4, local 8
        sl.layer.exact[0, 0, row] = -1000.0 * q
        weights = attend_compressed_materialized(q, sl, basis, return_weights=True).weights
        assert weights[oldest] == 0.0  # exp underflows to exactly 0
        sl.layer.exact[1, 0, row, 2] = np.inf
        with pytest.raises(ValueError):
            attend_compressed_fused(q, sl, basis)

    def test_rejects_wrong_query_shape_and_empty_cache(self):
        rng = np.random.default_rng(9)
        sl, basis, *_ = build_slice(rng)
        with pytest.raises(ValueError):
            attend_compressed_fused(rng.standard_normal(7), sl, basis)
        with pytest.raises(ValueError):
            attend_compressed_fused(rng.standard_normal((2, 8)), sl, basis)
        empty = np.zeros((1, 0, 8), dtype=np.float32)
        sl, basis, *_ = build_slice(rng, keys=empty, values=empty)
        assert sl.represented() == 0
        with pytest.raises(ValueError):
            attend_compressed_fused(rng.standard_normal(8), sl, basis)


DESK = PartitionParams(init_len=4, local_len=64, period=4096, orders=16)


def desk_layer(rng, heads):
    """Views of the heads of a desk-geometry layer after a 1024-token prompt,
    unequal compressed counts per head, and the next token of every head."""
    mask = rng.random((1, 2, heads, 64)) < 0.6
    layout = CacheLayout(partition=DESK, compressed=mask)
    basis = FourierBasis(DESK.orders, DESK.period)
    keys = rng.standard_normal((heads, 1025, 64)).astype(np.float32)
    values = rng.standard_normal((heads, 1025, 64)).astype(np.float32)
    layer = prefill(keys[:, :1024], values[:, :1024], layout, 0, basis)
    return [HeadView(layer, head) for head in range(heads)], basis, keys[:, 1024], values[:, 1024]


def test_a_desk_step_over_32_heads_resolves_one_run_plan():
    rng = np.random.default_rng(21)
    spectral._trig_tables.cache_clear()
    slices, basis, k_next, v_next = desk_layer(rng, 32)
    # the prefill folds the middle as centred pairs, building no trig tables
    assert spectral._trig_tables.cache_info().currsize == 0
    spectral._run_plan.cache_clear()
    for head, sl in enumerate(slices):
        append_token(sl, basis, k_next[head], v_next[head])
        q = rng.standard_normal(64)
        out = attend_compressed_fused(q, sl, basis).output
        ref = attend_compressed_materialized(q, sl, basis).output
        assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        # the first head's plan builds the middle's trig tables; no later head builds any
        assert spectral._trig_tables.cache_info().misses == 1
    info = spectral._run_plan.cache_info()
    # every head reads the same middle: one plan built, 31 read from the cache
    assert (info.misses, info.hits) == (1, 31)
    assert spectral._trig_tables.cache_info().currsize == 1


class TestFusedTransient:
    """The fused call's float64 casts of the stored float32 blocks fit its chunk
    budget, whatever the window: at stock geometry, one call over a local
    window of 1024 rows, and over one of 4096."""

    @staticmethod
    def transient(local_len) -> int:
        """Peak bytes one fused call allocates above those held before it."""
        rng = np.random.default_rng(local_len)
        part = PartitionParams(init_len=4, local_len=local_len, period=32768, orders=512)
        layout = CacheLayout(partition=part, compressed=rng.random((1, 2, 1, 128)) < 0.6)
        basis = FourierBasis(part.orders, part.period)
        # a middle of 1020 positions, as a 2048-token prompt leaves at local 1024
        length = part.init_len + 1020 + local_len
        keys, values = rng.standard_normal((2, 1, length, 128)).astype(np.float32)
        sl = HeadView(prefill(keys, values, layout, 0, basis), 0)
        q = rng.standard_normal(128)
        attend_compressed_fused(q, sl, basis)  # resolves the middle's plan
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            attend_compressed_fused(q, sl, basis)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    def test_the_window_length_adds_only_its_scores(self):
        near, far = self.transient(1024), self.transient(4096)
        # the exact block cast whole would be 1028 * 128 float64 values; the
        # budget casts at most 2**15 of them at a time, 206 rows here
        assert near < (1028 * 128 * 8) / 4
        # 3072 more scores at 8 bytes, and chunks of 242 rows, not 206: the
        # slack covers chunks up to the budget's 256 KB
        assert far - near <= 8 * 3072 + 64 * 1024


class TestDecodeCallCounts:
    """Python-level calls per decode call at desk geometry, as cProfile counts
    them (not time), with numpy 2.4: a guard against per-call work creeping back.

    Each bound is a count this code's parent made, plus a margin of 3: 37
    calls per attention call and 24 per evicting append. The code makes 38
    and 24: the trig tables' evaluate repeats its coefficients per head row
    before the product, in place of a broadcast product whose buffer it
    would hold. Every desk block fits the fused call's chunk budget, so each
    keeps its one product and the budget adds no call. The code made 78 and
    39 before each middle run's transform was resolved once, 37 and 27
    while it stored exact rows permuted into a per-head dimension order, and
    37 and 25 while it kept a second count per head and converted an
    appended token twice.
    """

    MARGIN = 3

    @staticmethod
    def calls(fn, *args) -> int:
        profile = cProfile.Profile()
        profile.runcall(fn, *args)
        return pstats.Stats(profile).total_calls

    def test_fused_attention(self):
        rng = np.random.default_rng(22)
        (first, second), basis, k_next, v_next = desk_layer(rng, 2)
        for head, sl in enumerate((first, second)):
            append_token(sl, basis, k_next[head], v_next[head])
        q = rng.standard_normal(64)
        attend_compressed_fused(q, first, basis)  # resolves the step's plan, as head 0 does
        assert self.calls(attend_compressed_fused, q, second, basis) <= 37 + self.MARGIN

    def test_evicting_append(self):
        rng = np.random.default_rng(23)
        (first, second), basis, k_next, v_next = desk_layer(rng, 2)
        append_token(first, basis, k_next[0], v_next[0])  # builds the step's basis column
        before = second.middle_count
        assert self.calls(append_token, second, basis, k_next[1], v_next[1]) <= 24 + self.MARGIN
        assert second.middle_count == before + 1  # the append evicted


class TestDecomposeScores:
    def test_components_sum_to_full(self):
        rng = np.random.default_rng(11)
        queries = rng.standard_normal((3, 16))
        keys = rng.standard_normal((10, 16))
        low, high = decompose_scores(queries, keys, split_dim=7)
        assert low.shape == high.shape == (3, 10)
        full = (queries @ keys.T) / np.sqrt(16)
        np.testing.assert_allclose(low + high, full, atol=1e-12)

    def test_split_at_d_zeroes_upper(self):
        rng = np.random.default_rng(12)
        queries = rng.standard_normal((2, 8))
        keys = rng.standard_normal((5, 8))
        low, high = decompose_scores(queries, keys, split_dim=8)
        np.testing.assert_array_equal(high, np.zeros((2, 5)))

    def test_split_out_of_range(self):
        with pytest.raises(ValueError, match="split_dim"):
            decompose_scores(np.ones((1, 4)), np.ones((2, 4)), split_dim=0)
        with pytest.raises(ValueError, match="split_dim"):
            decompose_scores(np.ones((1, 4)), np.ones((2, 4)), split_dim=5)

    def test_rejects_anything_but_a_query_block(self):
        with pytest.raises(ValueError, match="queries must be"):
            decompose_scores(np.ones(4), np.ones((2, 4)), split_dim=2)
        with pytest.raises(ValueError, match="queries must be"):
            decompose_scores(np.ones((1, 3)), np.ones((2, 4)), split_dim=2)

    def test_low_component_tracks_recency_on_drifting_keys(self):
        # low dims drift like a random walk, high dims stay static: the low
        # component of the last query's scores should favor recent positions
        rng = np.random.default_rng(13)
        length, d, split = 64, 8, 4
        keys = np.empty((length, d))
        keys[:, :split] = np.cumsum(rng.standard_normal((length, split)) * 0.3, axis=0)
        keys[:, split:] = rng.standard_normal(d - split)
        low, _ = decompose_scores(keys[-1:], keys, split_dim=split)
        low = low[0]
        w = np.exp(low - low.max())
        w /= w.sum()
        assert w[-length // 4 :].sum() > w[: length // 4].sum()


class TestPerturbDims:
    def test_sigma_zero_is_identity(self):
        trace = gen_synthetic("noise", layers=1, kv_heads=2, head_dim=4, seq_len=16, seed=1)
        out = perturb_dims(trace, dims=[0, 1], sigma=0.0, seed=3)
        np.testing.assert_array_equal(out.keys, trace.keys)
        np.testing.assert_array_equal(out.values, trace.values)

    def test_empty_dims_is_identity(self):
        trace = gen_synthetic("noise", layers=1, kv_heads=1, head_dim=4, seq_len=16, seed=2)
        out = perturb_dims(trace, dims=[], sigma=5.0, seed=3)
        np.testing.assert_array_equal(out.keys, trace.keys)

    def test_noise_is_seeded_and_centered(self):
        trace = gen_synthetic("constant", layers=2, kv_heads=2, head_dim=8, seq_len=512, value=0.0)
        out_a = perturb_dims(trace, dims=range(8), sigma=1.0, seed=7)
        out_b = perturb_dims(trace, dims=range(8), sigma=1.0, seed=7)
        np.testing.assert_array_equal(out_a.keys, out_b.keys)
        noise = out_a.keys.astype(np.float64).ravel()
        assert noise.size >= 10**4
        assert abs(noise.mean()) < 3.0 / np.sqrt(noise.size)

    @pytest.mark.parametrize("dims", [[1.5], [1.0], [True], [[0, 1]]],
                             ids=["half", "whole-float", "bool", "nested"])
    def test_dims_that_are_not_integers_raise(self, dims):
        # [1.5] used to perturb dim 1
        trace = gen_synthetic("noise", layers=1, kv_heads=1, head_dim=4, seq_len=16, seed=4)
        with pytest.raises(ValueError, match="integers"):
            perturb_dims(trace, dims=dims, sigma=1.0, seed=5)

    def test_numpy_integer_dims_are_read_once_each(self):
        trace = gen_synthetic("noise", layers=1, kv_heads=1, head_dim=4, seq_len=16, seed=4)
        out = perturb_dims(trace, dims=np.array([2, 1, 2], dtype=np.int32), sigma=1.0, seed=5)
        np.testing.assert_array_equal(out.keys, perturb_dims(trace, [1, 2], 1.0, seed=5).keys)

    def test_untouched_dims_and_values_stay(self):
        trace = gen_synthetic("noise", layers=1, kv_heads=1, head_dim=4, seq_len=16, seed=4)
        out = perturb_dims(trace, dims=[1], sigma=1.0, seed=5)
        np.testing.assert_array_equal(out.keys[..., [0, 2, 3]], trace.keys[..., [0, 2, 3]])
        np.testing.assert_array_equal(out.values, trace.values)
        assert not np.array_equal(out.keys[..., 1], trace.keys[..., 1])


class TestOutputDivergence:
    def test_identical(self):
        x = np.arange(6.0)
        metrics = output_divergence(x, x.copy())
        assert metrics["max_abs"] == 0.0
        assert metrics["cosine"] == pytest.approx(1.0)

    def test_single_coordinate_offset(self):
        ref = np.array([1.0, 0.0, 0.0])
        cand = np.array([1.1, 0.0, 0.0])
        assert output_divergence(ref, cand)["max_abs"] == pytest.approx(0.1)

    def test_matches_naive_metrics(self):
        rng = np.random.default_rng(14)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        metrics = output_divergence(a, b)
        assert metrics["rmse"] == pytest.approx(np.sqrt(np.mean((a - b) ** 2)), abs=1e-7)
        assert metrics["max_abs"] == pytest.approx(np.max(np.abs(a - b)), abs=1e-7)
        assert metrics["cosine"] == pytest.approx(
            float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))), abs=1e-7
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            output_divergence(np.zeros(3), np.zeros(4))


class TestErrorMonotonicity:
    def test_rmse_non_increasing_in_orders(self):
        # band-limited content plus noise; the middle spans one full period so
        # more orders always capture more of the noisy signal
        rng = np.random.default_rng(15)
        init, local, period = 4, 8, 128
        seq_len = init + period + local
        d = 8
        t = np.arange(seq_len)
        keys = np.zeros((1, seq_len, d))
        values = np.zeros((1, seq_len, d))
        for arr in (keys, values):
            for dim in range(d):
                for n in range(4):
                    arr[0, :, dim] += rng.standard_normal() * np.cos(2 * np.pi * n * t / period)
                    arr[0, :, dim] += rng.standard_normal() * np.sin(2 * np.pi * n * t / period)
            arr[0] += 0.3 * rng.standard_normal((seq_len, d))
        keys = keys.astype(np.float32)
        values = values.astype(np.float32)
        queries = rng.standard_normal((32, d))
        refs = np.stack([attend_full(q, keys[0], values[0]).output for q in queries])

        rmse_by_orders = []
        for orders in (4, 8, 16, 32):
            sl, basis, *_ = build_slice(
                rng, seq_len=seq_len, head_dim=d, init=init, local=local,
                orders=orders, period=period, k_comp=range(d), v_comp=range(d),
                keys=keys, values=values,
            )
            outs = np.stack(
                [attend_compressed_materialized(q, sl, basis).output for q in queries]
            )
            rmse_by_orders.append(output_divergence(refs, outs)["rmse"])
        for smaller, larger in zip(rmse_by_orders[1:], rmse_by_orders[:-1]):
            assert smaller <= larger + 1e-9

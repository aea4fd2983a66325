"""Cache partitioning, streaming eviction, and memory accounting."""

import contextlib
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_kv import spectral
from fourier_kv.cache import (
    CacheLayout,
    HeadView,
    PartitionParams,
    append_token,
    ingest,
    memory_report,
    prefill,
    prefill_trace,
)
from fourier_kv.dimselect import (
    HISTOGRAM_GROUP,
    CompressionSchema,
    MseRanking,
    SelectionReport,
    apply_schema,
    rank_dimensions,
    selection_histogram,
)
from fourier_kv.spectral import FourierBasis, build_basis, compress_batch
from fourier_kv.traceio import KVTrace, TinyModelConfig, gen_synthetic, tiny_forward
from harness import (
    TRANSFORMS,
    assert_layer_unchanged,
    exact_blocks,
    forced,
    heads_of,
    kept_rows,
    layer_arrays,
    layer_bytes,
    local_block,
    paired_products,
    states,
)


def make_layout(layers=1, kv_heads=1, head_dim=6, init=4, local=16, period=256, orders=4,
                k_comp=(0, 1, 2), v_comp=(0, 1)):
    part = PartitionParams(init_len=init, local_len=local, period=period, orders=orders)
    mask = np.zeros((layers, 2, kv_heads, head_dim), dtype=bool)
    mask[:, 0, :, list(k_comp)] = True
    mask[:, 1, :, list(v_comp)] = True
    return CacheLayout(partition=part, compressed=mask)


def one_layer(part, head_dim, k_sets, v_sets):
    """A one-layer layout whose head ``h`` compresses ``k_sets[h]`` and ``v_sets[h]``."""
    mask = np.zeros((1, 2, len(k_sets), head_dim), dtype=bool)
    for head, (k_comp, v_comp) in enumerate(zip(k_sets, v_sets)):
        mask[0, 0, head, list(k_comp)] = True
        mask[0, 1, head, list(v_comp)] = True
    return CacheLayout(partition=part, compressed=mask)


def random_layer(rng, kv_heads=1, seq_len=64, head_dim=6):
    return (
        rng.standard_normal((kv_heads, seq_len, head_dim)).astype(np.float32),
        rng.standard_normal((kv_heads, seq_len, head_dim)).astype(np.float32),
    )


def sorted_dim_sets(indices, head_dim):
    """The sort-based construction: unique compressed indices and their complement."""
    arr = np.unique(np.asarray(indices, dtype=np.int64))
    return arr, np.setdiff1d(np.arange(head_dim, dtype=np.int64), arr)


index_lists = st.integers(0, 12).flatmap(
    lambda head_dim: st.tuples(
        st.just(head_dim),
        *[st.lists(st.integers(0, head_dim - 1), max_size=2 * head_dim + 2)
          if head_dim else st.just([])] * 2,
    )
)


@st.composite
def random_masks(draw):
    """A ``(layers, 2, kv_heads, head_dim)`` mask with rows drawn independently, so
    heads of one layer compress unequal counts; empty and full masks included."""
    shape = (draw(st.integers(0, 3)), 2, draw(st.integers(0, 3)), draw(st.integers(0, 40)))
    kind = draw(st.sampled_from(["random", "empty", "full"]))
    if kind != "random":
        return np.full(shape, kind == "full")
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density


def loop_memory_report(layout, seq_len):
    """The per-head loop ``memory_report`` ran before the layout was one mask."""
    part = layout.partition
    middle = len(part.middle(seq_len))
    exact = spectral = padding = channels_total = channels_spectral = 0
    for layer in range(layout.layers):
        heads = layout.dims[layer]
        # a layer's heads are padded to its widest state and its widest kept rows
        widest_kc = max((hd.k_compressed.size for hd in heads), default=0)
        widest_vc = max((hd.v_compressed.size for hd in heads), default=0)
        widest_kk = max((hd.k_kept.size for hd in heads), default=0)
        widest_vk = max((hd.v_kept.size for hd in heads), default=0)
        for hd in heads:
            n_kc, n_vc = hd.k_compressed.size, hd.v_compressed.size
            exact += (seq_len - middle) * 2 * layout.head_dim
            exact += middle * (hd.k_kept.size + hd.v_kept.size)
            spectral += 2 * part.orders * (n_kc + n_vc)
            padding += 2 * part.orders * (widest_kc - n_kc + widest_vc - n_vc)
            padding += middle * (widest_kk - hd.k_kept.size + widest_vk - hd.v_kept.size)
            channels_spectral += n_kc + n_vc
            channels_total += 2 * layout.head_dim
    full = layout.layers * layout.kv_heads * 2 * seq_len * layout.head_dim
    return {
        "exact_floats": exact,
        "spectral_floats": spectral,
        "padding_floats": padding,
        "full_cache_floats": full,
        "compressed_fraction": channels_spectral / channels_total,
        "ratio_vs_full": (exact + spectral) / full if full else float("nan"),
    }


def loop_selection_histogram(layout):
    """The per-head loop ``selection_histogram`` ran before the layout was one mask."""
    group = HISTOGRAM_GROUP
    n_groups = -(-layout.head_dim // group)
    out = np.zeros((layout.layers, 2, n_groups))
    for layer in range(layout.layers):
        for head in range(layout.kv_heads):
            hd = layout.dims[layer][head]
            for idx, sel in enumerate((hd.k_compressed, hd.v_compressed)):
                out[layer, idx] += np.bincount(sel // group, minlength=n_groups)
    return out / layout.kv_heads


PART = PartitionParams(init_len=2, local_len=3, period=16, orders=4)


class TestPartitionParams:
    @pytest.mark.parametrize("field, value", [
        ("orders", 4.5), ("orders", True), ("orders", 4.0), ("period", 16.0),
        ("init_len", 2.5), ("init_len", False), ("local_len", 3.5), ("local_len", "3"),
    ])
    def test_a_field_that_is_not_an_integer_is_rejected(self, field, value):
        fields = {"init_len": 2, "local_len": 3, "period": 16, "orders": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PartitionParams(**fields)

    def test_numpy_integers_are_accepted(self):
        part = PartitionParams(*(np.int64(v) for v in (2, 3, 16)), np.int32(4))
        assert part == PART and part.middle(np.int64(10)) == range(2, 7)


class TestCacheLayout:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_masks())
    def test_derived_sets_partition_every_row(self, mask):
        layout = CacheLayout(partition=PART, compressed=mask)
        assert (layout.layers, layout.kv_heads, layout.head_dim) == (
            mask.shape[0], mask.shape[2], mask.shape[3])
        assert len(layout.dims) == layout.layers
        for layer, row in enumerate(layout.dims):
            assert len(row) == layout.kv_heads
            for head, hd in enumerate(row):
                for kv, (comp, kept) in enumerate(((hd.k_compressed, hd.k_kept),
                                                   (hd.v_compressed, hd.v_kept))):
                    assert comp.dtype == kept.dtype == np.int64
                    np.testing.assert_array_equal(comp, np.flatnonzero(mask[layer, kv, head]))
                    np.testing.assert_array_equal(kept, np.flatnonzero(~mask[layer, kv, head]))
                    np.testing.assert_array_equal(np.sort(np.r_[comp, kept]),
                                                  np.arange(layout.head_dim))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_masks(), st.integers(0, 40))
    def test_memory_report_equals_the_per_head_loop(self, mask, seq_len):
        layout = CacheLayout(partition=PART, compressed=mask)
        if mask.size == 0:
            with pytest.raises(ZeroDivisionError):
                loop_memory_report(layout, seq_len)
            with pytest.raises(ZeroDivisionError):
                memory_report(layout, seq_len)
            return
        got, want = memory_report(layout, seq_len), loop_memory_report(layout, seq_len)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert type(got[name]) is type(value), name
            np.testing.assert_array_equal(got[name], value, err_msg=name)

    # head_dim up to 40: up to three groups of HISTOGRAM_GROUP, the last one short
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_masks())
    def test_selection_histogram_equals_the_per_head_loop(self, mask):
        assume(mask.shape[2] > 0)  # a mean over no heads
        layout = CacheLayout(partition=PART, compressed=mask)
        report = SelectionReport(layout=layout, schema=CompressionSchema(ratios=()))
        np.testing.assert_array_equal(selection_histogram(report),
                                      loop_selection_histogram(layout))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(index_lists)
    def test_dims_equal_the_sorted_sets(self, case):
        head_dim, k_indices, v_indices = case
        mask = np.zeros((1, 2, 1, head_dim), dtype=bool)
        mask[0, 0, 0, k_indices] = True
        mask[0, 1, 0, v_indices] = True
        hd = CacheLayout(partition=PART, compressed=mask).dims[0][0]
        k_sets, v_sets = sorted_dim_sets(k_indices, head_dim), sorted_dim_sets(v_indices, head_dim)
        for got, want in zip((hd.k_compressed, hd.k_kept, hd.v_compressed, hd.v_kept),
                             (*k_sets, *v_sets)):
            np.testing.assert_array_equal(got, want)

    def test_holds_a_read_only_copy(self):
        mask = np.zeros((1, 2, 1, 4), dtype=bool)
        mask[0, 0, 0, 1] = True
        layout = CacheLayout(partition=PART, compressed=mask)
        mask[...] = True
        assert layout.compressed.sum() == 1
        np.testing.assert_array_equal(layout.dims[0][0].k_compressed, [1])
        with pytest.raises(ValueError):
            layout.compressed[0, 0, 0, 0] = True
        with pytest.raises(ValueError):
            layout.dims[0][0].k_kept[0] = 1

    @pytest.mark.parametrize("mask", [
        np.zeros((1, 2, 1, 4), dtype=np.int64),  # not boolean
        np.zeros((2, 1, 4), dtype=bool),  # no layer axis
        np.zeros((1, 3, 1, 4), dtype=bool),  # K, V and a third
    ], ids=["int", "3-d", "three-kinds"])
    def test_rejects_a_mask_of_another_shape_or_dtype(self, mask):
        with pytest.raises(ValueError, match="boolean"):
            CacheLayout(partition=PART, compressed=mask)


class TestPrefill:
    def test_partition_arithmetic(self):
        # position enumeration: 64 tokens, 4 initial, 16 local -> middle 4..47
        rng = np.random.default_rng(0)
        layout = make_layout(init=4, local=16, head_dim=6, period=64, orders=8)
        basis = build_basis(8, 64)
        keys, values = random_layer(rng, seq_len=64)
        layer = prefill(keys, values, layout, 0, basis)
        sl = HeadView(layer, 0)
        assert layer.total_len == [64]
        assert layer.exact.shape == (2, 1, 20, 6) and layer.states.shape == (1, 16, 5)
        assert layer.kept_k.shape[2] == 3 and layer.kept_v.shape[2] == 4
        assert sl.middle_count == 44
        assert sl.partition.middle(sl.total_len) == range(4, 48)
        assert sl.total_len - sl.middle_count - 4 == 16  # ring rows in use
        assert sl.represented() == 64 == sl.total_len

    def test_degenerate_no_middle(self):
        rng = np.random.default_rng(1)
        layout = make_layout(init=4, local=16)
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=20)
        layer = prefill(keys, values, layout, 0, basis)
        assert np.all(layer.states == 0.0)
        assert HeadView(layer, 0).middle_count == 0

    def test_lossless_head_round_trips(self):
        rng = np.random.default_rng(2)
        layout = make_layout(k_comp=(), v_comp=())
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=40)
        sl = HeadView(prefill(keys, values, layout, 0, basis), 0)
        middle = np.arange(4, 40 - 16)
        np.testing.assert_array_equal(kept_rows(sl)[0], keys[0][middle])
        np.testing.assert_array_equal(exact_blocks(sl)[0][:4], keys[0][:4])
        local_k, local_v = local_block(sl)
        np.testing.assert_array_equal(local_k, keys[0][-16:])
        np.testing.assert_array_equal(local_v, values[0][-16:])

    def test_kept_dims_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        layout = make_layout(k_comp=(0, 1), v_comp=(5,))
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=50)
        kept_k, kept_v = kept_rows(HeadView(prefill(keys, values, layout, 0, basis), 0))
        middle = np.arange(4, 50 - 16)
        np.testing.assert_array_equal(kept_k, keys[0][middle][:, [2, 3, 4, 5]])
        np.testing.assert_array_equal(kept_v, values[0][middle][:, [0, 1, 2, 3, 4]])

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        layout = make_layout()
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, kv_heads=2, seq_len=30)
        with pytest.raises(ValueError):
            prefill(keys, values, layout, 0, basis)
        keys, values = random_layer(rng, seq_len=30)
        with pytest.raises(ValueError):
            prefill(keys, values, layout, 0, build_basis(3, 256))
        with pytest.raises(ValueError):
            prefill(keys, values, layout, 1, basis)

    def test_middle_longer_than_period_rejected(self):
        rng = np.random.default_rng(5)
        layout = make_layout(init=4, local=16, period=32)
        basis = build_basis(4, 32)
        keys, values = random_layer(rng, seq_len=60)  # middle 40 > period 32
        with pytest.raises(ValueError):
            prefill(keys, values, layout, 0, basis)
        keys, values = random_layer(rng, seq_len=52)  # middle 32 == period: fine
        prefill(keys, values, layout, 0, basis)


@st.composite
def prefill_geometries(draw):
    """A one-layer layout and its K/V blocks.

    Covers init 0, empty middles, middles exactly one period long, the
    largest orders a period accepts, ``(period + 1) // 2``, and 4096 of them
    (8192 rows, small column groups, at period 8191), and 1-3 heads with
    different compressed sets, empty and full included.
    """
    head_dim = draw(st.integers(1, 6))
    kv_heads = draw(st.integers(1, 3))
    init = draw(st.integers(0, 4))
    local = draw(st.integers(1, 8))
    middle = draw(st.one_of(st.just(0), st.integers(1, 40)))
    period = max(1, middle + draw(st.sampled_from([0, 0, 1, 17])))
    orders = draw(st.one_of(st.integers(1, (period + 1) // 2), st.just((period + 1) // 2),
                            st.just(4096)))
    period = max(period, 2 * orders - 1)
    dim_sets = st.one_of(st.just(()), st.just(tuple(range(head_dim))),
                         st.sets(st.integers(0, head_dim - 1)).map(sorted))
    part = PartitionParams(init_len=init, local_len=local, period=period, orders=orders)
    k_sets, v_sets = zip(*[(draw(dim_sets), draw(dim_sets)) for _ in range(kv_heads)])
    layout = one_layer(part, head_dim, k_sets, v_sets)
    # a middle shorter than init+local leaves the ring partly empty
    seq_len = init + middle + local if middle else draw(st.integers(0, init + local))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys, values = random_layer(rng, kv_heads=kv_heads, seq_len=seq_len, head_dim=head_dim)
    return layout, keys, values


class TestPrefillFold:
    """``prefill``'s shared-column fold against ``compress_batch`` per head."""

    @staticmethod
    def assert_states_match(layout, keys, values, layer, basis):
        """Each head's K and V states equal ``compress_batch`` of its middle rows."""
        part = layout.partition
        seq_len = keys.shape[1]
        n_init = min(part.init_len, seq_len)
        local_start = max(n_init, seq_len - part.local_len)
        for head, sl in enumerate(heads_of(layer)):
            hd = layout.dims[0][head]
            for state, block, comp in zip(states(sl), (keys, values),
                                          (hd.k_compressed, hd.v_compressed)):
                rows = block[head, n_init:local_start][:, comp]
                oracle = compress_batch(basis, rows, n_init)
                scale = np.maximum(1.0, np.abs(rows.astype(np.float64)).sum(axis=0))
                assert np.all(np.abs(state.coeffs - oracle.coeffs) <= 1e-12 * scale)
                assert (state.token_count, state.first_pos, state.last_pos) == (
                    oracle.token_count, oracle.first_pos, oracle.last_pos)
            assert sl.represented() == seq_len

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(prefill_geometries())
    def test_states_match_compress_batch(self, case):
        # under each forced transform of the fold, and as the cost rule picks
        layout, keys, values = case
        basis = build_basis(layout.partition.orders, layout.partition.period)
        for transform in TRANSFORMS:
            with forced(transform):
                layer = prefill(keys, values, layout, 0, basis)
            self.assert_states_match(layout, keys, values, layer, basis)

    @staticmethod
    def stock_layer():
        """Stock geometry: one head of 128 dims, 2048 tokens, 102 K and 102 V dims folded."""
        rng = np.random.default_rng(17)
        part = PartitionParams(init_len=4, local_len=1024, period=32768, orders=512)
        layout = one_layer(part, 128, [np.sort(rng.choice(128, 102, replace=False))],
                           [np.sort(rng.choice(128, 102, replace=False))])
        keys, values = random_layer(rng, kv_heads=1, seq_len=2048, head_dim=128)
        return layout, keys, values, build_basis(512, 32768)

    def test_stock_fold_runs_the_moments_like_compress_batch(self):
        layout, keys, values, basis = self.stock_layer()
        with mock.patch.object(spectral, "_fold_moments", autospec=True,
                               side_effect=spectral._fold_moments) as moments:
            layer = prefill(keys, values, layout, 0, basis)
        # the whole middle in one sub-run, K and V columns in one group
        assert moments.call_count == 1
        assert moments.call_args.args[1].degree == 98
        self.assert_states_match(layout, keys, values, layer, basis)

    def test_stock_transient_stays_within_the_fold_budget(self):
        # the decode_stock_gqa geometry: the moments build their tables per
        # fold, within the fold's budget, as the trig tables do at desk
        layout, keys, values, basis = self.stock_layer()
        prefill(keys, values, layout, 0, basis)  # numpy's first-call allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layer = prefill(keys, values, layout, 0, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= layer_bytes(layer) + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024

    @staticmethod
    def desk_layer():
        """Desk geometry: 4 heads of 64 dims, 1024 tokens, 58 K and 32 V dims folded."""
        rng = np.random.default_rng(16)
        part = PartitionParams(init_len=4, local_len=64, period=4096, orders=16)
        layout = one_layer(part, 64, [rng.choice(64, 58, replace=False) for _ in range(4)],
                           [rng.choice(64, 32, replace=False) for _ in range(4)])
        keys, values = random_layer(rng, kv_heads=4, seq_len=1024, head_dim=64)
        return layout, keys, values, build_basis(16, 4096)

    def test_desk_transient_stays_within_the_fold_budget(self):
        # the benchmark's transient reads prefill after the layer is built,
        # so it cannot see the fold; this bounds the peak of the call itself
        layout, keys, values, basis = self.desk_layer()
        prefill(keys, values, layout, 0, basis)  # plans and numpy's first-call allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layer = prefill(keys, values, layout, 0, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= layer_bytes(layer) + 8 * spectral._FOLD_CHUNK_FLOATS + 16 * 1024

    def test_desk_fold_projects_two_products_per_block_without_gathers(self):
        # the trig tables fold each head's K and V block as centred pairs,
        # cast once into a float64 buffer from its first pick to its last (up
        # to 64 columns of 478 pairs), and take two products of the cast, its
        # sums by the cosine rows and its differences by the sine rows; a fold
        # that gathered picked columns would pass float32 copies of them instead
        layout, keys, values, basis = self.desk_layer()
        with paired_products() as halves:
            layer = prefill(keys, values, layout, 0, basis)
        assert len(halves) == 2 * 2 * layout.kv_heads
        for h in halves:
            assert h.dtype == np.float64 and h.shape[0] <= 64 and h.shape[1] == 478
        for head, sl in enumerate(heads_of(layer)):
            hd = layout.dims[0][head]
            middle = slice(4, 1024 - 64)
            for state, block, comp in zip(states(sl), (keys, values),
                                          (hd.k_compressed, hd.v_compressed)):
                rows = block[head, middle][:, comp]
                oracle = compress_batch(basis, rows, 4)
                scale = np.maximum(1.0, np.abs(rows.astype(np.float64)).sum(axis=0))
                assert np.all(np.abs(state.coeffs - oracle.coeffs) <= 1e-12 * scale)

    def test_slices_do_not_alias_the_callers_blocks(self):
        rng = np.random.default_rng(10)
        layout = make_layout(kv_heads=2, init=4, local=16, k_comp=(0, 1), v_comp=(5,))
        keys, values = random_layer(rng, kv_heads=2, seq_len=50)
        layer = prefill(keys, values, layout, 0, build_basis(4, 256))
        before = layer_arrays(layer)
        keys[...] = 7.0
        values[...] = -7.0
        assert_layer_unchanged(layer, before)



@st.composite
def moment_chunks(draw):
    """A one-layer layout of 1-3 heads that compress unequal counts, a prompt, and
    a chunk ingested after it.

    The prompt's middle holds 0-3 positions or more, odd and even, and
    starts at position 0-3 or past one period; the chunk evicts 1-4
    positions or more into the states the prompt left. The fold's budget is
    the default or small enough to split a head's state into windows.
    """
    head_dim = draw(st.integers(2, 8))
    kv_heads = draw(st.integers(1, 3))
    period = draw(st.integers(16, 48))
    init = draw(st.one_of(st.integers(0, 3), st.integers(period + 1, 3 * period)))
    local = draw(st.integers(1, 6))
    orders = draw(st.integers(1, (period + 1) // 2))
    first = draw(st.one_of(st.integers(0, 3), st.integers(4, period // 2)))
    chunk = draw(st.one_of(st.integers(1, 4), st.integers(5, period - first)))
    dim_sets = st.sets(st.integers(0, head_dim - 1)).map(sorted)
    part = PartitionParams(init_len=init, local_len=local, period=period, orders=orders)
    k_sets, v_sets = zip(*[(draw(dim_sets), draw(dim_sets)) for _ in range(kv_heads)])
    layout = one_layer(part, head_dim, k_sets, v_sets)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys, values = random_layer(rng, kv_heads=kv_heads, seq_len=init + first + local + chunk,
                                head_dim=head_dim)
    budget = draw(st.sampled_from([spectral._FOLD_CHUNK_FLOATS, 2**12, 2**10]))
    return layout, keys, values, init + first + local, budget


class TestMomentsFold:
    """The paired fold, forced onto the Chebyshev moments or the trig tables'
    centred rows, against ``compress_batch`` per head."""

    @pytest.mark.parametrize("transform", ["moments", "tables"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=moment_chunks())
    def test_prefill_then_a_chunk_matches_compress_batch(self, transform, case):
        layout, keys, values, prompt, budget = case
        part = layout.partition
        basis = build_basis(part.orders, part.period)
        with forced(transform, _FOLD_CHUNK_FLOATS=budget), \
                mock.patch.object(spectral, "_fold_moments",
                                  side_effect=spectral._fold_moments) as paired:
            layer = prefill(keys[:, :prompt], values[:, :prompt], layout, 0, basis)
            ingest(layer, basis, keys[:, prompt:], values[:, prompt:])
        widths = [hd.k_compressed.size + hd.v_compressed.size for hd in layout.dims[0]]
        # every fold of two or more positions runs the paired fold, the
        # moments at two or more columns and the tables at any
        folds = [span for span in (len(part.middle(prompt)), keys.shape[1] - prompt)
                 if span > 1 and sum(widths) > (transform == "moments")]
        assert paired.call_count >= len(folds)
        TestPrefillFold.assert_states_match(layout, keys, values, layer, basis)
        for head, hd in enumerate(layout.dims[0]):
            # the padding columns of a head that compresses fewer dims than the widest
            padding = np.ones(layer.states.shape[2], dtype=bool)
            padding[: hd.k_compressed.size] = False
            padding[layer.k_cols : layer.k_cols + hd.v_compressed.size] = False
            assert np.all(layer.states[head][:, padding] == 0.0)


class TestNonFinite:
    @pytest.mark.parametrize("block, dim, bad", [("keys", 3, np.nan),  # kept K dim
                                                 ("values", 0, np.inf)])  # compressed V dim
    def test_prefill_rejects_non_finite_middle(self, block, dim, bad):
        rng = np.random.default_rng(11)
        layout = make_layout(init=4, local=16, k_comp=(0, 1, 2), v_comp=(0, 1))
        keys, values = random_layer(rng, seq_len=40)
        {"keys": keys, "values": values}[block][0, 10, dim] = bad
        with pytest.raises(ValueError):
            prefill(keys, values, layout, 0, build_basis(4, 256))

    @pytest.mark.parametrize("which", ["k", "v"])
    def test_append_rejects_nan_and_leaves_slice_unchanged(self, which):
        rng = np.random.default_rng(12)
        layout = make_layout(init=2, local=4)
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=12)  # ring full: the next append evicts
        layer = prefill(keys, values, layout, 0, basis)
        before = layer_arrays(layer)
        k_vec = rng.standard_normal(6).astype(np.float32)
        v_vec = rng.standard_normal(6).astype(np.float32)
        (k_vec if which == "k" else v_vec)[2] = np.nan
        with pytest.raises(ValueError):
            append_token(HeadView(layer, 0), basis, k_vec, v_vec)
        assert_layer_unchanged(layer, before)


class TestAppend:
    def test_append_without_eviction_keeps_states(self):
        rng = np.random.default_rng(6)
        layout = make_layout(init=2, local=8)
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=6)
        sl = HeadView(prefill(keys, values, layout, 0, basis), 0)
        coeffs_before = sl.layer.states.copy()
        append_token(sl, basis, np.ones(6, np.float32), np.ones(6, np.float32))
        np.testing.assert_array_equal(sl.layer.states, coeffs_before)
        assert sl.total_len == 7
        assert sl.represented() == 7

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(7)
        layout = make_layout(init=4, local=16, head_dim=6, period=512, orders=4)
        basis = build_basis(4, 512)
        keys, values = random_layer(rng, seq_len=200)
        full = HeadView(prefill(keys, values, layout, 0, basis), 0)

        prefix = 40
        streamed = HeadView(prefill(keys[:, :prefix], values[:, :prefix], layout, 0, basis), 0)
        for pos in range(prefix, 200):
            append_token(streamed, basis, keys[0, pos], values[0, pos])

        for a, b in zip(states(full), states(streamed)):
            denom = np.linalg.norm(a.coeffs) or 1.0
            assert np.linalg.norm(a.coeffs - b.coeffs) / denom < 1e-5
        assert full.middle_count == streamed.middle_count == 200 - 4 - 16
        for a, b in zip(kept_rows(full), kept_rows(streamed)):
            np.testing.assert_array_equal(a, b)
        fk, fv = local_block(full)
        sk, sv = local_block(streamed)
        np.testing.assert_array_equal(fk, sk)
        np.testing.assert_array_equal(fv, sv)

    def test_evictions_fold_k_and_v_bitwise_like_compress_batch(self):
        # an empty middle at prefill, so every folded row comes from an eviction;
        # K and V compress different dims; 40 orders are the most period 79 accepts
        rng = np.random.default_rng(13)
        layout = make_layout(init=3, local=5, head_dim=6, period=79, orders=40,
                             k_comp=(0, 2, 3), v_comp=(1, 4, 5))
        basis = build_basis(40, 79)
        keys, values = random_layer(rng, seq_len=50)
        layer = prefill(keys[:, :8], values[:, :8], layout, 0, basis)
        for pos in range(8, 50):
            append_token(HeadView(layer, 0), basis, keys[0, pos], values[0, pos])
        evicted = slice(3, 50 - 5)
        # K's and V's compressed dims share one state, K's columns first: its
        # oracle is compress_batch of the merged block
        merged = np.hstack([keys[0, evicted][:, [0, 2, 3]], values[0, evicted][:, [1, 4, 5]]])
        oracle = compress_batch(basis, merged, 3)
        np.testing.assert_array_equal(layer.states[0], oracle.coeffs)
        assert HeadView(layer, 0).middle_count == oracle.token_count

    def test_zero_vector_eviction_counts_only(self):
        layout = make_layout(init=0, local=4)
        basis = build_basis(4, 256)
        keys = np.zeros((1, 4, 6), dtype=np.float32)
        values = np.zeros_like(keys)
        layer = prefill(keys, values, layout, 0, basis)
        append_token(HeadView(layer, 0), basis, np.full(6, 2.0, np.float32),
                     np.full(6, 2.0, np.float32))
        assert np.all(layer.states == 0.0)
        assert HeadView(layer, 0).middle_count == 1

    def test_conservation_under_long_decode(self):
        rng = np.random.default_rng(8)
        layout = make_layout(init=2, local=4)
        basis = build_basis(4, 256)
        keys, values = random_layer(rng, seq_len=10)
        sl = HeadView(prefill(keys, values, layout, 0, basis), 0)
        for step in range(60):
            vec = rng.standard_normal(6).astype(np.float32)
            append_token(sl, basis, vec, vec)
            assert sl.represented() == 11 + step
            assert sl.middle_count == len(sl.partition.middle(sl.total_len))

    def test_kept_rows_survive_growth_with_bounded_slack(self):
        rng = np.random.default_rng(14)
        layout = make_layout(init=4, local=16, head_dim=6, period=2048, orders=4)
        basis = build_basis(4, 2048)
        keys, values = random_layer(rng, seq_len=1000)
        layer = prefill(keys[:, :300], values[:, :300], layout, 0, basis)
        sl = HeadView(layer, 0)
        # prefill reserves the growth of one append: 280 rows and an eighth
        assert sl.middle_count == 300 - 4 - 16 and layer.kept_k.shape[1] == 280 + 35
        assert layer.kept_v.shape[1] == layer.kept_k.shape[1] <= 1.125 * sl.middle_count + 8
        reserved = [layer.kept_k, layer.kept_v]
        append_token(sl, basis, keys[0, 300], values[0, 300])
        # the first eviction appends in place, without copying the kept rows
        assert layer.kept_k is reserved[0] and layer.kept_v is reserved[1]
        for pos in range(301, 1000):
            append_token(sl, basis, keys[0, pos], values[0, pos])
            for kept in (layer.kept_k, layer.kept_v):
                assert sl.middle_count <= kept.shape[1] <= 1.125 * sl.middle_count + 8
        middle = slice(4, 1000 - 16)
        kept_k, kept_v = kept_rows(sl)
        np.testing.assert_array_equal(kept_k, keys[0, middle][:, layout.dims[0][0].k_kept])
        np.testing.assert_array_equal(kept_v, values[0, middle][:, layout.dims[0][0].v_kept])

    def test_eviction_past_period_rejected(self):
        layout = make_layout(init=0, local=2, period=4, orders=2)
        basis = build_basis(2, 4)
        keys = np.zeros((1, 2, 6), dtype=np.float32)
        sl = HeadView(prefill(keys, keys, layout, 0, basis), 0)
        token = np.zeros(6, np.float32)
        for _ in range(4):
            append_token(sl, basis, token, token)
        with pytest.raises(ValueError):
            append_token(sl, basis, token, token)


def chunk_cuts(seq_len):
    """Ascending cut points that split ``seq_len`` positions into chunks of 1 or more."""
    return st.lists(st.integers(1, max(1, seq_len - 1)), unique=True).map(
        lambda cuts: [c for c in sorted(cuts) if c < seq_len])


class TestIngest:
    """``ingest`` of a chunk per head: any split equals one call, and every
    rejected call leaves the layer unchanged."""

    @staticmethod
    def assert_same_rows(one, split):
        """Two layers hold the same exact rows, the same kept rows and the same lengths."""
        np.testing.assert_array_equal(split.exact, one.exact)
        for a, b in zip(heads_of(one), heads_of(split)):
            for kept_a, kept_b in zip(kept_rows(a), kept_rows(b)):
                np.testing.assert_array_equal(kept_b, kept_a)
        assert split.total_len == one.total_len

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=prefill_geometries(), data=st.data())
    def test_any_split_gives_the_rows_of_one_call(self, case, data):
        # chunks evict runs of ring rows, some of them wrapping round the ring,
        # together with rows of the chunk itself
        layout, keys, values = case
        part = layout.partition
        basis = build_basis(part.orders, part.period)
        seq_len = keys.shape[1]
        cuts = data.draw(chunk_cuts(seq_len), label="cuts")
        whole = prefill(keys, values, layout, 0, basis)
        layer = prefill(keys[:, :0], values[:, :0], layout, 0, basis)
        for lo, hi in zip([0, *cuts], [*cuts, seq_len]):
            if hi > lo:
                ingest(layer, basis, keys[:, lo:hi], values[:, lo:hi])
        self.assert_same_rows(whole, layer)
        assert layer.total_len == [seq_len] * layout.kv_heads
        TestPrefillFold.assert_states_match(layout, keys, values, layer, basis)

    def test_a_chunk_evicts_a_wrapped_ring_run_and_its_own_rows(self):
        # init 2, local 4: after 9 tokens the ring holds positions 5-8 in rows
        # 5, 2, 3, 4, so a chunk of 6 evicts 5-8 from rows 5 and then 2-4,
        # wrapping round the ring, and its own first 2 tokens
        layout = make_layout(kv_heads=2, init=2, local=4, period=64, orders=8,
                             k_comp=(0, 3, 4), v_comp=(1,))
        basis = build_basis(8, 64)
        keys, values = random_layer(np.random.default_rng(18), kv_heads=2, seq_len=15)
        layer = prefill(keys[:, :9], values[:, :9], layout, 0, basis)
        ingest(layer, basis, keys[:, 9:], values[:, 9:])
        self.assert_same_rows(prefill(keys, values, layout, 0, basis), layer)
        TestPrefillFold.assert_states_match(layout, keys, values, layer, basis)

    @staticmethod
    def two_heads(seq_len=9):
        layout = make_layout(kv_heads=2, init=2, local=4, period=64, orders=8)
        keys, values = random_layer(np.random.default_rng(19), kv_heads=2, seq_len=seq_len)
        return prefill(keys, values, layout, 0, build_basis(8, 64))

    @staticmethod
    def assert_refused(layer, basis, keys, values, match=None):
        before = layer_arrays(layer)
        with pytest.raises(ValueError, match=match):
            ingest(layer, basis, keys, values)
        assert_layer_unchanged(layer, before)

    @staticmethod
    def chunk():
        """Six tokens for each of two heads."""
        return random_layer(np.random.default_rng(20), kv_heads=2, seq_len=6)

    def test_no_slices(self):
        # a layer of no heads, which a layout of no KV heads prefills
        layout = make_layout(kv_heads=0, init=2, local=4, period=64, orders=8)
        empty = np.zeros((0, 6, 6), dtype=np.float32)
        layer = prefill(empty, empty, layout, 0, build_basis(8, 64))
        self.assert_refused(layer, build_basis(8, 64), empty, empty, "at least one")

    def test_slices_of_different_lengths(self):
        # one head a token ahead of the other, as a decode appending head by head leaves it
        layer = self.two_heads(seq_len=9)
        append_token(HeadView(layer, 1), build_basis(8, 64), np.ones(6), np.ones(6))
        self.assert_refused(layer, build_basis(8, 64), *self.chunk(), "total_len")

    @pytest.mark.parametrize("shape", [
        (2, 0, 6),  # n = 0
        (3, 6, 6),  # a head too many
        (1, 6, 6),  # a head too few
        (2, 6, 5),  # head_dim too small
        (2, 6),  # no token axis
        (2, 6, 1, 6),  # an extra axis
    ], ids=["n=0", "heads+1", "heads-1", "head_dim-1", "2-d", "4-d"])
    def test_a_wrong_shape(self, shape):
        keys = np.ones(shape, dtype=np.float32)
        self.assert_refused(self.two_heads(), build_basis(8, 64), keys, keys, "shape")

    def test_keys_and_values_of_different_shapes(self):
        keys, values = self.chunk()
        self.assert_refused(self.two_heads(), build_basis(8, 64), keys, values[:, :5], "shape")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(which=st.sampled_from(["keys", "values"]), head=st.integers(0, 1),
           token=st.integers(0, 5), dim=st.integers(0, 5),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_nan_or_inf_anywhere_in_the_chunk(self, which, head, token, dim, bad):
        # a chunk of 6 past a prompt of 9 evicts ring rows and rows of its own
        keys, values = self.chunk()
        {"keys": keys, "values": values}[which][head, token, dim] = bad
        self.assert_refused(self.two_heads(), build_basis(8, 64), keys, values, "NaN or Inf")

    def test_a_chunk_past_one_period(self):
        # period 16, init 2, local 4: 9 tokens hold a middle of 3, and 14 more
        # would make it 17
        layout = make_layout(kv_heads=2, init=2, local=4, period=16, orders=4)
        basis = build_basis(4, 16)
        keys, values = random_layer(np.random.default_rng(22), kv_heads=2, seq_len=23)
        layer = prefill(keys[:, :9], values[:, :9], layout, 0, basis)
        self.assert_refused(layer, basis, keys[:, 9:], values[:, 9:], "period 16")
        ingest(layer, basis, keys[:, 9:22], values[:, 9:22])  # a middle of 16 fits
        assert [sl.middle_count for sl in heads_of(layer)] == [16, 16]


class TestShortPrompts:
    """Tiers follow absolute position, whatever the prompt length."""

    @pytest.mark.parametrize("prompt", [0, 1, 3, 4, 10])  # 0, 1, init-1, init, init+local+3
    def test_initial_positions_stay_exact_and_the_report_matches(self, prompt):
        rng = np.random.default_rng(prompt)
        layout = make_layout(kv_heads=2, head_dim=6, init=4, local=3, period=64, orders=4,
                             k_comp=(0, 1, 2), v_comp=(5,))
        basis = build_basis(4, 64)
        keys, values = random_layer(rng, kv_heads=2, seq_len=30)
        layer = prefill(keys[:, :prompt], values[:, :prompt], layout, 0, basis)
        for total in range(prompt, 31):
            if total > prompt:
                for head, sl in enumerate(heads_of(layer)):
                    append_token(sl, basis, keys[head, total - 1], values[head, total - 1])
            n_init = min(4, total)
            held = 0
            for head, sl in enumerate(heads_of(layer)):
                # positions below init_len sit in their own rows, bitwise
                exact_k, exact_v = exact_blocks(sl)
                np.testing.assert_array_equal(exact_k[:n_init], keys[head, :n_init])
                np.testing.assert_array_equal(exact_v[:n_init], values[head, :n_init])
                assert sl.middle_count == max(0, total - 4 - 3)
                held += (sl.total_len - sl.middle_count) * 2 * 6
                held += sum(kept.size for kept in kept_rows(sl))
            assert memory_report(layout, total)["exact_floats"] == held


class TestMemoryReport:
    @pytest.mark.parametrize("geometry", ["desk", "gqa", "unequal"])
    def test_a_layers_bytes_are_the_reports_arithmetic(self, geometry):
        # the bytes a layer's arrays hold are 4 * (exact_floats + kept slack +
        # kept padding) + 8 * (spectral_floats + state padding), after prefill
        # and again after a decode whose kept rows grow; the benchmark's desk
        # and gqa layouts compress as many dims in every head, and pad nothing
        if geometry == "desk":
            layout, keys, values, basis = TestPrefillFold.desk_layer()
        elif geometry == "gqa":
            layout, keys, values, basis = TestPrefillFold.stock_layer()
        else:
            # head 0 folds K {0, 1, 2} and V {0}, head 1 K {0} and V {0, 1, 2, 3}:
            # the states pad head 1's K by 2 columns and head 0's V by 3, and
            # the kept rows head 0's K by 2 dims and head 1's V by 3
            part = PartitionParams(init_len=4, local_len=8, period=256, orders=8)
            layout = one_layer(part, 6, [(0, 1, 2), (0,)], [(0,), (0, 1, 2, 3)])
            keys, values = random_layer(np.random.default_rng(25), kv_heads=2, seq_len=60)
            basis = build_basis(8, 256)
        kept_pad, state_pad = (5, 2 * 8 * 5) if geometry == "unequal" else (0, 0)
        layer = prefill(keys, values, layout, 0, basis)

        def assert_bytes_match():
            seq_len = layer.total_len[0]
            report = memory_report(layout, seq_len)
            middle = len(layout.partition.middle(seq_len))
            assert report["padding_floats"] == kept_pad * middle + state_pad
            slack = ((layer.kept_k.shape[1] - middle) * layout.kv_heads
                     * (layer.kept_k.shape[2] + layer.kept_v.shape[2]))
            assert layer_bytes(layer) == (
                4 * (report["exact_floats"] + slack + kept_pad * middle)
                + 8 * (report["spectral_floats"] + state_pad))

        assert_bytes_match()
        rng = np.random.default_rng(26)
        capacity = layer.kept_k.shape[1]
        while layer.kept_k.shape[1] == capacity:
            k, v = rng.standard_normal((2, layout.kv_heads, 1, layout.head_dim))
            ingest(layer, basis, k, v)
        assert_bytes_match()

    def test_all_kept_is_full_size(self):
        layout = make_layout(k_comp=(), v_comp=())
        report = memory_report(layout, seq_len=128)
        assert report["ratio_vs_full"] == 1.0
        assert report["compressed_fraction"] == 0.0
        assert report["spectral_floats"] == 0

    def test_inverted_pyramid_preset_fraction(self):
        # 32 layers at the published ratios; head_dim 20 makes every ratio an
        # exact dimension count, so the channel fraction equals the ratio mean
        schema = CompressionSchema.inverted_pyramid(32)
        part = PartitionParams(init_len=4, local_len=64, period=4096, orders=16)
        ties = np.zeros((32, 2, 20))
        layout = apply_schema(MseRanking(ties, ties), schema, partition=part)
        report = memory_report(layout, seq_len=4096)
        assert abs(report["compressed_fraction"] - 0.7656) < 1e-4

    def test_ratio_tends_to_uncompressed_share(self):
        layout = make_layout(head_dim=6, k_comp=(0, 1, 2), v_comp=(0, 1, 2))
        target = 1.0 - memory_report(layout, 4096)["compressed_fraction"]
        ratios = [memory_report(layout, n)["ratio_vs_full"] for n in (4096, 8192, 16384)]
        assert ratios[0] > ratios[1] > ratios[2] > target
        assert ratios[2] - target < 0.02

    def test_spectral_floats_independent_of_seq_len(self):
        layout = make_layout()
        a = memory_report(layout, 1024)["spectral_floats"]
        b = memory_report(layout, 65536)["spectral_floats"]
        assert a == b > 0


WRONG_BASES = pytest.mark.parametrize("basis", [
    FourierBasis(8, 128),  # the period doubled
    FourierBasis(4, 64),  # fewer orders
], ids=["period", "orders"])


class TestBasisCheck:
    """Every entry point rejects a basis whose geometry is not the partition's."""

    @WRONG_BASES
    def test_prefill(self, basis):
        layout = make_layout(init=4, local=8, period=64, orders=8)
        keys, values = random_layer(np.random.default_rng(15), seq_len=40)
        with pytest.raises(ValueError, match="basis geometry does not match the layout partition"):
            prefill(keys, values, layout, 0, basis)

    @WRONG_BASES
    def test_append_token(self, basis):
        layout = make_layout(init=4, local=8, period=64, orders=8)
        keys, values = random_layer(np.random.default_rng(16), seq_len=40)
        layer = prefill(keys, values, layout, 0, build_basis(8, 64))
        before = layer_arrays(layer)
        with pytest.raises(ValueError, match="basis geometry does not match the layout partition"):
            append_token(HeadView(layer, 0), basis, keys[0, 0], values[0, 0])
        assert_layer_unchanged(layer, before)

    @WRONG_BASES
    def test_ingest(self, basis):
        layout = make_layout(kv_heads=2, init=4, local=8, period=64, orders=8)
        keys, values = random_layer(np.random.default_rng(17), kv_heads=2, seq_len=40)
        layer = prefill(keys[:, :30], values[:, :30], layout, 0, build_basis(8, 64))
        before = layer_arrays(layer)
        with pytest.raises(ValueError, match="basis geometry does not match the layout partition"):
            ingest(layer, basis, keys[:, 30:], values[:, 30:])
        assert_layer_unchanged(layer, before)


class TestPrefillTrace:
    def test_geometry_mismatch_exit(self):
        trace = gen_synthetic("constant", layers=2, kv_heads=2, head_dim=4, seq_len=32)
        layout = make_layout(layers=1, kv_heads=2, head_dim=4)
        with pytest.raises(ValueError):
            prefill_trace(trace, layout, build_basis(4, 256))

    def test_whole_trace_prefill(self):
        trace = gen_synthetic("noise", layers=2, kv_heads=2, head_dim=4, seq_len=48, seed=1)
        layout = make_layout(layers=2, kv_heads=2, head_dim=4, k_comp=(0,), v_comp=(1,))
        cache = prefill_trace(trace, layout, build_basis(4, 256))
        assert cache.slice(1, 1).total_len == 48
        cache.append(0, 0, np.ones(4, np.float32), np.ones(4, np.float32))
        assert cache.slice(0, 0).total_len == 49

    def test_every_layer_of_a_desk_prefill_reads_one_build_of_its_rows(self):
        # 8 layers of 4 heads of 64 dims over the benchmark's desk middle, 956
        # positions: the first layer builds the run's 32 centred rows over its
        # 478 pairs, one chunk, and the other 7 read them. With the cache
        # cleared before every layer each builds them again, to the same states
        rng = np.random.default_rng(31)
        part = PartitionParams(init_len=4, local_len=64, period=4096, orders=16)
        mask = np.zeros((8, 2, 4, 64), dtype=bool)
        for heads in mask:
            for head in range(4):
                heads[0, head, rng.choice(64, 58, replace=False)] = True
                heads[1, head, rng.choice(64, 32, replace=False)] = True
        layout = CacheLayout(partition=part, compressed=mask)
        shape = (8, 4, 1024, 64)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        basis = build_basis(16, 4096)

        def cleared(*args):
            spectral._run_table.cache_clear()
            return prefill(*args)

        caches = []
        for patch, builds in ((contextlib.nullcontext(), 1),
                              (mock.patch("fourier_kv.cache.prefill", cleared), 8)):
            with forced(), patch, mock.patch.object(spectral, "_centred_rows",
                                                    wraps=spectral._centred_rows) as rows:
                caches.append(prefill_trace(trace, layout, basis))
            assert rows.call_count == builds
        for layer, rebuilt in zip(*(cache.layers for cache in caches)):
            assert layer.states.tobytes() == rebuilt.states.tobytes()

    def test_a_stock_prefill_reads_the_rows_calibration_built(self):
        # calibration over the stock middle (1020 positions, 98 moments) builds
        # its Chebyshev rows once, in the fold's two chunks of 255 pairs, for
        # the moment Gram forms and the split form both, and its forms, from
        # eight chunks of 64 orders' waves, which a second calibration reads;
        # a prefill of a prompt of the same length reads the rows and builds
        # the waves of the run, eight chunks more, which the next prefill
        # reads too
        part = PartitionParams(init_len=4, local_len=1024, period=32768, orders=512)
        basis = build_basis(512, 32768)
        config = TinyModelConfig(layers=1, heads=2, kv_heads=2, head_dim=64, seed=0)
        traces = [tiny_forward(config, np.random.default_rng(seed).integers(0, config.vocab, 2048))
                  for seed in (1, 2)]
        with forced(), \
                mock.patch.object(spectral, "_chebyshev_rows",
                                  wraps=spectral._chebyshev_rows) as rows, \
                mock.patch.object(spectral, "_moment_waves",
                                  wraps=spectral._moment_waves) as waves, \
                mock.patch.object(spectral, "_split_forms",
                                  wraps=spectral._split_forms) as forms:
            ranking = rank_dimensions(traces[0], part, basis)
            again = rank_dimensions(traces[0], part, basis)
            assert (rows.call_count, waves.call_count, forms.call_count) == (2, 8, 1)
            assert again.k_mse.tobytes() == ranking.k_mse.tobytes()
            assert again.v_mse.tobytes() == ranking.v_mse.tobytes()
            layout = apply_schema(ranking, CompressionSchema.inverted_pyramid(1), partition=part)
            first = prefill_trace(traces[0], layout, basis)
            assert (rows.call_count, waves.call_count) == (2, 16)
            prefill_trace(traces[1], layout, basis)
            assert (rows.call_count, waves.call_count) == (2, 16)
        with forced():
            rebuilt = prefill_trace(traces[0], layout, basis)
        assert first.layers[0].states.tobytes() == rebuilt.layers[0].states.tobytes()

    @pytest.mark.parametrize("orders, head_dim, chunks", [(32, 64, 2), (16, 256, 1)],
                             ids=["32-orders", "head-dim-256"])
    def test_calibration_and_prefill_build_each_row_chunk_once(self, orders, head_dim, chunks):
        # the desk middle, 956 positions at period 4096: calibration (the
        # Fourier Gram form) reads the centred rows in the fold's chunks of
        # pairs, two of 239 pairs at 32 orders and one of 478 at 16, and
        # builds each once; the prefill's paired fold over the trig tables
        # reads them and builds none
        part = PartitionParams(init_len=4, local_len=64, period=4096, orders=orders)
        basis = build_basis(orders, 4096)
        rng = np.random.default_rng(orders + head_dim)
        shape = (1, 2, 1024, head_dim)
        trace = KVTrace(keys=rng.standard_normal(shape).astype(np.float32),
                        values=rng.standard_normal(shape).astype(np.float32))
        half = len(part.middle(1024)) // 2
        assert -(-half // spectral._moment_chunks(orders, 956, 2 * orders, True)[0]) == chunks
        with forced(), mock.patch.object(spectral, "_build_rows",
                                         wraps=spectral._build_rows) as rows:
            ranking = rank_dimensions(trace, part, basis)
            assert rows.call_count == chunks
            layout = apply_schema(ranking, CompressionSchema.inverted_pyramid(1), partition=part)
            assert basis._pick(956, int(layout.compressed.sum()) // 2)[0] == "tables"
            first = prefill_trace(trace, layout, basis)
            assert rows.call_count == chunks
        with forced():
            rebuilt = prefill_trace(trace, layout, basis)
        assert first.layers[0].states.tobytes() == rebuilt.layers[0].states.tobytes()

"""Stateful oracle for the cache: every operation checked against a record of its tokens.

A ``RuleBasedStateMachine`` prefills one layer of two heads, appends decode
tokens, ingests chunks of tokens, attends and feeds bad tokens, in any order.
The record holds every K/V row the cache was given. After every rule, the
exact rows the cache holds, in position order, and its kept middle rows must
equal the record bitwise, and its spectral states must equal
:func:`compress_batch` of the record's middle. The storage adapter of
``harness`` is the only code that reads a layer's storage layout.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from fourier_kv.attention import (
    attend_compressed_fused,
    attend_compressed_materialized,
    attend_full,
)
from fourier_kv.cache import (
    CacheLayout,
    PartitionParams,
    append_token,
    ingest,
    memory_report,
    prefill,
)
from fourier_kv.spectral import build_basis, compress_batch
from harness import (
    TRANSFORMS,
    assert_layer_unchanged,
    exact_rows,
    forced,
    heads_of,
    kept_rows,
    layer_arrays,
    states,
)

HEAD_DIM = 4
KV_HEADS = 2


dim_sets = st.sets(st.integers(0, HEAD_DIM - 1)).map(sorted)

# each forces one transform, the moments only on calls of two or more
# columns, as prefill's fold makes
transforms = st.sampled_from(list(TRANSFORMS))


class CacheMachine(RuleBasedStateMachine):
    """One layer of ``KV_HEADS`` heads against the rows they were given."""

    @initialize(init=st.integers(0, 3), local=st.integers(1, 4), period=st.integers(1, 8),
                k_sets=st.lists(dim_sets, min_size=KV_HEADS, max_size=KV_HEADS),
                v_sets=st.lists(dim_sets, min_size=KV_HEADS, max_size=KV_HEADS),
                seed=st.integers(0, 2**32 - 1), data=st.data())
    def build(self, init, local, period, k_sets, v_sets, seed, data):
        # up to the largest orders the period accepts, which is drawn often
        largest = (period + 1) // 2
        orders = data.draw(st.one_of(st.integers(1, largest), st.just(largest)), label="orders")
        self.part = PartitionParams(init_len=init, local_len=local, period=period,
                                    orders=orders)
        # the record's own copy of the choice: [K/V, head, dim], True where a dim folds
        self.compressed = np.zeros((2, KV_HEADS, HEAD_DIM), dtype=bool)
        for head, (k, v) in enumerate(zip(k_sets, v_sets)):
            self.compressed[0, head, k] = True
            self.compressed[1, head, v] = True
        self.layout = CacheLayout(partition=self.part, compressed=self.compressed[None])
        self.basis = build_basis(orders, period)
        self.rng = np.random.default_rng(seed)
        self.new_prompt(data, self.part.period)

    def tokens(self, length: int) -> np.ndarray:
        return self.rng.standard_normal((KV_HEADS, length, HEAD_DIM)).astype(np.float32)

    @rule(data=st.data(), transform=transforms)
    def prefill(self, data, transform):
        """A new prompt of 0 to past ``init + local + period`` tokens replaces the cache."""
        with forced(transform):
            self.new_prompt(data, self.part.period + 1)

    def new_prompt(self, data, longest_middle: int) -> None:
        part = self.part
        length = data.draw(st.integers(0, part.init_len + part.local_len + longest_middle),
                           label="prompt")
        keys, values = self.tokens(length), self.tokens(length)
        if length - part.init_len - part.local_len > part.period:
            # a middle longer than one period would alias: rejected, nothing replaced
            with pytest.raises(ValueError):
                prefill(keys, values, self.layout, 0, self.basis)
            return
        self.layer = prefill(keys, values, self.layout, 0, self.basis)
        self.slices = heads_of(self.layer)
        self.keys, self.values = keys, values

    @rule()
    def append(self):
        """One decode token per head; past a middle one period long it is refused."""
        k_vec, v_vec = self.tokens(1), self.tokens(1)
        # a full ring evicts its oldest row, which a middle one period long cannot take
        full = [len(sl.partition.middle(sl.total_len)) == self.part.period
                and np.sum(exact_rows(sl)[0] >= sl.partition.middle(sl.total_len).stop) == self.part.local_len
                for sl in self.slices]
        for head, sl in enumerate(self.slices):
            if full[head]:
                before = layer_arrays(sl.layer)
                with pytest.raises(ValueError, match="period"):
                    append_token(sl, self.basis, k_vec[head, 0], v_vec[head, 0])
                assert_layer_unchanged(sl.layer, before)
            else:
                append_token(sl, self.basis, k_vec[head, 0], v_vec[head, 0])
        if not any(full):
            self.keys = np.concatenate([self.keys, k_vec], axis=1)
            self.values = np.concatenate([self.values, v_vec], axis=1)
        else:
            assert all(full)  # the heads share one geometry and one length

    @rule(data=st.data(), transform=transforms)
    def ingest_chunk(self, data, transform):
        """A chunk of 1 to past ``init + local + period`` tokens per head in one call;
        one that would take the middle past one period is refused."""
        part = self.part
        # chunks no longer than the ring too, which evict runs of ring rows alone
        n = data.draw(st.integers(1, part.init_len + part.local_len + part.period + 1)
                      | st.integers(1, part.local_len), label="chunk")
        keys, values = self.tokens(n), self.tokens(n)
        if self.keys.shape[1] + n - part.init_len - part.local_len > part.period:
            before = layer_arrays(self.layer)
            with pytest.raises(ValueError, match="period"):
                ingest(self.layer, self.basis, keys, values)
            assert_layer_unchanged(self.layer, before)
            return
        with forced(transform):
            ingest(self.layer, self.basis, keys, values)
        self.keys = np.concatenate([self.keys, keys], axis=1)
        self.values = np.concatenate([self.values, values], axis=1)

    @rule(kind=st.sampled_from(["nan_k", "inf_v", "-inf_k", "short", "long", "matrix"]),
          head=st.integers(0, KV_HEADS - 1))
    def bad_token(self, kind, head):
        """A NaN, Inf or wrong-shaped token raises ``ValueError`` and changes nothing."""
        k_vec, v_vec = self.tokens(1)[head, 0], self.tokens(1)[head, 0]
        if kind == "nan_k":
            k_vec[self.rng.integers(HEAD_DIM)] = np.nan
        elif kind == "inf_v":
            v_vec[self.rng.integers(HEAD_DIM)] = np.inf
        elif kind == "-inf_k":
            k_vec[self.rng.integers(HEAD_DIM)] = -np.inf
        elif kind == "short":
            k_vec = k_vec[:-1]
        elif kind == "long":
            v_vec = np.append(v_vec, 1.0)
        else:
            k_vec, v_vec = np.tile(k_vec, (2, 1)), np.tile(v_vec, (2, 1))
        sl = self.slices[head]
        before = layer_arrays(sl.layer)
        with pytest.raises(ValueError):
            append_token(sl, self.basis, k_vec, v_vec)
        assert_layer_unchanged(sl.layer, before)

    @rule(scale=st.sampled_from([0.1, 1.0, 8.0]), head=st.integers(0, KV_HEADS - 1),
          transform=transforms)
    def attend(self, scale, head, transform):
        """The fused path equals the materialized one over the same slice, and with
        nothing compressed the dense reference over the record."""
        sl = self.slices[head]
        q = scale * self.rng.standard_normal(HEAD_DIM)
        if sl.total_len == 0:
            with pytest.raises(ValueError):
                attend_compressed_fused(q, sl, self.basis)
            return
        with forced(transform):
            out = attend_compressed_fused(q, sl, self.basis).output
        ref = attend_compressed_materialized(q, sl, self.basis, return_weights=True)
        assert ref.weights.shape == (sl.total_len,)
        assert np.max(np.abs(out - ref.output)) <= 1e-9 * max(1.0, np.max(np.abs(ref.output)))
        if not self.compressed[:, head].any():
            # the same float64 products summed in another order: rounding only
            dense = attend_full(q, self.keys[head], self.values[head]).output
            assert np.max(np.abs(out - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))

    @invariant()
    def tiers_equal_the_record(self):
        total = self.keys.shape[1]
        held = 0  # exact and kept floats in use, without capacity slack
        for head, sl in enumerate(self.slices):
            k_comp, v_comp = self.compressed[:, head]
            assert sl.total_len == total and sl.represented() == total
            middle = sl.partition.middle(sl.total_len)
            positions, k_rows, v_rows = exact_rows(sl)
            # the exact tiers and the middle cover every position once
            covered = np.sort(np.r_[positions, np.arange(middle.start, middle.stop)])
            np.testing.assert_array_equal(covered, np.arange(total))
            assert np.sum(positions < middle.start) <= self.part.init_len
            assert np.sum(positions >= middle.stop) <= self.part.local_len
            np.testing.assert_array_equal(k_rows, self.keys[head, positions])
            np.testing.assert_array_equal(v_rows, self.values[head, positions])
            kept_k, kept_v = kept_rows(sl)
            np.testing.assert_array_equal(kept_k, self.keys[head, middle][:, ~k_comp])
            np.testing.assert_array_equal(kept_v, self.values[head, middle][:, ~v_comp])
            held += (sl.total_len - sl.middle_count) * 2 * HEAD_DIM
            held += kept_k.size + kept_v.size
            for state, block, comp in zip(states(sl), (self.keys, self.values),
                                          (k_comp, v_comp)):
                rows = block[head, middle][:, comp]
                oracle = compress_batch(self.basis, rows, middle.start)
                scale = np.maximum(1.0, np.abs(rows.astype(np.float64)).sum(axis=0))
                assert np.all(np.abs(state.coeffs - oracle.coeffs) <= 1e-12 * scale)
                assert (state.token_count, state.first_pos, state.last_pos) == (
                    oracle.token_count, oracle.first_pos, oracle.last_pos)

        assert memory_report(self.layout, total)["exact_floats"] == held


# no shrink phase: each shrink step replays a whole run with its folds and
# attention, so a broken cache took minutes to report; unshrunk, it fails in seconds
CacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None, derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
TestCacheOracle = CacheMachine.TestCase


@st.composite
def layer_masks(draw):
    """A ``(2, heads, HEAD_DIM)`` mask for 1 to 3 heads whose every K and V row
    compresses all dims, none or any subset, so heads of one layer compress
    unequal counts, as a hand-written manifest allows."""
    heads = draw(st.integers(1, 3))
    row = st.one_of(st.just([True] * HEAD_DIM), st.just([False] * HEAD_DIM),
                    st.lists(st.booleans(), min_size=HEAD_DIM, max_size=HEAD_DIM))
    return np.array([[draw(row) for _ in range(heads)] for _ in range(2)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mask=layer_masks(), prompt=st.integers(0, 30), steps=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_every_mask_holds_the_tokens_fed_and_attends_as_its_oracle(mask, prompt, steps, seed):
    """Whatever each head compresses, its rows read back in index order are the
    tokens fed, bitwise, and fused attention equals materialized within 1e-9."""
    part = PartitionParams(init_len=2, local_len=3, period=64, orders=4)
    layout = CacheLayout(partition=part, compressed=mask[None])
    basis = build_basis(part.orders, part.period)
    rng = np.random.default_rng(seed)
    heads = mask.shape[1]
    keys = rng.standard_normal((heads, prompt + steps, HEAD_DIM)).astype(np.float32)
    values = rng.standard_normal((heads, prompt + steps, HEAD_DIM)).astype(np.float32)
    slices = heads_of(prefill(keys[:, :prompt], values[:, :prompt], layout, 0, basis))
    for pos in range(prompt, prompt + steps):
        for head, sl in enumerate(slices):
            append_token(sl, basis, keys[head, pos], values[head, pos])
    for head, sl in enumerate(slices):
        positions, k_rows, v_rows = exact_rows(sl)
        np.testing.assert_array_equal(k_rows, keys[head, positions])
        np.testing.assert_array_equal(v_rows, values[head, positions])
        middle = sl.partition.middle(sl.total_len)
        kept_k, kept_v = kept_rows(sl)
        np.testing.assert_array_equal(kept_k, keys[head, middle][:, ~mask[0, head]])
        np.testing.assert_array_equal(kept_v, values[head, middle][:, ~mask[1, head]])
        if sl.total_len:
            q = rng.standard_normal(HEAD_DIM)
            out = attend_compressed_fused(q, sl, basis).output
            ref = attend_compressed_materialized(q, sl, basis).output
            assert np.max(np.abs(out - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

"""The library surface that the benchmark under ``perfbench/`` drives and traces.

``perfbench/bench.py`` imports the names below, and ``perfbench/tracer.py``
rebinds functions by name in the module that calls them, for the length of
a traced run. A refactor that renames one of them, or stops calling one
through its module-level name, would leave the benchmark running but drop a
row of its trace to zero without an error, so this file names each of them.
"""

import importlib
from unittest import mock

import numpy as np
import pytest

from fourier_kv import attention, cache
from fourier_kv.attention import attend_compressed_materialized
from fourier_kv.cache import CacheLayout, PartitionParams, prefill_trace
from fourier_kv.spectral import build_basis
from fourier_kv.traceio import gen_synthetic

# names perfbench/bench.py and perfbench/workloads.py import
IMPORTED = (
    ("fourier_kv.attention", "attend_compressed_fused"),
    ("fourier_kv.attention", "attend_compressed_materialized"),
    ("fourier_kv.attention", "attend_full"),
    ("fourier_kv.cache", "PartitionParams"),
    ("fourier_kv.cache", "memory_report"),
    ("fourier_kv.cache", "prefill_trace"),
    ("fourier_kv.dimselect", "CompressionSchema"),
    ("fourier_kv.dimselect", "build_selection_report"),
    ("fourier_kv.spectral", "build_basis"),
    ("fourier_kv.traceio", "KVTrace"),
    ("fourier_kv.traceio", "TinyModelConfig"),
    ("fourier_kv.traceio", "read_trace"),
    ("fourier_kv.traceio", "tiny_forward"),
    ("fourier_kv.traceio", "write_trace"),
)

# the functions perfbench/tracer.py's REBINDS rebinds, less its stale
# fourier_kv.cache.compress_batch: the cache folds through spectral._fold_into
REBOUND = (
    ("fourier_kv.dimselect", "rank_dimensions"),
    ("fourier_kv.dimselect", "apply_schema"),
    ("fourier_kv.dimselect", "temporal_std"),
    ("fourier_kv.cache", "prefill"),
    ("fourier_kv.cache", "append_token"),
    ("fourier_kv.cache", "fold_token"),
    ("fourier_kv.attention", "reconstruct"),
)

# the methods perfbench/tracer.py's CLASS_PATCHES replaces in the class itself
PATCHED = (
    ("fourier_kv.cache", "CompressedCache", "append"),
    ("fourier_kv.spectral", "FourierBasis", "column"),
    ("fourier_kv.spectral", "FourierBasis", "columns"),
)


@pytest.mark.parametrize("module, name", IMPORTED + REBOUND,
                         ids=[f"{m}.{n}" for m, n in IMPORTED + REBOUND])
def test_a_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, cls, name", PATCHED, ids=[f"{c}.{n}" for _, c, n in PATCHED])
def test_a_patched_method_is_the_classs_own(module, cls, name):
    # the tracer reads the class's __dict__, so an inherited method reads as absent
    assert callable(vars(getattr(importlib.import_module(module), cls)).get(name))


def small_cache():
    """A 2-layer, 2-head cache whose rings are full, so the next append evicts."""
    part = PartitionParams(init_len=2, local_len=4, period=64, orders=4)
    mask = np.zeros((2, 2, 2, 4), dtype=bool)
    mask[:, :, :, :2] = True
    layout = CacheLayout(partition=part, compressed=mask)
    trace = gen_synthetic("noise", layers=2, kv_heads=2, head_dim=4, seq_len=20, seed=1)
    basis = build_basis(4, 64)
    return trace, layout, basis


def test_prefill_trace_calls_prefill_by_name_with_the_layer_fourth():
    # the tracer reads the layer of a cache.prefill span from argument 3
    trace, layout, basis = small_cache()
    with mock.patch.object(cache, "prefill", wraps=cache.prefill) as prefill:
        prefill_trace(trace, layout, basis)
    assert [call.args[3] for call in prefill.call_args_list] == [0, 1]


def test_an_evicting_append_calls_append_token_and_fold_token_by_name():
    trace, layout, basis = small_cache()
    compressed = prefill_trace(trace, layout, basis)
    before = compressed.slice(1, 1).middle_count
    with mock.patch.object(cache, "append_token", wraps=cache.append_token) as append, \
            mock.patch.object(cache, "fold_token", wraps=cache.fold_token) as fold:
        compressed.append(1, 1, np.ones(4, np.float32), np.ones(4, np.float32))
    assert append.call_count == 1 and fold.call_count == 1
    # what the benchmark reads of a head after its append
    view = compressed.slice(1, 1)
    assert view.middle_count == before + 1 and view.represented() == 21


def test_the_materialized_path_calls_reconstruct_by_name():
    trace, layout, basis = small_cache()
    compressed = prefill_trace(trace, layout, basis)
    with mock.patch.object(attention, "reconstruct", wraps=attention.reconstruct) as rebuild:
        attend_compressed_materialized(np.ones(4), compressed.slice(0, 1), basis)
    assert rebuild.call_count == 2  # the K and the V columns

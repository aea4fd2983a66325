"""Shared test harness: forcing the fold's transforms, and reading a layer's storage.

:func:`forced` is the one way a test patches a constant of ``spectral``, the
cost rule's ratios among them, and :data:`TRANSFORMS` names the ratios that
force each transform. The storage adapter below it is the only test code
that knows how a :class:`~fourier_kv.cache.LayerCache` lays out its tiers.
"""

import contextlib
from unittest import mock

import numpy as np

from fourier_kv import spectral
from fourier_kv.cache import HeadView
from fourier_kv.spectral import SpectralState

# the trig tables serve spans whose cost R * span is at most the table ratio
# times L log L of the FFT they would run otherwise; of those, the chirp-z
# transform serves FFT lengths n <= period / chirp ratio and the
# length-period FFT the rest. Ratios 0 and 2**62 force one transform; a
# moment ratio of 0 prices the Chebyshev moments at no work, and one of 2**62
# never lets them run. The moments run only on calls of two or more columns,
# so ONE_COLUMN names the transforms a one-column call can be forced to.
TRANSFORMS = {
    "chirp-z": {"_TABLE_COST_RATIO": 0, "_CHIRP_LENGTH_RATIO": 0, "_MOMENT_COST_RATIO": 2**62},
    "dispatch": {},
    "length-period": {"_TABLE_COST_RATIO": 0, "_CHIRP_LENGTH_RATIO": 2**62,
                      "_MOMENT_COST_RATIO": 2**62},
    "tables": {"_TABLE_COST_RATIO": 2**62, "_MOMENT_COST_RATIO": 2**62},
    "moments": {"_MOMENT_COST_RATIO": 0},
}
ONE_COLUMN = ("chirp-z", "dispatch", "length-period", "tables")


@contextlib.contextmanager
def forced(transform=None, **constants):
    """Patch ``spectral`` with ``TRANSFORMS[transform]`` and then ``constants``.

    ``spectral._run_plan`` keeps each run's plan as the cost rule picked it
    on its first call, so it is cleared on entry and on exit: no plan picked
    outside the block is read inside it, or one picked inside read after it.
    """
    patches = {**(TRANSFORMS[transform] if transform else {}), **constants}
    spectral._run_plan.cache_clear()
    try:
        with mock.patch.multiple(spectral, **patches) if patches else contextlib.nullcontext():
            yield
    finally:
        spectral._run_plan.cache_clear()


# -- storage adapter: the one place that knows how a layer stores its tiers ---

def heads_of(layer) -> list:
    """A view of each head of the layer, as attention and ``append_token`` take it."""
    return [HeadView(layer, head) for head in range(len(layer.total_len))]


def exact_blocks(sl):
    """A head's exact K and V blocks: its rows of the layer's exact array."""
    return sl.layer.exact[0, sl.head], sl.layer.exact[1, sl.head]


def exact_rows(sl):
    """Positions held exactly, ascending, and their K and V rows, dims in index order.

    Position ``t`` sits in row ``t`` below ``init_len`` and in ring row
    ``init_len + (t - init_len) % local_len`` after it, and the rows in use
    are a prefix of the exact block, each row as its token arrived.
    """
    part, middle = sl.partition, sl.partition.middle(sl.total_len)
    positions = np.concatenate([np.arange(middle.start), np.arange(middle.stop, sl.total_len)])
    rows = np.where(positions < part.init_len, positions,
                    part.init_len + (positions - part.init_len) % part.local_len)
    np.testing.assert_array_equal(np.sort(rows), np.arange(sl.total_len - sl.middle_count))
    exact_k, exact_v = exact_blocks(sl)
    return positions, exact_k[rows], exact_v[rows]


def local_block(sl):
    """Local K and V rows, ascending by position: the exact rows past the middle."""
    positions, exact_k, exact_v = exact_rows(sl)
    local = positions >= sl.partition.middle(sl.total_len).stop
    return exact_k[local], exact_v[local]


def kept_rows(sl):
    """A head's kept K and V middle rows in use, as wide as its kept dims."""
    layer, head = sl
    dims, rows = layer.dims[head], sl.middle_count
    return (layer.kept_k[head, :rows, : dims.k_kept.size],
            layer.kept_v[head, :rows, : dims.v_kept.size])


def states(sl):
    """A head's K and V states: views of its columns of the layer's states,
    with the counters its middle positions give."""
    layer, head = sl
    dims, middle = layer.dims[head], sl.partition.middle(sl.total_len)
    bounds = (middle.start, middle.stop - 1) if middle else (None, None)
    return [SpectralState(layer.states[head, :, cols], len(middle), *bounds)
            for cols in (slice(0, dims.k_compressed.size),
                         slice(layer.k_cols, layer.k_cols + dims.v_compressed.size))]


def layer_bytes(layer):
    """The bytes of the arrays a layer holds."""
    return layer.exact.nbytes + layer.kept_k.nbytes + layer.kept_v.nbytes + layer.states.nbytes


def layer_arrays(layer) -> dict:
    """Every array and length a layer holds, copied; the kept rows with their
    capacity, so that a growth shows too."""
    return {
        "exact": layer.exact.copy(), "kept_k": layer.kept_k.copy(),
        "kept_v": layer.kept_v.copy(), "states": layer.states.copy(),
        "total_len": list(layer.total_len),
    }

# -----------------------------------------------------------------------------


def assert_layer_unchanged(layer, before: dict) -> None:
    """The layer holds what :func:`layer_arrays` copied into ``before``."""
    after = layer_arrays(layer)
    assert after.keys() == before.keys()
    for name in ("exact", "kept_k", "kept_v", "states"):
        np.testing.assert_array_equal(after[name], before[name], err_msg=name)
    assert after["total_len"] == before["total_len"]

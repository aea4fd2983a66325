"""Partitioned KV cache with spectrally compressed middle region.

Per KV head, the cache splits a sequence three ways by absolute position, in
:meth:`PartitionParams.middle` alone: the first ``init_len`` positions and
the latest ``local_len`` past them are stored exactly, each row as its
token arrived; everything between keeps its selected dimensions verbatim
and folds the rest into fixed-size spectral states. Which dimensions fold
is one boolean mask per cache, ``CacheLayout.compressed``, of shape
``(layers, 2, kv_heads, head_dim)``, read as each head's
:class:`HeadDims` wherever a row splits into its compressed and kept dims.
A :class:`LayerCache` holds every head of a layer in four arrays and one
length per head, from which :meth:`PartitionParams.middle` gives the rest;
a :class:`HeadView` names one head of it.

Tokens enter a cache through one routine: any number of tokens per head
into a whole layer (:func:`ingest`), or one token into one head
(:func:`append_token`). The positions the middle region grows by, one run,
split into kept rows and a fold at their absolute positions, so the
spectral storage stays O(1) in sequence length; the rest take exact rows.
:func:`prefill` is an ingest of the whole prompt into an empty layer, so its
middle folds in one batch over every head, and a one-token eviction folds
as one rank-1 update. Any split of a sequence into chunks stores the rows
one call stores. Non-finite K/V rows, and a basis whose geometry is not the
partition's, are rejected before anything is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fourier_kv.spectral import FourierBasis, SpectralState, _fold_into, fold_token

__all__ = [
    "CacheLayout",
    "CompressedCache",
    "HeadDims",
    "HeadView",
    "LayerCache",
    "PartitionParams",
    "append_token",
    "check_basis",
    "ingest",
    "memory_report",
    "prefill",
    "prefill_trace",
]


@dataclass(frozen=True)
class PartitionParams:
    """Sequence partition geometry shared by every head.

    ``period`` is the Fourier window; it must cover the longest sequence the
    cache will ever represent, since spectral phases wrap past it. ``orders``
    and ``period`` must make a :class:`FourierBasis`: ``orders`` is at most
    ``(period + 1) // 2``, so every order is a spectral bin of its own (``R =
    orders``). Every field is an integer, a numpy integer too but not a
    bool; anything else raises ``ValueError``.
    :meth:`middle` is the one place a sequence is split into tiers.
    """

    init_len: int
    local_len: int
    period: int
    orders: int

    def __post_init__(self):
        for name, value in (("init_len", self.init_len), ("local_len", self.local_len)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.init_len < 0:
            raise ValueError(f"init_len must be >= 0, got {self.init_len}")
        if self.local_len < 1:
            raise ValueError(f"local_len must be >= 1, got {self.local_len}")
        FourierBasis(self.orders, self.period)  # raises on orders or a period it rejects

    def middle(self, seq_len: int) -> range:
        """Positions of a ``seq_len``-token sequence held in the middle region.

        Positions below ``init_len`` are initial and the last ``local_len``
        past them local; the middle is the run between, from
        ``min(init_len, seq_len)``, empty until ``seq_len > init_len + local_len``.
        """
        # conditionals, not min and max: every ingest and attention call splits here
        start = self.init_len if seq_len > self.init_len else seq_len
        stop = seq_len - self.local_len
        return range(start, stop if stop > start else start)


def check_basis(basis: FourierBasis, part: PartitionParams) -> None:
    """Raise ``ValueError`` unless ``basis`` has the orders and period of ``part``."""
    if basis.orders != part.orders or basis.period != part.period:
        raise ValueError("basis geometry does not match the layout partition")


@dataclass(frozen=True)
class HeadDims:
    """Sorted compressed/kept dimension indices of one head's K and V.

    Derived from a :class:`CacheLayout` mask, so each pair partitions
    ``0..head_dim-1``.
    """

    k_compressed: np.ndarray
    k_kept: np.ndarray
    v_compressed: np.ndarray
    v_kept: np.ndarray


@dataclass(frozen=True, eq=False)
class CacheLayout:
    """Partition parameters and the dimensions each (layer, K/V, head) compresses.

    ``compressed`` is one read-only boolean array of shape ``(layers, 2,
    kv_heads, head_dim)``, K at index 0 of axis 1 and V at 1: ``True`` folds
    a dimension into spectral states and ``False`` keeps it verbatim, so a
    head's compressed and kept sets partition ``0..head_dim-1`` by
    construction. The layout holds a read-only copy of the array it is given.
    ``dims[layer][head]`` is the same choice as a :class:`HeadDims` of sorted
    index arrays, derived once here: the one record of a head's dims that a
    :class:`LayerCache` and attention read, to split a row where they need
    its compressed and kept dims apart.
    """

    partition: PartitionParams
    compressed: np.ndarray

    def __post_init__(self):
        mask = np.array(self.compressed)
        if mask.dtype != bool or mask.ndim != 4 or mask.shape[1] != 2:
            raise ValueError(
                "compressed must be a boolean (layers, 2, kv_heads, head_dim) array, "
                f"got {mask.dtype} {mask.shape}"
            )
        mask.setflags(write=False)
        object.__setattr__(self, "compressed", mask)
        # per row, the compressed dims ascending and then the kept ones ascending
        order = np.argsort(~mask, axis=-1, kind="stable")
        order.setflags(write=False)
        counts = mask.sum(axis=-1)
        # per layer, the K and V state columns and kept widths its heads pad to
        most = counts.max(axis=2, initial=0).tolist()
        kept = (mask.shape[3] - counts.min(axis=2, initial=mask.shape[3])).tolist()
        object.__setattr__(self, "_widest", [(*m, *k) for m, k in zip(most, kept)])
        dims = [
            [
                HeadDims(
                    k_compressed=order[layer, 0, head, :k_count],
                    k_kept=order[layer, 0, head, k_count:],
                    v_compressed=order[layer, 1, head, :v_count],
                    v_kept=order[layer, 1, head, v_count:],
                )
                for head, (k_count, v_count) in enumerate(zip(*layer_counts))
            ]
            for layer, layer_counts in enumerate(counts.tolist())
        ]
        object.__setattr__(self, "dims", dims)

    @property
    def layers(self) -> int:
        return self.compressed.shape[0]

    @property
    def kv_heads(self) -> int:
        return self.compressed.shape[2]

    @property
    def head_dim(self) -> int:
        return self.compressed.shape[3]


class LayerCache:
    """Compressed cache storage for every KV head of one layer.

    - ``exact``, ``(2, heads, init_len + local_len, head_dim)`` float32, K
      first, each row as its token arrived, dims in index order: position
      ``t`` sits in row ``t`` if ``t < init_len``, and
      otherwise in ring row ``init_len + (t - init_len) % local_len``, which
      it takes over from the position it evicts, so with ``M`` the length
      of ``middle(total_len[h])`` the rows in use are the prefix
      ``exact[:, h, :total_len[h] - M]``.
    - ``kept_k`` and ``kept_v``, ``(heads, capacity, width)`` float32: row
      ``i`` holds the kept dims of middle position ``init_len + i``,
      ascending (``dims[h].k_kept``, ``dims[h].v_kept``), for ``i < M``.
      One capacity serves the layer, so a growth copies every head.
    - ``states``, ``(heads, 2*orders, k_cols + v_cols)`` float64: a head's
      compressed K dims fold into columns ``0..`` and its V dims into
      columns ``k_cols..``.
    - ``total_len[h]``: the tokens head ``h`` has taken. Its middle, the
      positions it has folded and its kept rows, is ``middle(total_len[h])``.

    Heads that compress unequal counts pad the states and the kept rows to
    the layer's widest (``memory_report``'s ``padding_floats``). Only
    :func:`ingest` and :func:`append_token` write a layer. Single-writer.
    """

    __slots__ = ("partition", "dims", "k_cols", "exact", "kept_k", "kept_v", "states",
                 "total_len")

    def __init__(self, layout: CacheLayout, layer: int):
        """An empty layer: no tokens, no kept rows and zero states."""
        self.partition = part = layout.partition
        self.dims = layout.dims[layer]
        self.k_cols, v_cols, k_width, v_width = layout._widest[layer]
        heads, head_dim = layout.kv_heads, layout.head_dim
        self.exact = np.empty((2, heads, part.init_len + part.local_len, head_dim),
                              dtype=np.float32)
        self.states = np.zeros((heads, 2 * part.orders, self.k_cols + v_cols))
        self.kept_k = np.empty((heads, 0, k_width), dtype=np.float32)
        self.kept_v = np.empty((heads, 0, v_width), dtype=np.float32)
        self.total_len = [0] * heads


class HeadView(NamedTuple):
    """One KV head of a :class:`LayerCache`: the layer and the head's index, no arrays."""

    layer: LayerCache
    head: int

    @property
    def partition(self) -> PartitionParams:
        return self.layer.partition

    @property
    def total_len(self) -> int:
        return self.layer.total_len[self.head]

    @property
    def middle_count(self) -> int:
        """Middle positions the head has folded, also its kept rows."""
        return len(self.layer.partition.middle(self.layer.total_len[self.head]))

    def represented(self) -> int:
        """Positions the head represents, exact rows and middle alike: its ``total_len``."""
        return self.total_len


def _ring_row(part: PartitionParams, pos: int) -> int:
    """Exact-block row of a position at or past ``init_len``: its ring row."""
    return part.init_len + (pos - part.init_len) % part.local_len


def _ring_rows(part: PartitionParams, start: int, stop: int) -> tuple:
    """Ring rows of the positions ``start..stop-1``, at most ``local_len`` of them, as slices.

    They take consecutive rows from ``start``'s up to the end of the ring,
    and those past it wrap round to its start.
    """
    if stop <= start:
        return ()
    first = _ring_row(part, start)
    wrapped = first + stop - start - part.init_len - part.local_len
    if wrapped <= 0:
        return (slice(first, first + stop - start),)
    return (slice(first, part.init_len + part.local_len),
            slice(part.init_len, part.init_len + wrapped))


def prefill(keys, values, layout: CacheLayout, layer: int, basis: FourierBasis) -> LayerCache:
    """Build the compressed storage of one layer from its full K/V blocks.

    ``keys`` and ``values`` are ``(kv_heads, seq_len, head_dim)`` and must be
    finite. The layer starts empty and takes the whole prompt in one
    :func:`ingest`, so its middle region folds in one batch fold over every
    head's K and V. A sequence no longer than ``init_len + local_len``
    simply has an empty middle, and its exact rows a free tail for the
    tokens to come. The layer copies what it keeps: later changes to
    ``keys``/``values`` do not reach it.
    """
    keys = np.asarray(keys, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    part = layout.partition
    if not 0 <= layer < layout.layers:
        raise ValueError(f"layer {layer} out of range [0, {layout.layers})")
    expected = (layout.kv_heads, keys.shape[1], layout.head_dim)
    if keys.shape != expected or values.shape != expected:
        raise ValueError(
            f"layer block shape {keys.shape}/{values.shape} does not match layout {expected}"
        )
    check_basis(basis, part)
    lay = LayerCache(layout, layer)
    # ingest writes the rows the prompt fills, after its fold; only the rows it
    # leaves free are cleared here, since a block cleared before the fold has
    # left the cache by the time its rows are written
    lay.exact[:, :, keys.shape[1] - len(part.middle(keys.shape[1])) :] = 0
    if layout.kv_heads and keys.shape[1]:
        ingest(lay, basis, keys, values)
    return lay


def append_token(slice_: HeadView, basis: FourierBasis, k_vec, v_vec) -> HeadView:
    """Ingest one decoded token, two ``(head_dim,)`` vectors, into one head of a layer.

    The rule of :func:`ingest`, for one token of one head. Mutates the layer
    and returns the view; a rejected token (wrong shape, NaN or Inf, or a
    middle region already one period long) or a basis of another geometry
    leaves it unchanged.
    """
    _place(slice_.layer, range(slice_.head, slice_.head + 1), basis,
           np.asarray(k_vec, dtype=np.float32)[None, None],
           np.asarray(v_vec, dtype=np.float32)[None, None])
    return slice_


def ingest(layer: LayerCache, basis: FourierBasis, keys, values) -> None:
    """Place ``n >= 1`` tokens per head into every head of a layer.

    The layer's heads share one ``total_len`` ``p``; ``keys`` and ``values``
    are ``(heads, n, head_dim)``, each head's tokens at positions
    ``p..p+n-1``, and must be finite. Tokens enter a cache by one rule:

    - The positions the middle region grows by, ``middle(p + n)`` minus
      ``middle(p)``, are evicted. They are one run, read from ring rows
      below ``p`` and from the chunk from ``p`` on, and each head's
      :class:`HeadDims` splits its rows into compressed and kept dims.
    - A run of two or more positions folds at its absolute positions in one
      batch fold over every head's K and V, the one
      :func:`~fourier_kv.spectral.fold_blocks` runs, priced for all their
      columns together. A run of one folds through
      :func:`~fourier_kv.spectral.fold_token`'s rank-1 update of the
      concatenated compressed K|V, which keeps a stream of single tokens
      bitwise equal to :func:`~fourier_kv.spectral.compress_batch`.
    - The run's kept dims are appended to the kept rows.
    - The chunk's positions that stay exact take their rows as they
      arrived: those below ``init_len`` their own, those past the grown
      middle their ring rows.

    Every check runs before anything is stored: a layer of no heads, heads
    of different lengths, a wrong shape, ``n = 0``, NaN or Inf, a basis of
    another geometry, or a middle region that would outgrow one period raise
    ``ValueError`` and leave the layer unchanged.
    """
    _place(layer, range(len(layer.total_len)), basis,
           np.asarray(keys, dtype=np.float32), np.asarray(values, dtype=np.float32))


def _place(lay: LayerCache, heads: range, basis: FourierBasis, keys, values) -> None:
    """The rule of :func:`ingest`, for the heads ``heads`` of a layer and float32 arrays."""
    if not heads:
        raise ValueError("ingest needs a layer of at least one head")
    part = lay.partition
    check_basis(basis, part)
    n_heads, p = len(heads), lay.total_len[heads.start]
    if n_heads > 1 and lay.total_len.count(p) != n_heads:
        raise ValueError("the heads of the layer must share one total_len")
    head_dim = lay.exact.shape[3]
    if (keys.ndim != 3 or values.shape != keys.shape or not keys.shape[1]
            or (keys.shape[0], keys.shape[2]) != (n_heads, head_dim)):
        raise ValueError(
            f"keys/values of shape {keys.shape}/{values.shape} are not "
            f"(heads {n_heads}, n >= 1, head_dim {head_dim})"
        )
    # one bool temporary at a time, each counted: cheaper than a reduction on a token
    if (np.count_nonzero(np.isfinite(keys)) != keys.size
            or np.count_nonzero(np.isfinite(values)) != values.size):
        raise ValueError("keys/values contain NaN or Inf")
    end = p + keys.shape[1]
    grown = part.middle(end)
    grown_len = grown.stop - grown.start
    if grown_len > part.period:
        # folded positions must cover distinct residues of the period; a
        # contiguous middle region no longer than one period guarantees that
        raise ValueError(
            f"a middle region of {grown_len} positions would exceed the "
            f"spectral period {part.period}; folding it would alias earlier positions"
        )

    # the middle grows by the run past the one it held at p, one kept row a position
    held = part.middle(p)
    start = grown.start + held.stop - held.start
    evicted = grown.stop - start
    if evicted > 1:
        _fold_run(lay, heads, basis, keys, values, p, range(start, grown.stop))
    elif evicted == 1:
        if grown_len > lay.kept_k.shape[1]:
            _grow(lay, grown_len)
        # one evicted position folds per head below, from its ring row if below p
        row = _ring_row(part, start) if start < p else None
    exact = lay.exact
    for i, h in enumerate(heads):
        if evicted == 1:
            # the position's K and V rows, read before a token of the chunk takes its row
            if row is None:
                k_row, v_row = keys[i, start - p], values[i, start - p]
            else:
                k_row, v_row = exact[0, h, row], exact[1, h, row]
            # K's compressed dims, then V's from column k_cols; padding columns stay 0
            hd = lay.dims[h]
            merged = np.zeros(lay.states.shape[2])
            merged[: hd.k_compressed.size] = k_row[hd.k_compressed]
            merged[lay.k_cols : lay.k_cols + hd.v_compressed.size] = v_row[hd.v_compressed]
            # the state's counts follow from the middle: it starts at grown.start
            fold_token(SpectralState(lay.states[h], start - grown.start, grown.start, start - 1),
                       basis, merged, start)
            lay.kept_k[h, start - grown.start, : hd.k_kept.size] = k_row[hd.k_kept]
            lay.kept_v[h, start - grown.start, : hd.v_kept.size] = v_row[hd.v_kept]
        lay.total_len[h] = end
    # the chunk's positions that stay exact take their rows as they arrived,
    # every head's at once: their own below init_len, then ring rows from the
    # first past the grown middle
    low = part.init_len if end > part.init_len else end
    local = grown.stop if grown.stop > p else p
    block = slice(heads.start, heads.stop)
    if p < low:
        exact[0, block, p:low] = keys[:, : low - p]
        exact[1, block, p:low] = values[:, : low - p]
    at = local - p
    for rows in _ring_rows(part, local, end):
        stop = at + rows.stop - rows.start
        exact[0, block, rows] = keys[:, at:stop]
        exact[1, block, rows] = values[:, at:stop]
        at = stop


def _grow(lay: LayerCache, rows: int) -> None:
    """Grow the kept rows, keeping those held, to ``rows + max(8, rows // 8)`` a head.

    So appends cost amortized O(1) copies, and a prefill of ``M`` middle rows
    leaves room for the first ``max(8, M // 8)`` evictions of its decode.
    """
    for name in ("kept_k", "kept_v"):
        kept = getattr(lay, name)
        grown = np.empty((kept.shape[0], rows + max(8, rows // 8), kept.shape[2]),
                         dtype=np.float32)
        grown[:, : kept.shape[1]] = kept
        setattr(lay, name, grown)


def _fold_run(lay: LayerCache, heads: range, basis: FourierBasis, keys, values, p: int,
              run: range) -> None:
    """Fold an evicted run of two or more positions into every head and append its kept rows.

    The run's K and V rows are read as stored: straight from the chunk when
    the run starts at or past ``p``, and otherwise from the ring rows, ahead
    of the chunk's, every head's at once. Each head's :class:`HeadDims`
    picks the columns the fold reads and the kept rows take. The states are
    added to in one batch fold, and only then do the kept rows grow and
    take the run's, so the fold's transient and the kept rows are not held
    at once.
    """
    count = len(run)
    chunk = slice(max(run.start, p) - p, max(run.stop, p) - p)
    k_runs, v_runs = keys[:, chunk], values[:, chunk]
    if run.start < p:
        # ring rows lead the run, ahead of the chunk's
        ring = _ring_rows(lay.partition, run.start, min(run.stop, p))
        block = slice(heads.start, heads.stop)
        k_runs = np.concatenate([lay.exact[0, block, rows] for rows in ring] + [k_runs], axis=1)
        v_runs = np.concatenate([lay.exact[1, block, rows] for rows in ring] + [v_runs], axis=1)
    dims = [lay.dims[h] for h in heads]
    # each head's K folds into its state's columns 0.. and its V into k_cols..
    _fold_into(
        basis,
        [*k_runs, *v_runs],
        [hd.k_compressed for hd in dims] + [hd.v_compressed for hd in dims],
        [lay.states[h] for h in heads] * 2,
        [0] * len(dims) + [lay.k_cols] * len(dims),
        run.start,
    )
    first = len(lay.partition.middle(p))  # the kept rows held ahead of the run
    if first + count > lay.kept_k.shape[1]:
        _grow(lay, first + count)
    rows = slice(first, first + count)
    for h, hd, k_run, v_run in zip(heads, dims, k_runs, v_runs):
        # mode="clip" (the indices are in range) lets take write into out unbuffered
        k_run.take(hd.k_kept, axis=1, out=lay.kept_k[h, rows, : hd.k_kept.size], mode="clip")
        v_run.take(hd.v_kept, axis=1, out=lay.kept_v[h, rows, : hd.v_kept.size], mode="clip")


@dataclass
class CompressedCache:
    """Every layer's storage plus the shared basis."""

    basis: FourierBasis
    layers: list  # [layer] -> LayerCache

    def slice(self, layer: int, head: int) -> HeadView:
        return HeadView(self.layers[layer], head)

    def append(self, layer: int, head: int, k_vec, v_vec) -> None:
        append_token(HeadView(self.layers[layer], head), self.basis, k_vec, v_vec)


def prefill_trace(trace, layout: CacheLayout, basis: FourierBasis) -> CompressedCache:
    """Prefill every layer of a trace into a compressed cache."""
    if (trace.layers, trace.kv_heads, trace.head_dim) != (
        layout.layers,
        layout.kv_heads,
        layout.head_dim,
    ):
        raise ValueError(
            f"trace geometry ({trace.layers}, {trace.kv_heads}, {trace.head_dim}) does not "
            f"match layout ({layout.layers}, {layout.kv_heads}, {layout.head_dim})"
        )
    layers = [
        prefill(trace.keys[layer], trace.values[layer], layout, layer, basis)
        for layer in range(layout.layers)
    ]
    return CompressedCache(basis=basis, layers=layers)


def memory_report(layout: CacheLayout, seq_len: int) -> dict:
    """Float counts of the compressed layout against a dense cache.

    The tiers are :meth:`PartitionParams.middle`'s, as the cache holds them
    at ``seq_len`` tokens. ``exact_floats`` counts the exact rows in use,
    ``seq_len`` minus the middle, for K and V, and the middle's kept dims;
    a head's exact block reserves ``init_len + local_len`` rows, so a
    sequence shorter than that leaves rows free that are not counted.
    ``padding_floats`` counts the float32 kept dims and float64 state
    columns a :class:`LayerCache` pads its heads to, 0 where every head of
    a layer compresses as many K and as many V dims.
    ``compressed_fraction`` is the share of (layer, head, dim, K/V) channels
    routed to spectral storage; as ``seq_len`` grows, ``ratio_vs_full``
    approaches ``1 - compressed_fraction``. The counts do not weigh bytes: a
    compressed dimension keeps ``2*orders`` float64 values in place of its
    middle's float32 rows, so it saves bytes only when the middle holds
    ``M > 4*orders`` positions (``M > 2*orders`` for float32 states);
    ``fourier-kv select`` and ``eval`` warn on stderr below that.
    """
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    part = layout.partition
    middle = len(part.middle(seq_len))
    mask = layout.compressed
    channels_spectral = int(mask.sum())
    # one exact float per channel a position outside the middle, per kept one inside it
    exact = (seq_len - middle) * mask.size + middle * (mask.size - channels_spectral)
    spectral = 2 * part.orders * channels_spectral
    full = mask.size * seq_len
    # per layer and K/V, each head's compressed count short of the widest
    # pads its state columns, and past the fewest its kept rows
    counts = mask.sum(axis=-1)
    short = int((counts.max(axis=2, keepdims=True, initial=0) - counts).sum())
    past = int((counts - counts.min(axis=2, keepdims=True, initial=mask.shape[3])).sum())
    return {
        "exact_floats": exact,
        "spectral_floats": spectral,
        "padding_floats": 2 * part.orders * short + middle * past,
        "full_cache_floats": full,
        "compressed_fraction": channels_spectral / mask.size,
        "ratio_vs_full": (exact + spectral) / full if full else float("nan"),
    }

"""Partitioned KV cache with spectrally compressed middle region.

Per layer and KV head, the cache splits a sequence three ways by absolute
position, in :meth:`PartitionParams.middle` alone: the first ``init_len``
positions and the latest ``local_len`` past them are stored exactly, in one
block per K and V; everything between keeps its selected dimensions
verbatim and folds the rest into fixed-size spectral states. Prefill folds
the middle region of every head of a layer in one batch fold. During
decoding, a token takes its exact row, and once the local ring is full the
token it evicts is split the same way, folded at its absolute position, so
the spectral storage stays O(1) in sequence length. Non-finite K/V rows are
rejected at both entry points, before anything is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fourier_kv.spectral import FourierBasis, SpectralState, fold_blocks, fold_token

__all__ = [
    "CacheLayout",
    "CompressedCache",
    "HeadDims",
    "HeadSlice",
    "PartitionParams",
    "append_token",
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
    orders``).
    :meth:`middle` is the one place a sequence is split into tiers.
    """

    init_len: int
    local_len: int
    period: int
    orders: int

    def __post_init__(self):
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
        start = min(self.init_len, seq_len)
        return range(start, max(start, seq_len - self.local_len))


def _dim_mask(indices, head_dim: int) -> np.ndarray:
    """Boolean membership mask over ``0..head_dim-1`` of an index collection (repeats allowed)."""
    arr = np.asarray(indices, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= head_dim):
        raise ValueError(f"dimension indices must lie in [0, {head_dim})")
    mask = np.zeros(head_dim, dtype=bool)
    mask[arr] = True
    return mask


def _is_partition(compressed: np.ndarray, kept: np.ndarray, head_dim: int) -> bool:
    """Whether the two index sets together hold each of ``0..head_dim-1`` exactly once."""
    merged = np.concatenate([compressed, kept])
    if merged.shape != (head_dim,):
        return False
    index = merged.astype(np.int64)
    if not np.array_equal(index, merged):
        return False  # a value that is not an integer index
    if head_dim and (index.min() < 0 or index.max() >= head_dim):
        return False
    # head_dim indices in range with none repeated cover every index once
    return bool(np.bincount(index, minlength=head_dim).max(initial=0) <= 1)


@dataclass(frozen=True)
class HeadDims:
    """Disjoint compressed/kept dimension index sets for one head's K and V."""

    k_compressed: np.ndarray
    k_kept: np.ndarray
    v_compressed: np.ndarray
    v_kept: np.ndarray

    @classmethod
    def from_compressed(cls, head_dim: int, k_compressed, v_compressed) -> "HeadDims":
        k_mask = _dim_mask(k_compressed, head_dim)
        v_mask = _dim_mask(v_compressed, head_dim)
        return cls(
            k_compressed=np.flatnonzero(k_mask),
            k_kept=np.flatnonzero(~k_mask),
            v_compressed=np.flatnonzero(v_mask),
            v_kept=np.flatnonzero(~v_mask),
        )

    def validate(self, head_dim: int) -> None:
        for comp, kept, which in (
            (self.k_compressed, self.k_kept, "K"),
            (self.v_compressed, self.v_kept, "V"),
        ):
            if not _is_partition(comp, kept, head_dim):
                raise ValueError(f"{which} dimension sets must partition 0..{head_dim - 1}")


@dataclass
class CacheLayout:
    """Model geometry, partition parameters, and per-(layer, head) dim sets."""

    layers: int
    kv_heads: int
    head_dim: int
    partition: PartitionParams
    dims: list  # [layer][head] -> HeadDims

    def __post_init__(self):
        if len(self.dims) != self.layers or any(len(row) != self.kv_heads for row in self.dims):
            raise ValueError("dims must be a layers x kv_heads table")
        for row in self.dims:
            for hd in row:
                hd.validate(self.head_dim)

    @classmethod
    def all_kept(cls, layers: int, kv_heads: int, head_dim: int, partition: PartitionParams):
        """Lossless layout: nothing is compressed."""
        return cls(
            layers=layers,
            kv_heads=kv_heads,
            head_dim=head_dim,
            partition=partition,
            dims=[
                [HeadDims.from_compressed(head_dim, [], []) for _ in range(kv_heads)]
                for _ in range(layers)
            ],
        )


class _GrowBuffer:
    """Append-only float32 row buffer that grows by an eighth of its capacity.

    A full buffer of capacity ``c`` reallocates to ``c + max(8, c // 8)``
    rows, so capacity stays within ``1.125 * len + 8`` rows while appends
    still cost amortized O(1) copies each. A buffer built from a prefill
    block holds exactly its rows until the first append.
    """

    def __init__(self, width: int):
        self._data = np.empty((0, width), dtype=np.float32)
        self._len = 0

    @classmethod
    def from_block(cls, block: np.ndarray) -> "_GrowBuffer":
        buf = cls(block.shape[1])
        buf._data = np.array(block, dtype=np.float32)
        buf._len = block.shape[0]
        return buf

    def append(self, row: np.ndarray) -> None:
        cap = self.capacity
        if self._len == cap:
            grown = np.empty((cap + max(8, cap // 8), self._data.shape[1]), dtype=np.float32)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len] = row
        self._len += 1

    def view(self) -> np.ndarray:
        return self._data[: self._len]

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    def __len__(self) -> int:
        return self._len


def _ring_row(part: PartitionParams, pos):
    """Exact-block row of a position (int or array) at or past ``init_len``."""
    return part.init_len + (pos - part.init_len) % part.local_len


@dataclass
class HeadSlice:
    """Compressed cache storage for one (layer, head).

    ``exact_k`` and ``exact_v`` hold the initial and local positions in
    ``init_len + local_len`` float32 rows each: position ``t`` sits in row
    ``t`` if ``t < init_len``, and otherwise in ring row ``init_len + (t -
    init_len) % local_len``, which it takes over from the token it evicts.
    The ring only fills or stays full, so the rows in use are always the
    prefix ``exact[:total_len - middle_count]``. Middle positions keep their
    kept dims in ``kept_k``/``kept_v`` and fold the rest into float64
    spectral states. Single-writer; distinct slices are independent.
    """

    dims: HeadDims
    partition: PartitionParams
    exact_k: np.ndarray
    exact_v: np.ndarray
    kept_k: _GrowBuffer
    kept_v: _GrowBuffer
    spec_k: SpectralState
    spec_v: SpectralState
    total_len: int

    @property
    def middle_count(self) -> int:
        return len(self.kept_k)

    def represented(self) -> int:
        """Exact positions the split gives ``total_len`` plus the kept middle rows held.

        Equals the tokens ingested while the kept rows match the split.
        """
        return self.total_len - len(self.partition.middle(self.total_len)) + self.middle_count


def prefill(keys, values, layout: CacheLayout, layer: int, basis: FourierBasis):
    """Build the compressed slices for one layer from its full K/V blocks.

    ``keys`` and ``values`` are ``(kv_heads, seq_len, head_dim)`` and must be
    finite. The middle region of every head, K and V alike, is folded at
    absolute positions by one :func:`fold_blocks` call, which projects the
    compressed dims of every head onto the basis in column groups through
    the decode transforms: packed chirp-z FFTs at stock, and at desk one
    matrix product per group against the run's columns, built once from
    the trig tables. A sequence no longer than ``init_len + local_len``
    simply has an empty middle, and its exact rows a free tail for the
    tokens to come. The slices copy what they keep: later changes to
    ``keys``/``values`` do not reach them.
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
    if basis.orders != part.orders or basis.period != part.period:
        raise ValueError("basis geometry does not match the layout partition")
    if not (np.isfinite(keys).all() and np.isfinite(values).all()):
        raise ValueError(f"layer {layer} keys/values contain NaN or Inf")
    seq_len = keys.shape[1]
    middle = part.middle(seq_len)
    if len(middle) > part.period:
        # folded positions must cover distinct residues of the period; a
        # contiguous middle region no longer than one period guarantees that
        raise ValueError(
            f"middle region of {len(middle)} positions exceeds the spectral period {part.period}"
        )
    heads = layout.dims[layer]
    mid = slice(middle.start, middle.stop)
    states = fold_blocks(
        basis,
        [*keys[:, mid], *values[:, mid]],
        middle.start,
        dims=[hd.k_compressed for hd in heads] + [hd.v_compressed for hd in heads],
    )
    # K and V of every head at once: initial positions in their own rows,
    # local ones in their ring rows
    exact = np.zeros(
        (2, layout.kv_heads, part.init_len + part.local_len, layout.head_dim), dtype=np.float32
    )
    rows = _ring_row(part, np.arange(middle.stop, seq_len))
    for block, kv in zip(exact, (keys, values)):
        block[:, : middle.start] = kv[:, : middle.start]
        block[:, rows] = kv[:, middle.stop :]
    return [
        HeadSlice(
            dims=hd,
            partition=part,
            exact_k=exact[0, head],
            exact_v=exact[1, head],
            kept_k=_GrowBuffer.from_block(keys[head, mid][:, hd.k_kept]),
            kept_v=_GrowBuffer.from_block(values[head, mid][:, hd.v_kept]),
            spec_k=states[head],
            spec_v=states[layout.kv_heads + head],
            total_len=seq_len,
        )
        for head, hd in enumerate(heads)
    ]


def append_token(slice_: HeadSlice, basis: FourierBasis, k_vec, v_vec) -> HeadSlice:
    """Ingest one decoded token into a head slice.

    A token below ``init_len`` takes its own initial row; a later one takes
    its ring row, and once the ring is full, the token there before it, the
    position the middle region grows by, splits into kept rows and spectral
    folds at its absolute position. Mutates and returns the slice; a
    rejected token (wrong shape, NaN or Inf, or a middle region already one
    period long) leaves it unchanged.
    """
    part = slice_.partition
    k_vec = np.asarray(k_vec, dtype=np.float32)
    v_vec = np.asarray(v_vec, dtype=np.float32)
    if k_vec.shape != (slice_.exact_k.shape[1],) or v_vec.shape != k_vec.shape:
        raise ValueError("token vectors must have shape (head_dim,)")
    if not (np.isfinite(k_vec).all() and np.isfinite(v_vec).all()):
        raise ValueError("token vectors contain NaN or Inf")

    pos = slice_.total_len
    row = pos if pos < part.init_len else _ring_row(part, pos)
    grown = part.middle(pos + 1)
    if len(grown) > slice_.middle_count:
        if slice_.spec_k.token_count >= part.period:
            raise ValueError(
                f"middle region already spans the full spectral period {part.period}; "
                "folding more tokens would alias earlier positions"
            )
        # the evicted position is one ring cycle before the token, in the same row
        old_k = slice_.exact_k[row]
        old_v = slice_.exact_v[row]
        slice_.kept_k.append(old_k[slice_.dims.k_kept])
        slice_.kept_v.append(old_v[slice_.dims.v_kept])
        fold_token(slice_.spec_k, basis, old_k[slice_.dims.k_compressed], grown[-1])
        fold_token(slice_.spec_v, basis, old_v[slice_.dims.v_compressed], grown[-1])

    slice_.exact_k[row] = k_vec
    slice_.exact_v[row] = v_vec
    slice_.total_len += 1
    return slice_


@dataclass
class CompressedCache:
    """All layers' head slices plus the shared layout and basis."""

    layout: CacheLayout
    basis: FourierBasis
    slices: list  # [layer][head] -> HeadSlice

    def slice(self, layer: int, head: int) -> HeadSlice:
        return self.slices[layer][head]

    def append(self, layer: int, head: int, k_vec, v_vec) -> None:
        append_token(self.slices[layer][head], self.basis, k_vec, v_vec)


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
    slices = [
        prefill(trace.keys[layer], trace.values[layer], layout, layer, basis)
        for layer in range(layout.layers)
    ]
    return CompressedCache(layout=layout, basis=basis, slices=slices)


def memory_report(layout: CacheLayout, seq_len: int) -> dict:
    """Float counts of the compressed layout against a dense cache.

    The tiers are :meth:`PartitionParams.middle`'s, as the cache holds them
    at ``seq_len`` tokens. ``exact_floats`` counts the exact rows in use,
    ``seq_len`` minus the middle, for K and V, and the middle's kept dims;
    a head's exact block reserves ``init_len + local_len`` rows, so a
    sequence shorter than that leaves rows free that are not counted.
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

    exact = 0
    spectral = 0
    channels_total = 0
    channels_spectral = 0
    for layer in range(layout.layers):
        for head in range(layout.kv_heads):
            hd = layout.dims[layer][head]
            n_kc, n_vc = hd.k_compressed.size, hd.v_compressed.size
            exact += (seq_len - middle) * 2 * layout.head_dim
            exact += middle * (hd.k_kept.size + hd.v_kept.size)
            spectral += 2 * part.orders * (n_kc + n_vc)
            channels_spectral += n_kc + n_vc
            channels_total += 2 * layout.head_dim

    full = layout.layers * layout.kv_heads * 2 * seq_len * layout.head_dim
    return {
        "exact_floats": exact,
        "spectral_floats": spectral,
        "full_cache_floats": full,
        "compressed_fraction": channels_spectral / channels_total,
        "ratio_vs_full": (exact + spectral) / full if full else float("nan"),
    }

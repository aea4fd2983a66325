"""Partitioned KV cache with spectrally compressed middle region.

Per layer and KV head, the cache splits a sequence three ways by absolute
position, in :meth:`PartitionParams.middle` alone: the first ``init_len``
positions and the latest ``local_len`` past them are stored exactly, in one
block per K and V; everything between keeps its selected dimensions
verbatim and folds the rest into fixed-size spectral states. Which
dimensions fold is one boolean mask per cache, ``CacheLayout.compressed``,
of shape ``(layers, 2, kv_heads, head_dim)``. A head stores every K and V
row with its dimensions in layout order, the compressed ones first and then
the kept ones, and folds K's and V's compressed dims into one state. Prefill
folds the middle region of every head of a layer in one batch fold. During
decoding, a token takes its exact row, and once the local ring is full the
token it evicts is split into two slices of its row, its kept dims and one
rank-1 fold at its absolute position, so the spectral storage stays O(1) in
sequence length. Non-finite K/V rows, and a basis whose geometry is not the
partition's, are rejected at both entry points, before anything is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fourier_kv.spectral import FourierBasis, SpectralState, _fold_into, fold_token

__all__ = [
    "CacheLayout",
    "CompressedCache",
    "HeadDims",
    "HeadSlice",
    "PartitionParams",
    "append_token",
    "check_basis",
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
    index arrays, derived once here. Per row, its compressed dims and then
    its kept dims, each ascending, are the order in which a :class:`HeadSlice`
    stores that row's dimensions.
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
        # and per V row, the place of each dim in that order
        v_slot = np.argsort(order[:, 1], axis=-1)
        for table in (order, v_slot):
            table.setflags(write=False)
        # per head, the K order, the V order and the V places that its slices
        # store rows by and read them back with, shared by every slice of it
        object.__setattr__(self, "_orders", [
            [(order[layer, 0, head], order[layer, 1, head], v_slot[layer, head])
             for head in range(mask.shape[2])]
            for layer in range(mask.shape[0])
        ])
        counts = mask.sum(axis=-1).tolist()
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
            for layer, layer_counts in enumerate(counts)
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


def _grown(rows: int) -> int:
    """The capacity a buffer of ``rows`` rows grows to: an eighth more, at least 8."""
    return rows + max(8, rows // 8)


class _GrowBuffer:
    """Append-only float32 row buffer that grows by an eighth of its capacity.

    A full buffer of capacity ``c`` reallocates to ``c + max(8, c // 8)``
    rows, so capacity stays within ``1.125 * len + 8`` rows while appends
    still cost amortized O(1) copies each. A new buffer reserves one growth
    past the ``M`` rows it copies, a capacity of ``M + max(8, M // 8)``, so
    the first evictions after prefill append in place, and it holds what
    one growth from ``M`` rows would.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, block: np.ndarray, dims: np.ndarray):
        """A buffer holding the columns ``dims`` of ``block``'s rows, copied as float32."""
        self._len = block.shape[0]
        self._data = np.empty((_grown(self._len), dims.size), dtype=np.float32)
        # mode="clip" (the indices are in range) lets take write into out unbuffered
        block.take(dims, axis=1, out=self._data[: self._len], mode="clip")

    def append(self, row: np.ndarray) -> None:
        cap = self.capacity
        if self._len == cap:
            grown = np.empty((_grown(cap), self._data.shape[1]), dtype=np.float32)
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


@dataclass(slots=True)
class HeadSlice:
    """Compressed cache storage for one (layer, head).

    Every row the slice holds stores its dimensions in layout order: a K row
    holds ``dims.k_compressed`` and then ``dims.k_kept``, each ascending, and
    a V row the same of ``dims.v_*``, so an eviction splits a row into two
    slices and attention gathers the query and its output once each.
    ``exact_k`` and ``exact_v`` hold the initial and local positions in
    ``init_len + local_len`` float32 rows each: position ``t`` sits in row
    ``t`` if ``t < init_len``, and otherwise in ring row ``init_len + (t -
    init_len) % local_len``, which it takes over from the token it evicts.
    The ring only fills or stays full, so the rows in use are always the
    prefix ``exact[:total_len - middle_count]``. Middle positions keep their
    kept dims in ``kept_k``/``kept_v`` and fold their compressed K dims, then
    their compressed V dims, into one float64 spectral state of ``2*orders``
    rows, so an eviction is one rank-1 update; ``spec_k`` and ``spec_v`` are
    its K and V columns, views that share its coefficients. Single-writer;
    distinct slices are independent.
    """

    dims: HeadDims
    partition: PartitionParams
    exact_k: np.ndarray
    exact_v: np.ndarray
    kept_k: _GrowBuffer
    kept_v: _GrowBuffer
    _spec: SpectralState  # (2*orders, c_k + c_v) coefficients, K's columns first
    _order: tuple  # the layout's (K order, V order, V places) of the head
    total_len: int

    @property
    def middle_count(self) -> int:
        return len(self.kept_k)

    @property
    def spec_k(self) -> SpectralState:
        """The K columns of the slice's state: a view with a copy of its counters."""
        return self._columns(slice(None, self.dims.k_compressed.size))

    @property
    def spec_v(self) -> SpectralState:
        """The V columns of the slice's state: a view with a copy of its counters."""
        return self._columns(slice(self.dims.k_compressed.size, None))

    def _columns(self, cols: slice) -> SpectralState:
        spec = self._spec
        return SpectralState(spec.coeffs[:, cols], spec.token_count, spec.first_pos,
                             spec.last_pos)

    def represented(self) -> int:
        """Exact positions the split gives ``total_len`` plus the kept middle rows held.

        Equals the tokens ingested while the kept rows match the split.
        """
        return self.total_len - len(self.partition.middle(self.total_len)) + self.middle_count


def prefill(keys, values, layout: CacheLayout, layer: int, basis: FourierBasis):
    """Build the compressed slices for one layer from its full K/V blocks.

    ``keys`` and ``values`` are ``(kv_heads, seq_len, head_dim)`` and must be
    finite. The middle region of every head, K and V alike, is folded at
    absolute positions in one batch fold, the one
    :func:`~fourier_kv.spectral.fold_blocks` runs, which projects the
    compressed dims of every head onto the basis through the decode
    transforms, priced for all of them together: at stock the Chebyshev
    moments, a product per span of a block's columns against Chebyshev
    polynomials and one by the orders' waves, and at desk one matrix product
    per span against the run's columns, built once from the trig tables;
    no column is gathered from a block. It adds each head's K and V columns
    straight into that head's one state. A
    sequence no longer than ``init_len + local_len`` simply has an empty
    middle, and its exact rows a free tail for the tokens to come. The
    slices copy what they keep, in layout order: later changes to
    ``keys``/``values`` do not reach them. Each head's kept rows go into a
    buffer with an eighth more rows reserved, so the first evictions of a
    decode append without copying them.
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
    orders = layout._orders[layer]
    mid = slice(middle.start, middle.stop)
    k_counts = [hd.k_compressed.size for hd in heads]
    coeffs = [np.zeros((2 * part.orders, n + hd.v_compressed.size))
              for n, hd in zip(k_counts, heads)]
    _fold_into(
        basis,
        [*keys[:, mid], *values[:, mid]],
        [hd.k_compressed for hd in heads] + [hd.v_compressed for hd in heads],
        [c[:, :n] for c, n in zip(coeffs, k_counts)]
        + [c[:, n:] for c, n in zip(coeffs, k_counts)],
        middle.start,
    )
    # one block for K and V of every head; a head's rows hold its dims in
    # layout order, initial positions in their own rows, local ones in ring rows
    exact = np.zeros(
        (2, layout.kv_heads, part.init_len + part.local_len, layout.head_dim), dtype=np.float32
    )
    # the local positions take consecutive rows from the oldest one's, up to
    # the end of the ring, and those past it wrap round to its start
    first = _ring_row(part, middle.stop)
    wrap = min(seq_len, middle.stop + part.init_len + part.local_len - first)
    to_end, wrapped = wrap - middle.stop, seq_len - wrap
    slices = []
    for head, hd in enumerate(heads):
        for kv_index, kv in enumerate((keys[head], values[head])):
            block, order = exact[kv_index, head], orders[head][kv_index]
            # mode="clip" (the indices are in range) lets take write into out unbuffered
            kv[: middle.start].take(order, axis=1, out=block[: middle.start], mode="clip")
            kv[middle.stop : wrap].take(order, axis=1, out=block[first : first + to_end],
                                        mode="clip")
            kv[wrap:].take(order, axis=1, out=block[part.init_len : part.init_len + wrapped],
                           mode="clip")
        if len(middle):
            state = SpectralState(coeffs[head], len(middle), middle.start, middle.stop - 1)
        else:
            state = SpectralState(coeffs[head])
        slices.append(
            HeadSlice(
                dims=hd,
                partition=part,
                exact_k=exact[0, head],
                exact_v=exact[1, head],
                kept_k=_GrowBuffer(keys[head, mid], hd.k_kept),
                kept_v=_GrowBuffer(values[head, mid], hd.v_kept),
                _spec=state,
                _order=orders[head],
                total_len=seq_len,
            )
        )
    return slices


def append_token(slice_: HeadSlice, basis: FourierBasis, k_vec, v_vec) -> HeadSlice:
    """Ingest one decoded token into a head slice.

    A token below ``init_len`` takes its own initial row; a later one takes
    its ring row, and once the ring is full, the token there before it, the
    position the middle region grows by, splits into kept rows and one
    spectral fold of its compressed K and V dims at its absolute position.
    Mutates and returns the slice; a rejected token (wrong shape, NaN or
    Inf, or a middle region already one period long) or a basis of another
    geometry leaves it unchanged.
    """
    part = slice_.partition
    check_basis(basis, part)
    k_vec = np.asarray(k_vec, dtype=np.float32)
    v_vec = np.asarray(v_vec, dtype=np.float32)
    if k_vec.shape != (slice_.exact_k.shape[1],) or v_vec.shape != k_vec.shape:
        raise ValueError("token vectors must have shape (head_dim,)")
    # float32 values summed in float64 cannot overflow, so the sums are finite
    # exactly when every entry is: NaN and Inf carry through, and Inf - Inf is NaN
    if not math.isfinite(np.add.reduce(k_vec, dtype=np.float64)
                         + np.add.reduce(v_vec, dtype=np.float64)):
        raise ValueError("token vectors contain NaN or Inf")

    pos = slice_.total_len
    row = pos if pos < part.init_len else _ring_row(part, pos)
    spec = slice_._spec  # it has folded one position per kept middle row
    grown = part.middle(pos + 1)
    if len(grown) > spec.token_count:
        if spec.token_count >= part.period:
            raise ValueError(
                f"middle region already spans the full spectral period {part.period}; "
                "folding more tokens would alias earlier positions"
            )
        # the evicted position is one ring cycle before the token, in the same
        # row; its compressed dims lead each row, and K's lead the state
        old_k = slice_.exact_k[row]
        old_v = slice_.exact_v[row]
        k_count = slice_.dims.k_compressed.size
        v_count = spec.coeffs.shape[1] - k_count
        folded = np.concatenate((old_k[:k_count], old_v[:v_count]), dtype=np.float64)
        fold_token(spec, basis, folded, grown[-1])
        slice_.kept_k.append(old_k[k_count:])
        slice_.kept_v.append(old_v[v_count:])

    order = slice_._order
    slice_.exact_k[row] = k_vec[order[0]]
    slice_.exact_v[row] = v_vec[order[1]]
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
    mask = layout.compressed
    channels_spectral = int(mask.sum())
    # one exact float per channel a position outside the middle, per kept one inside it
    exact = (seq_len - middle) * mask.size + middle * (mask.size - channels_spectral)
    spectral = 2 * part.orders * channels_spectral
    full = mask.size * seq_len
    return {
        "exact_floats": exact,
        "spectral_floats": spectral,
        "full_cache_floats": full,
        "compressed_fraction": channels_spectral / mask.size,
        "ratio_vs_full": (exact + spectral) / full if full else float("nan"),
    }

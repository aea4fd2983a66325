"""Partitioned KV cache with spectrally compressed middle region.

Per layer and KV head, the cache splits a sequence three ways by absolute
position, in :meth:`PartitionParams.middle` alone: the first ``init_len``
positions and the latest ``local_len`` past them are stored exactly, in one
block per K and V; everything between keeps its selected dimensions
verbatim and folds the rest into fixed-size spectral states. Which
dimensions fold is one boolean mask per cache, ``CacheLayout.compressed``,
of shape ``(layers, 2, kv_heads, head_dim)``. A head stores every K and V
row with its dimensions in layout order, the compressed ones first and then
the kept ones, and folds K's and V's compressed dims into one state.

Tokens enter a cache one way, :func:`ingest`: any number of tokens per head
into one layer's slices. The positions the middle region grows by, one run,
split into kept rows and a fold at their absolute positions, so the
spectral storage stays O(1) in sequence length; the rest take exact rows.
:func:`prefill` is an ingest of the whole prompt into empty slices, so its
middle folds in one batch over every head, and :func:`append_token` an
ingest of one token into one slice, whose one evicted position folds as one
rank-1 update. A chunk of a prompt or of a decode is an ingest of its own,
and any split of a sequence into chunks stores the rows one call stores.
Non-finite K/V rows, and a basis whose geometry is not the partition's, are
rejected before anything is stored.
"""

from __future__ import annotations

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
    """Append-only float32 row buffer that grows by an eighth past what it must hold.

    A new buffer holds no rows and reserves none. :meth:`extend` lengthens it
    by any number of rows and returns them for the caller to write; when the
    ``need`` rows held after it would not fit, the buffer reallocates to
    ``_grown(need) = need + max(8, need // 8)`` rows, one growth past what it
    holds. So capacity stays within ``1.125 * len + 8`` rows, appends cost
    amortized O(1) copies each, and a prefill of ``M`` middle rows leaves
    room for the first ``max(8, M // 8)`` evictions of the decode after it.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, width: int):
        """An empty buffer of rows ``width`` floats wide."""
        self._len = 0
        self._data = np.empty((0, width), dtype=np.float32)

    def extend(self, rows: int) -> np.ndarray:
        """Lengthen the buffer by ``rows`` rows and return them, unwritten."""
        start, need = self._len, self._len + rows
        if need > self._data.shape[0]:
            grown = np.empty((_grown(need), self._data.shape[1]), dtype=np.float32)
            grown[:start] = self._data[:start]
            self._data = grown
        self._len = need
        return self._data[start:need]

    def view(self) -> np.ndarray:
        return self._data[: self._len]

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    def __len__(self) -> int:
        return self._len


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


@dataclass(slots=True)
class HeadSlice:
    """Compressed cache storage for one (layer, head).

    Every row the slice holds stores its dimensions in layout order: a K row
    holds ``dims.k_compressed`` and then ``dims.k_kept``, each ascending, and
    a V row the same of ``dims.v_*``, so an evicted row splits into two
    slices and attention gathers the query and its output once each.
    ``exact_k`` and ``exact_v`` hold the initial and local positions in
    ``init_len + local_len`` float32 rows each: position ``t`` sits in row
    ``t`` if ``t < init_len``, and otherwise in ring row ``init_len + (t -
    init_len) % local_len``, which it takes over from the position it
    evicts. The ring only fills or stays full, so the rows in use are always
    the prefix ``exact[:total_len - middle_count]``. Middle positions keep
    their kept dims in ``kept_k``/``kept_v`` and fold their compressed K
    dims, then their compressed V dims, into one float64 spectral state of
    ``2*orders`` rows; ``spec_k`` and ``spec_v`` are its K and V columns,
    views that share its coefficients. Only :func:`ingest` writes a slice.
    Single-writer; distinct slices are independent.
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
    finite. The layer's slices start empty, with one exact block for K and V
    of every head, and take the whole prompt in one :func:`ingest`, so its
    middle region folds in one batch fold over every head's K and V. A
    sequence no longer than ``init_len + local_len`` simply has an empty
    middle, and its exact rows a free tail for the tokens to come. The
    slices copy what they keep: later changes to ``keys``/``values`` do not
    reach them.
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
    # ingest writes the rows the prompt fills, after its fold; only the rows it
    # leaves free are cleared here, since a block cleared before the fold has
    # left the cache by the time its rows are written
    exact = np.empty(
        (2, layout.kv_heads, part.init_len + part.local_len, layout.head_dim), dtype=np.float32
    )
    exact[:, :, keys.shape[1] - len(part.middle(keys.shape[1])) :] = 0
    slices = [
        HeadSlice(
            dims=hd,
            partition=part,
            exact_k=exact[0, head],
            exact_v=exact[1, head],
            kept_k=_GrowBuffer(hd.k_kept.size),
            kept_v=_GrowBuffer(hd.v_kept.size),
            _spec=SpectralState.zeros(part.orders, hd.k_compressed.size + hd.v_compressed.size),
            _order=layout._orders[layer][head],
            total_len=0,
        )
        for head, hd in enumerate(layout.dims[layer])
    ]
    if slices and keys.shape[1]:
        ingest(slices, basis, keys, values)
    return slices


def append_token(slice_: HeadSlice, basis: FourierBasis, k_vec, v_vec) -> HeadSlice:
    """Ingest one decoded token, two ``(head_dim,)`` vectors, into a head slice.

    :func:`ingest` of one token into a one-slice layer. Mutates and returns
    the slice; a rejected token (wrong shape, NaN or Inf, or a middle region
    already one period long) or a basis of another geometry leaves it
    unchanged.
    """
    ingest([slice_], basis, np.asarray(k_vec, dtype=np.float32)[None, None],
           np.asarray(v_vec, dtype=np.float32)[None, None])
    return slice_


def ingest(slices, basis: FourierBasis, keys, values) -> None:
    """Place ``n >= 1`` tokens per head into one layer's head slices.

    ``slices`` share one partition, head_dim and ``total_len`` ``p``;
    ``keys`` and ``values`` are ``(len(slices), n, head_dim)``, each head's
    tokens at positions ``p..p+n-1``, and must be finite. This is the one
    place tokens enter a cache, by one rule:

    - The positions the middle region grows by, ``middle(p + n)`` minus
      ``middle(p)``, are evicted. They are one run, read from ring rows
      below ``p``, whose compressed dims lead each row, and from the chunk
      from ``p`` on, through each head's :class:`HeadDims`.
    - A run of two or more positions folds at its absolute positions in one
      batch fold over every head's K and V, the one
      :func:`~fourier_kv.spectral.fold_blocks` runs, priced for all their
      columns together. A run of one folds through
      :func:`~fourier_kv.spectral.fold_token`'s rank-1 update of the
      concatenated compressed K|V, which keeps a stream of single tokens
      bitwise equal to :func:`~fourier_kv.spectral.compress_batch`.
    - The run's kept dims are appended to the kept rows.
    - The chunk's positions that stay exact take their rows: those below
      ``init_len`` their own, those past the grown middle their ring rows.

    Every check runs before anything is stored: no slices, a slice listed
    twice, slices of different geometry or length, a wrong shape, ``n = 0``,
    NaN or Inf, a basis of another geometry, or a middle region that would
    outgrow one period raise ``ValueError`` and leave every slice unchanged.
    """
    if not slices:
        raise ValueError("ingest needs at least one head slice")
    first, rest = slices[0], slices[1:]
    part = first.partition
    check_basis(basis, part)
    keys = np.asarray(keys, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    p = first.total_len
    # a slice listed twice would fold and store its heads' tokens into one state
    if rest and len({id(sl) for sl in slices}) != len(slices):
        raise ValueError("each head slice may appear only once")
    for sl in rest:
        if sl.partition != part or sl.total_len != p or sl.exact_k.shape != first.exact_k.shape:
            raise ValueError("slices must share one partition, head_dim and total_len")
    if (keys.ndim != 3 or values.shape != keys.shape or not keys.shape[1]
            or (keys.shape[0], keys.shape[2]) != (len(slices), first.exact_k.shape[1])):
        raise ValueError(
            f"keys/values of shape {keys.shape}/{values.shape} are not "
            f"(heads {len(slices)}, n >= 1, head_dim {first.exact_k.shape[1]})"
        )
    # one bool temporary at a time, each counted: cheaper than a reduction on a token
    if (np.count_nonzero(np.isfinite(keys)) != keys.size
            or np.count_nonzero(np.isfinite(values)) != values.size):
        raise ValueError("keys/values contain NaN or Inf")
    end = p + keys.shape[1]
    grown = part.middle(end)
    if grown.stop - grown.start > part.period:
        # folded positions must cover distinct residues of the period; a
        # contiguous middle region no longer than one period guarantees that
        raise ValueError(
            f"a middle region of {grown.stop - grown.start} positions would exceed the "
            f"spectral period {part.period}; folding it would alias earlier positions"
        )

    # the middle grows by the run past the positions folded so far, one a kept row
    start = grown.start + first._spec.token_count
    evicted = grown.stop - start
    if evicted > 1:
        _fold_run(slices, basis, keys, values, p, range(start, grown.stop))
    # one evicted position folds per head below, from its ring row if below p
    row = _ring_row(part, start) if evicted == 1 and start < p else None
    # the chunk's positions that stay exact take their rows: their own below
    # init_len, then ring rows from the first past the grown middle
    low = part.init_len if end > part.init_len else end
    local = grown.stop if grown.stop > p else p
    ring = _ring_rows(part, local, end)
    for i, sl in enumerate(slices):
        k, v, order = keys[i], values[i], sl._order
        if evicted == 1:
            # the position's K and V rows, dims in layout order, read before a
            # token of the chunk takes its row
            if row is None:
                k_row, v_row = k[start - p, order[0]], v[start - p, order[1]]
            else:
                k_row, v_row = sl.exact_k[row], sl.exact_v[row]
            k_count = sl.dims.k_compressed.size
            v_count = sl._spec.coeffs.shape[1] - k_count
            fold_token(sl._spec, basis,
                       np.concatenate((k_row[:k_count], v_row[:v_count]), dtype=np.float64),
                       start)
            sl.kept_k.extend(1)[0] = k_row[k_count:]
            sl.kept_v.extend(1)[0] = v_row[v_count:]
        # mode "clip" (the indices are in range) lets take write into out unbuffered
        if p < low:
            k[: low - p].take(order[0], 1, sl.exact_k[p:low], "clip")
            v[: low - p].take(order[1], 1, sl.exact_v[p:low], "clip")
        at = local - p
        for rows in ring:
            stop = at + rows.stop - rows.start
            k[at:stop].take(order[0], 1, sl.exact_k[rows], "clip")
            v[at:stop].take(order[1], 1, sl.exact_v[rows], "clip")
            at = stop
        sl.total_len = end


def _fold_run(slices, basis: FourierBasis, keys, values, p: int, run: range) -> None:
    """Fold an evicted run of two or more positions into every slice and append its kept rows.

    Each head's K and V rows of the run are read in index order: straight
    from the chunk when the run starts at or past ``p``, and otherwise
    gathered from the ring rows, put back in index order, ahead of the
    chunk's. The states are added to in one batch fold, before the kept
    rows are written straight into their buffers.
    """
    count = len(run)
    chunk = slice(max(run.start, p) - p, max(run.stop, p) - p)
    k_runs, v_runs = keys[:, chunk], values[:, chunk]
    if run.start < p:
        # ring rows lead the run: gathered ahead of the chunk's, dims back in index order
        ring = _ring_rows(slices[0].partition, run.start, min(run.stop, p))
        k_runs, v_runs = list(k_runs), list(v_runs)
        for i, sl in enumerate(slices):
            for runs, exact, order in ((k_runs, sl.exact_k, sl._order[0]),
                                       (v_runs, sl.exact_v, sl._order[1])):
                held = np.concatenate([exact[rows] for rows in ring])[:, np.argsort(order)]
                runs[i] = np.concatenate((held, runs[i]))
    heads = [sl.dims for sl in slices]
    _fold_into(
        basis,
        [*k_runs, *v_runs],
        [hd.k_compressed for hd in heads] + [hd.v_compressed for hd in heads],
        [sl._spec.coeffs[:, : hd.k_compressed.size] for sl, hd in zip(slices, heads)]
        + [sl._spec.coeffs[:, hd.k_compressed.size :] for sl, hd in zip(slices, heads)],
        run.start,
    )
    for sl, hd, k_run, v_run in zip(slices, heads, k_runs, v_runs):
        spec = sl._spec
        if not spec.token_count:
            spec.first_pos = run.start
        spec.token_count += count
        spec.last_pos = run.stop - 1
        # mode="clip" (the indices are in range) lets take write into out unbuffered
        k_run.take(hd.k_kept, axis=1, out=sl.kept_k.extend(count), mode="clip")
        v_run.take(hd.v_kept, axis=1, out=sl.kept_v.extend(count), mode="clip")


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

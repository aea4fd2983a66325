"""Choosing which head dimensions to compress, and with what ratios.

Dimensions are ranked per (layer, head) by how well the spectral compressor
reconstructs them on a calibration trace (mean squared error, ties broken by
ascending index), then a per-layer ratio schema decides how many of the
best-reconstructed dimensions each head folds. The ranking never reads a
middle region back through basis columns. One of three forms computes the
errors, each keeping its transient within the batch fold's 1 MB chunk: a
convolution with one kernel over the lag, one real FFT pair of about twice
the middle's length per dimension (many orders over a long middle); a
quadratic form of each dimension's folded state with one data-independent
Gram matrix (desk); or the same form over each dimension's Chebyshev
moments, as many as the moments fold uses over the middle (stock: 98, for
1024 coefficients). The cheaper Gram form runs where the decode
transforms' cost rule says it beats the convolution. The stock schema compresses
more of the V cache than the K cache and more of the lower layers than the
upper ones (an inverted pyramid); ablation variants flatten, swap, or flip
it. Diagnostics cover temporal standard deviations and the distribution of
compressed indices grouped every ``HISTOGRAM_GROUP`` (16) dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.fft

from fourier_kv import spectral
from fourier_kv.cache import CacheLayout, PartitionParams, check_basis
from fourier_kv.spectral import FourierBasis, fold_blocks
from fourier_kv.traceio import KVTrace

__all__ = [
    "HISTOGRAM_GROUP",
    "CompressionSchema",
    "MseRanking",
    "SelectionReport",
    "apply_schema",
    "build_selection_report",
    "rank_dimensions",
    "read_selection_manifest",
    "schema_variants",
    "selection_histogram",
    "temporal_std",
    "write_selection_manifest",
]

MANIFEST_FORMAT = "fourier-kv-selection"
MANIFEST_VERSION = 1

# the diagnostic histogram counts compressed dimensions in groups of this many indices
HISTOGRAM_GROUP = 16


@dataclass(frozen=True)
class CompressionSchema:
    """Per-layer (K ratio, V ratio) compression table."""

    ratios: tuple  # ((k_ratio, v_ratio), ...) one pair per layer
    preset: str = "custom"

    def __post_init__(self):
        for k_ratio, v_ratio in self.ratios:
            if not (0.0 <= k_ratio <= 1.0 and 0.0 <= v_ratio <= 1.0):
                raise ValueError(f"ratios must lie in [0, 1], got ({k_ratio}, {v_ratio})")

    @property
    def layers(self) -> int:
        return len(self.ratios)

    def aggregate_fraction(self) -> float:
        """Mean compressed share over all (layer, K/V) channels."""
        return float(np.mean([(k + v) / 2.0 for k, v in self.ratios]))

    @classmethod
    def inverted_pyramid(cls, layers: int) -> "CompressionSchema":
        """The stock V-priority, lower-layer-priority table.

        The first eighth of the layers (4 of 32) compress 90% of K and 95% of
        V, the last quarter (8 of 32) 50% and 70%, everything else 80% and
        80%. Small layer counts keep at least one layer in the outer bands.
        """
        if layers < 1:
            raise ValueError("layers must be >= 1")
        if layers == 1:
            return cls(ratios=((0.80, 0.80),), preset="inverted_pyramid")
        n_first = max(1, layers // 8)
        n_last = max(1, layers // 4)
        if n_first + n_last > layers:
            n_first, n_last = 1, layers - 1
        ratios = []
        for layer in range(layers):
            if layer < n_first:
                ratios.append((0.90, 0.95))
            elif layer >= layers - n_last:
                ratios.append((0.50, 0.70))
            else:
                ratios.append((0.80, 0.80))
        return cls(ratios=tuple(ratios), preset="inverted_pyramid")


def schema_variants(base: CompressionSchema) -> dict:
    """Ablation variants that preserve the aggregate compressed share.

    uniform         one global mean ratio everywhere, K and V alike.
    kv_inverted     per-layer K and V ratios swapped (K-priority).
    layer_inverted  layer order of the ratio pairs reversed (upper-layer
                    priority).
    """
    mean = base.aggregate_fraction()
    return {
        "uniform": CompressionSchema(
            ratios=tuple((mean, mean) for _ in range(base.layers)), preset="uniform"
        ),
        "kv_inverted": CompressionSchema(
            ratios=tuple((v, k) for k, v in base.ratios), preset="kv_inverted"
        ),
        "layer_inverted": CompressionSchema(
            ratios=tuple(reversed(base.ratios)), preset="layer_inverted"
        ),
    }


@dataclass
class MseRanking:
    """Reconstruction MSE per (layer, head, dim), for K and V separately."""

    k_mse: np.ndarray  # (layers, kv_heads, head_dim)
    v_mse: np.ndarray

    @property
    def layers(self) -> int:
        return self.k_mse.shape[0]

    @property
    def kv_heads(self) -> int:
        return self.k_mse.shape[1]

    @property
    def head_dim(self) -> int:
        return self.k_mse.shape[2]


def rank_dimensions(trace: KVTrace, partition: PartitionParams, basis: FourierBasis) -> MseRanking:
    """Reconstruction MSE of every dimension of the calibration middle region.

    Uses the normalized inverse transform; with a middle region exactly one
    period long the reconstruction is the orthogonal projection and the MSE
    cleanly measures out-of-band energy. A middle column ``x`` of ``M``
    positions reconstructs as ``P x = C.T W C x``, with ``C`` the basis
    columns of the run and ``W`` the synthesis weights; no middle is ever
    read back through ``C``. One of three forms computes ``|x - P x|**2``:

    * convolution: ``C.T W C`` depends only on the lag between two positions,
      ``k(lag) = sum_n w_n cos(2*pi*n*lag/period)``, so ``P x`` is ``x``
      convolved with ``k``. The kernel is one :meth:`FourierBasis.evaluate`
      per call, and every column one real FFT pair of the power-of-two
      length ``n >= 2M - 1``, in float64: O(M log M) per column whatever the
      orders.
    * Fourier Gram: with ``s = C x`` from :func:`fold_blocks` and the
      data-independent ``G = C C.T``, ``|x - P x|**2 = |x|**2 + s.T (W G W -
      2W) s``: O(orders * (M + orders)) per column for the fold and the
      form. ``G`` is built once per call from the run's cosine and sine sums
      of orders below ``2*orders - 1``, in closed form.
    * moment Gram: the same form with the columns written through ``d``
      Chebyshev moments, ``d`` the moments fold's degree for the middle,
      ``spectral._run_degree`` (98 for 512 orders over 1020 positions at
      period 32768). With ``mu`` a column's
      moments, ``|x - P x|**2 = |x|**2 + mu.T (A H A - 2A) mu``: O(d * (M +
      d)) per column, and two ``d x d`` matrices built once per call in
      closed form (:func:`_moment_grams`). Nothing of size ``2R`` is built.

    One rule picks the form, with ``R = orders``. The Fourier Gram form is
    priced at ``R * (M + 2R)``: its fold's ``2R * M`` multiply-adds and the
    quadratic form's ``(2R)**2`` per column, halved as the rule counts the
    tables' own products. The moment Gram form is priced as the fold prices
    its moments, ``_MOMENT_COST_RATIO * d * (M + d) / 2``. The cheaper of the
    two runs where ``_products_cheaper`` says it beats the convolution, whose
    FFT length is ``L = n/2 + 1``; ties go to the Fourier form. The desk
    middle (16 orders over 956 positions) takes the Fourier Gram form
    (15,808 against 37,772 for the moments), the stock middle the moments
    (109,564, against 1,046,528 for the Fourier Gram form and 180,400 for
    the convolution), and 512 orders over 4000 positions the convolution.
    Whichever runs, the transient memory is one fold group, one group of FFT
    columns or one chunk of Chebyshev rows and its cast, each within
    ``_FOLD_CHUNK_FLOATS`` (1 MB), plus the ``(2*orders, head_dim)`` states
    or ``(d, head_dim)`` moments of one layer; nothing grows with ``M``
    times the orders.
    """
    check_basis(basis, partition)
    middle = partition.middle(trace.seq_len)
    if not middle:
        raise ValueError(
            f"trace too short for calibration: needs more than "
            f"{partition.init_len + partition.local_len} positions, got {trace.seq_len}"
        )
    first, last, length = middle.start, middle.stop, len(middle)
    n_fft = 1 << (2 * length - 2).bit_length()  # linear convolution of M with M: n >= 2M - 1
    degree = spectral._run_degree(basis.orders, basis.period, length)
    # per layer, every head's K, then every head's V: (positions, head_dim) views of the trace
    layers = [
        [*trace.keys[layer, :, first:last], *trace.values[layer, :, first:last]]
        for layer in range(trace.layers)
    ]
    sse = np.empty((trace.layers, 2 * trace.kv_heads, trace.head_dim))
    fourier = basis.orders * (length + 2 * basis.orders)
    moments = spectral._MOMENT_COST_RATIO * degree * (length + degree) / 2
    if not spectral._products_cheaper(min(fourier, moments), n_fft // 2 + 1):
        _convolution_sse(basis, layers, length, n_fft, out=sse)
    elif moments < fourier:
        _moment_sse(basis, layers, length, degree, out=sse)
    else:
        _gram_sse(basis, layers, first, length, out=sse)
    mse = (sse / length).reshape(trace.layers, 2, trace.kv_heads, trace.head_dim)
    return MseRanking(k_mse=mse[:, 0], v_mse=mse[:, 1])


def _gram_sse(basis: FourierBasis, layers, first: int, length: int, out: np.ndarray) -> None:
    """Squared reconstruction error of every column of every block, by the Gram form.

    ``layers`` holds lists of ``(length, dim)`` blocks at positions ``first..``;
    ``out[layer, block]`` receives one error per column.
    """
    weights = basis.synthesis_weights()
    # |x - C.T W s|^2 = |x|^2 - 2 s.T W s + s.T W G W s, with s = C x
    form = _gram(basis, first, length) * weights[:, None] * weights
    form[np.diag_indices_from(form)] -= 2.0 * weights
    for layer_sse, blocks in zip(out, layers):
        states = fold_blocks(basis, blocks, first)
        for total, block, state in zip(layer_sse, blocks, states):
            np.einsum("ij,ij->j", block, block, dtype=np.float64, out=total)
            total += np.einsum("ij,ij->j", state.coeffs, form @ state.coeffs)
    # the form cancels on a column it reconstructs almost exactly, and may dip below 0
    np.maximum(out, 0.0, out=out)


def _gram(basis: FourierBasis, first: int, length: int) -> np.ndarray:
    """``C C.T`` over a run, from the run's cosine and sine sums of orders below ``2*orders - 1``.

    With ``c(n)`` and ``s(n)`` the sums of ``cos(theta_n t)`` and ``sin(theta_n t)``
    over the run, products of two basis rows are sums and differences of angles:
    ``cos a cos b = (cos(a - b) + cos(a + b)) / 2`` and so on, so every entry
    is half a sum of ``c`` or ``s`` at ``|n - m|`` and ``n + m``. The sum of
    ``exp(i*theta_n*t)`` over ``M`` positions is the phase of the run's centre
    times ``sin(pi*n*M/period) / sin(pi*n/period)`` (``M`` at ``n = 0``, the
    only ``n`` below ``period`` whose denominator is 0), angles reduced in integers.
    """
    n = np.arange(2 * basis.orders - 1, dtype=np.int64)
    sums = spectral._unit_phase(n * (2 * first + length - 1), basis.period)
    sums[0] = length
    sums[1:] *= (spectral._unit_phase(n[1:] * length, basis.period).imag
                 / spectral._unit_phase(n[1:], basis.period).imag)
    c, s = sums.real, sums.imag
    n = np.arange(basis.orders)
    diff, total = n[:, None] - n, n[:, None] + n
    # sin(theta_d) is odd in d: s at n - m is sign(n - m) * s(|n - m|)
    s_diff = np.sign(diff) * s[np.abs(diff)]
    gram = np.empty((basis.orders, 2, basis.orders, 2))
    gram[:, 0, :, 0] = c[np.abs(diff)] + c[total]
    gram[:, 1, :, 1] = c[np.abs(diff)] - c[total]
    gram[:, 0, :, 1] = s[total] - s_diff
    gram[:, 1, :, 0] = s[total] + s_diff
    gram *= 0.5
    return gram.reshape(basis.n_rows, basis.n_rows)


def _moment_sse(basis: FourierBasis, layers, length: int, degree: int, out: np.ndarray) -> None:
    """Squared reconstruction error of every column of every block, by the moment Gram form.

    Blocks and ``out`` as for :func:`_gram_sse`, whose form this is with the
    basis columns written as ``C = G.T P`` (see :func:`_moment_grams`): with
    a column's ``degree`` Chebyshev moments ``mu = P x``, ``|x - P x|**2 =
    |x|**2 + mu.T (A H A - 2A) mu``. Each layer's moments are summed over
    the chunks of :func:`_chebyshev_chunks`, each projecting a block's
    columns in groups whose float64 casts take at most the other half of
    the fold's budget.
    """
    a, h = _moment_grams(basis, length, degree)
    form = a @ (h @ a)
    form -= 2.0 * a
    del a, h
    for layer_sse, blocks in zip(out, layers):
        moments = [np.zeros((degree, block.shape[1])) for block in blocks]
        for p0, p1, rows in _chebyshev_chunks(length, degree):
            width = max(1, spectral._FOLD_CHUNK_FLOATS // 2 // (p1 - p0))
            for block, mu in zip(blocks, moments):
                for c0 in range(0, block.shape[1], width):
                    mu[:, c0 : c0 + width] += rows @ block[p0:p1, c0 : c0 + width]
        for total, block, mu in zip(layer_sse, blocks, moments):
            np.einsum("ij,ij->j", block, block, dtype=np.float64, out=total)
            total += np.einsum("ij,ij->j", mu, form @ mu)
    # as for the Fourier Gram form, a column reconstructed almost exactly may dip below 0
    np.maximum(out, 0.0, out=out)


def _chebyshev_chunks(length: int, degree: int):
    """``P[:, p0:p1]``, ``P[k, m] = T_k(x_m)``, over a run of ``length`` positions, by chunks.

    Yields ``(p0, p1, rows)`` with ``x_m = (2m - (length - 1)) / length``,
    from :func:`spectral._chebyshev_rows`. The chunks have equal widths,
    none a short remainder, and share one buffer within half of
    ``spectral._FOLD_CHUNK_FLOATS``.
    """
    positions = max(1, min(length, spectral._FOLD_CHUNK_FLOATS // 2 // degree))
    positions = -(-length // -(-length // positions))
    cheb = np.empty((degree, positions))
    for p0 in range(0, length, positions):
        p1 = min(length, p0 + positions)
        rows = cheb[:, : p1 - p0]
        spectral._chebyshev_rows((2 * np.arange(p0, p1) - (length - 1)) / length, rows)
        yield p0, p1, rows


def _moment_grams(basis: FourierBasis, length: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """``A = G W G.T`` and ``H = P P.T`` of a run of ``length`` positions, each ``(degree, degree)``.

    With the run mapped onto ``x_m = (2m - (length - 1)) / length`` in
    ``(-1, 1)``, ``P[k, m] = T_k(x_m)``, and ``G`` the Chebyshev
    coefficients of the basis rows over it, as :func:`spectral._fold_moments`
    reads them, ``C = G.T P`` within twice ``spectral._MOMENT_TAIL`` once
    ``degree`` is ``spectral._run_degree`` of the run; ``W`` holds the
    synthesis weights. ``G`` is the transpose of the DCT-III (scaled by
    ``1/degree``) applied to the waves at the ``degree`` Chebyshev nodes
    ``y_j``, so ``A`` is that DCT's transpose times ``V W V.T`` times the
    DCT. Entry ``[j, k]`` of ``V W V.T`` sums ``w_r cos(r * phi)`` over the
    orders ``r``, ``phi = pi * length * (y_j - y_k) / period``: the
    Dirichlet kernel ``sin((R - 1/2) phi) / sin(phi/2) / period``, and
    ``(2R - 1) / period`` at ``phi = 0``. The run's centre phase cancels,
    so ``A`` does not depend on where the run starts. ``H`` is ``(sigma[j +
    k] + sigma[|j - k|]) / 2``, from ``T_j T_k = (T_(j+k) + T_|j-k|) / 2``
    and the sums ``sigma_n = sum_m T_n(x_m)``, ``n < 2*degree - 1``. The
    positions are symmetric about 0 and ``T_n`` is odd for odd ``n``, so
    the odd sums vanish; by the same identity the even ones are ``sigma[2j]
    = 2 sum_m T_j(x_m)**2 - sigma[0]``, from ``P``'s rows, a chunk of
    :func:`_chebyshev_chunks` at a time.
    """
    nodes = np.cos(np.pi * (np.arange(degree) + 0.5) / degree)
    phi = (np.pi * length / basis.period) * (nodes[:, None] - nodes)
    # the nodes are distinct, so sin(phi/2) is 0 on the diagonal only
    np.fill_diagonal(phi, 1.0)
    kernel = np.sin((basis.orders - 0.5) * phi)
    phi *= 0.5
    kernel /= np.sin(phi, out=phi)
    del phi
    np.fill_diagonal(kernel, 2 * basis.orders - 1)
    kernel /= basis.period
    # DCT-III of the identity: column k holds eps_k * T_k at the nodes
    dct3 = scipy.fft.dct(np.eye(degree), type=3, axis=0, overwrite_x=True)
    dct3 /= degree
    a = dct3.T @ (kernel @ dct3)
    del kernel, dct3

    squares = np.zeros(degree)
    for _, _, rows in _chebyshev_chunks(length, degree):
        squares += np.einsum("ij,ij->i", rows, rows)
    sigma = np.zeros(2 * degree - 1)
    sigma[0::2] = 2.0 * squares - squares[0]
    n = np.arange(degree)
    h = sigma[n[:, None] + n] + sigma[np.abs(n[:, None] - n)]
    h *= 0.5
    return a, h


def _convolution_sse(basis: FourierBasis, layers, length: int, n_fft: int,
                     out: np.ndarray) -> None:
    """Squared reconstruction error of every column of every block, by FFT convolution.

    Blocks and ``out`` as for :func:`_gram_sse`; ``n_fft >= 2 * length - 1``.
    """
    weights = np.zeros(basis.n_rows)
    weights[0::2] = basis.synthesis_weights()[0::2]
    kernel = basis.evaluate(weights, range(length))
    # the kernel is even in the lag, so it wraps into a circulant of length n_fft
    # whose spectrum is real
    wrapped = np.zeros(n_fft)
    wrapped[:length] = kernel
    wrapped[n_fft - length + 1 :] = kernel[:0:-1]
    spectrum = scipy.fft.rfft(wrapped).real
    # the padded columns, their spectrum and their convolution: 3n + 2 floats a column
    group = max(1, spectral._FOLD_CHUNK_FLOATS // (3 * n_fft + 2))
    for layer_sse, blocks in zip(out, layers):
        for total, block in zip(layer_sse, blocks):
            for lo in range(0, block.shape[1], group):
                # float64 before the FFT: scipy.fft keeps float32 input in single precision
                padded = np.zeros((min(group, block.shape[1] - lo), n_fft))
                padded[:, :length] = block[:, lo : lo + group].T
                freq = scipy.fft.rfft(padded)
                freq *= spectrum
                err = scipy.fft.irfft(freq, n_fft)[:, :length]
                err -= padded[:, :length]
                np.einsum("ij,ij->i", err, err, out=total[lo : lo + group])


def apply_schema(
    ranking: MseRanking, schema: CompressionSchema, *, partition: PartitionParams
) -> CacheLayout:
    """Turn ranked MSEs plus a ratio table into the layout's compressed mask.

    In each layer, every head compresses the ``round(ratio * head_dim)``
    lowest-MSE dimensions of its K and of its V (round-half-even; ties
    broken by ascending index, as one stable ``argsort`` ranks them): the
    mask ``(layers, 2, kv_heads, head_dim)`` of :class:`CacheLayout` is
    ``True`` where a dimension's rank is below its layer's count. An
    all-zero ranking compresses dimensions in index order.
    """
    head_dim = ranking.head_dim
    if schema.layers != ranking.layers:
        raise ValueError(f"schema covers {schema.layers} layers, geometry has {ranking.layers}")
    # (layers, 2) compressed counts; np.rint rounds half to even like round()
    counts = np.rint(np.asarray(schema.ratios, dtype=np.float64).reshape(-1, 2) * head_dim)
    order = np.argsort(np.stack([ranking.k_mse, ranking.v_mse], axis=1), axis=-1, kind="stable")
    compressed = np.empty(order.shape, dtype=bool)
    np.put_along_axis(compressed, order, np.arange(head_dim) < counts[:, :, None, None], axis=-1)
    return CacheLayout(partition=partition, compressed=compressed)


def temporal_std(trace: KVTrace) -> np.ndarray:
    """Per-layer std-over-time curves, dimensions sorted within each head.

    Returns ``(layers, 2, head_dim)``: index 1 selects K (0) or V (1); the
    last axis holds each head's descending-sorted population std averaged
    across heads, matching the usual sorted-per-head presentation. Each
    layer's K, then V, is cast to float64 once and centred, squared and
    averaged in that copy: the operations of ``astype(float64).std(axis=2)``
    with one layer-sized array instead of two trace-sized ones, so the
    result is bitwise the same.
    """
    if trace.seq_len < 2:
        raise ValueError("temporal std needs at least 2 positions")
    out = np.empty((trace.layers, 2, trace.head_dim))
    stds = np.empty((trace.layers, trace.kv_heads, trace.head_dim))  # population std
    for idx, data in enumerate((trace.keys, trace.values)):
        for layer, block in enumerate(data):
            centred = block.astype(np.float64)
            centred -= centred.mean(axis=1, keepdims=True)
            np.square(centred, out=centred)
            np.sqrt(centred.mean(axis=1), out=stds[layer])
        out[:, idx, :] = np.sort(stds, axis=2)[:, :, ::-1].mean(axis=1)
    return out


@dataclass
class SelectionReport:
    """Chosen dimension sets plus the diagnostics that justified them."""

    layout: CacheLayout
    schema: CompressionSchema
    ranking: MseRanking | None = None


def build_selection_report(
    trace: KVTrace,
    schema: CompressionSchema,
    partition: PartitionParams,
    basis: FourierBasis,
) -> SelectionReport:
    ranking = rank_dimensions(trace, partition, basis)
    layout = apply_schema(ranking, schema, partition=partition)
    return SelectionReport(layout=layout, schema=schema, ranking=ranking)


def selection_histogram(report: SelectionReport) -> np.ndarray:
    """Compressed-dimension counts grouped every :data:`HISTOGRAM_GROUP` indices.

    Returns ``(layers, 2, n_groups)`` of per-group counts averaged across
    heads (K at index 0, V at 1). The last group may cover fewer indices.
    """
    layout = report.layout
    starts = np.arange(0, layout.head_dim, HISTOGRAM_GROUP)
    return np.add.reduceat(layout.compressed.sum(axis=2), starts, axis=-1) / layout.kv_heads


def write_selection_manifest(report: SelectionReport, path) -> None:
    """Serialize the selection as a versioned JSON manifest (deterministic bytes)."""
    layout = report.layout
    part = layout.partition
    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "geometry": {
            "layers": layout.layers,
            "kv_heads": layout.kv_heads,
            "head_dim": layout.head_dim,
        },
        "partition": {
            "init_len": part.init_len,
            "local_len": part.local_len,
            "period": part.period,
            "orders": part.orders,
        },
        "schema": {
            "preset": report.schema.preset,
            "ratios": [[k, v] for k, v in report.schema.ratios],
        },
        "dims": [
            [
                {
                    "k_compressed": layout.dims[layer][head].k_compressed.tolist(),
                    "v_compressed": layout.dims[layer][head].v_compressed.tolist(),
                }
                for head in range(layout.kv_heads)
            ]
            for layer in range(layout.layers)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _manifest_mask(rows, layers: int, kv_heads: int, head_dim: int) -> np.ndarray:
    """The ``(layers, 2, kv_heads, head_dim)`` mask a manifest's ``dims`` table lists.

    The table is checked to be ``layers x kv_heads`` before the mask exists;
    every index must be an ``int`` (not a bool) in ``[0, head_dim)``, and
    repeats are allowed.
    """
    if len(rows) != layers or any(len(row) != kv_heads for row in rows):
        raise ValueError(f"dims must be a {layers} x {kv_heads} table")
    mask = np.zeros((layers, 2, kv_heads, head_dim), dtype=bool)
    for layer, row in enumerate(rows):
        for head, entry in enumerate(row):
            for kv, key in enumerate(("k_compressed", "v_compressed")):
                indices = entry[key]
                if not all(type(i) is int and 0 <= i < head_dim for i in indices):
                    raise ValueError(f"{key} entries must be integers in [0, {head_dim})")
                mask[layer, kv, head, indices] = True
    return mask


def read_selection_manifest(path, geometry):
    """Load a manifest, for a trace of ``geometry``, back into (CacheLayout, CompressionSchema).

    ``geometry`` is the trace's ``(layers, kv_heads, head_dim)``. The file's
    own geometry is compared with it before anything is sized by the file's
    numbers, so a small file stating a huge ``head_dim`` is rejected without
    allocating for it. Each head's ``k_compressed`` and ``v_compressed``
    index lists become the ``True`` entries of the layout's ``(layers, 2,
    kv_heads, head_dim)`` mask. A file that is not a manifest, or one with
    another geometry or a missing, mistyped or invalid field, such as a
    ``dims`` table that is not ``layers x kv_heads``, an index that is not an
    integer in ``[0, head_dim)``, or a partition whose orders break
    ``2*orders - 1 <= period``, raises ``ValueError`` naming ``path``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a selection manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {doc.get('version')}")
    try:
        geom = doc["geometry"]
        stated = (geom["layers"], geom["kv_heads"], geom["head_dim"])
        if stated != tuple(geometry):
            raise ValueError(f"geometry {stated} does not match the trace's {tuple(geometry)}")
        layout = CacheLayout(
            partition=PartitionParams(**doc["partition"]),
            compressed=_manifest_mask(doc["dims"], *stated),
        )
        schema = CompressionSchema(
            ratios=tuple((k, v) for k, v in doc["schema"]["ratios"]),
            preset=doc["schema"]["preset"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: malformed selection manifest: {type(exc).__name__} {exc}"
        ) from exc
    return layout, schema

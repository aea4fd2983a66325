"""Choosing which head dimensions to compress, and with what ratios.

Dimensions are ranked per (layer, head) by how well the spectral compressor
reconstructs them on a calibration trace (mean squared error, ties broken by
ascending index), then a per-layer ratio schema decides how many of the
best-reconstructed dimensions each head folds. The ranking never reads a
middle region back through basis columns. With many orders (stock) the
fold-and-reconstruct operator is a convolution with one kernel over the lag,
so each dimension costs one real FFT pair of about twice the middle's
length; with few orders (desk) each dimension's error is a quadratic form
of its folded state with one data-independent Gram matrix. The decode
transforms' cost rule picks between them, and either keeps its transient
within the batch fold's 1 MB chunk. The stock schema compresses
more of the V cache than the K cache and more of the lower layers than the
upper ones (an inverted pyramid); ablation variants flatten, swap, or flip
it. Diagnostics cover temporal standard deviations and the distribution of
compressed indices grouped every 16 dimensions.
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
    read back through ``C``. One of two forms computes ``|x - P x|**2``:

    * convolution: ``C.T W C`` depends only on the lag between two positions,
      ``k(lag) = sum_n w_n cos(2*pi*n*lag/period)``, so ``P x`` is ``x``
      convolved with ``k``. The kernel is one :meth:`FourierBasis.evaluate`
      per call, and every column one real FFT pair of the power-of-two
      length ``n >= 2M - 1``, in float64: O(M log M) per column whatever the
      orders.
    * Gram: with ``s = C x`` from :func:`fold_blocks` and the
      data-independent ``G = C C.T``, ``|x - P x|**2 = |x|**2 + s.T (W G W -
      2W) s``: O(orders * (M + orders)) per column for the fold and the
      form. ``G`` is built once per call from the run's cosine and sine sums
      of orders below ``2*orders - 1``, in closed form.

    The decode transforms' cost rule picks the form, pricing the Gram form's
    ``2R * M`` multiply-adds of the fold and ``(2R)**2`` of the quadratic
    form per column, halved as the rule counts the tables' own products:
    ``R * (M + 2R)`` with ``R = orders``, against
    ``_TABLE_COST_RATIO * L log2 L`` with ``L = n/2 + 1``. 16 orders over a
    thousand positions take the Gram form, 256 orders and more the
    convolution. Either way the transient
    memory is one fold group or one group of FFT columns, each within
    ``_FOLD_CHUNK_FLOATS`` (1 MB), plus the ``(2*orders, head_dim)`` states
    of one layer; nothing grows with ``M`` times the orders.
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
    # per layer, every head's K, then every head's V: (positions, head_dim) views of the trace
    layers = [
        [*trace.keys[layer, :, first:last], *trace.values[layer, :, first:last]]
        for layer in range(trace.layers)
    ]
    sse = np.empty((trace.layers, 2 * trace.kv_heads, trace.head_dim))
    if spectral._products_cheaper(basis.orders * (length + 2 * basis.orders), n_fft // 2 + 1):
        _gram_sse(basis, layers, first, length, out=sse)
    else:
        _convolution_sse(basis, layers, length, n_fft, out=sse)
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


def selection_histogram(report: SelectionReport, group: int = 16) -> np.ndarray:
    """Compressed-dimension counts grouped every ``group`` indices.

    Returns ``(layers, 2, n_groups)`` of per-group counts averaged across
    heads (K at index 0, V at 1). The last group may cover fewer indices.
    """
    if group < 1:
        raise ValueError("group must be >= 1")
    layout = report.layout
    starts = np.arange(0, layout.head_dim, group)
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


def read_selection_manifest(path):
    """Load a manifest back into (CacheLayout, CompressionSchema).

    Each head's ``k_compressed`` and ``v_compressed`` index lists become the
    ``True`` entries of the layout's ``(layers, 2, kv_heads, head_dim)``
    mask. A file that is not a manifest, or one with a missing, mistyped or
    invalid field, such as a ``dims`` table that is not ``layers x
    kv_heads``, an index that is not an integer in ``[0, head_dim)``, or a
    partition whose orders break ``2*orders - 1 <= period``, raises
    ``ValueError`` naming ``path``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a selection manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {doc.get('version')}")
    try:
        geom = doc["geometry"]
        layout = CacheLayout(
            partition=PartitionParams(**doc["partition"]),
            compressed=_manifest_mask(
                doc["dims"], geom["layers"], geom["kv_heads"], geom["head_dim"]
            ),
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

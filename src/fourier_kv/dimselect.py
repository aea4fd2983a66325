"""Choosing which head dimensions to compress, and with what ratios.

Dimensions are ranked per (layer, head) by how well the spectral compressor
reconstructs them on a calibration trace (mean squared error, ties broken by
ascending index), then a per-layer ratio schema decides how many of the
best-reconstructed dimensions each head folds. The stock schema compresses
more of the V cache than the K cache and more of the lower layers than the
upper ones (an inverted pyramid); ablation variants flatten, swap, or flip
it. Diagnostics cover temporal standard deviations and the distribution of
compressed indices grouped every 16 dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from fourier_kv.cache import CacheLayout, HeadDims, PartitionParams
from fourier_kv.spectral import FourierBasis, _run_columns, fold_blocks
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
    """Compress-and-reconstruct every dimension of the calibration middle region.

    Uses the normalized inverse transform; with a middle region exactly one
    period long the reconstruction is the orthogonal projection and the MSE
    cleanly measures out-of-band energy. Per layer, every head's K and V
    middle is folded by one :func:`fold_blocks` call, and the readback runs
    chunk by chunk over the same run columns: each chunk's reconstruction is
    compared with the trace and only its squared error per dimension is
    kept, so no ``(2k, positions)`` column block and no full reconstruction
    is ever built.
    """
    if basis.orders != partition.orders or basis.period != partition.period:
        raise ValueError("basis geometry does not match the partition")
    first = partition.init_len
    last = trace.seq_len - partition.local_len  # exclusive
    if last - first < 1:
        raise ValueError(
            f"trace too short for calibration: needs more than "
            f"{partition.init_len + partition.local_len} positions, got {trace.seq_len}"
        )
    length = last - first
    weights = basis.synthesis_weights()[:, None]
    shape = (trace.layers, trace.kv_heads, trace.head_dim)
    k_mse = np.empty(shape)
    v_mse = np.empty(shape)
    for layer in range(trace.layers):
        # every head's K, then every head's V: (positions, head_dim) views of the trace
        blocks = [*trace.keys[layer, :, first:last], *trace.values[layer, :, first:last]]
        states = fold_blocks(basis, blocks, first)
        for state in states:
            state.coeffs *= weights
        sse = np.zeros((len(blocks), trace.head_dim))
        for lo, cols_t in _run_columns(basis, first, length):
            hi = lo + cols_t.shape[0]
            for total, block, state in zip(sse, blocks, states):
                err = cols_t @ state.coeffs
                err -= block[lo:hi]
                total += np.einsum("ij,ij->j", err, err)
        k_mse[layer], v_mse[layer] = (sse / length).reshape(2, trace.kv_heads, trace.head_dim)
    return MseRanking(k_mse=k_mse, v_mse=v_mse)


def _select_lowest(mse_row: np.ndarray, count: int) -> np.ndarray:
    order = np.lexsort((np.arange(mse_row.size), mse_row))
    return np.sort(order[:count])


def apply_schema(
    ranking: MseRanking | None,
    schema: CompressionSchema,
    *,
    layers: int | None = None,
    kv_heads: int | None = None,
    head_dim: int | None = None,
    partition: PartitionParams,
) -> CacheLayout:
    """Turn ranked MSEs plus a ratio table into concrete dimension sets.

    Each head compresses its ``round(ratio * head_dim)`` lowest-MSE
    dimensions (round-half-even; ties broken by ascending index). With no
    ranking, dimensions are taken in index order, which is the all-ties
    fallback.
    """
    if ranking is not None:
        layers, kv_heads, head_dim = ranking.layers, ranking.kv_heads, ranking.head_dim
    if layers is None or kv_heads is None or head_dim is None:
        raise ValueError("geometry is required when no ranking is given")
    if schema.layers != layers:
        raise ValueError(f"schema covers {schema.layers} layers, geometry has {layers}")

    dims = []
    for layer in range(layers):
        k_ratio, v_ratio = schema.ratios[layer]
        k_count = round(k_ratio * head_dim)
        v_count = round(v_ratio * head_dim)
        row = []
        for head in range(kv_heads):
            if ranking is None:
                k_sel = np.arange(k_count, dtype=np.int64)
                v_sel = np.arange(v_count, dtype=np.int64)
            else:
                k_sel = _select_lowest(ranking.k_mse[layer, head], k_count)
                v_sel = _select_lowest(ranking.v_mse[layer, head], v_count)
            row.append(HeadDims.from_compressed(head_dim, k_sel, v_sel))
        dims.append(row)
    return CacheLayout(
        layers=layers, kv_heads=kv_heads, head_dim=head_dim, partition=partition, dims=dims
    )


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
    std_curves: np.ndarray | None = None


def build_selection_report(
    trace: KVTrace,
    schema: CompressionSchema,
    partition: PartitionParams,
    basis: FourierBasis,
) -> SelectionReport:
    ranking = rank_dimensions(trace, partition, basis)
    layout = apply_schema(ranking, schema, partition=partition)
    return SelectionReport(
        layout=layout, schema=schema, ranking=ranking, std_curves=temporal_std(trace)
    )


def selection_histogram(report: SelectionReport, group: int = 16) -> np.ndarray:
    """Compressed-dimension counts grouped every ``group`` indices.

    Returns ``(layers, 2, n_groups)`` of per-group counts averaged across
    heads (K at index 0, V at 1). The last group may cover fewer indices.
    """
    if group < 1:
        raise ValueError("group must be >= 1")
    layout = report.layout
    n_groups = -(-layout.head_dim // group)
    out = np.zeros((layout.layers, 2, n_groups))
    for layer in range(layout.layers):
        for head in range(layout.kv_heads):
            hd = layout.dims[layer][head]
            for idx, sel in enumerate((hd.k_compressed, hd.v_compressed)):
                counts = np.bincount(sel // group, minlength=n_groups)
                out[layer, idx] += counts
    return out / layout.kv_heads


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


def read_selection_manifest(path):
    """Load a manifest back into (CacheLayout, CompressionSchema)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a selection manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {doc.get('version')}")
    geom = doc["geometry"]
    part = PartitionParams(**doc["partition"])
    dims = [
        [
            HeadDims.from_compressed(
                geom["head_dim"], entry["k_compressed"], entry["v_compressed"]
            )
            for entry in row
        ]
        for row in doc["dims"]
    ]
    layout = CacheLayout(
        layers=geom["layers"],
        kv_heads=geom["kv_heads"],
        head_dim=geom["head_dim"],
        partition=part,
        dims=dims,
    )
    schema = CompressionSchema(
        ratios=tuple((k, v) for k, v in doc["schema"]["ratios"]),
        preset=doc["schema"]["preset"],
    )
    return layout, schema

"""Choosing which head dimensions to compress, and with what ratios.

Dimensions are ranked per (layer, head) by how well the spectral compressor
reconstructs them on a calibration trace (mean squared error, ties broken by
ascending index), then a per-layer ratio schema decides how many of the
best-reconstructed dimensions each head folds. The ranking never reads a
middle region back through basis columns: a convolution over the lag (many
orders over a long middle) or a quadratic form of each dimension's centred
Fourier sums (desk) or Chebyshev moments (stock), through the middle's even
and odd halves, computes the errors, as the decode transforms' cost rule
prices them. The stock schema compresses more of the V cache than the K
cache and more of the lower layers than the upper ones (an inverted
pyramid); ablation variants flatten, swap, or flip it. Diagnostics cover temporal standard deviations and the distribution of
compressed indices grouped every ``HISTOGRAM_GROUP`` (16) dimensions.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from fourier_kv import spectral
from fourier_kv.cache import CacheLayout, PartitionParams, check_basis
from fourier_kv.spectral import FourierBasis
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
    columns of the run and ``W`` the synthesis weights, never read back
    through ``C``. ``C.T W C`` depends only on the lag between positions, so
    the errors do not depend on where the middle starts. One of three forms
    computes ``|x - P x|**2``: the convolution of ``x`` with ``k(lag) =
    sum_n w_n cos(2*pi*n*lag/period)``, one real FFT pair per column in
    float64, of length ``n = spectral._fast_len(2M - 1)``, as the chirp-z
    transform pads; or
    ``|x|**2`` plus a quadratic form of the column's sums against the
    cosine and sine rows about the middle's centre, as the batch fold over
    the trig tables reads them (Fourier Gram, :func:`_fourier_split`), or
    of its ``d = spectral._run_degree``
    Chebyshev moments (moment Gram, :func:`_moment_split`; 98 for 512 orders
    over 1020 positions at period 32768), both through :func:`_split_sse`.

    With ``R = orders``, one rule prices each Gram form per column at half
    its unsplit work, as the split halves it: the Fourier form at ``R * (M +
    2R) / 2``, the moments at ``_MOMENT_COST_RATIO * (d * (M + d) / 4 + 2 *
    d**3 / columns)``, whose second term spreads their ``d x d`` build over
    the trace's columns, while four ``d x d`` matrices fit
    ``_FOLD_CHUNK_FLOATS`` (``d <= 181``). The cheaper runs where
    ``_products_cheaper`` says it beats the convolution (FFT length ``L =
    p/2 + 1``, with ``p`` the power of two at or above ``n`` that the ratios
    were timed against); ties go to the Fourier form. Desk (16 orders over 956
    positions) takes the Fourier form (7,904), stock the moments (69,488 at
    256 columns, against 523,264 and the convolution's 180,400), and 512
    orders over 256 positions at period 4096 (168 moments, 109,704) or over
    4000 at period 32768 (299 moments) the convolution. The transient is one
    group of FFT columns, or one chunk of rows and a block's halves, within
    ``_FOLD_CHUNK_FLOATS`` (1 MB), plus one layer's sums or moments: the
    forms and one block's products with them fit the budget's share for the
    rows' build. Rows that fit the budget whole are the run's table in
    ``spectral``'s cache of fold tables, built by the first call over the
    middle and read by every later one and by the batch fold over the same
    run, held there rather than transient: 0.40 MB at stock, 0.12 MB at desk.
    """
    check_basis(basis, partition)
    middle = partition.middle(trace.seq_len)
    if not middle:
        raise ValueError(
            f"trace too short for calibration: needs more than "
            f"{partition.init_len + partition.local_len} positions, got {trace.seq_len}"
        )
    first, last, length = middle.start, middle.stop, len(middle)
    n_fft = spectral._fast_len(2 * length - 1)  # linear convolution of M with M
    degree = spectral._run_degree(basis.orders, basis.period, length)
    # per layer, every head's K, then every head's V: (positions, head_dim) views of the trace
    layers = [
        [*trace.keys[layer, :, first:last], *trace.values[layer, :, first:last]]
        for layer in range(trace.layers)
    ]
    sse = np.empty((trace.layers, 2 * trace.kv_heads, trace.head_dim))
    fourier = basis.orders * (length + 2 * basis.orders) / 2
    # the moments' d x d build, about 4 d**3 multiply-adds priced as their
    # products are (half the ratio each), is shared by every column
    columns = trace.layers * 2 * trace.kv_heads * trace.head_dim
    moments = spectral._MOMENT_COST_RATIO * (degree * (length + degree) / 4
                                             + 2 * degree**3 / columns)
    if 4 * degree**2 > spectral._FOLD_CHUNK_FLOATS:
        moments = math.inf  # its d x d matrices, four at a time, would outgrow the fold's budget
    # the real FFT pair priced at the power of two at or above n_fft, as the ratios were timed
    fft_len = (1 << (n_fft - 1).bit_length()) // 2 + 1
    if not spectral._products_cheaper(min(fourier, moments), fft_len):
        _convolution_sse(basis, layers, length, n_fft, out=sse)
    elif moments < fourier:
        _split_sse(*_moment_split(basis, length, degree), layers, length, out=sse)
    else:
        _split_sse(*_fourier_split(basis, length), layers, length, out=sse)
    mse = (sse / length).reshape(trace.layers, 2, trace.kv_heads, trace.head_dim)
    return MseRanking(k_mse=mse[:, 0], v_mse=mse[:, 1])


def _split_sse(rows, forms: tuple, layers, length: int, out: np.ndarray) -> None:
    """Squared reconstruction error of every column of every block, through its halves.

    ``layers`` holds lists of ``(length, dim)`` blocks of the middle, and
    ``out[layer, block]`` receives one error per column. ``rows(step)``
    yields the rows at the pairs' offsets from the centre ``step`` pairs at
    a time, as ``spectral._pair_rows`` does, the even ones at even indices;
    ``forms`` holds ``F_e`` and ``F_o``. Rows ``i`` and ``length - 1 - i``
    pair up as the batch fold pairs them (``spectral._centred_pairs``, an
    odd middle's centre with zero): with a pair's halves ``E = x(v) +
    x(-v)`` and ``O = x(v) - x(-v)``, cast once to float64, ``a = rows_even
    @ E`` and ``b = rows_odd @ O``, the error is ``|x|**2 + a.T F_e a + b.T
    F_o b``, and ``|x|**2`` is ``(|E|**2 + |O|**2) / 2``. A chunk's rows and
    a block's halves fit ``_FOLD_CHUNK_FLOATS``; every layer reads the rows
    from the run's cached table, which the batch fold over the same run
    reads too, or builds them per chunk where the table does not fit that
    budget. The forms meet one block's sums at a time.
    """
    f_even, f_odd = forms
    half = (length + 1) // 2  # pairs, the centre of an odd middle among them
    dim = layers[0][0].shape[1]
    count = len(f_even) + len(f_odd)
    step = max(1, min(half, spectral._FOLD_CHUNK_FLOATS // (2 * count + 2 * dim)))
    halves = np.empty(2 * step * dim)  # a chunk's sums, then its differences
    for layer_sse, blocks in zip(out, layers):
        a = np.zeros((len(blocks), len(f_even), dim))
        b = np.zeros((len(blocks), len(f_odd), dim))
        layer_sse[:] = 0.0
        for p0, p1, chunk in rows(step):
            pairs = halves[: 2 * (p1 - p0) * dim].reshape(2, p1 - p0, dim)
            for block, a_sum, b_sum, total in zip(blocks, a, b, layer_sse):
                even, odd = spectral._centred_pairs(block, p0, pairs)
                total += np.einsum("kij,kij->j", pairs, pairs)
                a_sum += chunk[0::2] @ even
                b_sum += chunk[1::2] @ odd
        layer_sse *= 0.5
        # a block at a time: the forms' products are one block's sums, not a layer's
        for total, a_sum, b_sum in zip(layer_sse, a, b):
            total += np.einsum("ij,ij->j", a_sum, f_even @ a_sum)
            total += np.einsum("ij,ij->j", b_sum, f_odd @ b_sum)
    # the forms cancel on a column reconstructed almost exactly, which may dip below 0
    np.maximum(out, 0.0, out=out)


def _fourier_split(basis: FourierBasis, length: int) -> tuple:
    """The rows and forms of :func:`_split_sse` for the Fourier Gram form of a run.

    The rows are ``spectral._centred_rows``, the cosine and sine rows of
    each order at the offsets ``v`` from the run's centre, interleaved as
    the basis interleaves its columns, as the batch fold over the trig
    tables reads them; a state of absolute positions reaches them by
    rotating order ``n`` by the centre's phase. Both rows of an order share
    a weight ``w_n``: the forms are ``W G W - 2W`` over :func:`_fourier_grams`.
    """
    weights = basis.synthesis_weights()[0::2]
    forms = tuple(g * weights[:, None] * weights - 2.0 * np.diag(weights)
                  for g in _fourier_grams(basis, length))
    return functools.partial(spectral._pair_rows, basis.orders, basis.period, length,
                             basis.n_rows, True), forms


def _fourier_grams(basis: FourierBasis, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The centred cosine and sine Gram halves of a run of ``length`` positions.

    Entry ``[n, m]`` sums ``cos(theta_n v) cos(theta_m v)``, or the sines,
    over the offsets ``v`` from the run's centre: half the sum, or the
    difference, of ``c(|n - m|)`` and ``c(n + m)``, ``c(m) = sin(pi*m*M/period)
    / sin(pi*m/period)`` the real Dirichlet sum (``M`` at ``m = 0``), angles
    reduced in integers. Over symmetric offsets the cosine-sine entries vanish.
    """
    m = np.arange(1, 2 * basis.orders - 1, dtype=np.int64)
    sums = np.full(2 * basis.orders - 1, float(length))
    sums[1:] = (spectral._unit_phase(m * length, basis.period).imag
                / spectral._unit_phase(m, basis.period).imag)
    n = np.arange(basis.orders)
    diff, total = sums[np.abs(n[:, None] - n)], sums[n[:, None] + n]
    return (diff + total) / 2, (diff - total) / 2


def _moment_split(basis: FourierBasis, length: int, degree: int) -> tuple:
    """The rows and forms of :func:`_split_sse` for the moment Gram form of a run.

    The rows are ``T_k(2v / length)``, ``k < degree``; the forms are the even
    and odd blocks of ``A H A - 2A`` (:func:`_moment_grams`), whose
    cross-parity entries vanish, as ``H`` and ``A``'s kernel are even.
    """
    a, h = _moment_grams(basis, length, degree)
    form = a @ (h @ a)
    form -= 2.0 * a
    rows = functools.partial(spectral._pair_rows, basis.orders, basis.period, length, degree,
                             False)
    return rows, (form[0::2, 0::2].copy(), form[1::2, 1::2].copy())


def _moment_grams(basis: FourierBasis, length: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """``A = G W G.T`` and ``H = P P.T`` of a run of ``length`` positions, each ``(degree, degree)``.

    With ``x_m = (2m - (length - 1)) / length``, ``P[k, m] = T_k(x_m)`` and
    ``G`` the Chebyshev coefficients of the basis rows as
    :func:`spectral._fold_moments` reads them, ``C = G.T P`` within twice
    ``spectral._MOMENT_TAIL`` at ``spectral._run_degree``; ``W`` holds the
    synthesis weights. ``A`` is the transposed DCT-III (scaled by
    ``1/degree``) times ``V W V.T`` at the Chebyshev nodes ``y_j`` times the
    DCT, entry ``[j, k]`` of ``V W V.T`` the Dirichlet kernel ``sin((R -
    1/2) phi) / sin(phi/2) / period`` at ``phi = pi * length * (y_j - y_k) /
    period`` (``(2R - 1) / period`` at 0). ``H`` is ``(sigma[j + k] +
    sigma[|j - k|]) / 2`` for ``sigma_n = sum_m T_n(x_m)``: 0 for odd ``n``,
    ``2 sum_m T_j(x_m)**2 - sigma[0]`` at ``n = 2j``, from ``P``'s rows over
    the top half in chunks within half of ``spectral._FOLD_CHUNK_FLOATS``:
    views of the run's cached Chebyshev rows, which :func:`_split_sse` and
    the batch fold over the same run read too, where they fit that budget.
    """
    nodes = np.cos(np.pi * (np.arange(degree) + 0.5) / degree)
    phi = (np.pi * length / basis.period) * (nodes[:, None] - nodes)
    # the kernel is 2*pi-periodic: reduced, it stays accurate near nonzero multiples
    phi -= (2 * np.pi) * np.round(phi / (2 * np.pi))
    zero = phi == 0.0  # the diagonal and exact multiples, where the kernel is 2R - 1
    phi[zero] = 1.0
    kernel = np.sin((basis.orders - 0.5) * phi)
    phi *= 0.5
    kernel /= np.sin(phi, out=phi)
    del phi
    kernel[zero] = 2 * basis.orders - 1
    kernel /= basis.period
    # DCT-III of the identity: column k holds eps_k * T_k at the nodes
    dct3 = scipy.fft.dct(np.eye(degree), type=3, axis=0, overwrite_x=True)
    dct3 /= degree
    a = dct3.T @ (kernel @ dct3)
    del kernel, dct3

    step = max(1, min((length + 1) // 2, spectral._FOLD_CHUNK_FLOATS // 2 // degree))
    squares = np.zeros(degree)
    for _, _, chunk in spectral._pair_rows(basis.orders, basis.period, length, degree, False,
                                           step):
        squares += np.einsum("ij,ij->i", chunk, chunk)
    # every row but an odd run's centre stands for two positions; T_j(0)**2 is 1 for even j
    squares *= 2.0
    squares[0::2] -= length % 2
    sigma = np.zeros(2 * degree - 1)
    sigma[0::2] = 2.0 * squares - squares[0]
    n = np.arange(degree)
    h = sigma[n[:, None] + n] + sigma[np.abs(n[:, None] - n)]
    h *= 0.5
    return a, h


def _convolution_sse(basis: FourierBasis, layers, length: int, n_fft: int,
                     out: np.ndarray) -> None:
    """Squared reconstruction error of every column of every block, by FFT convolution.

    Blocks and ``out`` as for :func:`_split_sse`; ``n_fft >= 2 * length - 1``.
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
    """The chosen dimension sets and the schema that chose them."""

    layout: CacheLayout
    schema: CompressionSchema


def build_selection_report(
    trace: KVTrace,
    schema: CompressionSchema,
    partition: PartitionParams,
    basis: FourierBasis,
) -> SelectionReport:
    layout = apply_schema(rank_dimensions(trace, partition, basis), schema, partition=partition)
    return SelectionReport(layout=layout, schema=schema)


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

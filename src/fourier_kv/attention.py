"""Attention over exact and spectrally compressed caches.

Two decode paths serve one KV head of a compressed layer, a
``cache.HeadView``. ``attend_compressed_fused`` is the production path: it
never rebuilds a compressed row. The compressed part of a middle score is
the trig polynomial ``col(t)^T (w * C_k q_c)`` and the compressed part of
the output is its adjoint ``(w * sum_t p_t col(t))^T C_v``, each one Fourier
transform over the M middle positions (see ``FourierBasis.evaluate``); kept
dimensions and the ``E <= init_len + local_len`` exact rows, one prefix of
the head's exact block, are plain products, and one softmax runs over all
``E + M`` scores. The middle region, ``PartitionParams.middle``, goes to the
transforms as the only input they take, a ``range`` of step 1: its
transform is resolved once (``FourierBasis._plan``) and shared by every head
that reads the same middle. The layer stores exact rows as the tokens
arrived, so the query, scaled once, meets them as given; the head's
``HeadDims`` gather the query's kept and compressed dims, and the middle's
terms are added into the output at those dims. Every score is written into
one preallocated buffer and the softmax runs in that buffer, so a call makes
a fixed number of numpy calls, whatever M: 38 Python-level calls at desk
geometry under numpy 2.4, a count a test bounds. With ``R = k`` spectral
bins and ``L = min(M + R, period)``, per query that costs O(min(R * M, L log
L) + (E + M) * head_dim) time, plus O(k * head_dim) to contract the 2k-row
states with the query: the transforms take whichever of products against
cached trig tables, a chirp-z FFT pair over the middle region or one
length-period FFT is cheapest. The FFTs hold O(L) transient values; the
trig tables' evaluate holds ``rows * R`` complex values, ``rows = ceil(M /
width)`` for a power of two ``width`` near ``sqrt(M)``, in one array of
their own (``FourierBasis._evaluate``): 0.131 MB at 512 orders over a
256-position middle, half the casts' budget below. Each float32 block the
products read, exact or kept, K or V, is cast to float64 at most
``_ATTEND_CHUNK_FLOATS`` values (256 KB) at a time: a block within that
budget is one product, a larger one runs in equal row chunks. So the
call's transient is the budget plus the ``E + M`` scores and the
transforms', whatever the window length. The stored blocks are not
scanned for NaN or Inf on every call (the cache rejects them as tokens
enter); the scores and the output are checked instead.
``attend_compressed_materialized`` is its oracle: it rebuilds every middle
row, its kept dims copied and its compressed dims through ``reconstruct``,
each at its index from the head's ``HeadDims``, orders every row by
position and defers to ``attend_full``, the dense reference.

Also home to two diagnostics: splitting attention scores into low/high
dimension components, and seeded Gaussian perturbation of selected
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fourier_kv.cache import HeadView, check_basis
from fourier_kv.spectral import FourierBasis, SpectralState, reconstruct
from fourier_kv.traceio import KVTrace

__all__ = [
    "AttentionOutput",
    "attend_compressed_fused",
    "attend_compressed_materialized",
    "attend_full",
    "decompose_scores",
    "output_divergence",
    "perturb_dims",
]


@dataclass
class AttentionOutput:
    """Attention output, plus the softmax weights when requested.

    ``weights`` rows sum to 1; only ``attend_full`` and the materialized path
    return them, in the order the keys were attended.
    """

    output: np.ndarray
    weights: np.ndarray | None = None


def _check_finite(name, arr):
    # the ufunc's reduce itself: ndarray.all() adds a Python frame per call
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError(f"{name} contains NaN or Inf")


# np.dot of float32 rows and a float64 vector copies the rows to float64
# first, so a fused call reads each stored block, exact or kept rows of K or
# V, through products of at most this many rows * width floats (256 KB). At
# stock geometry (head_dim 128, local_len 1024) a query's exact K block alone
# is 1028 * 128 floats, a 1.05 MB copy; in 5 chunks of 206 rows it costs
# 0.21 MB. Over the benchmark's decode_stock_gqa inputs (seeds 1-3, under
# tracemalloc) the attention calls' transient fell 1.072 -> 0.235 MB, below
# prefill's 0.44 MB, and a decode step took 8% less time (median of 10
# alternating runs, numpy 2.4 with one BLAS thread on a 2-core x86_64). The
# gqa kept blocks (at most 1034 * 26 floats) and every desk block (at most
# 963 * 32) fit, and keep their one product
_ATTEND_CHUNK_FLOATS = 2**15


def _chunk_rows(block) -> int:
    """Rows per product of a ``(rows, width)`` block over ``_ATTEND_CHUNK_FLOATS``.

    As few chunks as keep each within the budget, where one row allows, of
    equal rows: none a short remainder. Read at call time, so a test can
    force any block to split.
    """
    rows, width = block.shape
    chunks = -(-rows // max(1, _ATTEND_CHUNK_FLOATS // max(1, width)))
    return -(-rows // chunks)


def _scores_in_chunks(block, q, out) -> None:
    """``np.dot(block, q, out=out)``, a product per chunk of :func:`_chunk_rows` rows."""
    step = _chunk_rows(block)
    for a in range(0, len(block), step):
        np.dot(block[a : a + step], q, out=out[a : a + step])


def _weighted_sum_in_chunks(p, block) -> np.ndarray:
    """``np.dot(p, block)``, summed over chunks of :func:`_chunk_rows` rows."""
    step = _chunk_rows(block)
    out = np.dot(p[:step], block[:step])
    for a in range(step, len(block), step):
        out += np.dot(p[a : a + step], block[a : a + step])
    return out


def attend_full(q, keys, values, return_weights: bool = False) -> AttentionOutput:
    """Scaled dot-product attention of one ``(d,)`` decode query, with a max-subtracted softmax.

    The query attends every one of the ``(L, d)`` keys; the weights come back
    in key order.
    """
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 2 or values.ndim != 2 or keys.shape != values.shape:
        raise ValueError("keys and values must be (L, d) with matching shapes")
    if q.shape != keys.shape[1:]:
        raise ValueError(f"query of shape {q.shape} does not match key dim {keys.shape[1]}")
    if keys.shape[0] == 0:
        raise ValueError("attention over zero keys is undefined")
    for name, arr in (("q", q), ("keys", keys), ("values", values)):
        _check_finite(name, arr)

    # a (1, d) row times keys.T, not keys @ q, which may sum in another order
    scores = (q[None, :] @ keys.T) * (1.0 / np.sqrt(keys.shape[1]))
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    out = weights @ values
    return AttentionOutput(output=out[0], weights=weights[0] if return_weights else None)


def attend_compressed_materialized(
    q,
    slice_: HeadView,
    basis: FourierBasis,
    return_weights: bool = False,
) -> AttentionOutput:
    """Decode attention over the exact rows and the rebuilt middle, in position order.

    Middle rows get their kept dims copied and their compressed dims rebuilt
    by ``reconstruct``. Decode queries attend to every represented position,
    assembled in ascending position order: initial rows, middle region, then
    the local ring rolled so that its oldest position comes first. The
    weights come back in that order.
    """
    lay, h = slice_
    check_basis(basis, lay.partition)
    total = lay.total_len[h]
    middle = lay.partition.middle(total)
    # the ring rows in use; its oldest position, the middle's end, comes first
    ring = slice(middle.start, total - len(middle))
    dims = lay.dims[h]
    blocks = []
    for exact, kept, cols, comp, keep in (
        (lay.exact[0, h], lay.kept_k[h], 0, dims.k_compressed, dims.k_kept),
        (lay.exact[1, h], lay.kept_v[h], lay.k_cols, dims.v_compressed, dims.v_kept),
    ):
        local = np.roll(exact[ring], middle.start - middle.stop, axis=0)
        rows = np.concatenate([exact[: middle.start], np.empty((len(middle), exact.shape[1])),
                               local], dtype=np.float64)
        mid = rows[middle.start : middle.stop]
        mid[:, keep] = kept[: len(middle), : keep.size]
        if comp.size:
            state = SpectralState(lay.states[h, :, cols : cols + comp.size], len(middle),
                                  middle.start, middle.stop - 1)
            mid[:, comp] = reconstruct(state, basis, middle)
        blocks.append(rows)
    return attend_full(q, *blocks, return_weights=return_weights)


def attend_compressed_fused(q, slice_: HeadView, basis: FourierBasis) -> AttentionOutput:
    """Decode attention scored and aggregated in the coefficient domain.

    With ``w`` the synthesis weights and ``C_k``/``C_v`` the spectral states,
    the compressed middle scores are ``basis.evaluate(w * (C_k @ q_c), t)``
    and the compressed output is ``(w * basis.project(p_mid, t)) @ C_v``.
    Agrees with :func:`attend_compressed_materialized` up to rounding.
    """
    lay, h = slice_
    check_basis(basis, lay.partition)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("fused path serves single decode queries")
    _check_finite("q", q)
    head_dim = lay.exact.shape[3]
    if q.shape != (head_dim,):
        raise ValueError(f"query must have shape ({head_dim},)")
    total = lay.total_len[h]
    if total == 0:
        raise ValueError("attention over an empty cache is undefined")

    # every score lands in one buffer, exact | middle; the exact rows in use
    # are a prefix of the block, read as stored since softmax and the weighted
    # sum do not depend on the order of the keys. The query, scaled once by
    # 1/sqrt(d), meets the exact rows as given, and its kept and compressed
    # dims are gathered for the middle. A stored float32 block within
    # _ATTEND_CHUNK_FLOATS is cast by its one product, inline; a larger one
    # in row chunks, each written into its slice of the scores or added into
    # the output. Each block is sliced in the call that reads it, so no view
    # outlives its product. Blocks go through np.dot, which costs less than @
    # at desk sizes; the state's K and V column views through @, which hands
    # their strides to BLAS where np.dot takes a slower path (4x at stock)
    dims = lay.dims[h]
    q = q * (1.0 / math.sqrt(head_dim))
    k_count, v_count = dims.k_compressed.size, dims.v_compressed.size
    spec = lay.states[h]
    middle = lay.partition.middle(total)
    n_mid = len(middle)
    n_exact = total - n_mid
    scores = np.empty(total, dtype=np.float64)
    p_exact, p_mid = scores[:n_exact], scores[n_exact:]
    if n_exact * head_dim <= _ATTEND_CHUNK_FLOATS:
        np.dot(lay.exact[0, h, :n_exact], q, out=p_exact)
    else:
        _scores_in_chunks(lay.exact[0, h, :n_exact], q, p_exact)
    if n_mid * (head_dim - k_count) <= _ATTEND_CHUNK_FLOATS:
        np.dot(lay.kept_k[h, :n_mid, : head_dim - k_count], q[dims.k_kept], out=p_mid)
    else:
        _scores_in_chunks(lay.kept_k[h, :n_mid, : head_dim - k_count], q[dims.k_kept], p_mid)
    synthesis = basis.synthesis_weights()
    # the middle region's transform, resolved once for both products; every
    # head that reads the same middle shares it
    plan = basis._plan(middle) if n_mid and (k_count or v_count) else None
    if plan is not None and k_count:
        p_mid += basis._evaluate(synthesis * (spec[:, :k_count] @ q[dims.k_compressed]), plan)
    # the stored blocks are not scanned: a NaN or Inf in any key row, kept
    # row or spectral state reaches a score, and one in any value row the
    # output, also under a zero weight (0 * Inf is NaN)
    _check_finite("scores", scores)
    # the score views now hold unnormalized softmax weights; every term of the
    # output is linear in them, so the output is divided by their sum once
    scores -= np.maximum.reduce(scores)
    np.exp(scores, out=scores)

    # the exact rows' output, and the middle's added at its kept and compressed dims
    if n_exact * head_dim <= _ATTEND_CHUNK_FLOATS:
        out = np.dot(p_exact, lay.exact[1, h, :n_exact])
    else:
        out = _weighted_sum_in_chunks(p_exact, lay.exact[1, h, :n_exact])
    if n_mid * (head_dim - v_count) <= _ATTEND_CHUNK_FLOATS:
        out[dims.v_kept] += np.dot(p_mid, lay.kept_v[h, :n_mid, : head_dim - v_count])
    else:
        out[dims.v_kept] += _weighted_sum_in_chunks(p_mid,
                                                    lay.kept_v[h, :n_mid, : head_dim - v_count])
    if plan is not None and v_count:
        folded = synthesis * basis._project_columns(p_mid, plan)
        out[dims.v_compressed] += folded @ spec[:, lay.k_cols : lay.k_cols + v_count]
    out /= np.add.reduce(scores)
    _check_finite("output", out)
    return AttentionOutput(output=out)


def decompose_scores(queries, keys, split_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the scaled scores of an ``(Lq, d)`` query block into low-/high-dimension parts.

    Returns two ``(Lq, L)`` arrays: the scores over dims below ``split_dim``
    and over the rest. Both use the full ``1/sqrt(d)`` scale, so they add up
    to the undivided scores. ``split_dim`` may equal ``d``, leaving the upper
    component all zeros.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    d = keys.shape[1]
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries must be (Lq, {d}), got {queries.shape}")
    if not 0 < split_dim <= d:
        raise ValueError(f"split_dim must lie in (0, {d}], got {split_dim}")
    scale = 1.0 / np.sqrt(d)
    low = (queries[:, :split_dim] @ keys[:, :split_dim].T) * scale
    high = (queries[:, split_dim:] @ keys[:, split_dim:].T) * scale
    return low, high


def perturb_dims(
    trace: KVTrace,
    dims,
    sigma: float,
    seed: int = 0,
) -> KVTrace:
    """Copy a trace with Gaussian noise added to the listed key dimensions.

    ``sigma=0`` or an empty dimension list returns a bit-identical copy.
    Noise is drawn deterministically from ``seed``; values are copied as they are.
    ``dims`` are integers, numpy's too, not floats or bools.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    picked = np.asarray(dims)
    if picked.ndim != 1 or (picked.size and picked.dtype.kind not in "iu"):
        raise ValueError(f"dims must be a 1-D sequence of integers, got {dims!r}")
    dims = np.unique(picked.astype(np.int64))
    if dims.size and (dims.min() < 0 or dims.max() >= trace.head_dim):
        raise ValueError(f"dims must lie in [0, {trace.head_dim})")
    keys = trace.keys.copy()
    values = trace.values.copy()
    if sigma > 0 and dims.size:
        rng = np.random.default_rng(seed)
        noise_shape = (trace.layers, trace.kv_heads, trace.seq_len, dims.size)
        # noise past float32's range overflows to inf, which KVTrace rejects
        with np.errstate(over="ignore"):
            keys[..., dims] += (sigma * rng.standard_normal(noise_shape)).astype(np.float32)
    return KVTrace(keys=keys, values=values, provenance=f"{trace.provenance}+noise(sigma={sigma})")


def output_divergence(reference, candidate) -> dict:
    """Elementwise divergence metrics between two attention outputs."""
    ref = np.asarray(getattr(reference, "output", reference), dtype=np.float64)
    cand = np.asarray(getattr(candidate, "output", candidate), dtype=np.float64)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    diff = ref - cand
    norm_r = np.linalg.norm(ref)
    norm_c = np.linalg.norm(cand)
    if norm_r == 0.0 and norm_c == 0.0:
        cosine = 1.0
    elif norm_r == 0.0 or norm_c == 0.0:
        cosine = 0.0
    else:
        cosine = float(np.dot(ref.ravel(), cand.ravel()) / (norm_r * norm_c))
    return {
        "max_abs": float(np.max(np.abs(diff))) if diff.size else 0.0,
        "rmse": float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0,
        "cosine": cosine,
    }

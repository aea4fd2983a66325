"""Attention over exact and spectrally compressed caches.

Two decode paths serve a compressed head slice. ``attend_compressed_fused``
is the production path: it never rebuilds a compressed row. The compressed
part of a middle score is the trig polynomial ``col(t)^T (w * C_k q_c)`` and
the compressed part of the output is its adjoint
``(w * sum_t p_t col(t))^T C_v``, each one Fourier transform over the M
middle positions (see ``FourierBasis.evaluate``); kept dimensions and the
``E <= init_len + local_len`` exact rows, one prefix of the slice's exact
block, are plain products, and one softmax runs over all ``E + M`` scores.
The middle region, ``PartitionParams.middle``, goes to the transforms as
the only input they take, a ``range`` of step 1, which they read without
scanning it; the query is scaled once, every score is written into one
preallocated buffer, and the softmax runs in that buffer, so a call makes a
fixed number of numpy calls, whatever M. With ``R = k`` spectral bins and
``L = min(M + R, period)``, per query that costs O(min(R * M, L log L) +
(E + M) * head_dim) time, plus O(k * head_dim) to contract the 2k-row
states with the query: the transforms take whichever of products against
cached trig tables, a chirp-z FFT pair over the middle region or one
length-period FFT is cheapest, and hold at most O(L) transient values. No
``(M, head_dim)`` block of rebuilt rows ever exists. The stored blocks are
not scanned for NaN or Inf on every call (``prefill`` and ``append_token``
reject them); the scores and the output are checked instead.
``attend_compressed_materialized`` is its oracle: it rebuilds every middle
row through ``reconstruct``, orders every row by position and defers to
``attend_full``, the dense reference.

Also home to two diagnostics: splitting attention scores into low/high
dimension components, and seeded Gaussian perturbation of selected
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fourier_kv.cache import HeadSlice, check_basis
from fourier_kv.spectral import FourierBasis, reconstruct
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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")


def attend_full(q, keys, values, causal: bool = False, return_weights: bool = False) -> AttentionOutput:
    """Scaled dot-product attention with a max-subtracted softmax.

    ``q`` may be a single ``(d,)`` decode query or an ``(Lq, d)`` block. With
    ``causal=True`` query i attends keys ``0..L-Lq+i`` (query block aligned
    to the end of the key sequence).
    """
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    single = q.ndim == 1
    q2d = q[None, :] if single else q
    if keys.ndim != 2 or values.ndim != 2 or keys.shape != values.shape:
        raise ValueError("keys and values must be (L, d) with matching shapes")
    if q2d.shape[1] != keys.shape[1]:
        raise ValueError(f"query dim {q2d.shape[1]} != key dim {keys.shape[1]}")
    if keys.shape[0] == 0:
        raise ValueError("attention over zero keys is undefined")
    for name, arr in (("q", q2d), ("keys", keys), ("values", values)):
        _check_finite(name, arr)

    scale = 1.0 / np.sqrt(keys.shape[1])
    scores = (q2d @ keys.T) * scale
    if causal:
        n_q, n_k = scores.shape
        offset = n_k - n_q
        mask = np.arange(n_k)[None, :] > (np.arange(n_q)[:, None] + offset)
        scores = np.where(mask, -np.inf, scores)
    scores = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    out = weights @ values
    if single:
        return AttentionOutput(output=out[0], weights=weights[0] if return_weights else None)
    return AttentionOutput(output=out, weights=weights if return_weights else None)


def attend_compressed_materialized(
    q,
    slice_: HeadSlice,
    basis: FourierBasis,
    return_weights: bool = False,
) -> AttentionOutput:
    """Decode attention over the exact rows and the rebuilt middle, in position order.

    Middle rows get their kept dims copied and their compressed dims rebuilt
    by ``reconstruct``. Decode queries attend to every represented position
    (no causal mask), assembled in ascending position order: initial rows,
    middle region, then the local ring rolled so that its oldest position
    comes first. The weights come back in that order.
    """
    check_basis(basis, slice_.partition)
    middle = slice_.partition.middle(slice_.total_len)
    dims = slice_.dims
    mid_k = np.empty((len(middle), slice_.exact_k.shape[1]))
    mid_v = np.empty_like(mid_k)
    mid_k[:, dims.k_kept] = slice_.kept_k.view()
    mid_v[:, dims.v_kept] = slice_.kept_v.view()
    if dims.k_compressed.size:
        mid_k[:, dims.k_compressed] = reconstruct(slice_.spec_k, basis, middle)
    if dims.v_compressed.size:
        mid_v[:, dims.v_compressed] = reconstruct(slice_.spec_v, basis, middle)
    # the ring rows in use; its oldest position, the middle's end, comes first
    ring = slice(middle.start, slice_.total_len - len(middle))
    blocks = []
    for exact, mid in ((slice_.exact_k, mid_k), (slice_.exact_v, mid_v)):
        local = np.roll(exact[ring], middle.start - middle.stop, axis=0)
        blocks.append(np.concatenate([exact[: middle.start], mid, local], dtype=np.float64))
    return attend_full(q, *blocks, causal=False, return_weights=return_weights)


def attend_compressed_fused(q, slice_: HeadSlice, basis: FourierBasis) -> AttentionOutput:
    """Decode attention scored and aggregated in the coefficient domain.

    With ``w`` the synthesis weights and ``C_k``/``C_v`` the spectral states,
    the compressed middle scores are ``basis.evaluate(w * (C_k @ q_c), t)``
    and the compressed output is ``(w * basis.project(p_mid, t)) @ C_v``.
    Agrees with :func:`attend_compressed_materialized` up to rounding.
    """
    check_basis(basis, slice_.partition)
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError("fused path serves single decode queries")
    _check_finite("q", q)
    head_dim = slice_.exact_k.shape[1]
    if q.shape != (head_dim,):
        raise ValueError(f"query must have shape ({head_dim},)")
    if slice_.total_len == 0:
        raise ValueError("attention over an empty cache is undefined")

    # every score lands in one buffer, exact | middle; the exact rows in use
    # are a prefix of the block, read as stored since softmax and the weighted
    # sum do not depend on the order of the keys. The query carries the
    # 1/sqrt(d) scale, and the stored float32 blocks are cast transiently by
    # each product
    q = q * (1.0 / math.sqrt(head_dim))
    dims = slice_.dims
    middle = slice_.partition.middle(slice_.total_len)
    n_exact = slice_.total_len - len(middle)
    scores = np.empty(slice_.total_len, dtype=np.float64)
    p_exact, p_mid = scores[:n_exact], scores[n_exact:]
    np.matmul(slice_.exact_k[:n_exact], q, out=p_exact)
    np.matmul(slice_.kept_k.view(), q[dims.k_kept], out=p_mid)
    synthesis = basis.synthesis_weights()
    if len(middle) and dims.k_compressed.size:
        poly = synthesis * (slice_.spec_k.coeffs @ q[dims.k_compressed])
        p_mid += basis.evaluate(poly, middle)
    # the stored blocks are not scanned: a NaN or Inf in any key row, kept
    # row or spectral state reaches a score, and one in any value row the
    # output, also under a zero weight (0 * Inf is NaN)
    _check_finite("scores", scores)
    # the score views now hold unnormalized softmax weights; every term of the
    # output is linear in them, so the output is divided by their sum once
    scores -= scores.max()
    np.exp(scores, out=scores)

    out = p_exact @ slice_.exact_v[:n_exact]
    out[dims.v_kept] += p_mid @ slice_.kept_v.view()
    if len(middle) and dims.v_compressed.size:
        folded = synthesis * basis.project(p_mid, middle)
        out[dims.v_compressed] += folded @ slice_.spec_v.coeffs
    out /= scores.sum()
    _check_finite("output", out)
    return AttentionOutput(output=out)


def decompose_scores(q, keys, split_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Split scaled attention scores into low-/high-dimension components.

    Both components use the full ``1/sqrt(d)`` scale so they add up exactly
    to the undivided scores. ``split_dim`` may equal ``d``, leaving the upper
    component empty (all zeros).
    """
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    single = q.ndim == 1
    q2d = q[None, :] if single else q
    d = keys.shape[1]
    if not 0 < split_dim <= d:
        raise ValueError(f"split_dim must lie in (0, {d}], got {split_dim}")
    scale = 1.0 / np.sqrt(d)
    low = (q2d[:, :split_dim] @ keys[:, :split_dim].T) * scale
    high = (q2d[:, split_dim:] @ keys[:, split_dim:].T) * scale
    if single:
        return low[0], high[0]
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
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    dims = np.asarray(sorted(set(int(d) for d in dims)), dtype=np.int64)
    if dims.size and (dims.min() < 0 or dims.max() >= trace.head_dim):
        raise ValueError(f"dims must lie in [0, {trace.head_dim})")
    keys = trace.keys.copy()
    values = trace.values.copy()
    if sigma > 0 and dims.size:
        rng = np.random.default_rng(seed)
        noise_shape = (trace.layers, trace.kv_heads, trace.seq_len, dims.size)
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

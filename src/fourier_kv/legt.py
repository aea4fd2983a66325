"""Sliding-window Legendre (HiPPO-LegT style) compression baseline.

A stream is summarized by the coefficients of normalized Legendre
polynomials over a translated window of fixed length, updated one token at
a time by a discretized linear recurrence. Used as the comparison baseline
for the translated-Fourier compressor under an equal real-state budget:
``k`` complex Fourier orders (``2k`` reals) against ``2k`` polynomial
orders.

The recurrence matrices follow the classic orthonormal-basis construction
for the translated-window measure, discretized by the bilinear transform
with a one-token step. They are validated against a direct least-squares
Legendre fit rather than trusted as transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from fourier_kv.spectral import build_basis, fold_errors, reconstruction_mse
from fourier_kv.traceio import KVTrace

__all__ = [
    "BasisComparison",
    "LegTState",
    "compare_bases",
    "legt_fold",
    "legt_reconstruct",
    "token_offsets",
]


@lru_cache(maxsize=32)
def _discretized_operator(order: int, window: int):
    """Bilinear-discretized (state matrix, input vector) for one-token steps."""
    n = np.arange(order)
    root = np.sqrt(2 * n + 1)
    i, j = np.meshgrid(n, n, indexing="ij")
    pattern = np.where(j <= i, 1.0, (-1.0) ** (i - j))
    decay = root[:, None] * pattern * root[None, :]
    m_inv = np.linalg.inv(np.eye(order) + decay / (2 * window))
    a_bar = m_inv @ (np.eye(order) - decay / (2 * window))
    b_bar = m_inv @ (root / window)
    a_bar.setflags(write=False)
    b_bar.setflags(write=False)
    return a_bar, b_bar


def _normalized_legendre(order: int, z: np.ndarray) -> np.ndarray:
    """Rows of sqrt(2n+1)*P_n(z) for n < order, via the three-term recurrence."""
    z = np.asarray(z, dtype=np.float64)
    p = np.zeros((order, z.size))
    p[0] = 1.0
    if order > 1:
        p[1] = z
    for k in range(1, order - 1):
        p[k + 1] = ((2 * k + 1) * z * p[k] - k * p[k - 1]) / (k + 1)
    return p * np.sqrt(2 * np.arange(order) + 1)[:, None]


def token_offsets(window: int, count: int | None = None) -> np.ndarray:
    """Window-relative offsets of the trailing ``count`` tokens.

    Token slots are mapped to their midpoints, offset ``(slot + 0.5)/window``,
    which matches the recurrence's input timing: a token folded at step t
    represents the signal on the half-open slot just before t.
    """
    count = window if count is None else count
    if not 0 <= count <= window:
        raise ValueError(f"count must lie in [0, {window}], got {count}")
    slots = np.arange(window - count, window, dtype=np.float64)
    return (slots + 0.5) / window


@dataclass
class LegTState:
    """Legendre coefficients of the trailing window of a stream.

    ``coeffs`` is ``(order, D)``; ``window`` is the translated window length
    in tokens. Single-writer, like the Fourier state.
    """

    coeffs: np.ndarray
    window: int
    token_count: int = 0

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def zeros(cls, order: int, window: int, dim: int) -> "LegTState":
        if order < 1 or window < 1:
            raise ValueError("order and window must be >= 1")
        return cls(coeffs=np.zeros((order, dim)), window=window)

    @classmethod
    def steady(cls, value, order: int, window: int) -> "LegTState":
        """State at the recurrence fixed point for a constant pre-history.

        Only the order-0 coefficient is populated, so folding the same value
        forever keeps the state put (up to rounding). Standard warm start for
        streams with no recorded past.
        """
        vec = np.atleast_1d(np.asarray(value, dtype=np.float64))
        state = cls.zeros(order, window, vec.shape[0])
        state.coeffs[0] = vec
        return state

    @classmethod
    def from_window(cls, samples, order: int, window: int | None = None) -> "LegTState":
        """Warm-start a state by least-squares fitting a block of samples.

        The samples are taken as the most recent tokens of the window; the
        fitted coefficients are exact for signals inside the polynomial span,
        so subsequent folds of in-span streams stay exact up to rounding.
        """
        block = np.asarray(samples, dtype=np.float64)
        if block.ndim != 2:
            raise ValueError("samples must be 2-D (length x dim)")
        window = block.shape[0] if window is None else window
        if block.shape[0] > window:
            raise ValueError("more samples than window slots")
        design = _normalized_legendre(order, 2.0 * token_offsets(window, block.shape[0]) - 1.0).T
        coeffs, *_ = np.linalg.lstsq(design, block, rcond=None)
        return cls(coeffs=coeffs, window=window, token_count=block.shape[0])


def legt_fold(state: LegTState, value) -> LegTState:
    """Advance the window by one token. Mutates ``state`` and returns it."""
    vec = np.asarray(value, dtype=np.float64)
    if vec.shape != (state.dim,):
        raise ValueError(f"value must have shape ({state.dim},), got {vec.shape}")
    a_bar, b_bar = _discretized_operator(state.order, state.window)
    state.coeffs = a_bar @ state.coeffs + b_bar[:, None] * vec
    state.token_count += 1
    return state


def legt_reconstruct(state: LegTState, offsets) -> np.ndarray:
    """Evaluate the windowed polynomial expansion at offsets in [0, 1).

    Offset 0 is the oldest end of the trailing window; values approaching 1
    are the most recent. Returns ``(len(offsets), D)``.
    """
    offs = np.asarray(offsets, dtype=np.float64)
    if offs.size and (offs.min() < 0.0 or offs.max() >= 1.0):
        raise ValueError("offsets must lie in [0, 1)")
    basis = _normalized_legendre(state.order, 2.0 * offs - 1.0)
    return basis.T @ state.coeffs


@dataclass
class BasisComparison:
    """Per-dimension reconstruction MSE of the two compressors.

    ``wins[i]`` marks dimension i as a Fourier win; two MSEs within
    ``1e-12`` of the dimension's mean square, the accuracy of the Fourier
    side's errors, are treated as a tie, and ties go to the Fourier side.
    """

    rows: list  # (layer, head, dim, mse_fourier, mse_legt)
    wins: list
    fourier_orders: int
    legt_order: int

    @property
    def win_rate(self) -> float:
        return sum(self.wins) / len(self.wins) if self.wins else 0.0


def compare_bases(
    trace: KVTrace,
    k_states: int,
    *,
    tensor: str = "keys",
) -> BasisComparison:
    """Reconstruct every dimension of the key (or value) cache with both compressors.

    The state budget is equalized: the Fourier side uses ``k_states`` complex
    orders (``2*k_states`` reals), the Legendre side ``2*k_states`` polynomial
    orders. Both use a window equal to the trace length. The Fourier side's
    errors are :func:`~fourier_kv.spectral.fold_errors` of every head, equal to
    batch folding and reconstructing each one; the Legendre side runs its
    streaming recurrence, steady-started on the first token of every dimension.
    """
    if tensor not in ("keys", "values"):
        raise ValueError(f"tensor must be 'keys' or 'values', got {tensor!r}")
    data = trace.keys if tensor == "keys" else trace.values
    length = trace.seq_len
    basis = build_basis(orders=k_states, period=length)
    legt_order = 2 * k_states
    mse_fourier = fold_errors(basis, data) / length
    offsets = token_offsets(length)
    rows = []
    wins = []
    for layer in range(trace.layers):
        for head in range(trace.kv_heads):
            block = data[layer, head].astype(np.float64)
            legt_state = LegTState.steady(block[0], order=legt_order, window=length)
            for row in block:
                legt_fold(legt_state, row)
            mse_legt = reconstruction_mse(block, legt_reconstruct(legt_state, offsets))
            tie_floor = 1e-12 * np.maximum(np.mean(block**2, axis=0), np.finfo(np.float64).tiny)
            for dim in range(trace.head_dim):
                mf, ml = float(mse_fourier[layer, head, dim]), float(mse_legt[dim])
                rows.append((layer, head, dim, mf, ml))
                wins.append(mf <= max(ml, tie_floor[dim]))
    return BasisComparison(rows=rows, wins=wins, fourier_orders=k_states, legt_order=legt_order)

"""Translated Fourier operator for fixed-size compression of token streams.

A run of token vectors is folded into a bank of ``2k`` real spectral
coefficients: the running cosine and sine moments of every tracked dimension
for each of ``k`` frequency orders. Folding one token is a rank-1 update, so
batch compression and one-token-at-a-time streaming commute, and the state
size never grows with sequence length. :func:`compress_batch` and
:func:`fold_token` accumulate those updates one position at a time and are
bitwise equal; :func:`fold_blocks`, the fast batch fold, sums chunks of
positions with one matrix product per block and shares each chunk's basis
columns across every block that covers the same positions. Reconstruction
evaluates a weighted inverse transform at any folded position; the same
inverse transform and its adjoint are also available as FFTs, which is how
decode attention scores and aggregates the compressed region without
rebuilding it: a chirp-z transform over the extent of the positions read
while that is short against the period, so its cost follows the region's
length, and one length-period FFT once that is cheaper.

Phases are indexed by *absolute* token position so that a state built during
prefill and a state extended by streaming evictions agree without rephasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FoldOrderError",
    "FourierBasis",
    "ReconstructionRangeError",
    "SpectralState",
    "build_basis",
    "compress_batch",
    "fold_blocks",
    "fold_token",
    "reconstruct",
    "reconstruction_mse",
]


class FoldOrderError(ValueError):
    """A token was folded at a position that breaks the in-order contract."""


class ReconstructionRangeError(ValueError):
    """Reconstruction was requested outside the folded position range."""


@dataclass(frozen=True)
class FourierBasis:
    """Real translated-Fourier operator: ``orders`` frequencies, period ``period``.

    The column for absolute position ``t`` interleaves cosine and sine rows:
    row ``2n`` holds ``cos(2*pi*n*t/period)`` and row ``2n+1`` holds
    ``sin(2*pi*n*t/period)`` for ``n < orders``. Row 0 is all ones and row 1
    is all zeros (the order-0 sine). Columns repeat with period ``period``.
    Any ``orders`` is accepted; at integer positions order ``n`` is the same
    wave as order ``n mod period``, so orders at or past ``period/2`` alias.

    :meth:`columns` builds columns explicitly, O(orders) trig calls each.
    :meth:`evaluate` (``columns(t).T @ a``) and its adjoint :meth:`project`
    (``columns(t) @ p``) never build them. Each picks one of two transforms
    by the extent ``span`` of the positions, or of their residues mod
    ``period`` when that is shorter (a run of at most ``period`` positions
    has ``span = len(t)``). With ``R = min(orders, period)`` and ``n`` the
    power of two ``>= span + R - 1``, a short span runs a chirp-z (Bluestein)
    transform, one complex FFT pair of length ``n``: O(n log n) time and
    O(n) memory, whatever the period. Once ``n`` exceeds ``period / 4`` that
    pair costs as much as one length-``period`` real FFT or more, which is
    what a long span runs instead: O(period log period) time and O(period)
    memory. Both add passes over the orders and positions. The chirp tables
    of the last few ``(orders, period, residue of the lowest position, n)``
    are cached, read-only, at most ``32 * n <= 8 * period`` bytes each. This
    class owns the cosine/sine row layout; callers only pass coefficient
    vectors of length ``2*orders``.

    Immutable; safe to share across threads.
    """

    orders: int
    period: int

    def __post_init__(self):
        if self.orders < 1:
            raise ValueError(f"orders must be >= 1, got {self.orders}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    @property
    def n_rows(self) -> int:
        return 2 * self.orders

    def _phases(self, positions: np.ndarray) -> np.ndarray:
        n = np.arange(self.orders, dtype=np.int64)
        # (n*t) mod period keeps trig arguments in [0, 2*pi) even at large t
        frac = (n[:, None] * positions[None, :]) % self.period
        return (2.0 * np.pi / self.period) * frac.astype(np.float64)

    def column(self, pos: int) -> np.ndarray:
        """Basis column for one absolute position, shape ``(2*orders,)``."""
        if pos < 0:
            raise ValueError(f"position must be >= 0, got {pos}")
        phases = self._phases(np.asarray([pos], dtype=np.int64))[:, 0]
        col = np.empty(self.n_rows, dtype=np.float64)
        col[0::2] = np.cos(phases)
        col[1::2] = np.sin(phases)
        return col

    @staticmethod
    def _positions(positions) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise ValueError("positions must be one-dimensional")
        if pos.size and pos.min() < 0:
            raise ValueError("positions must be >= 0")
        return pos

    def columns(self, positions) -> np.ndarray:
        """Basis columns for many positions, shape ``(2*orders, len(positions))``."""
        pos = self._positions(positions)
        out = np.empty((self.n_rows, pos.size), dtype=np.float64)
        cos, sin = out[0::2], out[1::2]
        # the integer phase (n*t) mod period is staged in the sine rows and the
        # float phase in the cosine rows, so no temporary of the output's size exists
        frac = sin.view(np.int64)
        np.multiply(np.arange(self.orders, dtype=np.int64)[:, None], pos, out=frac)
        np.remainder(frac, self.period, out=frac)
        np.multiply(frac, 2.0 * np.pi / self.period, out=cos)
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        return out

    def _bins(self) -> tuple[np.ndarray, np.ndarray]:
        """rfft bin of every order and the sign its sine row carries there.

        At integer positions order ``n`` equals order ``r = n mod period``,
        and for ``r > period/2`` the cosine of ``r`` is the cosine of
        ``period - r`` while the sine flips sign.
        """
        r = np.arange(self.orders, dtype=np.int64) % self.period
        above = r > self.period // 2
        return np.where(above, self.period - r, r), np.where(above, -1.0, 1.0)

    def _chirp(self, pos: np.ndarray) -> tuple[np.ndarray, int, _ChirpPlan | None]:
        """Offsets of non-empty ``pos`` from their lowest, their span, and its plan.

        Positions that cross a multiple of the period are read as residues
        mod ``period`` when those lie closer together; a run that wraps
        keeps its own length. The plan is ``None`` when the span is too long
        for a chirp-z transform to pay.
        """
        lo, hi = int(pos.min()), int(pos.max())
        if lo // self.period != hi // self.period:
            residues = pos % self.period
            r_lo, r_hi = int(residues.min()), int(residues.max())
            if r_hi - r_lo < hi - lo:
                pos, lo, hi = residues, r_lo, r_hi
        span = hi - lo + 1
        # linear convolution of ``span`` outputs with R bins: n >= span + R - 1
        n = 1 << (span + min(self.orders, self.period) - 2).bit_length()
        plan = None
        if _CHIRP_LENGTH_RATIO * n <= self.period:
            plan = _chirp_plan(self.orders, self.period, lo % self.period, n)
        return pos - lo, span, plan

    def evaluate(self, coeffs, positions) -> np.ndarray:
        """``columns(positions).T @ coeffs``: the trig polynomial at each position.

        ``coeffs`` has shape ``(2*orders,)`` in the row layout of
        :meth:`columns`; returns ``(len(positions),)``.
        """
        a = np.asarray(coeffs, dtype=np.float64)
        if a.shape != (self.n_rows,):
            raise ValueError(f"coeffs must have shape ({self.n_rows},), got {a.shape}")
        pos = self._positions(positions)
        if pos.size == 0:
            return np.zeros(0, dtype=np.float64)
        offsets, span, plan = self._chirp(pos)
        if plan is None:
            bins, sine_sign = self._bins()
            half = self.period // 2 + 1
            spectrum = np.bincount(bins, a[0::2], minlength=half) - 1j * np.bincount(
                bins, sine_sign * a[1::2], minlength=half
            )
            # irfft counts every bin but DC and Nyquist twice (once per sign of frequency)
            spectrum[1 : (self.period + 1) // 2] *= 0.5
            wave = np.fft.irfft(spectrum, n=self.period, norm="forward")
            return wave[pos % self.period]
        n_bins = plan.pre.size
        x = np.bincount(plan.bins, a[0::2], minlength=n_bins) - 1j * np.bincount(
            plan.bins, a[1::2], minlength=n_bins
        )
        x *= plan.pre
        y = np.fft.ifft(np.fft.fft(x, plan.spectrum.size) * plan.spectrum)[:span]
        y *= plan.chirp[:span]
        return y.real[offsets]

    def project(self, weights, positions) -> np.ndarray:
        """``columns(positions) @ weights``: the adjoint of :meth:`evaluate`.

        ``weights`` has shape ``(len(positions),)``; returns ``(2*orders,)``.
        """
        pos = self._positions(positions)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != pos.shape:
            raise ValueError(f"weights must have shape {pos.shape}, got {w.shape}")
        out = np.zeros(self.n_rows, dtype=np.float64)
        if pos.size == 0:
            return out
        offsets, span, plan = self._chirp(pos)
        if plan is None:
            spectrum = np.fft.rfft(np.bincount(pos % self.period, w, minlength=self.period))
            bins, sine_sign = self._bins()
            out[0::2] = spectrum.real[bins]
            out[1::2] = -sine_sign * spectrum.imag[bins]
            return out
        x = np.bincount(offsets, w, minlength=span) * plan.chirp[:span]
        # fft(ifft(x) * H)[r] = sum_m x[m] * h[m - r]: the transpose of evaluate's
        # convolution with the filter h, from the same spectrum H
        g = np.fft.fft(np.fft.ifft(x, plan.spectrum.size) * plan.spectrum)[: plan.pre.size]
        g *= plan.pre
        out[0::2] = g.real[plan.bins]
        out[1::2] = g.imag[plan.bins]
        return out

    @property
    def rows(self) -> np.ndarray:
        """Full ``(2*orders, period)`` operator. O(orders*period) memory."""
        return self.columns(np.arange(self.period))

    def synthesis_weights(self) -> np.ndarray:
        """Per-row inverse-transform weights used by :func:`reconstruct`.

        Standard discrete-Fourier synthesis weights: ``1/period`` for the
        order-0 rows and ``2/period`` above, which recover band-limited
        signals exactly when the folded run covers a full period.

        The order-0 sine row gets the same ``1/period`` weight as the cosine
        row; its coefficients are identically zero so the value never matters.
        Built once per basis and read-only.
        """
        return self._synthesis_weights

    @functools.cached_property
    def _synthesis_weights(self) -> np.ndarray:
        w = np.full(self.n_rows, 2.0 / self.period, dtype=np.float64)
        w[0] = w[1] = 1.0 / self.period
        w.flags.writeable = False
        return w


# evaluate/project run a chirp-z transform of FFT length n only while
# n <= period / 4. Against one length-period real FFT, its complex FFT pair
# took 0.4-1.6x the time at n = period/4, 1.1-2.5x at period/2 and 1.6-5.3x
# at n = period (periods 4096 and 32768, numpy 2.4 on a 2-core x86_64)
_CHIRP_LENGTH_RATIO = 4


class _ChirpPlan(NamedTuple):
    """Read-only chirp-z tables for one ``(orders, period, lo, n)``.

    With ``R = min(orders, period)`` bins and ``w(m) = exp(i*pi*m^2/period)``,
    ``exp(2*pi*i*r*(lo + m)/period) = pre[r] * w(m) * conj(w(m - r))``, so a
    sum over bins ``r`` at offsets ``m`` is a chirp, a convolution with
    ``conj(w)`` and a chirp. ``n`` is a power of two with ``span + R - 1 <= n``
    and ``n <= period / 4``.
    """

    bins: np.ndarray      # (orders,) bin of every order: n mod period
    pre: np.ndarray       # (R,) exp(2*pi*i*r*lo/period) * w(r)
    chirp: np.ndarray     # (n - R + 1,) w(m): spans up to n - R + 1 offsets
    spectrum: np.ndarray  # (n,) fft of conj(w) at lags 0..n-R, then -(R-1)..-1


def _unit_phase(numer: np.ndarray, period: int) -> np.ndarray:
    """``exp(i*pi*numer/period)`` with ``numer`` reduced mod ``2*period`` in integers."""
    return np.exp((1j * np.pi / period) * (numer % (2 * period)))


@functools.lru_cache(maxsize=4)
def _chirp_plan(orders: int, period: int, lo: int, n: int) -> _ChirpPlan:
    # keyed on n, not on the span: a growing middle region reuses one plan
    # until its span crosses a power of two
    n_bins = min(orders, period)
    r = np.arange(n_bins, dtype=np.int64)
    m = np.arange(n, dtype=np.int64)
    lags = np.where(m <= n - n_bins, m, n - m)
    plan = _ChirpPlan(
        bins=np.arange(orders, dtype=np.int64) % period,
        pre=_unit_phase(r * r + r * (2 * lo), period),
        chirp=_unit_phase(m[: n - n_bins + 1] ** 2, period),
        spectrum=np.fft.fft(np.conj(_unit_phase(lags * lags, period))),
    )
    for table in plan:
        table.flags.writeable = False
    return plan


def build_basis(orders: int, period: int) -> FourierBasis:
    """Construct the real translated-Fourier operator.

    Args:
        orders: number of complex frequency orders k (state has 2k real rows).
        period: window length T in token positions; set this to the maximum
            context length so absolute positions never wrap.
    """
    return FourierBasis(orders=orders, period=period)


@dataclass
class SpectralState:
    """Running spectral moments of a contiguous run of D-dimensional tokens.

    ``coeffs[r, d]`` is the sum over folded positions ``t`` of
    ``column(t)[r] * value_t[d]``, accumulated in float64 in fold order.
    Single-writer: fold from one thread at a time; distinct states may be
    folded in parallel.
    """

    coeffs: np.ndarray
    token_count: int = 0
    first_pos: int | None = None
    last_pos: int | None = None

    @classmethod
    def zeros(cls, orders: int, dim: int) -> "SpectralState":
        return cls(coeffs=np.zeros((2 * orders, dim), dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "SpectralState":
        return SpectralState(
            coeffs=self.coeffs.copy(),
            token_count=self.token_count,
            first_pos=self.first_pos,
            last_pos=self.last_pos,
        )


def compress_batch(basis: FourierBasis, values, start_pos: int) -> SpectralState:
    """Fold a block of rows at absolute positions ``start_pos..start_pos+L-1``.

    Accumulates the per-position rank-1 updates in ascending position order,
    which makes the result bit-identical to streaming the same rows through
    :func:`fold_token`. An empty block yields the zero state.

    This is the bitwise oracle of :func:`fold_token` and the reference that
    :func:`fold_blocks` is tested against; it evaluates one basis column per
    row in a Python loop, so the cache folds prefill with :func:`fold_blocks`.
    """
    if start_pos < 0:
        raise ValueError(f"start_pos must be >= 0, got {start_pos}")
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"values must be 2-D (length x dim), got shape {vals.shape}")
    length, dim = vals.shape
    state = SpectralState.zeros(basis.orders, dim)
    if length == 0:
        return state
    coeffs = state.coeffs
    for i in range(length):
        coeffs += basis.column(start_pos + i)[:, None] * vals[i]
    state.token_count = length
    state.first_pos = start_pos
    state.last_pos = start_pos + length - 1
    return state


# basis columns built per chunk of a batch fold: 2**17 float64 values, 1 MB
_FOLD_CHUNK_FLOATS = 2**17


def fold_blocks(basis: FourierBasis, blocks, start_pos: int, dims=None) -> list:
    """Fold several blocks that cover the same run of absolute positions.

    Every block is ``(L, dim_i)`` with row ``j`` at position ``start_pos + j``;
    all blocks have the same ``L``. With ``dims``, a sequence parallel to
    ``blocks``, block ``i`` contributes only its columns ``dims[i]``.

    Positions go in chunks of ``max(1, 2**17 // basis.n_rows)`` (1 MB of
    columns). Each chunk's columns are built once and serve every block;
    each block's chunk is selected and cast to float64 only then, so no
    block is copied whole. Returns one state per block, equal to
    :func:`compress_batch` of that block within ``1e-12 * max(1, sum|x|)``
    per column: BLAS sums a chunk in its own order, so not bitwise.
    """
    if start_pos < 0:
        raise ValueError(f"start_pos must be >= 0, got {start_pos}")
    arrays = [np.asarray(block) for block in blocks]
    if dims is None:
        dims = [slice(None)] * len(arrays)
    elif len(dims) != len(arrays):
        raise ValueError(f"dims has {len(dims)} entries for {len(arrays)} blocks")
    if any(a.ndim != 2 for a in arrays):
        raise ValueError("every block must be 2-D (length x dim)")
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"blocks must share one length, got {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    states = [
        SpectralState.zeros(basis.orders, a[:0, d].shape[1]) for a, d in zip(arrays, dims)
    ]
    if length == 0:
        return states
    chunk = max(1, _FOLD_CHUNK_FLOATS // basis.n_rows)
    for lo in range(0, length, chunk):
        hi = min(lo + chunk, length)
        cols = basis.columns(np.arange(start_pos + lo, start_pos + hi))
        for a, d, state in zip(arrays, dims, states):
            state.coeffs += cols @ np.asarray(a[lo:hi, d], dtype=np.float64)
    for state in states:
        state.token_count = length
        state.first_pos = start_pos
        state.last_pos = start_pos + length - 1
    return states


def fold_token(state: SpectralState, basis: FourierBasis, value, pos: int) -> SpectralState:
    """Fold one token vector at absolute position ``pos`` into the state.

    Mutates ``state`` in place and returns it. Positions must arrive in
    order: the first fold may use any ``pos >= 0``; afterwards only
    ``last_pos + 1`` is accepted.
    """
    if pos < 0:
        raise ValueError(f"position must be >= 0, got {pos}")
    vec = np.asarray(value, dtype=np.float64)
    if vec.shape != (state.dim,):
        raise ValueError(f"value must have shape ({state.dim},), got {vec.shape}")
    if state.token_count == 0:
        state.first_pos = pos
    elif pos != state.last_pos + 1:
        raise FoldOrderError(
            f"non-contiguous fold: expected position {state.last_pos + 1}, got {pos}"
        )
    state.coeffs += basis.column(pos)[:, None] * vec
    state.token_count += 1
    state.last_pos = pos
    return state


def reconstruct(
    state: SpectralState,
    basis: FourierBasis,
    positions,
) -> np.ndarray:
    """Rebuild token vectors at the given absolute positions.

    Applies the synthesis-weighted inverse transform
    ``columns(t).T @ (w * coeffs)``. Every position must lie inside
    ``[first_pos, last_pos]`` of the folded run; extrapolation is undefined.
    Returns ``(len(positions), D)``.
    """
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        return np.zeros((0, state.dim), dtype=np.float64)
    if state.token_count == 0:
        raise ReconstructionRangeError("cannot reconstruct from an empty state")
    if pos.min() < state.first_pos or pos.max() > state.last_pos:
        raise ReconstructionRangeError(
            f"positions must lie in [{state.first_pos}, {state.last_pos}], "
            f"got range [{pos.min()}, {pos.max()}]"
        )
    weighted = basis.columns(pos) * basis.synthesis_weights()[:, None]
    return weighted.T @ state.coeffs


def reconstruction_mse(original, reconstructed) -> np.ndarray:
    """Per-dimension mean squared error between two ``(L, D)`` blocks."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.mean((a - b) ** 2, axis=0)

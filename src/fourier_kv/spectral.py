"""Translated Fourier operator for fixed-size compression of token streams.

A run of token vectors is folded into a bank of ``2k`` real spectral
coefficients: the running cosine and sine moments of every tracked dimension
for each of ``k`` frequency orders. Folding one token is a rank-1 update, so
batch compression and one-token-at-a-time streaming commute, and the state
size never grows with sequence length. :func:`compress_batch` and
:func:`fold_token` accumulate those updates one position at a time, each a
BLAS rank-1 update of the state in place, and are bitwise equal;
:func:`fold_blocks`, the fast batch fold, sums chunks of positions with one
matrix product per block and shares each chunk's basis columns across every
block that covers the same positions. Reconstruction evaluates a weighted
inverse transform at any folded position; the same inverse transform and its
adjoint are also available without building columns, which is how decode
attention scores and aggregates the compressed region without rebuilding
it. Three transforms serve them, and a cost rule picks the cheapest for the
orders and the extent of the positions read: two small matrix products
against cached trig tables for few orders, a chirp-z transform over that
extent while it is short against the period, and one length-period FFT
once that is cheaper.

Phases are indexed by *absolute* token position so that a state built during
prefill and a state extended by streaming evictions agree without rephasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dger

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
    (``columns(t) @ p``) never build them. Each runs one of three transforms,
    priced by the extent ``span`` of the positions, or of their residues mod
    ``period`` when that is shorter (a run of at most ``period`` positions
    has ``span = len(t)``), and by the bin count ``R = min(orders, period)``:

    * trig tables: each offset from the lowest position ``lo`` splits as
      ``a*B + b``, with ``B`` a power of two near ``sqrt(span)``, so every
      phase factors into one of ``lo + a*B`` and one of ``b``, each from a
      cached table of R rows, and each direction is two small products
      against them: O(R * span) time, O(R * sqrt(span) + span) transient
      memory and at most ``56 * R * sqrt(span) + 8 * orders`` bytes of
      tables (16 KB for 16 orders over 960 positions), whatever the period.
    * chirp-z (Bluestein): with ``n`` the power of two ``>= span + R - 1``,
      one complex FFT pair of length ``n``: O(n log n) time, O(n) memory and
      ``32 * n <= 8 * period`` bytes of tables, whatever the period.
    * length-period FFT: one real FFT of length ``period``: O(period log
      period) time and O(period) memory, no tables.

    The chirp-z pair runs while ``n <= period / 4``; beyond that it costs as
    much as the length-period FFT or more. The tables run while ``R * span``
    is at most 16 times ``L log2 L``, with ``L`` the complex FFT length the
    other would run (``n``, or ``period/2 + 1`` for the real FFT): the rule
    picks them for 16 orders at any span, and not for 512 orders over a
    thousand positions, where they measured slower. Tables hold phases
    reduced exactly in integers mod ``period``, are read-only, and the last
    few of each kind are cached per ``(orders, period, residue of the lowest
    position)`` and their sizes. This class owns the cosine/sine row
    layout; callers only pass coefficient vectors of length ``2*orders``.

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

    def _transform(
        self, pos: np.ndarray
    ) -> tuple[np.ndarray, int, _TrigTables | _ChirpPlan | None]:
        """Offsets of non-empty ``pos`` from their lowest, their span, and the plan to run.

        Positions that cross a multiple of the period are read as residues
        mod ``period`` when those lie closer together; a run that wraps
        keeps its own length. The plan holds the trig tables or the chirp-z
        tables of the cheaper transform; it is ``None`` for the
        length-period FFT.
        """
        lo, hi = int(pos.min()), int(pos.max())
        if lo // self.period != hi // self.period:
            residues = pos % self.period
            r_lo, r_hi = int(residues.min()), int(residues.max())
            if r_hi - r_lo < hi - lo:
                pos, lo, hi = residues, r_lo, r_hi
        span = hi - lo + 1
        n_bins = min(self.orders, self.period)
        # linear convolution of ``span`` outputs with R bins: n >= span + R - 1
        n = 1 << (span + n_bins - 2).bit_length()
        chirp = _CHIRP_LENGTH_RATIO * n <= self.period
        # the complex FFT length of the cheaper FFT: the chirp-z pair's n, or
        # period // 2 + 1 for a real FFT of length period
        fft_len = n if chirp else self.period // 2 + 1
        if n_bins * span <= _TABLE_COST_RATIO * fft_len * fft_len.bit_length():
            width = 1 << (span.bit_length() // 2)
            rows = 1 << (-(-span // width) - 1).bit_length()
            plan = _trig_tables(self.orders, self.period, lo % self.period, width, rows)
        elif chirp:
            plan = _chirp_plan(self.orders, self.period, lo % self.period, n)
        else:
            plan = None
        return pos - lo, span, plan

    def evaluate(self, coeffs, positions) -> np.ndarray:
        """``columns(positions).T @ coeffs``: the trig polynomial at each position.

        ``coeffs`` has shape ``(2*orders,)`` in the row layout of
        :meth:`columns`; returns ``(len(positions),)``.
        """
        a = np.ascontiguousarray(coeffs, dtype=np.float64)
        if a.shape != (self.n_rows,):
            raise ValueError(f"coeffs must have shape ({self.n_rows},), got {a.shape}")
        pos = self._positions(positions)
        if pos.size == 0:
            return np.zeros(0, dtype=np.float64)
        offsets, span, plan = self._transform(pos)
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
        # z[r] = c_r + i*s_r from the cosine and sine coefficients of bin r: the
        # value at offset m is the sum over bins of Re(z[r] * exp(-i*theta_r*(lo + m)))
        if self.orders <= self.period:
            z = a.view(np.complex128)
        else:
            z = np.bincount(plan.bins, a[0::2], minlength=self.period) + 1j * np.bincount(
                plan.bins, a[1::2], minlength=self.period
            )
        if isinstance(plan, _TrigTables):
            mixed = plan.head[: -(-span // plan.tail.shape[1])] * z
            return (mixed.view(np.float64) @ plan.tail).ravel()[offsets]
        x = np.conjugate(z)
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
        if pos.size == 0:
            return np.zeros(self.n_rows, dtype=np.float64)
        offsets, span, plan = self._transform(pos)
        if plan is None:
            spectrum = np.fft.rfft(np.bincount(pos % self.period, w, minlength=self.period))
            bins, sine_sign = self._bins()
            out = np.empty(self.n_rows, dtype=np.float64)
            out[0::2] = spectrum.real[bins]
            out[1::2] = -sine_sign * spectrum.imag[bins]
            return out
        # g[r] = sum_m w[m] * exp(i*theta_r*(lo + m)), the cosine and sine sums of bin r
        if isinstance(plan, _TrigTables):
            width = plan.tail.shape[1]
            rows = -(-span // width)
            grid = np.bincount(offsets, w, minlength=rows * width).reshape(rows, width)
            # evaluate transposed: the tail sums each row of the grid, the head what is left
            sums = (grid @ plan.tail.T).view(np.complex128)
            g = (np.conjugate(plan.head[:rows]) * sums).sum(axis=0)
        else:
            x = np.bincount(offsets, w, minlength=span) * plan.chirp[:span]
            # fft(ifft(x) * H)[r] = sum_m x[m] * h[m - r]: the transpose of evaluate's
            # convolution with the filter h, from the same spectrum H
            g = np.fft.fft(np.fft.ifft(x, plan.spectrum.size) * plan.spectrum)[: plan.pre.size]
            g *= plan.pre
        return g[plan.bins].view(np.float64)

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

# evaluate/project run the trig tables while R * span <= ratio * L * log2(L),
# with R = min(orders, period) and L the complex FFT length they would run
# otherwise. Timed per evaluate + project pair against that FFT, the tables
# were faster in 57 of 59 cases with R * span / (L log2 L) <= 12.8 (1.04x and
# 1.22x slower in the other two) and slower in all 11 at 18.3 and above
# (orders 8-512, spans 256-4096, periods 4096 and 32768, numpy 2.4 on a
# 2-core x86_64)
_TABLE_COST_RATIO = 16


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


class _TrigTables(NamedTuple):
    """Read-only trig tables for one ``(orders, period, lo, width, rows)``.

    With ``R = min(orders, period)`` bins and ``theta_r = 2*pi*r/period``,
    an offset ``m = a*width + b`` (``b < width``, ``a < rows``) has
    ``exp(-i*theta_r*(lo + m)) = head[a, r] * exp(-i*theta_r*b)``; the tail
    holds the cosine and sine of that last phase as real rows.
    """

    bins: np.ndarray  # (orders,) bin of every order: n mod period
    head: np.ndarray  # (rows, R) complex exp(-i*theta_r*(lo + a*width))
    tail: np.ndarray  # (2R, width) cos and sin of theta_r*b, rows interleaved like columns


@functools.lru_cache(maxsize=4)
def _trig_tables(orders: int, period: int, lo: int, width: int, rows: int) -> _TrigTables:
    # keyed on rows, a power of two: a growing middle region reuses one set
    # until its span needs twice the rows or a wider tail
    per_bin = FourierBasis(min(orders, period), period)
    head = per_bin.columns(lo + width * np.arange(rows, dtype=np.int64))
    tables = _TrigTables(
        bins=np.arange(orders, dtype=np.int64) % period,
        head=np.conjugate(np.ascontiguousarray(head.T).view(np.complex128)),
        tail=per_bin.columns(np.arange(width, dtype=np.int64)),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


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


def _add_outer(coeffs: np.ndarray, column: np.ndarray, vec: np.ndarray) -> None:
    """``coeffs += column[:, None] * vec`` in place, as one BLAS rank-1 update (``dger``).

    No ``(2k, dim)`` temporary exists. :func:`compress_batch` and
    :func:`fold_token` both fold through here, which keeps them bitwise equal.
    """
    if vec.size == 0:
        return  # dger rejects empty arrays; there is nothing to add
    # BLAS sees coeffs.T, which is Fortran-ordered for a C-ordered state, and
    # updates that buffer itself; any other layout it silently updates in a copy
    updated = dger(1.0, vec, column, a=coeffs.T, overwrite_a=1)
    if not np.may_share_memory(updated, coeffs):
        coeffs[...] = updated.T


def compress_batch(basis: FourierBasis, values, start_pos: int) -> SpectralState:
    """Fold a block of rows at absolute positions ``start_pos..start_pos+L-1``.

    Accumulates the per-position rank-1 updates in ascending position order,
    which makes the result bit-identical to streaming the same rows through
    :func:`fold_token`: both fold through the same BLAS rank-1 update
    (``dger``) of the state in place. An empty block yields the zero state.

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
    for i in range(length):
        _add_outer(state.coeffs, basis.column(start_pos + i), vals[i])
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

    Mutates ``state`` in place and returns it: one BLAS rank-1 update
    (``dger``) of ``state.coeffs``, the one :func:`compress_batch` makes per
    row, with no ``(2k, dim)`` temporary. Positions must arrive in order:
    the first fold may use any ``pos >= 0``; afterwards only
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
    _add_outer(state.coeffs, basis.column(pos), vec)
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

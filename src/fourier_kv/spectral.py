"""Translated Fourier operator for fixed-size compression of token streams.

A run of token vectors is folded into a bank of ``2k`` real spectral
coefficients: the running cosine and sine moments of every tracked dimension
for each of ``k`` frequency orders. Folding one token is a rank-1 update, so
batch compression and one-token-at-a-time streaming commute, and the state
size never grows with sequence length. ``k`` is at most ``(T + 1) // 2`` for
a period ``T``, so every order has a spectral bin of its own (``R = k``).
:func:`compress_batch` and :func:`fold_token` accumulate those updates one
position at a time, each a BLAS rank-1 update of the state in place, and are
bitwise equal; both read :meth:`FourierBasis.column`, which keeps the last
column it built, so the K and V folds of every head evicting one position
share one column. Reconstruction evaluates a weighted inverse transform at
any folded position, and returns a band-limited run one period long exactly.

The same inverse transform, :meth:`FourierBasis.evaluate`, and its adjoint,
:meth:`FourierBasis.project`, also run over a run of positions, a ``range`` of
step 1, without building its columns: decode attention scores and aggregates
the compressed region with them, calibration's Gram form projects one column
of ones, and :func:`fold_blocks`, the fast batch fold, is ``project`` of many
columns within a 1 MB transient budget. ``project`` has one implementation,
and 1-D weights are its one-column case. A cost rule picks one of three
transforms per run (see :class:`FourierBasis`), resolved once into a plan
that every later call over the same run reads, and the run is read without
scanning it, so a call's fixed cost is a handful of numpy calls. Every cosine
and sine comes from one phase builder, which reduces ``n*t`` mod the period
in integers.

Phases are indexed by *absolute* token position so that a state built during
prefill and a state extended by streaming evictions agree without rephasing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft
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
    ``orders`` must be at most ``(period + 1) // 2``: at integer positions
    order ``n`` is the same wave as ``n mod period`` and ``period - n``, so
    past that bound two orders would share a frequency. Within it every order
    is its own spectral bin, and the transforms below read ``R = orders``.

    :meth:`columns` builds columns explicitly, O(orders) trig calls each;
    :meth:`column` builds one, read-only, and the last one built is cached.
    :meth:`evaluate` (``columns(t).T @ a``) and its adjoint :meth:`project`
    (``columns(t) @ p``, ``p`` one column or ``c`` of them) never build them;
    both read a run ``t``, a ``range`` of step 1 from ``lo >= 0``, of any
    length ``span``. Each call runs one of three transforms, priced by
    ``span``, by ``R = orders`` and by ``c > 1``:

    * trig tables: each offset from ``lo`` splits as ``a*B + b``, with ``B``
      a power of two near ``sqrt(span)``, so every phase is one of ``lo +
      a*B`` times one of ``b``, each from a cached table of R rows, at most
      ``56 * R * sqrt(span)`` bytes (16 KB for 16 orders over 960
      positions). One column takes two small products against them,
      O(R * span) time and O(R * sqrt(span) + span) memory; more take one
      product against the run's columns, ``16 * orders * span`` bytes.
    * chirp-z (Bluestein): with ``n`` the power of two ``>= span + R - 1``,
      one complex FFT pair of length ``n``: O(n log n) time, O(n) memory and
      ``32 * n <= 8 * period`` bytes of tables. More columns go two to a
      complex column, which reads bins ``-(R-1)..R-1`` and so needs ``n >=
      span + 2R - 2``. For 512 orders that is 2048 over 1020 positions, as
      for one column, and 4096 past 1026, where one column keeps 2048.
    * length-period FFT: one real FFT of length ``period`` per column, whose
      bins ``0..R-1`` are the orders: O(period log period) time and
      O(period) memory, no tables.

    The chirp-z pair runs while ``n <= period / 4``; beyond that it costs as
    much as the length-period FFT or more. The tables run while ``R * span``,
    their work per column, is at most 16 times ``L log2 L``, with ``L`` the
    complex FFT length the other would run (``n``, or ``period/2 + 1`` for
    the real FFT) and a packed pair counted once per two columns: they run
    for 16 orders at any span, and not for 512 orders over a thousand
    positions, where they measured slower. Tables hold phases reduced
    exactly in integers mod ``period``, are read-only, and the last few of
    each kind are cached per ``(orders, period, lo mod period)`` and their
    sizes. A run's resolved transform, its checks, pick, tables and the head
    rows it reads with their conjugates, is cached too, per ``(orders,
    period, start, span, packed)`` and the cost rule's ratios, so every head
    of a decode step that reads one middle region reads one plan. This class
    owns the cosine/sine row layout; callers only pass coefficient vectors
    of length ``2*orders``.

    Immutable; safe to share across threads.
    """

    orders: int
    period: int

    def __post_init__(self):
        if self.orders < 1:
            raise ValueError(f"orders must be >= 1, got {self.orders}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if 2 * self.orders - 1 > self.period:
            raise ValueError(
                f"orders must be <= (period + 1) // 2 = {(self.period + 1) // 2}, "
                f"got orders={self.orders} at period={self.period}"
            )

    @property
    def n_rows(self) -> int:
        return 2 * self.orders

    def column(self, pos: int) -> np.ndarray:
        """Basis column for one absolute position, shape ``(2*orders,)``.

        The array is read-only (writing to it raises ``ValueError``) and is
        shared: the last column built is cached for every basis of the same
        geometry, so the K and V folds of every head that evicts the same
        position compute it once.
        """
        if pos < 0:
            raise ValueError(f"position must be >= 0, got {pos}")
        return _column(self.orders, self.period, int(pos))

    @staticmethod
    def _check_run(run) -> None:
        if not isinstance(run, range):
            raise ValueError(f"positions must be a range, got {type(run).__name__}")
        if run.step != 1 or (len(run) and run.start < 0):
            raise ValueError(f"positions must be a range of step 1 from a start >= 0, got {run}")

    def columns(self, positions) -> np.ndarray:
        """Basis columns for many positions, shape ``(2*orders, len(positions))``.

        ``positions`` may be any 1-D sequence of integers ``>= 0``.
        """
        if isinstance(positions, range):
            # np.asarray walks a range one Python int at a time
            positions = np.arange(positions.start, positions.stop, positions.step)
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1:
            raise ValueError("positions must be one-dimensional")
        if pos.size and pos.min() < 0:
            raise ValueError("positions must be >= 0")
        return _unit_phases(self.orders, self.period, pos).view(np.float64).T

    def _pick(self, span: int, packed: bool = False) -> tuple[str, int, int]:
        """The transform the cost rule picks over ``span`` positions, and its size.

        ``("tables", width, rows)`` for trig tables of ``rows`` head phases
        ``width`` positions apart, ``("chirp", n, 0)`` for a chirp-z transform
        of FFT length ``n`` and ``("fft", period, 0)`` for the length-period
        FFT, with ``R = orders`` bins. ``packed`` prices two or more weight
        columns: the chirp-z transform packs two real columns into each
        complex column, which reads bins ``-(R-1)..R-1`` and so ``R - 1`` more
        lags, and one FFT pair serves both.
        """
        # linear convolution of ``span`` outputs with R = orders bins: n >= span + R - 1,
        # and n >= span + 2R - 2 with the negative bins as well
        n = 1 << (span + (1 + packed) * (self.orders - 1) - 1).bit_length()
        chirp = _CHIRP_LENGTH_RATIO * n <= self.period
        # the complex FFT length of the cheaper FFT: the chirp-z pair's n, or
        # period // 2 + 1 for a real FFT of length period. Both cost the tables'
        # products per column, but one packed chirp-z pair serves two columns
        fft_len = n if chirp else self.period // 2 + 1
        if _products_cheaper((1 + (packed and chirp)) * self.orders * span, fft_len):
            width = 1 << (span.bit_length() // 2)
            return "tables", width, 1 << (-(-span // width) - 1).bit_length()
        if chirp:
            return "chirp", n, 0
        return "fft", self.period, 0

    def _transform(self, run: range, packed: bool = False, cached: bool = True) -> _Run:
        """The transform :meth:`_pick` picks over ``run``, resolved into a :class:`_Run`.

        Checks the run first. The trig tables and chirp-z tables come from
        small caches unless ``cached`` is false, as for the sub-runs of a
        fold, which no later call reads. :meth:`_plan` caches the result.
        """
        self._check_run(run)
        span, lo = len(run), run.start % self.period
        if span == 0:
            return _Run(0, lo, None, None, None, None)
        kind, size, rows = self._pick(span, packed)
        if kind == "tables":
            build = _trig_tables if cached else _trig_tables.__wrapped__
            tables = build(self.orders, self.period, lo, size, rows)
            head = tables.head[: -(-span // size)]
            head_conj = np.conjugate(head)
            head_conj.setflags(write=False)
            return _Run(span, lo, tables, head, head_conj, None)
        if kind == "chirp":
            build = _chirp_plan if cached else _chirp_plan.__wrapped__
            return _Run(span, lo, None, None, None, build(self.orders, self.period, lo, size))
        return _Run(span, lo, None, None, None, None)

    def _plan(self, run: range, packed: bool = False) -> _Run:
        """:meth:`_transform` of ``run``, resolved once per run, ``packed`` and cost rule.

        Every head that reads one middle region in a decode step gets the
        same plan from :func:`_run_plan`, whose misses check the start.
        """
        if not isinstance(run, range) or run.step != 1:
            self._check_run(run)  # raises: only a range of step 1 is read
        return _run_plan(self.orders, self.period, run.start, len(run), packed,
                         _TABLE_COST_RATIO, _CHIRP_LENGTH_RATIO)

    def evaluate(self, coeffs, run: range) -> np.ndarray:
        """``columns(run).T @ coeffs``: the trig polynomial at each position of a run.

        ``coeffs`` has shape ``(2*orders,)`` in the row layout of
        :meth:`columns`; returns ``(len(run),)``, possibly a view of a
        transform buffer. ``run`` is a ``range`` of step 1 from a start
        ``>= 0``, of any length, such as a middle region; anything else
        raises ``ValueError``. Its values are sliced out of the trig-table or
        chirp-z transform, or gathered by residue from the length-period FFT.
        """
        a = np.ascontiguousarray(coeffs, dtype=np.float64)
        if a.shape != (self.n_rows,):
            raise ValueError(f"coeffs must have shape ({self.n_rows},), got {a.shape}")
        return self._evaluate(a, self._plan(run))

    def _evaluate(self, a: np.ndarray, plan: _Run) -> np.ndarray:
        """:meth:`evaluate` of contiguous float64 coefficients over a resolved run:
        the arithmetic alone, as decode attention calls it once it holds the plan."""
        span = plan.span
        if span == 0:
            return np.zeros(0, dtype=np.float64)
        # z[r] = c_r + i*s_r from the cosine and sine coefficients of order r: the
        # value at offset m is the sum over orders of Re(z[r] * exp(-i*theta_r*(lo + m)))
        z = a.view(np.complex128)
        if plan.tables is not None:
            mixed = plan.head * z
            return np.dot(mixed.view(np.float64), plan.tables.tail).ravel()[:span]
        if plan.chirp is None:
            spectrum = np.zeros(self.period // 2 + 1, dtype=np.complex128)
            np.conjugate(z, out=spectrum[: self.orders])
            # irfft counts every bin but DC twice (once per sign of frequency);
            # no order reaches the Nyquist bin
            spectrum[1 : self.orders] *= 0.5
            wave = scipy.fft.irfft(spectrum, n=self.period, norm="forward", overwrite_x=True)
            return wave[np.arange(plan.lo, plan.lo + span) % self.period]
        chirp = plan.chirp
        x = np.zeros(chirp.spectrum.size, dtype=np.complex128)
        np.conjugate(z, out=x[: z.size])
        x[: z.size] *= chirp.pre
        x = scipy.fft.fft(x, overwrite_x=True)
        x *= chirp.spectrum
        x = scipy.fft.ifft(x, overwrite_x=True)[:span]
        x *= chirp.chirp[:span]
        return x.real

    def project(self, weights, run: range) -> np.ndarray:
        """``columns(run) @ weights``: the adjoint of :meth:`evaluate`.

        ``weights`` has shape ``(len(run), c)``, giving ``(2*orders, c)``, or
        ``(len(run),)``, giving ``(2*orders,)``: 1-D weights, as decode
        attention passes, are the one-column case, reshaped. Float32 weights
        are cast to float64 in the transform's own buffers or products, not
        copied first. ``run`` is read as by :meth:`evaluate`. The transform
        is priced for the columns given: one column is never packed, so it
        runs the plan :meth:`evaluate` runs over the same run.
        """
        w = np.asarray(weights)
        plan = self._plan(run, w.ndim == 2 and w.shape[1] > 1)
        if w.ndim not in (1, 2) or w.shape[0] != plan.span:
            raise ValueError(
                f"weights must have shape ({plan.span},) or ({plan.span}, c), got {w.shape}"
            )
        if w.size == 0:
            return np.zeros((self.n_rows, *w.shape[1:]), dtype=np.float64)
        return self._project_columns(w, plan)

    def _project_columns(self, w: np.ndarray, plan) -> np.ndarray:
        """:meth:`project` of ``(span, c)`` weights, ``(2*orders, c)``, or of one
        ``(span,)`` column, ``(2*orders,)``.

        ``g[r] = sum_m w[m] * exp(i*theta_r*(lo + m))`` holds the cosine and
        sine sums of bin ``r``. ``span >= 1``, ``c >= 1``, and ``plan`` is
        the run's :class:`_Run` (packed if ``c > 1``; one column reads
        either), or for the trig tables the run's columns, which
        :func:`fold_blocks` builds once per sub-run. The chirp-z transform
        runs one FFT pair in place per complex column. One weight column
        fills it alone and its sums are bins ``0..R-1``; more are packed two
        to a column ``u + i*v``, whose bins ``-(R-1)..R-1`` give, with ``G``
        their sums, ``g_u(r) = (G(r) + conj(G(-r))) / 2`` and ``g_v(r) =
        (G(r) - conj(G(-r))) / 2i`` by conjugate symmetry.
        :meth:`_project_floats` counts the buffers the packed paths hold.
        """
        if isinstance(plan, np.ndarray):
            return plan.T @ w
        span = w.shape[0]
        if plan.tables is not None:
            if w.ndim == 2 and w.shape[1] > 1:
                return plan.run_columns().T @ w
            rows, width = plan.head.shape[0], plan.tables.tail.shape[1]
            grid = np.zeros((rows * width, *w.shape[1:]))
            grid[:span] = w
            # evaluate transposed: the tail sums each row of the grid, the head what
            # is left (np.dot and add.reduce, not @ and sum, cost less at this size)
            sums = np.dot(grid.reshape(rows, width), plan.tables.tail.T).view(np.complex128)
            sums *= plan.head_conj
            g = np.add.reduce(sums).view(np.float64)
            return g if w.ndim == 1 else g[:, None]
        if w.ndim == 1:
            return self._project_columns(w[:, None], plan)[:, 0]
        cols = w.shape[1]
        if plan.chirp is None:
            lo = plan.lo
            grid = np.zeros((-(-(lo + span) // self.period) * self.period, cols))
            grid[lo : lo + span] = w
            spectrum = scipy.fft.rfft(
                grid.reshape(-1, self.period, cols).sum(axis=0), axis=0, overwrite_x=True
            )
            out = np.empty((self.n_rows, cols), dtype=np.float64)
            out[0::2] = spectrum.real[: self.orders]
            np.negative(spectrum.imag[: self.orders], out=out[1::2])
            return out
        chirp = plan.chirp
        pairs, n = -(-cols // 2), chirp.spectrum.size
        # one column u + i*v of x per pair of weight columns, positions down its
        # rows: its float64 view interleaves the weight columns as they come
        x = np.empty((n, pairs), dtype=np.complex128)
        packed = x.view(np.float64)
        packed[:span, :cols] = w
        packed[:span, cols:] = 0.0  # a lone or odd last column pairs with zeros
        x[span:] = 0.0
        x[:span] *= chirp.chirp[:span, None]
        # fft(ifft(x) * H)[r] = sum_m x[m] * h[m - r]: the transpose of evaluate's
        # convolution with the filter h, from the same spectrum H
        x = scipy.fft.ifft(x, axis=0, overwrite_x=True)
        x *= chirp.spectrum[:, None]
        x = scipy.fft.fft(x, axis=0, overwrite_x=True)
        if cols == 1:
            g = x[: self.orders, 0]
            g *= chirp.pre
            return g.view(np.float64)[:, None]
        # half the sums G at bin r, from row r, and at bin -r, from row n - r:
        # exp(i*theta_r*(lo + m)) is pre[r] * w(m) * conj(w(m - r)) at -r too,
        # with pre[-r] = conj(pre[r]) * w(r)**2. neg, a copy, is taken before pos,
        # a view of x scaled in place, since both read row 0
        half = 0.5 * chirp.pre
        neg = x[-np.arange(self.orders) % n]
        neg *= (np.conjugate(half) * chirp.chirp[: self.orders] ** 2)[:, None]
        pos = x[: self.orders]
        pos *= half[:, None]
        # g_u = pos + conj(neg) and g_v = (pos - conj(neg)) / i: per pair, the
        # cosine sums of u and v are the real and imaginary part of pos + neg,
        # and their sine sums those of -i * (pos - neg)
        out = np.empty((self.orders, 2, pairs), dtype=np.complex128)
        np.add(pos, neg, out=out[:, 0])
        np.subtract(pos, neg, out=out[:, 1])
        out[:, 1] *= -1j
        return out.view(np.float64).reshape(self.n_rows, 2 * pairs)[:, :cols]

    def _project_floats(self, span: int) -> tuple[int, int]:
        """Float64 values that :meth:`_project_columns` holds over ``span`` positions.

        ``(fixed, per_column)`` for the packed plan, which :func:`fold_blocks`
        runs, the weights' own values counted per column.
        Fixed: for the trig tables, the tables a sub-run builds, the run's
        columns and what :meth:`_Run.run_columns` holds while it
        builds them (the head conjugated, and numpy's buffer for the
        broadcast product, up to ``getbufsize()`` complex values); the
        orders' phase factors for the chirp-z transform; and for both FFTs
        numpy's two buffers for a broadcast product, up to ``getbufsize()``
        complex values each. Per column: the weights and the output, and the
        float64 copy the trig tables' product makes of float32 weights, half
        a complex FFT buffer of length ``n`` and the packed rows gathered at
        ``-r`` for the chirp-z transform, or the residue grid, the residue
        sums and their spectrum for the length-period FFT.
        """
        kind, size, rows = self._pick(span, packed=True)
        buffers = 4 * np.getbufsize()
        weights_and_output = span + self.n_rows
        if kind == "tables":
            used = -(-span // size)  # head rows the run reads
            run_columns = used * size * self.orders  # complex values
            tables = 2 * self.orders * (rows + size)
            temporaries = 2 * self.orders * used + 2 * min(np.getbufsize(), run_columns)
            return tables + 2 * run_columns + temporaries, weights_and_output + span // 2
        if kind == "chirp":
            return 8 * self.orders + buffers, weights_and_output + size + self.orders
        # the residue grid reaches at most one period past the run
        return buffers, weights_and_output + span + 3 * self.period + 2

    def synthesis_weights(self) -> np.ndarray:
        """Per-row inverse-transform weights used by :func:`reconstruct`.

        Standard discrete-Fourier synthesis weights: ``1/period`` for the
        order-0 rows and ``2/period`` above. Over a folded run one full period
        long they recover every signal below ``orders`` exactly: ``2*orders -
        1 <= period`` keeps the bins ``n`` and ``period - n`` of each order
        apart from every other order's, so no bin is counted twice.

        The order-0 sine row gets the same ``1/period`` weight as the cosine
        row; its coefficients are identically zero so the value never matters.
        Built once per basis and read-only.
        """
        return self._synthesis_weights

    @functools.cached_property
    def _synthesis_weights(self) -> np.ndarray:
        w = np.full(self.n_rows, 2.0 / self.period, dtype=np.float64)
        w[0] = w[1] = 1.0 / self.period
        w.setflags(write=False)
        return w


# evaluate/project run a chirp-z transform of FFT length n only while
# n <= period / 4. Against one length-period real FFT, its complex FFT pair
# took 0.4-1.6x the time at n = period/4, 1.1-2.5x at period/2 and 1.6-5.3x
# at n = period (periods 4096 and 32768, numpy 2.4 on a 2-core x86_64)
_CHIRP_LENGTH_RATIO = 4

# evaluate/project run the trig tables while R * span <= ratio * L * log2(L),
# with R = orders and L the complex FFT length they would run
# otherwise. Timed per evaluate + project pair against that FFT, the tables
# were faster in 57 of 59 cases with R * span / (L log2 L) <= 12.8 (1.04x and
# 1.22x slower in the other two) and slower in all 11 at 18.3 and above
# (orders 8-512, spans 256-4096, periods 4096 and 32768, numpy 2.4 on a
# 2-core x86_64). With two or more columns a packed chirp-z pair serves two,
# so R * span is counted twice against it: in all 14 cases where that moved
# fold_blocks off the tables (orders 128-512, spans 384-4000), 4 blocks of 3
# or 60 columns folded in 0.09-0.64x the time
_TABLE_COST_RATIO = 16


def _products_cheaper(work: int, fft_len: int) -> bool:
    """Whether products of ``work = R * span`` beat a complex FFT of length ``fft_len``.

    ``work <= _TABLE_COST_RATIO * L * log2(L)`` with ``L = fft_len``, read at
    call time so a test can force either side. The trig tables use it, and
    so does ``dimselect.rank_dimensions`` to choose its Gram form over its
    convolution, with ``work = R * (M + 2R)`` for the fold and the quadratic
    form of a calibration middle of ``M`` positions and ``L`` the real FFT
    of twice its length: there it picked the faster form in 35 and 34 of
    36 timed cases in two sweeps (orders 8-512, middles 256-4000, periods
    4096 and 32768; the misses were 256 orders over 4000 positions at
    period 4096, where the convolution ran 1.5-1.6x the Gram form's time,
    and in one sweep 128 orders over 1000 positions at period 32768, where
    the Gram form ran 1.09x the convolution's; numpy 2.4 and scipy 1.17 on
    a 2-core x86_64).
    """
    return work <= _TABLE_COST_RATIO * fft_len * fft_len.bit_length()


@functools.lru_cache(maxsize=1)
def _column(orders: int, period: int, pos: int) -> np.ndarray:
    # one column, 16 * orders bytes: every fold of one eviction step reads the same.
    # A copy rather than a view, so the cache holds one array and not two
    col = _unit_phases(orders, period, np.array([pos], dtype=np.int64)).view(np.float64)[0].copy()
    # setflags rather than flags.writeable, here and for every cached table:
    # each write through a flags object leaves a few small blocks allocated (up
    # to about 1 KB in all, a count that differs from process to process), and
    # this runs once per eviction step, inside the benchmark's held-bytes measurement
    col.setflags(write=False)
    return col


class _ChirpPlan(NamedTuple):
    """Read-only chirp-z tables for one ``(orders, period, lo, n)``.

    With ``R = orders`` bins, one per order since ``2*orders - 1 <= period``,
    and ``w(m) = exp(i*pi*m^2/period)``, ``exp(2*pi*i*r*(lo + m)/period) =
    pre[r] * w(m) * conj(w(m - r))``, so a sum over orders ``r`` at offsets
    ``m`` is a chirp, a convolution with ``conj(w)`` and a chirp. ``n`` is a
    power of two with ``span + R - 1 <= n`` and ``n <= period / 4``.
    """

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
    r = np.arange(orders, dtype=np.int64)
    m = np.arange(n, dtype=np.int64)
    lags = np.where(m <= n - orders, m, n - m)
    filt = _unit_phase(lags * lags, period)
    # not overwrite_x: in place, a hundred plans built and dropped left 4.6 KB
    # traced, and a plan may be built inside a held-bytes measurement
    plan = _ChirpPlan(
        pre=_unit_phase(r * r + r * (2 * lo), period),
        chirp=_unit_phase(m[: n - orders + 1] ** 2, period),
        spectrum=scipy.fft.fft(np.conjugate(filt, out=filt)),
    )
    for table in plan:
        table.setflags(write=False)
    return plan


class _TrigTables(NamedTuple):
    """Read-only trig tables for one ``(orders, period, lo, width, rows)``.

    With ``R = orders`` bins, one per order since ``2*orders - 1 <=
    period``, and ``theta_r = 2*pi*r/period``, an offset ``m = a*width +
    b`` (``b < width``, ``a < rows``) has
    ``exp(-i*theta_r*(lo + m)) = head[a, r] * exp(-i*theta_r*b)``; the tail
    holds the cosine and sine of that last phase as real rows.
    """

    head: np.ndarray  # (rows, R) complex exp(-i*theta_r*(lo + a*width))
    tail: np.ndarray  # (2R, width) cos and sin of theta_r*b, rows interleaved like columns


@functools.lru_cache(maxsize=4)
def _trig_tables(orders: int, period: int, lo: int, width: int, rows: int) -> _TrigTables:
    # keyed on rows, a power of two: a growing middle region reuses one set
    # until its span needs twice the rows or a wider tail
    head = _unit_phases(orders, period, lo + width * np.arange(rows, dtype=np.int64))
    tables = _TrigTables(
        head=np.conjugate(head, out=head),
        tail=_unit_phases(orders, period, np.arange(width, dtype=np.int64)).view(np.float64).T,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


class _Run(NamedTuple):
    """One run's transform, resolved by :meth:`FourierBasis._transform`.

    For the trig tables, ``tables`` and ``head``, the head rows the run
    reads (a view), with ``head_conj``, their conjugates, the one array a
    plan owns; ``chirp`` for the chirp-z transform; neither for the
    length-period FFT or an empty run. ``lo`` is the run's start mod the period.
    """

    span: int
    lo: int
    tables: _TrigTables | None
    head: np.ndarray | None
    head_conj: np.ndarray | None
    chirp: _ChirpPlan | None

    def run_columns(self) -> np.ndarray:
        """``columns(run).T`` of a trig-table run, ``(span, 2*orders)``.

        The phase at offset ``a*width + b`` is ``head_conj[a] * (cos +
        i*sin)(theta*b)``: one broadcast product of ``orders`` phases by
        ``span`` positions, whose float64 view is the interleaved cosine and
        sine layout itself.
        """
        tail = self.tables.tail
        rows, width = self.head_conj.shape[0], tail.shape[1]
        cols = np.empty((rows, width, self.head_conj.shape[1]), dtype=np.complex128)
        cols[:] = tail.T.view(np.complex128)
        cols *= self.head_conj[:, None]
        return cols.reshape(rows * width, -1)[: self.span].view(np.float64)


@functools.lru_cache(maxsize=2)
def _run_plan(orders: int, period: int, start: int, span: int, packed: bool,
              table_ratio: int, chirp_ratio: int) -> _Run:
    # keyed on the cost rule's ratios too, so that a plan picked under one is
    # never read under another (tests patch them to force a transform)
    return FourierBasis(orders, period)._transform(range(start, start + span), packed)


def build_basis(orders: int, period: int) -> FourierBasis:
    """Construct the real translated-Fourier operator.

    Args:
        orders: number of complex frequency orders k (state has 2k real rows).
        period: window length T in token positions; set this to the maximum
            context length so absolute positions never wrap.
    """
    return FourierBasis(orders=orders, period=period)


@dataclass(slots=True)
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


def _add_outer(coeffs: np.ndarray, column: np.ndarray, vec: np.ndarray) -> None:
    """``coeffs += column[:, None] * vec`` in place, as one BLAS rank-1 update (``dger``).

    No ``(2k, dim)`` temporary exists. :func:`compress_batch` and
    :func:`fold_token` both fold through here, which keeps them bitwise equal.
    """
    if vec.size == 0:
        return  # dger rejects empty arrays; there is nothing to add
    # BLAS sees coeffs.T, which is Fortran-ordered for a C-ordered state, and
    # updates that buffer itself and returns it; any other layout it silently
    # updates in a copy, which it returns
    a = coeffs.T
    updated = dger(1.0, vec, column, a=a, overwrite_a=1)
    if updated is not a:
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


# a batch fold's transient per column group: its weights, the transform's
# buffers and its output, at most 2**17 float64 values, 1 MB
_FOLD_CHUNK_FLOATS = 2**17


def _unit_phases(orders: int, period: int, positions: np.ndarray) -> np.ndarray:
    """``exp(2*pi*i*n*t/period)`` for each ``t`` and ``n < orders``, ``(len(t), orders)``.

    The one place positions become phases: element ``[j, n]`` is the cosine
    and sine of order ``n`` at ``t = positions[j]``, so the float64 view of
    row ``j`` is the basis column of :meth:`FourierBasis.columns`. ``(n*t)
    mod period`` is reduced exactly in integers, which keeps trig arguments
    in ``[0, 2*pi)`` at any position. The integer phase is staged in the sine
    slots and the float phase in the cosine slots, so no temporary of the
    output's size exists.
    """
    out = np.empty((positions.size, orders), dtype=np.complex128)
    parts = out.view(np.float64)
    cos, sin = parts[:, 0::2], parts[:, 1::2]
    frac = sin.view(np.int64)
    np.multiply(positions[:, None], np.arange(orders, dtype=np.int64), out=frac)
    np.remainder(frac, period, out=frac)
    np.multiply(frac, 2.0 * np.pi / period, out=cos)
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)
    return out


def fold_blocks(basis: FourierBasis, blocks, start_pos: int, dims=None) -> list:
    """Fold several blocks that cover the same run of absolute positions.

    Every block is ``(L, dim_i)`` with row ``j`` at position ``start_pos + j``;
    all blocks have the same ``L``. With ``dims``, a sequence parallel to
    ``blocks``, block ``i`` contributes only its columns ``dims[i]``.

    The fold is :meth:`FourierBasis.project` of the selected columns, so it
    runs the decode transforms, their cost rule and their plan caches: the
    packed chirp-z transform at stock (a pair of columns per complex FFT
    pair of length 2048 over 1020 positions), the trig tables at desk (the
    run's columns built from the tables and one matrix product per group),
    and at both geometries decode's next call over the benchmark's middles
    reads the tables the fold built. Each block's picked columns go to it in
    groups, selected from the block only then, so no block is copied whole;
    float32 blocks are cast to float64 by the transform. A group's weights,
    the transform's buffers and its output, with the trig tables and run
    columns a sub-run builds, fit ``_FOLD_CHUNK_FLOATS``
    float64 values (1 MB) where one column allows, as
    ``FourierBasis._project_floats`` counts them for the plan each sub-run
    runs; a run at which one column does not fit is halved into consecutive
    sub-runs until it fits every one, the shorter last one included, which
    the fold's linearity allows, so the transient memory is one budget
    whatever the run length.
    Returns one state per block, equal to :func:`compress_batch` of that
    block within ``1e-12 * max(1, sum|x|)`` per column: the transforms sum
    in their own order, so not bitwise.
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
    states = [SpectralState.zeros(basis.orders, np.arange(a.shape[1])[d].size)
              for a, d in zip(arrays, dims)]
    _fold_into(basis, arrays, dims, [state.coeffs for state in states], start_pos)
    if length:
        for state in states:
            state.token_count = length
            state.first_pos = start_pos
            state.last_pos = start_pos + length - 1
    return states


def _fold_into(basis: FourierBasis, arrays: list, dims, outs: list, start_pos: int) -> None:
    """Add the fold of each block's columns ``dims[i]`` into ``outs[i]``, in place.

    The work of :func:`fold_blocks`, whose checks the inputs have passed:
    ``outs[i]`` is ``(2*orders, k_i)`` float64 for the ``k_i`` columns
    picked, and may be a view of a larger array, as the cache's K and V
    columns of one state.
    """
    length = arrays[0].shape[0] if arrays else 0
    if length == 0:
        return
    picks = [np.arange(a.shape[1])[d] for a, d in zip(arrays, dims)]
    # a block whose dims are a slice of step 1 is read as a slice, not gathered
    stretch = [isinstance(d, slice) and d.step in (None, 1) for d in dims]
    # the longest halving of the run at which one column fits the budget in
    # every sub-run: the last, shorter one may run another transform
    sub_run = length
    while sub_run > 1 and any(
        sum(basis._project_floats(span)) > _FOLD_CHUNK_FLOATS
        for span in (sub_run, (length - 1) % sub_run + 1)
    ):
        sub_run = -(-sub_run // 2)
    for lo in range(0, length, sub_run):
        hi = min(length, lo + sub_run)
        run = range(start_pos + lo, start_pos + hi)
        plan = basis._transform(run, packed=True, cached=sub_run == length)
        if plan.tables is not None:
            # every group reads the run's columns, built once per sub-run
            plan = plan.run_columns()
        fixed, per_column = basis._project_floats(hi - lo)
        group = max(1, (_FOLD_CHUNK_FLOATS - fixed) // per_column)
        for array, pick, whole, out in zip(arrays, picks, stretch, outs):
            # a block's picks in groups of equal width, none a short remainder
            width = -(-pick.size // -(-pick.size // group)) if pick.size else 1
            for a in range(0, pick.size, width):
                b = min(a + width, pick.size)
                cols = slice(pick[a], pick[a] + b - a) if whole else pick[a:b]
                out[:, a:b] += basis._project_columns(array[lo:hi, cols], plan)


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
    if vec.shape != state.coeffs.shape[1:]:
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

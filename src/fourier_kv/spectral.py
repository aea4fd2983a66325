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
the compressed region with them, one column at a time. :func:`fold_blocks`,
the fast batch fold, is the one projection of many columns, within a 1 MB
transient budget. A cost rule picks one of four transforms per run (see
:class:`FourierBasis`): trig tables, Chebyshev moments (for a fold of two or
more columns only), a chirp-z transform or the length-period FFT. A run's
one-column pick is resolved once into a plan that every later call over the
same run reads, and the run is read without scanning it, so a call's fixed
cost is a handful of numpy calls. The fold runs the trig tables and the
moments as matrix products over spans of a block's columns, cast into one
float64 buffer and never gathered: one product per span against the run's
columns, or two through the moments, and each FFT once per column. Every
cosine and sine comes from one of two phase builders, each reducing its
integer phase exactly before the float product: :func:`_unit_phases`
reduces ``n*t`` mod ``period``, for basis columns, trig tables and, at
twice the period, the centred Fourier rows of ``dimselect``'s calibration,
and :func:`_unit_phase` reduces mod ``2*period``, for the chirp-z plans,
the moments' waves and the Dirichlet sums of ``dimselect``'s Fourier Gram
halves. The moment Gram matrices of ``dimselect`` read no phase of a
position: their kernel depends only on differences of Chebyshev nodes.

Phases are indexed by *absolute* token position so that a state built during
prefill and a state extended by streaming evictions agree without rephasing.
"""

from __future__ import annotations

import functools
import math
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
    (``columns(t) @ p``, ``p`` one column) never build them; both read a run
    ``t``, a ``range`` of step 1 from ``lo >= 0``, of any length ``span``.
    :func:`fold_blocks` projects ``c`` columns over the same transforms. Each
    call runs one of four, priced by ``span``, by ``R = orders`` and by
    ``c``, which is 1 for ``evaluate`` and ``project``:

    * trig tables: each offset from ``lo`` splits as ``a*B + b``, with ``B``
      a power of two near ``sqrt(span)``, so every phase is one of ``lo +
      a*B`` times one of ``b``, each from a cached table of R rows, at most
      ``56 * R * sqrt(span)`` bytes (16 KB for 16 orders over 960
      positions). One column takes two small products against them,
      O(R * span) time and O(R * sqrt(span) + span) memory; a fold, one
      product per span against the run's columns, ``16 * orders * span`` bytes.
    * Chebyshev moments, for ``c >= 2`` only: with ``x`` the run mapped onto
      ``(-1, 1)``, every order's wave is a sum of ``degree`` Chebyshev
      polynomials ``T_k(x)`` (Jacobi-Anger), ``degree`` growing with the
      largest wave's phase over half the run as a bound on the tail sets it
      (98 terms for 512 orders over 1020 positions at period 32768, where
      that phase is 50 radians). A column costs its ``degree`` moments,
      ``degree * span`` multiply-adds, and one product of them by the
      waves, ``2R * degree``; the tables of both are built for all ``c``
      columns together, in chunks within the fold's budget.
    * chirp-z (Bluestein): with ``n`` the power of two ``>= span + R - 1``,
      one complex FFT pair of length ``n`` per column: O(n log n) time,
      O(n) memory and ``32 * n <= 8 * period`` bytes of tables.
    * length-period FFT: one real FFT of length ``period`` per column, whose
      bins ``0..R-1`` are the orders: O(period log period) time and
      O(period) memory, no tables.

    The chirp-z pair runs while ``n <= period / 4``; beyond that it costs as
    much as the length-period FFT or more. The tables run while ``R * span``,
    their work per column, is at most 16 times ``L log2 L``, with ``L`` the
    complex FFT length the other would run (``n``, or ``period/2 + 1`` for
    the real FFT): they run for 16 orders at any span, and not for 512
    orders over a thousand positions, where they measured slower. Two or
    more columns whose run columns exceed a fold's budget add the tables'
    builds in its sub-runs to that work, as ``_TABLE_BUILD_COLUMNS`` more
    columns. They run the moments ahead of both while their work per column,
    their builds shared among the columns, is at most the tables' and
    passes the same test against the FFT: 512 orders over 1020 positions
    take them from 34 columns on, 16 orders keep the tables. Tables hold
    phases reduced exactly in integers mod ``period``, are read-only, and
    the last few of each kind are cached per ``(orders, period, lo mod
    period)`` and their sizes. A run's resolved one-column transform, its
    checks, pick, tables and the head rows it reads with their conjugates,
    is cached too, per ``(orders, period, start, span)`` and the cost
    rule's ratios, so every head of a decode step that reads one middle
    region reads one plan. This class owns the cosine/sine row layout;
    callers only pass coefficient vectors of length ``2*orders``.

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

    def _pick(self, span: int, columns: int = 1) -> tuple[str, int, int]:
        """The transform the cost rule picks over ``span`` positions, and its size.

        ``("tables", width, rows)`` for trig tables of ``rows`` head phases
        ``width`` positions apart, ``("moments", degree, 0)`` for Chebyshev
        moments of ``degree`` terms, ``("chirp", n, 0)`` for a chirp-z
        transform of FFT length ``n`` and ``("fft", period, 0)`` for the
        length-period FFT, with ``R = orders`` bins. ``columns`` is the
        number of columns a fold projects together, 1 for :meth:`evaluate`
        and :meth:`project`: the moments' tables are built once for all of
        them, so they are priced only for two or more, and never run for
        one. Two or more columns read the trig tables' run columns, and
        where those exceed ``_FOLD_CHUNK_FLOATS`` the tables are charged the
        builds of a fold's sub-runs too.
        """
        orders = self.orders
        # linear convolution of ``span`` outputs with R = orders bins: n >= span + R - 1
        n = 1 << (span + orders - 2).bit_length()
        chirp = _CHIRP_LENGTH_RATIO * n <= self.period
        # the complex FFT length of the cheaper FFT: the chirp-z pair's n, or
        # period // 2 + 1 for a real FFT of length period
        fft_len = n if chirp else self.period // 2 + 1
        width = 1 << (span.bit_length() // 2)
        rows = 1 << (-(-span // width) - 1).bit_length()
        tables = orders * span
        if columns > 1 and sum(_table_floats(orders, span, width, rows)) > _FOLD_CHUNK_FLOATS:
            # a fold whose run columns exceed its budget runs sub-runs that
            # each build their own tables, counted as more columns
            tables = tables * (columns + _TABLE_BUILD_COLUMNS) / columns
        if columns > 1:
            degree = _run_degree(orders, self.period, span)
            # the two products per column, in the tables' unit of R * span (a
            # complex multiply-add), and the tables' builds shared by the columns
            work = (_MOMENT_COST_RATIO * degree * (span + 2 * orders)
                    * (columns + _MOMENT_BUILD_COLUMNS) / (2 * columns))
            if work <= tables and _products_cheaper(work, fft_len):
                return "moments", degree, 0
        if _products_cheaper(tables, fft_len):
            return "tables", width, rows
        if chirp:
            return "chirp", n, 0
        return "fft", self.period, 0

    def _transform(self, run: range, columns: int = 1, cached: bool = True) -> _Run:
        """``_pick(len(run), columns)`` resolved over ``run`` into a :class:`_Run`.

        Checks the run first. The trig tables and chirp-z tables come from
        small caches unless ``cached`` is false, as for the sub-runs of a
        fold, which no later call reads; the moments' tables are built by
        the fold that runs them. :meth:`_plan` caches one column's result.
        """
        self._check_run(run)
        span, lo = len(run), run.start % self.period
        if span == 0:
            return _Run(0, lo, None, None, None, None)
        kind, size, rows = self._pick(span, columns)
        if kind == "tables":
            build = _trig_tables if cached else _trig_tables.__wrapped__
            tables = build(self.orders, self.period, lo, size, rows)
            head = tables.head[: -(-span // size)]
            head_conj = np.conjugate(head)
            head_conj.setflags(write=False)
            return _Run(span, lo, tables, head, head_conj, None)
        if kind == "moments":
            return _Run(span, lo, None, None, None, None, size)
        if kind == "chirp":
            build = _chirp_plan if cached else _chirp_plan.__wrapped__
            return _Run(span, lo, None, None, None, build(self.orders, self.period, lo, size))
        return _Run(span, lo, None, None, None, None)

    def _plan(self, run: range) -> _Run:
        """:meth:`_transform` of one column over ``run``, resolved once per run.

        Every head that reads one middle region in a decode step gets the
        same plan from :func:`_run_plan`, whose misses check the start.
        """
        if not isinstance(run, range) or run.step != 1:
            self._check_run(run)  # raises: only a range of step 1 is read
        return _run_plan(self.orders, self.period, run.start, len(run))

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
        """``columns(run) @ weights``: the adjoint of :meth:`evaluate`, one column.

        ``weights`` has shape ``(len(run),)``, as decode attention passes,
        and the result ``(2*orders,)``; many columns go through
        :func:`fold_blocks`, which prices them together within its budget.
        Float32 weights are cast to float64 in the transform's own buffers,
        not copied first. ``run`` is read as by :meth:`evaluate`, whose plan
        the call runs.
        """
        w = np.asarray(weights)
        plan = self._plan(run)
        if w.shape != (plan.span,):
            raise ValueError(f"weights must have shape ({plan.span},), got {w.shape}; "
                             "fold_blocks projects many columns")
        if w.size == 0:
            return np.zeros(self.n_rows, dtype=np.float64)
        return self._project_columns(w, plan)

    def _project_columns(self, w: np.ndarray, plan: _Run) -> np.ndarray:
        """:meth:`project` of one ``(span,)`` column, ``(2*orders,)``, or a fold's
        ``(span, c)`` columns, ``(2*orders, c)``.

        ``g[r] = sum_m w[m] * exp(i*theta_r*(lo + m))`` holds the cosine and
        sine sums of bin ``r``. ``span >= 1``, ``c >= 1``, and ``plan`` is
        the run's :class:`_Run`. Its trig tables take one column (a fold
        projects many through :func:`_fold_spans`); the FFTs run one
        transform per column.
        """
        span = w.shape[0]
        if plan.tables is not None:
            rows, width = plan.head.shape[0], plan.tables.tail.shape[1]
            grid = np.zeros(rows * width)
            grid[:span] = w
            # evaluate transposed: the tail sums each row of the grid, the head what
            # is left (np.dot and add.reduce, not @ and sum, cost less at this size)
            sums = np.dot(grid.reshape(rows, width), plan.tables.tail.T).view(np.complex128)
            sums *= plan.head_conj
            return np.add.reduce(sums).view(np.float64)
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
        # one row of x per weight column, its positions along the row
        x = np.zeros((cols, chirp.spectrum.size), dtype=np.complex128)
        x.real[:, :span] = w.T
        x[:, :span] *= chirp.chirp[:span]
        # fft(ifft(x) * H)[r] = sum_m x[m] * h[m - r]: the transpose of evaluate's
        # convolution with the filter h, from the same spectrum H
        x = scipy.fft.ifft(x, axis=1, overwrite_x=True)
        x *= chirp.spectrum
        x = scipy.fft.fft(x, axis=1, overwrite_x=True)
        g = x[:, : self.orders]
        g *= chirp.pre
        return g.view(np.float64).T

    def _project_floats(self, span: int, columns: int) -> tuple[int, int]:
        """Float64 values that a fold of ``columns`` columns holds over ``span`` positions.

        ``(fixed, per_column)`` for the plan :func:`fold_blocks` runs over
        them. For the trig tables, fixed: the tables a sub-run builds, the
        run's columns and what :meth:`_Run.run_columns` holds while it
        builds them (the head conjugated, and numpy's buffer for the
        broadcast product, up to ``getbufsize()`` complex values); per
        column: the column cast into the fold's float64 buffer, the
        product's output, the picked columns taken from it and the output
        columns they are added into (the fold reads its blocks in place, so
        their own values are not counted). For the moments, fixed: the
        larger of their two passes, as :func:`_moment_chunks` sizes them;
        per column: its ``degree`` moments, held between the passes. For
        the FFTs, fixed: numpy's two buffers for a broadcast product, up to
        ``getbufsize()`` complex values each, and for the chirp-z transform
        its tables; per column: the weights gathered, with the complex FFT
        buffer of length ``n`` for the chirp-z transform, in which it
        returns its output, or the output, the residue grid, the residue
        sums and their spectrum for the length-period FFT.
        """
        kind, size, rows = self._pick(span, columns)
        buffers = 4 * np.getbufsize()
        if kind == "tables":
            return _table_floats(self.orders, span, size, rows)
        if kind == "moments":
            return _moment_chunks(self.orders, span, size)[-1], size
        if kind == "chirp":
            # pre, chirp and spectrum: R, n - R + 1 and n complex values
            return buffers + 2 * (2 * size + 1), span + 2 * size
        # the residue grid reaches at most one period past the run
        return buffers, 2 * span + self.n_rows + 3 * self.period + 2

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
# 2-core x86_64). With two or more columns the Chebyshev moments are priced
# first (below), and a fold of many columns over these tables runs one
# product per span of a block's columns against the run's columns
_TABLE_COST_RATIO = 16

# a fold whose run columns exceed _FOLD_CHUNK_FLOATS runs the tables in
# sub-runs that each build their own, so there the tables' work is counted
# with this many more columns shared by all
_TABLE_BUILD_COLUMNS = 256

# a fold of two or more columns runs the Chebyshev moments while their work
# per column, ratio * degree * (span + 2R) / 2 in the tables' unit of R * span
# (half a real multiply-add), with the moments' tables counted as
# _MOMENT_BUILD_COLUMNS more columns shared by all, is at most the trig
# tables' (with their sub-runs' builds) and passes _products_cheaper against
# the FFT. The three constants come from a sweep of folds under each forced
# transform (orders 64-512, spans 256-4000, periods 4096 and 32768, 2-400
# columns, numpy 2.4 and scipy-openblas 0.3.31 on a 2-core AVX-512 x86_64,
# one thread). Among ratios 0.75-3, moment build counts 8-128 and table build
# counts 64-384 that send the stock fold to the moments and the desk fold to
# the tables, 2, 32 and 256 lost 7 ms in all to the fastest forced transform
# over the 120 folds, and left one at over 1.5x its time. Ratio 1 lost 45 ms
# (12 folds past 1.5x), no table build count 160 ms (48: 2 columns over 256
# orders and 4000 positions at period 32768 ran 24x the chirp-z's time on the
# tables), no moments 237 ms. On a second grid that set nothing (orders 96,
# 192 and 384, spans 500 and 2000, 4-256 columns, both periods) they lost
# 1.6 ms over 48 folds, the worst at 1.63x, where a rule with ratio 1 and no
# table build count lost 40 ms and left 15 folds past 1.5x
_MOMENT_COST_RATIO = 2
_MOMENT_BUILD_COLUMNS = 32


def _table_floats(orders: int, span: int, width: int, rows: int) -> tuple[int, int]:
    """:meth:`FourierBasis._project_floats` for the trig tables of ``rows`` by ``width``."""
    used = -(-span // width)  # head rows the run reads
    run_columns = used * width * orders  # complex values
    tables = 2 * orders * (rows + width)
    temporaries = 2 * orders * used + 2 * min(np.getbufsize(), run_columns)
    return tables + 2 * run_columns + temporaries, span + 6 * orders


def _products_cheaper(work: int, fft_len: int) -> bool:
    """Whether products of ``work = R * span`` beat a complex FFT of length ``fft_len``.

    ``work <= _TABLE_COST_RATIO * L * log2(L)`` with ``L = fft_len``, read at
    call time so a test can force either side. The trig tables and the
    moments fold use it, and so does ``dimselect.rank_dimensions`` to choose
    between its convolution and the cheaper of its two Gram forms, with
    ``L`` the real FFT of twice the calibration middle's ``M`` positions.
    Both Gram forms fold a column's even and odd halves about the middle's
    centre, half the multiply-adds of their unsplit products, and are priced at
    half their unsplit work: the Fourier Gram form at ``R * (M + 2R) / 2``, the
    moment Gram form at ``_MOMENT_COST_RATIO * (d * (M + d) / 4 + 2 * d**3 /
    columns)`` for ``d`` moments (the second term their ``d x d`` build), while
    four ``d x d`` matrices fit ``_FOLD_CHUNK_FLOATS``. Over orders 8-512,
    middles 256-4000 and periods 4096 and 32768, and 512 orders over 8192
    positions at period 32768 (256 columns; two sweeps timing this rule and the
    unsplit one in one process, alternating; numpy 2.4 and scipy 1.17 on a
    2-core x86_64, one BLAS thread), it picked a form within 1.1x of the
    fastest in 35 and 33 of 37 rankings and took a median 0.78-0.80x the
    unsplit rule's time. It moved two rankings off the convolution: 256 orders
    over 4000 positions at period 4096 to the Fourier Gram form, at 0.73-0.76x
    the time, and 512 orders over 256 positions at period 4096 to the moments,
    at 1.96-2.03x, as their ``d x d`` builds (168 moments) went unpriced;
    priced, over 256 columns, that ranking runs the convolution again. The cap
    keeps 512 orders over 4000 positions at period 32768 (299 moments) on the
    convolution, at 1.6x the moments' time.
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
    plan owns; ``chirp`` for the chirp-z transform; ``degree``, the number
    of Chebyshev terms, for the moments, which hold no tables; none of them
    for the length-period FFT or an empty run. ``lo`` is the run's start mod
    the period.
    """

    span: int
    lo: int
    tables: _TrigTables | None
    head: np.ndarray | None
    head_conj: np.ndarray | None
    chirp: _ChirpPlan | None
    degree: int = 0

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
def _run_plan(orders: int, period: int, start: int, span: int) -> _Run:
    # keyed on the run alone: the cost rule's ratios are constants, read once per plan
    return FourierBasis(orders, period)._transform(range(start, start + span))


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
    # updates in a copy, which it returns. The arguments are (alpha, x, y,
    # incx, incy, a, overwrite_x, overwrite_y, overwrite_a), all positional:
    # keywords cost the wrapper about 0.8 us a call at desk sizes, half again
    # the update's own 1.6 us (scipy 1.17, 2-core x86_64)
    a = coeffs.T
    updated = dger(1.0, vec, column, 1, 1, a, 1, 1, 1)
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

# the trig tables' fold keeps each product against the run columns within
# 100**3 multiply-adds, the size up to which OpenBLAS lets dgemm run its
# small-matrix kernels, which skip packing the operands. In scipy-openblas
# 0.3.31 (DYNAMIC_ARCH) only the SkylakeX kernels admit any product: its
# dgemm_small_matrix_permit_SKYLAKEX refuses M*N*K above 1e6 (read from the
# library's disassembly), and the Haswell, Sandy Bridge, Nehalem and Prescott
# permits return 0, so on other cores the cap only splits a block into more
# products. Over the desk middle (32 rows by 956 positions, AVX-512 x86_64,
# one thread) a product took 1.4 us a column up to 32 columns and 2.0-3.4 us
# from 33 to 128; with 64 rows, 2.8 us at 16 columns against 3.6-3.8 at
# 64-128; with 128 or 256 rows, 3.7-4.9 us a column against 3.4 at 128
# columns
_SMALL_PRODUCT = 100**3


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
    ``blocks``, block ``i`` contributes only its columns ``dims[i]``,
    integer indices strictly ascending in ``[0, dim_i)``; any other entry,
    a slice among them, raises ``ValueError``.

    The fold is the one projection of many columns, ``columns(run) @
    block[:, dims[i]]`` per block: it runs the transforms of
    :meth:`FourierBasis.project`, their cost rule and their table caches,
    priced for every picked column of every block together: the Chebyshev
    moments at stock (98 terms over 1020 positions), the trig tables at
    desk, whose tables decode's next call over the benchmark's middle reads
    from the cache. Over the FFTs every column costs a transform, so each
    block's picked columns go to it in groups, selected from the block only
    then. Over the trig tables and the moments a column costs no transform:
    their tables are built once per sub-run (per chunk of positions and of
    orders for the moments), and a block's columns from its first pick to
    its last go in spans, each cast into one float64 buffer and projected
    by one matrix product, within the multiply-adds of BLAS's small-matrix
    kernels (32 columns at desk), whose picked columns the state keeps, or
    for the moments the columns' moments, which a second product takes to
    the state; nothing is gathered from a block. So the columns between a
    block's picks pass through the products too: the fold ignores
    floating-point errors, and a NaN or Inf in a column that is not picked
    leaves the picked columns' states as they are. No block is copied
    whole. A group's or span's values, the transform's buffers and its
    output, with the tables a sub-run builds, fit ``_FOLD_CHUNK_FLOATS``
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
    if dims is not None and len(dims) != len(arrays):
        raise ValueError(f"dims has {len(dims)} entries for {len(arrays)} blocks")
    if any(a.ndim != 2 for a in arrays):
        raise ValueError("every block must be 2-D (length x dim)")
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"blocks must share one length, got {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    if dims is None:
        dims = [np.arange(a.shape[1]) for a in arrays]
    else:
        dims = [_ascending(d, a.shape[1]) for a, d in zip(arrays, dims)]
    states = [SpectralState.zeros(basis.orders, d.size) for d in dims]
    with np.errstate(invalid="ignore", over="ignore"):
        _fold_into(basis, arrays, dims, [state.coeffs for state in states], start_pos)
    if length:
        for state in states:
            state.token_count = length
            state.first_pos = start_pos
            state.last_pos = start_pos + length - 1
    return states


def _ascending(pick, dim: int) -> np.ndarray:
    """``pick`` as :func:`fold_blocks` reads it: an int64 array of column
    indices strictly ascending in ``[0, dim)``."""
    if (idx := np.asarray(pick)).ndim == 1 and (idx.dtype.kind in "iu" or not idx.size):
        idx = idx.astype(np.int64, copy=False)
        if not idx.size or (idx[0] >= 0 and idx[-1] < dim and (idx[1:] > idx[:-1]).all()):
            return idx
    raise ValueError("dims entries must be column indices "
                     f"strictly ascending in [0, {dim}), got {pick!r}")


def _fold_into(basis: FourierBasis, arrays: list, picks: list, outs: list,
               start_pos: int) -> None:
    """Add the fold of each block's columns ``picks[i]`` into ``outs[i]``, in place.

    The work of :func:`fold_blocks`, whose checks the inputs have passed:
    every ``picks[i]`` is an integer array that ascends strictly, as the
    cache's ``HeadDims`` sets do, and ``outs[i]`` is ``(2*orders, k_i)``
    float64 for the ``k_i`` columns picked, and may be a view of a larger
    array, as the cache's K and V columns of one state. The transform is
    priced for all the picked columns together. Each sub-run over the trig
    tables goes to :func:`_fold_spans`, a product per span of a block's
    columns, and over the moments to :func:`_fold_moments`; over either
    FFT, each block's picks go to the transform in groups.
    """
    length = arrays[0].shape[0] if arrays else 0
    columns = sum(pick.size for pick in picks)
    if length == 0 or columns == 0:
        return
    # the longest halving of the run at which one column fits the budget in
    # every sub-run: the last, shorter one may run another transform
    sub_run = length
    while sub_run > 1 and any(
        sum(basis._project_floats(span, columns)) > _FOLD_CHUNK_FLOATS
        for span in {sub_run, (length - 1) % sub_run + 1}
    ):
        sub_run = -(-sub_run // 2)
    for lo in range(0, length, sub_run):
        hi = min(length, lo + sub_run)
        run = range(start_pos + lo, start_pos + hi)
        # the last sub-run's tables go before this one's are built
        plan = None
        plan = basis._transform(run, columns, cached=sub_run == length)
        if plan.degree:
            _fold_moments(basis, plan, arrays, picks, outs, lo, hi)
            continue
        fixed, per_column = basis._project_floats(hi - lo, columns)
        group = max(1, (_FOLD_CHUNK_FLOATS - fixed) // per_column)
        if plan.tables is not None:
            _fold_spans(plan.run_columns(), arrays, picks, outs, lo, hi, group)
            continue
        for array, pick, out in zip(arrays, picks, outs):
            # a block's picks in groups of equal width, none a short remainder,
            # each gathered from the block
            width = -(-pick.size // -(-pick.size // group)) if pick.size else 1
            for a in range(0, pick.size, width):
                b = min(a + width, pick.size)
                out[:, a:b] += basis._project_columns(array[lo:hi, pick[a:b]], plan)


def _fold_spans(columns: np.ndarray, arrays: list, picks: list, outs: list, lo: int, hi: int,
                group: int) -> None:
    """Rows ``lo:hi`` of each block projected onto ``columns``, a product per span.

    ``columns`` is ``(hi - lo, n)``: a trig-table sub-run's
    :meth:`_Run.run_columns`, or for :func:`_fold_moments` a chunk of its
    Chebyshev rows, transposed. Every ``picks[i]`` ascends strictly. The
    columns of a block from its first pick to its last are cast, ``group``
    at most at a time, into one float64 buffer (one cast a block at desk:
    casting each span apart took 4-5% longer), and each span of it within
    :data:`_SMALL_PRODUCT` multiply-adds is projected by one product
    ``columns.T @ span``, whose picked columns are added into ``outs[i]``.
    No column is gathered from a block: in this form a column costs no
    transform, so the unpicked columns of a span cost less than a gather.
    """
    step = min(group, max(1, _SMALL_PRODUCT // columns.size))
    buffer = np.empty((hi - lo, min(group, max(array.shape[1] for array in arrays))))
    for array, pick, out in zip(arrays, picks, outs):
        if not pick.size:
            continue
        first, stop = int(pick[0]), int(pick[-1]) + 1
        # casts of equal widths, at most group, and products of equal spans
        # within each, none a short remainder
        width = -(-(stop - first) // -(-(stop - first) // group))
        for c0 in range(first, stop, width):
            c1 = min(c0 + width, stop)
            buffer[:, : c1 - c0] = array[lo:hi, c0:c1]
            span = -(-(c1 - c0) // -(-(c1 - c0) // step))
            for p0 in range(c0, c1, span):
                p1 = min(p0 + span, c1)
                a, b = pick.searchsorted((p0, p1))
                if a == b:
                    continue
                sums = columns.T @ buffer[:, p0 - c0 : p1 - c0]
                # picks that fill the span take its sums whole
                out[:, a:b] += sums if b - a == p1 - p0 else sums[:, pick[a:b] - p0]


# the moments keep their truncation tail, 2 * sum over k >= degree of
# (a/2)**k / k!, within this bound, a unit roundoff of float64. They
# interpolate at degree nodes, which folds the dropped terms back onto the
# kept ones, so their error is within twice it, 2**-52
_MOMENT_TAIL = 2.0**-53

# the moments step their waves from order to order by running products over
# at most this many orders, each from an exact start: a product's rounding
# error grows with its length
_MOMENT_ORDERS = 64


@functools.lru_cache(maxsize=16)
def _moment_degree(a: float) -> int:
    """How many Chebyshev terms expand ``exp(i*a*x)`` on ``[-1, 1]`` to ``_MOMENT_TAIL``.

    ``exp(i*a*x) = sum_k eps_k * i**k * J_k(a) * T_k(x)`` (Jacobi-Anger),
    with ``eps_0 = 1`` and ``eps_k = 2``, and ``|J_k(a)| <= (a/2)**k / k!``.
    Once ``k + 1 >= a`` that bound at least halves from one ``k`` to the
    next, so the terms from ``k`` on sum to at most ``4 * (a/2)**k / k!``:
    the least such ``k`` at which that is within ``_MOMENT_TAIL``, found by
    bisection on its logarithm. Every order's ``a`` is at most the largest.
    Interpolation at ``k`` nodes, as :func:`_fold_moments` runs it, aliases
    the tail onto the kept terms and so errs by at most twice the tail.
    """
    if a <= 0:
        return 1
    log_tail = math.log(_MOMENT_TAIL / 4)

    def within(k: int) -> bool:
        return k * math.log(a / 2) - math.lgamma(k + 1) <= log_tail

    low = max(1, math.ceil(a - 1))
    high = low
    while not within(high):
        low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if not within(mid) else (low, mid)
    return low


def _run_degree(orders: int, period: int, span: int) -> int:
    """:func:`_moment_degree` over a run of ``span`` positions, whose largest wave's
    phase over half the run is ``pi * (orders - 1) * span / period``."""
    return _moment_degree(np.pi * (orders - 1) * span / period)


def _moment_chunks(orders: int, span: int, degree: int) -> tuple[int, int, int, int, int]:
    """How :func:`_fold_moments` splits its work to fit ``_FOLD_CHUNK_FLOATS``.

    ``(positions, width, rows, window, fixed)``: positions per chunk of
    Chebyshev rows (``degree * positions`` floats), block columns cast at a
    time (``positions * width``), orders per chunk of waves
    (:data:`_MOMENT_ORDERS`, ``2 * degree * rows`` floats) and moment
    columns per product against them (``2 * rows * window``), each within a
    quarter of the budget, or within one chunk of waves where that is more
    (past 256 terms at the default budget); and ``fixed``, the larger
    of the two passes' float64 values. The first also holds the rows'
    position vectors, numpy's buffers for their broadcast products (``2 * s
    * positions``, see :func:`_chebyshev_rows`) and the products of
    :func:`_fold_spans` with the picked columns taken from them and the
    sums they are added with (``3 * degree`` values per product column);
    the second the waves' node and factor vectors.
    """
    rows = min(orders, _MOMENT_ORDERS)
    quarter = max(_FOLD_CHUNK_FLOATS // 4, 2 * degree * rows)
    positions = min(span, quarter // degree)
    width = quarter // positions
    window = quarter // (2 * rows)
    step = min(width, max(1, _SMALL_PRODUCT // (degree * positions)))
    s = max(2, math.isqrt(degree))
    moments = (degree + 3 + 2 * s) * positions + positions * width + 3 * degree * step
    waves = 2 * rows * (degree + window) + 8 * degree
    return positions, width, rows, window, max(moments, waves)


def _chebyshev_rows(x: np.ndarray, out: np.ndarray) -> None:
    """``out[k] = T_k(x)`` for every row ``k`` of ``out``, ``x`` in ``[-1, 1]``.

    The first ``2s`` rows, ``s = isqrt(degree)``, by the three-term
    recurrence; the rest ``s`` rows at a time by ``T_(j+s) = 2*T_s*T_j -
    T_(j-s)``, the same recurrence in ``T_s``: ``2 + 2*degree/s`` numpy
    calls in place of ``2*degree``, and as accurate where the moments read
    them (direct comparison with ``cos(k*arccos(x))`` in extended precision).
    """
    degree = out.shape[0]
    out[0] = 1.0
    if degree > 1:
        out[1] = x
    s = max(2, math.isqrt(degree))
    twice = 2.0 * x
    for k in range(2, min(degree, 2 * s)):
        np.multiply(twice, out[k - 1], out=out[k])
        out[k] -= out[k - 2]
    if degree > 2 * s:
        np.multiply(out[s], 2.0, out=twice)
        for k in range(2 * s, degree, s):
            end = min(k + s, degree)
            np.multiply(out[k - s : end - s], twice, out=out[k:end])
            out[k:end] -= out[k - 2 * s : end - 2 * s]


def _moment_waves(period: int, lo: int, span: int, degree: int, r0: int, r1: int) -> np.ndarray:
    """Orders ``r0..r1-1``'s waves at ``degree`` Chebyshev nodes, complex ``(degree, r1 - r0)``.

    A run of ``span`` positions from ``lo`` has centre ``c = lo + (span -
    1)/2`` and half-width ``h = span/2``, so ``exp(i*theta_r*t)`` is
    ``exp(i*theta_r*c) * exp(i*a_r*x)`` at ``x = (t - c)/h``, with ``a_r =
    theta_r*h = pi*r*span/period``. Element ``[j, r]`` is that wave at the
    node ``cos(pi*(j + 1/2)/degree)``. From order to order the wave at a
    node steps by one factor, so each row is a running product from order
    ``r0``, over at most :data:`_MOMENT_ORDERS` orders; the centre phase
    in its factors is reduced in integers mod ``2*period``.
    """
    nodes = (np.pi * span / period) * np.cos(np.pi * (np.arange(degree) + 0.5) / degree)
    centre = 2 * lo + span - 1  # 2c
    waves = np.empty((degree, r1 - r0), dtype=np.complex128)
    waves[:, 0] = np.exp(1j * r0 * nodes) * _unit_phase(r0 * centre, period)
    waves[:, 1:] = (np.exp(1j * nodes) * _unit_phase(centre, period))[:, None]
    np.multiply.accumulate(waves, axis=1, out=waves)
    return waves


def _fold_moments(basis: FourierBasis, plan: _Run, arrays: list, picks: list, outs: list,
                  lo: int, hi: int) -> None:
    """:func:`_fold_into`'s sub-run ``lo:hi`` by Chebyshev moments, two products per column.

    With ``x_t`` the run's positions mapped onto ``(-1, 1)`` and ``T_k``
    the Chebyshev polynomials, ``exp(i*theta_r*t)`` is ``sum_k G[k, r] *
    T_k(x_t)`` for ``k < degree``, ``G[:, r]`` being the Chebyshev
    coefficients of order ``r``'s wave (:func:`_moment_waves`), a DCT of
    it at ``degree`` nodes. So a column ``w`` folds as its moments ``mu =
    P @ w``, ``P[k, m] = T_k(x_m)``, and then ``G.T @ mu``; the DCT moves
    onto the moments, as its transpose (a DCT-III), so the second product
    reads the waves themselves. The picked columns go in groups whose
    moments fit the budget (every column at the benchmark's geometries).
    Per group, ``P`` is built a chunk of positions at a time and each chunk
    projects every block's columns into the moments through
    :func:`_fold_spans`, from a block's first pick to its last; then the
    waves are built a chunk of orders at a time, and each chunk's product
    with a window of the moments is added into the output rows of those
    orders. The sizes are :func:`_moment_chunks`'.
    """
    span, degree = hi - lo, plan.degree
    positions, width, rows, window, fixed = _moment_chunks(basis.orders, span, degree)
    # the columns whose moments fit what the budget leaves, or all of them
    # where not even one column's do
    group = (_FOLD_CHUNK_FLOATS - fixed) // degree
    if group < 1:
        group = sum(pick.size for pick in picks)
    # chunks of equal widths, none a short remainder
    positions = -(-span // -(-span // positions))
    rows = -(-basis.orders // -(-basis.orders // rows))
    pieces = [(i, a, min(a + group, pick.size))
              for i, pick in enumerate(picks) for a in range(0, pick.size, group)]
    while pieces:
        # the pieces whose moments fit one group, each at its offset in them
        batch, count = [], 0
        while pieces and count + pieces[0][2] - pieces[0][1] <= group:
            i, a, b = pieces.pop(0)
            batch.append((i, a, b, count))
            count += b - a
        moments = np.zeros((degree, count))
        cheb = np.empty((degree, positions))
        for p0 in range(0, span, positions):
            p1 = min(span, p0 + positions)
            part = cheb[:, : p1 - p0]
            _chebyshev_rows((2 * np.arange(p0, p1) - (span - 1)) / span, part)
            _fold_spans(part.T, [arrays[i] for i, *_ in batch],
                        [picks[i][a:b] for i, a, b, _ in batch],
                        [moments[:, at : at + b - a] for _, a, b, at in batch],
                        lo + p0, lo + p1, width)
        del cheb, part
        moments = scipy.fft.dct(moments, type=3, axis=0, overwrite_x=True)
        moments /= degree
        for r0 in range(0, basis.orders, rows):
            r1 = min(basis.orders, r0 + rows)
            # cosine and sine rows of each order, interleaved
            waves = _moment_waves(basis.period, plan.lo, span, degree, r0, r1).view(np.float64).T
            for c0 in range(0, count, window):
                c1 = min(count, c0 + window)
                sums = waves @ moments[:, c0:c1]
                for i, a, b, at in batch:
                    # the columns of this window that are the piece's
                    u0, u1 = max(c0, at), min(c1, at + b - a)
                    if u0 < u1:
                        out = outs[i][2 * r0 : 2 * r1, a + u0 - at : a + u1 - at]
                        out += sums[:, u0 - c0 : u1 - c0]


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

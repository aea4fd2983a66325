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
more columns only), a chirp-z transform or the length-period FFT. The
chirp-z transform, like :func:`fold_errors`' convolution, pads to the
least fast length that it needs (:func:`_fast_len`), not to a power of
two, and runs while its FFT pair costs at most the length-period FFT's
(:func:`_chirp_reaches`), with no tuned ratio. A run's one-column pick
is resolved once into a plan that every later call over the same run
reads, and the run is read without scanning it, so a call's fixed cost is
a handful of numpy calls. Over the trig tables and the moments the fold
reads the run as pairs of rows about its centre, cast into one float64
buffer and never gathered: their sums meet the rows even in the offset
from the centre and their differences the odd ones, half the multiply-adds
of the unpaired run. Those rows are the centred cosine and sine rows
(:func:`_centred_rows`), whose sums one complex product turns to absolute
phase, or the Chebyshev rows, whose moments a second product by the waves
of every order, one BLAS ``dgemm``, adds into each state's rows in place.
The rows and the waves depend on the run alone, so each is built once per
run into a small cache of read-only tables (:func:`_run_table`) that every
layer, head and prefill of the run reads in place. The cache holds them
beside the chirp-z's 49 KB: at the stock middle (512 orders over 1,020
positions) 0.80 MB of waves and 0.40 MB of Chebyshev rows, at desk (16
orders over 956) 0.12 MB of centred rows. The first fold of a run builds
them ahead of its own budgeted buffers, so it peaks that much above the 1
MB of every later fold (:func:`_run_table_floats`). A table past the fold's
budget is built per chunk instead, uncached. Each FFT runs once per column.
:func:`fold_errors`, each column's squared error once folded and
reconstructed, by which calibration ranks dimensions, takes its paired
sums from the fold's own product and its Gram forms, built from the
fold's rows, only from the cache (:func:`_split_forms`). Every cosine and
sine comes from one of two phase builders, each reducing its integer
phase exactly before the float product: :func:`_unit_phases` reduces
``n*t`` mod ``period``, for basis columns, trig tables and, at twice the
period, the centred rows, and :func:`_unit_phase` reduces mod
``2*period``, for the chirp-z plans, the moments' waves and the centre's
phase.

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
from scipy.linalg.blas import dgemm, dger

__all__ = [
    "FoldOrderError",
    "FourierBasis",
    "ReconstructionRangeError",
    "SpectralState",
    "build_basis",
    "compress_batch",
    "fold_blocks",
    "fold_errors",
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
    Both are integers (numpy's too, not a bool), or ``ValueError`` is raised.

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
      O(R * span) time and O(R * sqrt(span) + span) memory. A fold reads
      no such tables: it reads the run's pairs of rows about its centre
      against each order's cosine and sine at their offsets, ``R * span``
      multiply-adds a column, and turns the sums by the centre's phase;
      those ``2R`` rows over the ``span / 2`` pairs are the run's table
      (122 KB for 16 orders over 956 positions).
    * Chebyshev moments, for ``c >= 2`` only: with ``x`` the run mapped onto
      ``(-1, 1)``, every order's wave is a sum of ``degree`` Chebyshev
      polynomials ``T_k(x)`` (Jacobi-Anger), ``degree`` growing with the
      largest wave's phase over half the run as a bound on the tail sets it
      (98 terms for 512 orders over 1020 positions at period 32768, where
      that phase is 50 radians). A column costs its ``degree`` moments,
      ``degree * span / 2`` multiply-adds over the run's pairs of rows
      about its centre, and one product of them by the waves, ``2R *
      degree``; the tables of both, the ``degree`` rows over the pairs and
      the waves of every order, are built once for all ``c`` columns and
      every later fold of the run (0.40 and 0.80 MB for 512 orders over
      1020 positions), or per chunk within the fold's budget where they
      exceed it.
    * chirp-z (Bluestein): with ``n = _fast_len(span + R - 1)``, the least
      ``2**a * m >= span + R - 1`` with ``m`` odd, 5-smooth and at most
      ``2**a``, one complex FFT pair of length ``n`` per column: O(n log n)
      time, O(n) memory and ``32 * n`` bytes of tables (49 KB at the stock
      middle's ``n`` of 1536).
    * length-period FFT: one real FFT of length ``period`` per column, whose
      bins ``0..R-1`` are the orders: O(period log period) time and
      O(period) memory, no tables.

    The chirp-z pair runs while its work, ``2 * n * log2(n)``, is at most
    the length-period FFT's, ``L * log2(L)`` with ``L = period/2 + 1``
    (:func:`_chirp_reaches`): for powers of two that is ``n <= period / 4``.
    At periods 4096 and 32768 the fast lengths past a quarter period, from
    ``9/8`` of it, cost more, so 512 orders reach middles of 7,681 positions
    at period 32768. The tables run while ``R * span``, their work per
    column, is at most 16 times ``L log2 L``, with ``L`` the complex FFT
    length the other would run (the power of two at or above ``n``, which
    the ratios were timed against, or ``period/2 + 1`` for the real FFT):
    they run for 16 orders at any span, and not for 512 orders over a
    thousand positions, where they measured slower. A fold of two or more
    columns whose run's ``2R * span`` basis values exceed its budget is
    charged ``_TABLE_BUILD_COLUMNS`` more columns of that work, the builds
    of its rows, which every fold repeats once they outgrow the cache. Folds
    run the moments ahead of both while their work per column, their
    builds shared among the columns, is at most the tables' and passes the
    same test against the FFT: 512 orders over 1020 positions take them
    from 34 columns on, 16 orders keep the tables. Tables hold phases
    reduced exactly in integers mod ``period`` and are read-only; the last
    few of each kind are cached per ``(orders, period, lo mod period)`` and
    their sizes, and a fold's per run beside them (:func:`_run_table`). A
    run's resolved one-column transform, its checks, pick, tables and the
    head rows it reads with their conjugates, is cached too, per ``(orders,
    period, start, span)``, so every head of a decode step that reads one
    middle region reads one plan. This class owns the cosine/sine row
    layout; callers only pass coefficient vectors of length ``2*orders``.

    Immutable; safe to share across threads.
    """

    orders: int
    period: int

    def __post_init__(self):
        _check_integer(self.orders, "orders", 1)
        _check_integer(self.period, "period", 1)
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
        position compute it once. ``pos`` is an integer ``>= 0``, numpy's
        too but not a bool, or ``ValueError`` is raised.
        """
        _check_integer(pos, "position")
        return _column(self.orders, self.period, int(pos))

    @staticmethod
    def _check_run(run) -> None:
        if not isinstance(run, range):
            raise ValueError(f"positions must be a range, got {type(run).__name__}")
        if run.step != 1 or (len(run) and run.start < 0):
            raise ValueError(f"positions must be a range of step 1 from a start >= 0, got {run}")

    def columns(self, positions) -> np.ndarray:
        """Basis columns for many positions, shape ``(2*orders, len(positions))``.

        ``positions`` may be any 1-D sequence of integers ``>= 0``, numpy's
        too but not floats or bools, or ``ValueError`` is raised.
        """
        if isinstance(positions, range):
            # np.asarray walks a range one Python int at a time
            positions = np.arange(positions.start, positions.stop, positions.step)
        pos = np.asarray(positions)
        # an empty sequence, which numpy reads as float64, holds no float
        if pos.ndim != 1 or (pos.size and (pos.dtype.kind not in "iu" or pos.min() < 0)):
            raise ValueError(f"positions must be a 1-D sequence of integers >= 0, got {pos!r}")
        pos = pos.astype(np.int64, copy=False)
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
        one. Where the run's basis values would exceed
        ``_FOLD_CHUNK_FLOATS``, a fold of two or more columns charges the
        tables the builds of their paired rows.
        """
        orders = self.orders
        # linear convolution of ``span`` outputs with R = orders bins: n >= span + R - 1
        n = _fast_len(span + orders - 1)
        chirp = _chirp_reaches(n, self.period)
        # the complex FFT length the products are priced against: the power of
        # two at or above the chirp-z's n, which the ratios were timed against
        # and which a fast n runs in at most its time, or period // 2 + 1 for
        # a real FFT of length period
        fft_len = 1 << (n - 1).bit_length() if chirp else self.period // 2 + 1
        width = 1 << (span.bit_length() // 2)
        rows = 1 << (-(-span // width) - 1).bit_length()
        tables = orders * span
        if columns > 1 and _table_floats(orders, span, width, rows) > _FOLD_CHUNK_FLOATS:
            # the builds of the run's paired rows, counted as more columns
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

    def _transform(self, run: range, columns: int = 0, cached: bool = True) -> _Run:
        """``_pick(len(run), columns)`` resolved over ``run`` into a :class:`_Run`.

        ``columns`` is the number of columns a fold projects together, or 0
        for the one column of :meth:`evaluate` and :meth:`project`, priced as
        one. Checks the run first. One column's trig tables come from a small
        cache, as do the chirp-z tables unless ``cached`` is false, as for a
        fold's sub-runs, which no later call reads; a fold over the trig
        tables or the moments reads its rows from the run's own tables
        (:func:`_fold_moments`). :meth:`_plan` caches one column's result.
        """
        self._check_run(run)
        span, lo = len(run), run.start % self.period
        if span == 0:
            return _Run("fft", 0, lo, None, None, None, None)
        kind, size, rows = self._pick(span, max(1, columns))
        if kind == "tables" and not columns:
            tables = _trig_tables(self.orders, self.period, lo, size, rows)
            head = tables.head[: -(-span // size)]
            head_conj = np.conjugate(head)
            head_conj.setflags(write=False)
            return _Run(kind, span, lo, tables, head, head_conj, None)
        if kind in ("tables", "moments"):
            return _Run(kind, span, lo, None, None, None, None,
                        self.n_rows if kind == "tables" else size)
        if kind == "chirp":
            build = _chirp_plan if cached else _chirp_plan.__wrapped__
            return _Run(kind, span, lo, None, None, None, build(self.orders, self.period, lo, size))
        return _Run(kind, span, lo, None, None, None, None)

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
        the arithmetic alone, as decode attention calls it once it holds the plan.

        Its transient: over the trig tables, the product of the ``rows`` head
        phases the run reads by the coefficients, ``rows * R`` complex values
        in one array, so ``16 * rows * R`` bytes (0.131 MB for 16 rows of 512
        orders over 256 positions), besides the ``span`` values returned;
        over the chirp-z transform, its FFT buffer of length ``n``; over the
        length-period FFT, one spectrum and one wave of the period.
        """
        span = plan.span
        if span == 0:
            return np.zeros(0, dtype=np.float64)
        # z[r] = c_r + i*s_r from the cosine and sine coefficients of order r: the
        # value at offset m is the sum over orders of Re(z[r] * exp(-i*theta_r*(lo + m)))
        z = a.view(np.complex128)
        if plan.tables is not None:
            # the coefficients repeated per head row and multiplied in place:
            # a broadcast product holds numpy's buffer, up to getbufsize() values
            mixed = z[None].repeat(plan.head.shape[0], axis=0)
            np.multiply(plan.head, mixed, out=mixed)
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
        reads them as centred pairs, :func:`_fold_moments`); the FFTs run
        one transform per column.
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
        them. For the trig tables and the moments, which read the run as
        centred pairs, fixed: the larger of their two passes, as
        :func:`_moment_chunks` sizes them at ``2R`` rows a pair or ``degree``,
        the first over the pairs and the second adding into the states in
        place; per column: its ``2R`` sums or ``degree`` moments, held
        between the passes (a layer's padding columns among them). The fold
        reads its blocks in place, so their own values are not counted, and
        reads its rows and waves from the run's cached tables where they fit
        the budget, held beside this count (:func:`_run_table_floats`); the
        count keeps a chunk of rows and of waves, which the fold builds
        where they do not, so both fold in the same groups. For
        the FFTs, fixed: numpy's two buffers for a broadcast product, up to
        ``getbufsize()`` complex values each, and for the chirp-z transform
        its tables; per column: the weights gathered, with the complex FFT
        buffer of length ``n`` for the chirp-z transform, in which it
        returns its output, or the output, the residue grid, the residue
        sums and their spectrum for the length-period FFT.
        """
        kind, size, _ = self._pick(span, columns)
        buffers = 4 * np.getbufsize()
        if kind in ("tables", "moments"):
            rows = self.n_rows if kind == "tables" else size
            return _moment_chunks(self.orders, span, rows, kind == "tables")[-1], rows
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


# evaluate/project run the trig tables while R * span <= ratio * L *
# log2(L), with R = orders and L the complex FFT length they would run
# otherwise, a chirp-z's taken at the power of two at or above its n, the
# lengths it ran when these ratios were timed. Timed per evaluate + project
# pair against that FFT, the tables were faster in 57 of 59 cases with R *
# span / (L log2 L) <= 12.8 (1.04x and 1.22x slower in the other two) and
# slower in all 11 at 18.3 and above (orders 8-512, spans 256-4096, periods
# 4096 and 32768, numpy 2.4 on a 2-core x86_64). With two or more columns
# the Chebyshev moments are priced first (below)
_TABLE_COST_RATIO = 16

# where a run's basis values (_table_floats) exceed _FOLD_CHUNK_FLOATS, the
# tables' work is counted with this many more columns shared by all, for the
# builds of its paired rows, half as many values, which every fold of the run
# makes again once they outgrow the cache; _MOMENT_BUILD_COLUMNS counts the
# moments' rows and waves likewise. Over 336 folds (orders 16-512, spans
# 128-8000, 2-128 columns, periods 4096 and 32768; numpy 2.4 and
# scipy-openblas 0.3.31 on a 2-core x86_64, one thread), dropping both
# charges changed 173 picks and took their summed time 152 -> 362 ms warm;
# 107 ran over 10% slower cold, the worst 29x (256 orders over 1,020
# positions at period 4096, 2 columns: 0.09 ms on the length-period FFT, 2.6
# on the tables)
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
# table build count lost 40 ms and left 15 folds past 1.5x. The sweep timed
# the moments before they read the run as pairs, which halved their first
# product: the rule now overprices them, and keeps every pick it made (stock
# takes the moments, desk the tables)
_MOMENT_COST_RATIO = 2
_MOMENT_BUILD_COLUMNS = 32


def _table_floats(orders: int, span: int, width: int, rows: int) -> int:
    """The run's basis values, as trig tables of ``rows`` by ``width`` read
    them, and their temporaries: past ``_FOLD_CHUNK_FLOATS``,
    :meth:`FourierBasis._pick` charges a fold's tables the builds of its rows."""
    used = -(-span // width)  # head rows the run reads
    run_columns = used * width * orders  # complex values
    tables = 2 * orders * (rows + width)
    temporaries = 2 * orders * used + 2 * min(np.getbufsize(), run_columns)
    return tables + 2 * run_columns + temporaries + span + 6 * orders


def _products_cheaper(work: int, fft_len: int) -> bool:
    """Whether products of ``work = R * span`` beat a complex FFT of length ``fft_len``.

    ``work <= _TABLE_COST_RATIO * L * log2(L)`` with ``L = fft_len``, read at
    call time so a test can force either side. The trig tables and the
    moments fold use it, and so does :func:`fold_errors` to choose between
    its convolution and the cheaper of its two Gram forms, with ``L`` the
    real FFT of the power of two at or above ``2M - 1``, for a run of ``M``
    positions. Both Gram forms fold a column's even and odd halves about the
    run's centre, half the multiply-adds of their unsplit products, and are
    priced at half their unsplit work: the Fourier Gram form at ``R * (M +
    2R) / 2``, the moment Gram form at ``_MOMENT_COST_RATIO * (d * (M + d) /
    4 + 2 * d**3 / columns)`` for ``d`` moments (the second term their ``d x
    d`` build), while four ``d x d`` matrices fit ``_FOLD_CHUNK_FLOATS``,
    and the Fourier form while its forms do (:func:`_run_table_floats`).
    Over orders 8-512, middles 256-4000 and periods 4096 and 32768, and 512
    orders over 8192 positions at period 32768 (256 columns; two sweeps
    timing this rule and the unsplit one in one process, alternating; numpy
    2.4 and scipy 1.17 on a 2-core x86_64, one BLAS thread), it picked a
    form within 1.1x of the fastest in 35 and 33 of 37 rankings and took a
    median 0.78-0.80x the unsplit rule's time. It moved two rankings off the
    convolution: 256 orders over 4000 positions at period 4096 to the
    Fourier Gram form, at 0.73-0.76x the time, and 512 orders over 256
    positions at period 4096 to the moments, at 1.96-2.03x, as their ``d x
    d`` builds (168 moments) went unpriced; priced, over 256 columns, that
    ranking runs the convolution again. The cap keeps 512 orders over 4000
    positions at period 32768 (299 moments) on the convolution, at 1.6x the
    moments' time.
    """
    return work <= _TABLE_COST_RATIO * fft_len * fft_len.bit_length()


def _chirp_reaches(n: int, period: int) -> bool:
    """Whether a chirp-z transform of FFT length ``n`` costs at most the length-period FFT.

    The chirp-z runs a complex FFT pair of length ``n``, ``2 * n * log2(n)``,
    and the real FFT of length ``period`` costs a complex one of ``L =
    period // 2 + 1``, ``L * log2(L)``, each ``log2`` taken as a
    ``bit_length`` as :func:`_products_cheaper` takes it. For power-of-two
    ``n`` and ``period >= 4`` this holds exactly while ``4 * n <= period``.
    Read at call time, so a test can force either transform.
    """
    fft_len = period // 2 + 1
    return 2 * n * n.bit_length() <= fft_len * fft_len.bit_length()


@functools.lru_cache(maxsize=64)
def _fast_len(target: int) -> int:
    """The least FFT length ``n >= target`` the chirp-z and :func:`fold_errors` pad to.

    ``n = 2**a * m`` with ``m`` odd, 5-smooth and at most ``2**a``: at least
    half of ``log2(n)`` runs in scipy's radix-2 passes, its fastest. The
    least 5-smooth length (``scipy.fft.next_fast_len``) is not always faster
    than the next power of two: 2025 = 3**4 * 5**2, 4050 and 972 ran one
    complex FFT pair in 1.15-1.24x its time, where every length of this form
    from 256 to 8192 ran in at most 1.06x, a mean 0.77x over the targets
    256-8192 (0.79x for the least 5-smooth; scipy 1.17 on a 2-core x86_64,
    one thread). 1536 = 2**9 * 3 and 1600 = 2**6 * 5**2 qualify; 2025 and
    1944 = 2**3 * 3**5 do not.
    """
    best = 1 << (target - 1).bit_length()
    threes = 1
    while threes * threes < best:
        m = threes
        while m * m < best:
            # the least power of two at or above both m and target / m
            power = max(m - 1, -(-target // m) - 1).bit_length()
            best = min(best, m << power)
            m *= 5
        threes *= 3
    return best


def _check_integer(value, name: str, least: int = 0) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= least``, numpy's too but not a bool."""
    if not isinstance(value, (int, np.integer)) or type(value) is bool or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    ``m`` is a chirp, a convolution with ``conj(w)`` and a chirp. ``n`` is
    ``_fast_len(span + R - 1)``, within :func:`_chirp_reaches`.
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
    # until its span + R - 1 passes n
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

    ``kind`` is :meth:`FourierBasis._pick`'s. One column over the trig
    tables holds ``tables`` and ``head``, the head rows the run reads (a
    view), with ``head_conj``, their conjugates, the one array a plan owns;
    ``chirp`` serves the chirp-z transform. A fold over the trig tables or
    the moments holds no tables: its centred pairs each meet ``degree``
    rows, the ``2R`` cosine and sine rows or the Chebyshev terms. ``lo`` is
    the run's start mod the period.
    """

    kind: str
    span: int
    lo: int
    tables: _TrigTables | None
    head: np.ndarray | None
    head_conj: np.ndarray | None
    chirp: _ChirpPlan | None
    degree: int = 0


@functools.lru_cache(maxsize=2)
def _run_plan(orders: int, period: int, start: int, span: int) -> _Run:
    # keyed on the run alone: the cost rule's ratios and reach are fixed, read once per plan
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
    _check_integer(start_pos, "start_pos")
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

# the paired fold keeps each product of a span of pairs with the even or odd
# rows within 100**3 multiply-adds, the size up to which OpenBLAS lets dgemm
# run its small-matrix kernels, which skip packing the operands. In
# scipy-openblas 0.3.31 (DYNAMIC_ARCH) only the SkylakeX kernels admit any
# product: its dgemm_small_matrix_permit_SKYLAKEX refuses M*N*K above 1e6
# (read from the library's disassembly), and the Haswell, Sandy Bridge,
# Nehalem and Prescott permits return 0, so on other cores the cap only
# splits a block into more products. Over the desk middle's pairs (16 rows
# by 478 pairs, AVX-512 x86_64, one thread) a product took 0.28-0.34 us a
# column up to the cap's 130 columns and 0.54-0.61 past it; over the stock
# moments' (49 rows by 255 pairs), 0.42-0.71 up to its 80 and 0.71-0.76 past
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
    desk. Over the FFTs every column costs a transform, so each block's
    picked columns go to it in groups, selected from the block only then.
    Over the trig tables and the moments a column costs no transform: a
    block's columns from its first pick to its last are cast as pairs of
    rows about the run's centre and projected by the run's cached rows,
    and the picked columns' sums go to the state (:func:`_fold_moments`).
    Nothing is gathered from a block, so the columns between a block's
    picks pass through the products too: the fold ignores floating-point
    errors, and a NaN or Inf in a column that is not picked leaves the
    picked columns' states as they are. No block is copied whole. A
    group's or chunk's values, the transform's buffers and its
    output, with the tables a sub-run builds, fit ``_FOLD_CHUNK_FLOATS``
    float64 values (1 MB) where one column allows, as
    ``FourierBasis._project_floats`` counts them for the plan each sub-run
    runs; a run at which one column does not fit is halved into consecutive
    sub-runs until it fits every one, the shorter last one included, which
    the fold's linearity allows, so the transient memory is one budget
    whatever the run length. The run's cached tables come on top of it, up
    to one budget each and 1.2 MB at stock: the first fold of a run builds
    them ahead of its own buffers and leaves them held for every later fold,
    which reads them (:func:`_run_table_floats`).
    Returns one state per block, equal to :func:`compress_batch` of that
    block within ``1e-12 * max(1, sum|x|)`` per column: the transforms sum
    in their own order, so not bitwise.
    """
    _check_integer(start_pos, "start_pos")
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
        _fold_into(basis, arrays, dims, [state.coeffs for state in states], [0] * len(states),
                   start_pos)
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


def _fold_into(basis: FourierBasis, arrays: list, picks: list, states: list, offsets: list,
               start_pos: int) -> None:
    """Add the fold of each block's columns ``picks[i]`` into its state, in place.

    The work of :func:`fold_blocks`, whose checks the inputs have passed:
    every ``picks[i]`` is an integer array that ascends strictly, as the
    cache's ``HeadDims`` sets do. Block ``i``'s ``k_i`` picked columns fold
    into columns ``offsets[i]..offsets[i]+k_i-1`` of ``states[i]``, a
    C-ordered ``(2*orders, width)`` float64 array that other blocks may
    share: a layer folds a head's K at 0 and its V at ``k_cols`` of the
    head's one state, and :func:`fold_blocks` each block into a state of its
    own. The transform is priced for all the picked columns together.
    Each sub-run over the trig tables or the moments goes to
    :func:`_fold_moments`, which reads it as centred pairs and adds into
    whole states; over either FFT each block's picks go to the transform in
    groups, each adding into the block's columns of its state.
    """
    length = arrays[0].shape[0] if arrays else 0
    columns = sum(pick.size for pick in picks)
    if length == 0 or columns == 0:
        return
    outs = [state[:, offset : offset + pick.size]
            for state, offset, pick in zip(states, offsets, picks)]
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
            _fold_moments(basis, plan, arrays, picks, states, offsets, lo, hi, sub_run == length)
            continue
        fixed, per_column = basis._project_floats(hi - lo, columns)
        group = max(1, (_FOLD_CHUNK_FLOATS - fixed) // per_column)
        for array, pick, out in zip(arrays, picks, outs):
            # a block's picks in groups of equal width, none a short remainder,
            # each gathered from the block
            width = -(-pick.size // -(-pick.size // group)) if pick.size else 1
            for a in range(0, pick.size, width):
                b = min(a + width, pick.size)
                out[:, a:b] += basis._project_columns(array[lo:hi, pick[a:b]], plan)


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


def _moment_chunks(orders: int, span: int, degree: int,
                   trig: bool = False) -> tuple[int, int, int, int, int]:
    """How :func:`_fold_moments` splits its work to fit ``_FOLD_CHUNK_FLOATS``.

    The run's pairs each meet ``degree`` rows: Chebyshev terms, or with
    ``trig`` the ``2R`` centred cosine and sine rows. ``(pairs, width,
    step, rows, fixed)``: pairs of positions per chunk of rows (``degree *
    pairs`` floats, over the run's top half), block columns whose pairs are
    cast at a time (their sums and differences, ``2 * pairs * width``) and
    orders per chunk of waves (:data:`_MOMENT_ORDERS`, ``2 * degree * rows``
    floats), each within a quarter of the budget, or within one chunk of
    waves where that is more (past 256 terms at the default budget), the
    chunks of pairs and of orders evened out, none a short remainder;
    ``step``, the cast columns each product of a chunk's even or odd rows
    reads, within ``width`` and ``_SMALL_PRODUCT``; and ``fixed``, the
    larger of the two passes' float64 values. The first also
    holds the rows' position vectors, numpy's buffers for their broadcast
    products (``2 * s * pairs``, see :func:`_chebyshev_rows`) and each
    product of the even or odd rows with a span of the pairs, with the
    picked columns taken from it (``2 * ceil(degree / 2)`` values per
    product column); the second the waves' node and factor vectors, since
    each chunk of waves is added into the states in place. The trig rows
    share their quarter with the grid they are copied from
    (:func:`_centred_rows`), their casts and products' outputs share half
    the budget, and their second pass turns the sums through the casts'
    buffer (:func:`_turn_into`), which holds no numpy buffers, with a few
    vectors of ``R`` values. The count keeps a chunk of rows and its build
    and a chunk of waves even where the fold reads them from the run's
    cached tables, so that every fold of a run takes the same groups and
    sums bitwise alike; the tables are held beside ``fixed``
    (:func:`_run_table_floats`).
    """
    rows = min(orders, _MOMENT_ORDERS)
    parity = (degree + 1) // 2  # the even rows; the odd ones are no more
    if trig:
        quarter = _FOLD_CHUNK_FLOATS // 4
        pairs = min((span + 1) // 2, max(1, quarter // (2 * degree)))
        width = max(1, _FOLD_CHUNK_FLOATS // 2 // (2 * (pairs + parity)))
        side = math.isqrt(pairs) + 1  # the grid's head and tail rows
        build = degree * (pairs + 3 * side) + orders + 3 * pairs
        second = 4 * degree
    else:
        quarter = max(_FOLD_CHUNK_FLOATS // 4, 2 * degree * rows)
        pairs = min((span + 1) // 2, quarter // degree)
        width = max(1, quarter // (2 * pairs))
        build = (3 + 2 * max(2, math.isqrt(degree))) * pairs
        second = 2 * rows * degree + 8 * degree
    # chunks of equal widths, none a short remainder
    half = (span + 1) // 2
    even_pairs, rows = -(-half // -(-half // pairs)), -(-orders // -(-orders // rows))
    step = min(width, max(1, _SMALL_PRODUCT // (parity * even_pairs)))
    first = degree * pairs + build + 2 * pairs * width + 2 * parity * step
    return even_pairs, width, step, rows, max(first, second)


def _centred_pairs(block: np.ndarray, p0: int, out: np.ndarray) -> np.ndarray:
    """Pairs ``p0..p0+n-1`` of a block's rows about its centre, cast once to float64.

    Pair ``p`` of a ``(span, dim)`` block joins the row ``p`` places above
    its centre, ``span - half + p`` with ``half = (span + 1) // 2``, and
    the row as far below it, ``half - 1 - p``; an odd span's centre, pair
    0, joins zero. ``out`` is ``(2, n, dim)`` float64 and receives the
    pairs' sums ``E`` in ``out[0]`` and differences ``O`` in ``out[1]``: a
    function of the offset from the centre that is even reads only ``E``,
    one that is odd only ``O``, and ``|x|**2`` over the pairs is ``(|E|**2
    + |O|**2) / 2``. ``O`` is ``E - 2 * bottom``, exact for float32 rows
    within 29 binades of each other, as ``E`` is. Returns ``out``.
    """
    span, n = block.shape[0], out.shape[1]
    top = span - (span + 1) // 2 + p0  # the first top row; the bottom rows end below its mirror
    total, odd = out
    np.copyto(total, block[top : top + n])
    np.copyto(odd, block[span - top - n : span - top][::-1])
    if p0 == 0 and span % 2:
        odd[0] = 0.0
    total += odd
    odd *= -2.0
    odd += total
    return out


def _centred_rows(orders: int, period: int, u: np.ndarray, out: np.ndarray) -> None:
    """``out[2n] = cos(theta_n * u / 2)`` and ``out[2n + 1] = sin(theta_n * u / 2)``, ``n < orders``.

    ``theta_n = 2*pi*n/period`` and ``u`` holds twice the offsets ``v`` of
    a run's positions from its centre, integers ascending by 2: cosine rows
    even in ``v`` and sine rows odd, interleaved as the basis interleaves
    its columns, for the batch fold and :func:`fold_errors`' Fourier Gram
    form. The phase at ``u[0] + 2(a*w + b)``, ``w = isqrt(len(u)) + 1``, is the
    one at ``u[0] + 2a*w`` times the one at ``2b``, each from
    :func:`_unit_phases` at twice the period. The products fill a grid of
    ``ceil(len(u) / w) * w`` phases per order, one head phase at a time (a
    broadcast product holds numpy's buffers), and ``out`` is copied from it.
    """
    w = math.isqrt(len(u)) + 1
    head = _unit_phases(orders, 2 * period, u[::w])
    tail = _unit_phases(orders, 2 * period, u[:w] - u[0])
    grid = np.empty((len(head), len(tail), orders), dtype=np.complex128)
    for row, phase in zip(grid, head):
        np.multiply(phase, tail, out=row)
    out[...] = grid.reshape(-1, orders)[: len(u)].view(np.float64).T


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


def _moment_waves(period: int, lo: int, span: int, r0: int, out: np.ndarray) -> None:
    """Orders ``r0..r0+n-1``'s waves at ``degree`` Chebyshev nodes, into complex ``out``, ``(degree, n)``.

    A run of ``span`` positions from ``lo`` has centre ``c = lo + (span -
    1)/2`` and half-width ``h = span/2``, so ``exp(i*theta_r*t)`` is
    ``exp(i*theta_r*c) * exp(i*a_r*x)`` at ``x = (t - c)/h``, with ``a_r =
    theta_r*h = pi*r*span/period``. Element ``[j, r]`` is that wave at the
    node ``cos(pi*(j + 1/2)/degree)``. From order to order the wave at a
    node steps by one factor, so each row is a running product from order
    ``r0``, over at most :data:`_MOMENT_ORDERS` orders; the centre phase
    in its factors is reduced in integers mod ``2*period``.
    """
    degree = out.shape[0]
    nodes = (np.pi * span / period) * np.cos(np.pi * (np.arange(degree) + 0.5) / degree)
    centre = 2 * lo + span - 1  # 2c
    out[:, 0] = np.exp(1j * r0 * nodes) * _unit_phase(r0 * centre, period)
    out[:, 1:] = (np.exp(1j * nodes) * _unit_phase(centre, period))[:, None]
    np.multiply.accumulate(out, axis=1, out=out)


def _wave_table(orders: int, period: int, lo: int, span: int, degree: int,
                rows: int) -> np.ndarray:
    """Every order's waves (:func:`_moment_waves`) in chunks of ``rows`` orders,
    one after another in one flat complex array: chunk ``r0..r1`` is
    ``table[degree*r0 : degree*r1]`` read as ``(degree, r1 - r0)``, one
    contiguous operand, as :func:`_fold_moments` builds it when uncached."""
    table = np.empty(degree * orders, dtype=np.complex128)
    for r0 in range(0, orders, rows):
        r1 = min(orders, r0 + rows)
        _moment_waves(period, lo, span, r0, table[degree * r0 : degree * r1].reshape(degree, r1 - r0))
    return table


def _turn_phases(orders: int, period: int, lo: int, span: int) -> np.ndarray:
    """``exp(i*theta_r*c)`` for each order ``r``, with ``c = lo + (span - 1)/2``
    the centre of a run of ``span`` positions from ``lo``: the turn of the
    sums over its centred cosine and sine rows to absolute phase."""
    return _unit_phase(np.arange(orders) * (2 * lo + span - 1), period)


def _build_rows(orders: int, period: int, span: int, trig: bool, p0: int,
                out: np.ndarray) -> None:
    """A batch fold's rows at the top rows of pairs ``p0..p0+n-1`` of a run of
    ``span`` positions, into ``out``, ``(degree, n)``: the centred cosine and
    sine rows of ``orders`` orders with ``trig`` (:func:`_centred_rows`), else
    the first ``degree`` Chebyshev rows (:func:`_chebyshev_rows`)."""
    half = (span + 1) // 2
    # twice the top rows' offsets from the centre
    u = 2 * np.arange(span - half + p0, span - half + p0 + out.shape[1]) - (span - 1)
    if trig:
        _centred_rows(orders, period, u, out)
    else:
        _chebyshev_rows(u / span, out)


def _pair_table(orders: int, period: int, span: int, degree: int, trig: bool,
                pairs: int) -> np.ndarray:
    """:func:`_build_rows` of every pair of a run, ``(degree, (span + 1) // 2)``,
    built ``pairs`` pairs at a time: the centred rows' values depend on the
    chunks they are built in (their grid is a chunk's), so a table is
    bitwise the rows its chunks would be."""
    half = (span + 1) // 2
    table = np.empty((degree, half))
    for p0 in range(0, half, pairs):
        _build_rows(orders, period, span, trig, p0, table[:, p0 : p0 + pairs])
    return table


def _run_table_floats(orders: int, span: int, degree: int, trig: bool) -> tuple[int, int, int]:
    """Float64 values of a run's rows, waves and Gram forms read from the cache.

    The rows are ``degree`` over the run's ``(span + 1) // 2`` pairs
    (:func:`_pair_table`), the moments' waves ``2 * orders * degree``
    (:func:`_wave_table`), none over the trig tables, and the forms, which
    only :func:`fold_errors` reads, the blocks of ``degree`` rows'
    parities (:func:`_split_forms`); a table past ``_FOLD_CHUNK_FLOATS``
    counts 0: rows and waves are then built per chunk, and forms never, as
    :func:`fold_errors` runs another form. The first fold of a run builds
    its counted rows and waves ahead of its own buffers and leaves them in
    the cache (:func:`_run_table`), so it peaks this many values above the
    one budget of every later fold.
    """
    tables = (degree * ((span + 1) // 2), 0 if trig else 2 * orders * degree,
              (degree * degree + 1) // 2)  # the forms' even and odd blocks
    return tuple(t if t <= _FOLD_CHUNK_FLOATS else 0 for t in tables)


@functools.lru_cache(maxsize=4)
def _run_table(build, *args) -> np.ndarray:
    """``build(*args)``, one table of a batch fold's run, read-only and kept for later folds.

    A run's tables depend on the run alone, its ``(orders, period, lo mod
    period, span, degree)`` and the chunks they are built in, so every layer,
    head, window group and prefill of that run, and :func:`fold_errors` over
    it, read one table in place. Callers cache only the rows, waves and Gram
    forms (:func:`_split_forms`) that :func:`_run_table_floats` counts, each
    within ``_FOLD_CHUNK_FLOATS``, so the cache holds at most four budgets (4
    MB): at stock 0.80 MB of waves, 0.40 MB of Chebyshev rows and 38 KB of
    forms, at desk 0.12 MB of centred rows and 4 KB of forms.
    """
    table = build(*args)
    table.setflags(write=False)
    return table


def _pair_rows(orders: int, period: int, span: int, degree: int, trig: bool,
               cached: bool = True):
    """An iterator of ``(p0, p1, rows)``: :func:`_build_rows` of pairs ``p0..p1-1`` of a run.

    The chunks of pairs are :func:`_moment_chunks`', the fold's, so the
    fold and :func:`fold_errors` over a run read one table. The rows are
    views of it (:func:`_pair_table`, from :func:`_run_table`) where it
    fits ``_FOLD_CHUNK_FLOATS`` and ``cached`` holds, looked up, and built
    if missing, by this call; otherwise they are built per chunk into one
    buffer, which the next chunk overwrites.
    """
    pairs, half = _moment_chunks(orders, span, degree, trig)[0], (span + 1) // 2
    if cached and _run_table_floats(orders, span, degree, trig)[0]:
        table = _run_table(_pair_table, orders, period, span, degree, trig, pairs)
        return ((p0, min(half, p0 + pairs), table[:, p0 : p0 + pairs])
                for p0 in range(0, half, pairs))
    return _built_rows(orders, period, span, degree, trig, pairs)


def _built_rows(orders: int, period: int, span: int, degree: int, trig: bool, pairs: int):
    """:func:`_pair_rows` of a run whose rows are not cached, each chunk built as it is read."""
    half = (span + 1) // 2
    buffer = np.empty((degree, pairs))
    for p0 in range(0, half, pairs):
        p1 = min(half, p0 + pairs)
        rows = buffer[:, : p1 - p0]
        _build_rows(orders, period, span, trig, p0, rows)
        yield p0, p1, rows


def _fold_moments(basis: FourierBasis, plan: _Run, arrays: list, picks: list, states: list,
                  offsets: list, lo: int, hi: int, cached: bool) -> None:
    """:func:`_fold_into`'s sub-run ``lo:hi`` through its centred pairs, by trig rows or moments.

    The run's rows pair up about its centre ``c = lo + (span - 1)/2``
    (:func:`_centred_pairs`), at offsets ``v`` and ``-v``: a row of the
    plan even in ``v`` meets a pair's sum and one odd in ``v`` its
    difference, half the multiply-adds of the unpaired run, and fills the
    even or odd entries of each column's ``degree`` sums. Over the trig
    tables the rows are each order's cosine and sine at ``v``
    (:func:`_centred_rows`): ``exp(i*theta_r*t) = exp(i*theta_r*c) * (cos +
    i*sin)(theta_r*v)``, so a column's sums ``A + iB`` of order ``r`` turn
    to absolute phase by one complex product and are added into the
    state's rows in place. Over the moments, with ``x_t`` the positions
    mapped onto ``(-1, 1)``, ``exp(i*theta_r*t)`` is ``sum_k G[k, r] *
    T_k(x_t)`` for ``k < degree``, ``G[:, r]`` the Chebyshev coefficients
    of order ``r``'s wave (:func:`_moment_waves`), a DCT of it at
    ``degree`` nodes, and ``T_k(-x) = (-1)**k T_k(x)``. So a column ``w``
    folds as its moments ``mu = P @ w``, ``P[k, m] = T_k(x_m)``, and then
    ``G.T @ mu``; the DCT moves onto the moments as its transpose (a
    DCT-III), so the second product reads the waves themselves.

    The sums are a row per column of whole states, or of windows of their
    columns where a state's do not fit the budget, in the state's column
    order, so the columns no block folds into (a layer's padding) hold zero
    sums. Per group of them, each chunk of pairs' rows, at the top rows
    only, projects every block's columns, from a block's first pick to its
    last (:func:`_fold_pairs`); then the trig sums are turned and added
    (:func:`_turn_into`), or each chunk of orders' waves is multiplied by
    every state's moments and added into those orders' rows of the state
    in place (:func:`_add_product`). The rows (:func:`_pair_rows`) and the
    waves are read from the run's tables where each fits the budget and
    ``cached`` holds, and otherwise, as for a sub-run, which no later fold
    reads, built per chunk as the tables are, so the states are bitwise
    the same either way. The turn's ``R`` phases are computed by every
    fold. The sizes are :func:`_moment_chunks`'.
    """
    span, degree, trig = hi - lo, plan.degree, plan.kind == "tables"
    orders, period = basis.orders, basis.period
    pairs, width, step, rows, fixed = _moment_chunks(orders, span, degree, trig)
    targets = []  # the states the blocks fold into, each once
    for state in states:
        if all(state is not target for target in targets):
            targets.append(state)
    # the state columns whose sums fit what the budget leaves, or all of
    # them where not even one column's do
    group = (_FOLD_CHUNK_FLOATS - fixed) // degree
    if group < 1:
        group = sum(target.shape[1] for target in targets)
    # windows of each state's columns of equal widths, none a short
    # remainder: the whole state wherever it fits
    pieces = []
    for target in targets:
        cols = target.shape[1]
        if cols:
            size = -(-cols // -(-cols // group))
            pieces += [(target, c0, min(c0 + size, cols)) for c0 in range(0, cols, size)]
    width = min(width, max(array.shape[1] for array in arrays))
    # the second pass's operands: each order's turn, or the waves, cached as the rows are
    phases = _turn_phases(orders, period, plan.lo, span) if trig else None
    wave_table = None
    if cached and _run_table_floats(orders, span, degree, trig)[1]:
        wave_table = _run_table(_wave_table, orders, period, plan.lo, span, degree, rows)
    while pieces:
        # the windows whose sums fit one group
        batch, count = [], 0
        while pieces and count + pieces[0][2] - pieces[0][1] <= group:
            batch.append(pieces.pop(0))
            count += batch[-1][2] - batch[-1][1]
        # the run's rows, a table built before the sums and casts are held
        chunks = _pair_rows(orders, period, span, degree, trig, cached)
        # a row of sums per column of the windows, one window after the
        # other: each window's rows are one C-ordered operand of the product
        moments = np.zeros((count, degree))
        buffer = np.empty(2 * pairs * width)
        for p0, p1, part in chunks:
            at = 0
            for target, c0, c1 in batch:
                # each block's picks that fold into the window, into their rows
                for array, pick, state, offset in zip(arrays, picks, states, offsets):
                    a, b = max(0, c0 - offset), min(pick.size, c1 - offset)
                    if state is target and a < b:
                        row = at + offset + a - c0
                        _fold_pairs(part, array[lo:hi], pick[a:b], moments[row : row + b - a],
                                    p0, buffer, width, step)
                at += c1 - c0
        del chunks, part
        if trig:
            _turn_into(batch, moments, phases, buffer)
            continue
        del buffer
        moments = scipy.fft.dct(moments, type=3, axis=1, overwrite_x=True)
        moments /= degree
        for r0 in range(0, orders, rows):
            r1 = min(orders, r0 + rows)
            if wave_table is None:
                waves = np.empty((degree, r1 - r0), dtype=np.complex128)
                _moment_waves(period, plan.lo, span, r0, waves)
            else:
                waves = wave_table[degree * r0 : degree * r1].reshape(degree, r1 - r0)
            # cosine and sine rows of each order, interleaved
            waves = waves.view(np.float64).T
            at = 0
            for target, c0, c1 in batch:
                _add_product(target[2 * r0 : 2 * r1, c0:c1], waves, moments[at : at + c1 - c0])
                at += c1 - c0


def _turn_into(batch: list, sums: np.ndarray, phases: np.ndarray, scratch) -> None:
    """Turn a batch's trig sums to absolute phase and add them into its windows, in place.

    ``sums`` holds a row per column of the ``(target, c0, c1)`` windows of
    ``batch``, one window after the other, each row the ``A + iB`` of
    every order over the centred rows, and ``phases`` each order's
    ``exp(i*theta_r*c)``. A ufunc over a broadcast or strided 2-D operand
    holds numpy's buffers, up to ``getbufsize()`` values each, and a copy
    holds none, so the turn and the add go through ``scratch``, a flat
    float64 buffer (a fresh row where it holds less than one), in slabs of
    the rows it holds: the phases copied once per row, by which
    each slab of the sums is multiplied in place, then for each slab of a
    window's columns their state values copied into the sums' layout, the
    turned sums added and the total copied back. Every ufunc reads operands
    contiguous and of one shape, and the products are the elements of the
    broadcast product, bitwise.
    """
    count, degree = sums.shape
    if scratch.size < degree:
        scratch = np.empty(degree)
    slab = min(count, scratch.size // degree)
    tile = scratch[: slab * degree].view(np.complex128).reshape(slab, -1)
    tile[...] = phases
    turned = sums.view(np.complex128)
    for s0 in range(0, count, slab):
        part = turned[s0 : s0 + slab]
        np.multiply(part, tile[: len(part)], out=part)
    at = 0
    for target, c0, c1 in batch:
        for s0 in range(c0, c1, slab):
            s1 = min(c1, s0 + slab)
            total = scratch[: (s1 - s0) * degree].reshape(s1 - s0, degree)
            total[...] = target[:, s0:s1].T
            total += sums[at + s0 - c0 : at + s1 - c0]
            target[:, s0:s1] = total.T
        at += c1 - c0


def _fold_pairs(rows: np.ndarray, block: np.ndarray, pick: np.ndarray, out: np.ndarray,
                p0: int, buffer: np.ndarray, width: int, step: int, norms=None) -> None:
    """Add the sums of a block's pairs ``p0..`` against ``rows`` into ``out``, for its picked columns.

    ``rows`` holds the plan's rows at the top rows of ``n`` pairs, ``(degree,
    n)``, the even ones even in the offset from the centre and the odd ones
    odd; ``out`` is ``(pick.size, degree)``, a row per picked column. The
    block's columns from its first pick to its last are cast as pairs,
    ``width`` at a time, into the flat ``buffer`` (:func:`_centred_pairs`),
    and each span of them within ``step`` columns is projected by the even
    rows from the pairs' sums and by the odd rows from their differences,
    into the even and odd entries of the picked columns' rows of ``out``.
    No column is gathered: a column costs no transform here, so the
    unpicked columns of a span cost less than a gather. ``norms``, if
    given, a value per block column, receives each cast column's ``|E|**2
    + |O|**2`` over the pairs, twice its ``|x|**2`` there.
    """
    n = rows.shape[1]
    first, stop = int(pick[0]), int(pick[-1]) + 1
    # casts of equal widths, at most width, and products of equal spans
    # within each, none a short remainder
    width = -(-(stop - first) // -(-(stop - first) // width))
    for c0 in range(first, stop, width):
        c1 = min(c0 + width, stop)
        # contiguous, as numpy buffers a ufunc over strided operands
        halves = _centred_pairs(block[:, c0:c1], p0,
                                buffer[: 2 * n * (c1 - c0)].reshape(2, n, c1 - c0))
        if norms is not None:
            norms[c0:c1] += np.einsum("kij,kij->j", halves, halves)
        span = -(-(c1 - c0) // -(-(c1 - c0) // step))
        for q0 in range(c0, c1, span):
            q1 = min(q0 + span, c1)
            a, b = pick.searchsorted((q0, q1))
            if a == b:
                continue
            for parity, pairs in enumerate(halves):
                sums = pairs[:, q0 - c0 : q1 - c0].T @ rows[parity::2].T
                # picks that fill the span take its sums whole
                out[a:b, parity::2] += sums if b - a == q1 - q0 else sums[pick[a:b] - q0]


def _add_product(out: np.ndarray, waves: np.ndarray, moments: np.ndarray) -> None:
    """``out += waves @ moments.T`` in place, as one BLAS product (``dgemm``, beta 1).

    No temporary of ``out``'s size exists. ``waves`` is Fortran-ordered and
    ``moments``, a row per column of ``out``, C-ordered, so BLAS reads both
    as they are. As for :func:`_add_outer`'s ``dger``, BLAS sees ``out.T``,
    which is Fortran-ordered for rows of a C-ordered state, and updates
    that buffer itself and returns it; a window of a state's columns it
    updates in a copy, which is written back. The arguments are ``(alpha,
    a, b, beta, c, trans_a, trans_b, overwrite_c)``, positional as for
    ``dger``.
    """
    c = out.T
    updated = dgemm(1.0, moments.T, waves, 1.0, c, 1, 1, 1)
    if updated is not c:
        out[...] = updated.T


def fold_token(state: SpectralState, basis: FourierBasis, value, pos: int) -> SpectralState:
    """Fold one token vector at absolute position ``pos`` into the state.

    Mutates ``state`` in place and returns it: one BLAS rank-1 update
    (``dger``) of ``state.coeffs``, the one :func:`compress_batch` makes per
    row, with no ``(2k, dim)`` temporary. Positions must arrive in order:
    the first fold may use any ``pos >= 0``; afterwards only
    ``last_pos + 1`` is accepted.
    """
    column = basis.column(pos)  # checks that pos is an integer >= 0
    vec = np.asarray(value, dtype=np.float64)
    if vec.shape != state.coeffs.shape[1:]:
        raise ValueError(f"value must have shape ({state.dim},), got {vec.shape}")
    if state.token_count == 0:
        state.first_pos = pos
    elif pos != state.last_pos + 1:
        raise FoldOrderError(
            f"non-contiguous fold: expected position {state.last_pos + 1}, got {pos}"
        )
    _add_outer(state.coeffs, column, vec)
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
    Positions are integers, as :meth:`FourierBasis.columns` reads them.
    Returns ``(len(positions), D)``.
    """
    pos = np.asarray(positions)
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


def fold_errors(basis: FourierBasis, layers) -> np.ndarray:
    """Each column's squared error ``|x - C.T W C x|**2`` once folded and reconstructed.

    ``layers`` holds one or more lists of as many ``(M, dim)`` blocks over
    one run of ``M >= 1`` positions, all of one shape, or raises
    ``ValueError``; entry ``[layer, block, j]`` of the result is the error
    of column ``j`` of that block. ``C`` holds the run's basis columns and
    ``W`` the synthesis weights (:func:`reconstruct`); ``C.T W C`` depends
    only on the lag, so the errors do not depend on where the run starts,
    and ``C`` is never built. One of three forms computes them: the
    convolution of ``x`` with ``k(lag) = sum_n w_n cos(2*pi*n*lag/T)``, one
    real FFT pair per column of length ``_fast_len(2M - 1)``
    (:func:`_convolution_sse`), or ``|x|**2`` plus a quadratic form of the
    column's sums against the fold's paired rows, which the fold's own
    product makes (:func:`_split_sse`), the centred rows (Fourier Gram) or
    the ``_run_degree`` Chebyshev rows (moment Gram), whose forms one
    builder makes (:func:`_split_forms`).

    :func:`_products_cheaper` prices the Gram forms per column, the moments'
    ``d x d`` build spread over every column, and runs the cheaper where it
    beats the convolution, the Fourier form on a tie: desk (16 orders over
    956 positions) takes the Fourier form (7,904), stock the moments (98
    of them, 69,488 at 256 columns, against the convolution's 180,400),
    and 512 orders over 256 positions at period 4096 (168 moments,
    109,704) the convolution. A Gram form whose forms do not fit
    ``_FOLD_CHUNK_FLOATS`` (1 MB), the Fourier form past 256 orders, is
    priced at infinity, so the forms are only ever the run's entry of
    :func:`_run_table`, built by the first call over the run and read by
    every later one. The transient is one group of FFT columns, or a chunk
    of rows and a cast, within the budget, plus one layer's sums.
    """
    if len(layers) == 0 or len({len(blocks) for blocks in layers}) != 1:
        raise ValueError("fold_errors needs one or more layers, each of as many blocks")
    shapes = sorted({np.shape(block) for blocks in layers for block in blocks})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] < 1:
        raise ValueError(f"fold_errors needs 2-D blocks of one shape over a run of at least "
                         f"one position, got {shapes}")
    length, dim = shapes[0]
    out = np.empty((len(layers), len(layers[0]), dim))
    n_fft = _fast_len(2 * length - 1)  # linear convolution of M with M
    degree = _run_degree(basis.orders, basis.period, length)
    fourier = basis.orders * (length + 2 * basis.orders) / 2
    if not _run_table_floats(basis.orders, length, basis.n_rows, True)[2]:
        fourier = math.inf  # its forms would outgrow the cache
    # the moments' d x d build, about 4 d**3 multiply-adds priced as their
    # products are (half the ratio each), is shared by every column
    moments = _MOMENT_COST_RATIO * (degree * (length + degree) / 4
                                    + 2 * degree**3 / out.size)
    if 4 * degree**2 > _FOLD_CHUNK_FLOATS:
        moments = math.inf  # its d x d matrices, four at a time, would outgrow the fold's budget
    # the real FFT pair priced at the power of two at or above n_fft, as the ratios were timed
    fft_len = (1 << (n_fft - 1).bit_length()) // 2 + 1
    if not _products_cheaper(min(fourier, moments), fft_len):
        _convolution_sse(basis, layers, length, n_fft, out=out)
        return out
    trig = moments >= fourier
    rows = basis.n_rows if trig else degree
    forms = _run_table(_split_forms, basis.orders, basis.period, length, rows, trig)
    _split_sse(basis, forms, rows, trig, layers, out)
    return out


def _split_sse(basis: FourierBasis, forms: np.ndarray, degree: int, trig: bool, layers,
               out: np.ndarray) -> None:
    """:func:`fold_errors` through the halves of every column of every block.

    ``out[layer, block]`` receives one error per column; ``forms`` holds
    ``F_e`` and ``F_o`` over the fold's ``degree`` rows, the centred rows
    with ``trig`` or else the Chebyshev rows (:func:`_split_forms`). Each
    block's paired sums come from the fold's own product, :func:`_fold_pairs`
    over :func:`_pair_rows`' chunks, in the fold's casts and spans
    (:func:`_moment_chunks`): with a pair's halves ``E = x(v) + x(-v)`` and
    ``O = x(v) - x(-v)``, ``a = rows_even @ E`` and ``b = rows_odd @ O``,
    the error is ``|x|**2 + a.T F_e a + b.T F_o b``, and ``|x|**2`` is
    ``(|E|**2 + |O|**2) / 2``. The forms meet one block's sums at a time.
    """
    even = (degree + 1) // 2
    f_even = forms[: even * even].reshape(even, even)
    f_odd = forms[even * even :].reshape(degree // 2, degree // 2)
    length, dim = layers[0][0].shape
    pairs, width, step = _moment_chunks(basis.orders, length, degree, trig)[:3]
    pick = np.arange(dim)
    buffer = np.empty(2 * pairs * min(width, dim))  # a cast's sums, then its differences
    for layer_sse, blocks in zip(out, layers):
        sums = np.zeros((len(blocks), dim, degree))  # a row per column, as the fold's
        layer_sse[:] = 0.0
        for p0, _, rows in _pair_rows(basis.orders, basis.period, length, degree, trig):
            for block, block_sums, total in zip(blocks, sums, layer_sse):
                _fold_pairs(rows, block, pick, block_sums, p0, buffer, width, step, total)
        layer_sse *= 0.5
        for total, block_sums in zip(layer_sse, sums):
            for parity, form in enumerate((f_even, f_odd)):
                part = block_sums[:, parity::2]
                total += np.einsum("ij,ij->i", part, part @ form)
    # the forms cancel on a column reconstructed almost exactly, which may dip below 0
    np.maximum(out, 0.0, out=out)


def _split_forms(orders: int, period: int, length: int, degree: int, trig: bool) -> np.ndarray:
    """:func:`_split_sse`'s forms over a run of ``length`` positions: ``F_e``, ``F_o``, flat.

    With ``P`` the fold's ``degree`` rows over the run, the ``2R`` centred
    cosine and sine rows with ``trig``, else the Chebyshev rows, and ``C =
    B.T P`` its basis columns, a column's error is ``|x|**2 + s.T (A H A -
    2A) s`` for its sums ``s = P x``, ``A = B W B.T`` and ``H = P P.T``. A
    row of parity ``p``, even or odd in the offset from the centre, meets
    only sums of that parity, so ``F_p = A_p H_p A_p - 2 A_p``, with
    ``H_p`` twice the Gram of the top-half rows of parity ``p``, read in
    the fold's chunks (:func:`_pair_rows`), less an odd run's centre once.
    Over the trig rows ``B`` turns each order by the centre's phase, which
    commutes with ``W``, so ``A = W``. Over the Chebyshev rows ``B`` holds
    their coefficients (:func:`_fold_moments`, within twice
    ``_MOMENT_TAIL``) and ``A = dct3.T (V W V.T) dct3``: ``dct3`` is the
    DCT-III of the identity over ``degree``, and ``V`` the waves at the
    nodes (:func:`_moment_waves`) from position 0, a chunk of
    ``_MOMENT_ORDERS`` orders at a time, as the centre's phase cancels.
    """
    even, odd = (degree + 1) // 2, degree // 2
    forms = np.zeros(even * even + odd * odd)
    grams = forms[: even * even].reshape(even, even), forms[even * even :].reshape(odd, odd)
    for p0, _, chunk in _pair_rows(orders, period, length, degree, trig):
        for parity, gram in enumerate(grams[:degree]):  # one row has no odd block
            rows = chunk[parity::2]
            _add_product(gram, rows, rows)
            if p0 == 0 and length % 2:  # an odd run's centre stands for one position
                gram -= 0.5 * np.outer(rows[:, 0], rows[:, 0])
    forms *= 2.0
    weights = FourierBasis(orders, period).synthesis_weights()
    if not trig:
        kernel = np.zeros((degree, degree))
        root = np.sqrt(weights)  # V W V.T is U U.T, U = V sqrt(W): one symmetric product
        for r0 in range(0, orders, _MOMENT_ORDERS):
            r1 = min(orders, r0 + _MOMENT_ORDERS)
            waves = np.empty((degree, r1 - r0), dtype=np.complex128)
            _moment_waves(period, 0, length, r0, waves)
            waves = waves.view(np.float64)  # each order's cosine and sine, interleaved
            waves *= root[2 * r0 : 2 * r1]
            kernel += waves @ waves.T
        dct3 = scipy.fft.dct(np.eye(degree), type=3, axis=0, overwrite_x=True)
        dct3 /= degree
        synthesis = dct3.T @ (kernel @ dct3)
    for parity, gram in enumerate(grams):
        if trig:  # A is the weights' diagonal: A H A scales H's rows and columns
            a = weights[parity::2]
            gram *= a[:, None] * a
            a = np.diag(a)
        else:
            a = synthesis[parity::2, parity::2]
            gram[...] = a @ (gram @ a)
        gram -= 2.0 * a
    return forms


def _convolution_sse(basis: FourierBasis, layers, length: int, n_fft: int,
                     out: np.ndarray) -> None:
    """:func:`fold_errors` by FFT convolution, ``n_fft >= 2 * length - 1``."""
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
    group = max(1, _FOLD_CHUNK_FLOATS // (3 * n_fft + 2))
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

"""Command-line surface: trace generation, selection, evaluation, reports.

Every command writes its primary artifacts plus a ``run_manifest.json``
recording the resolved arguments, a config hash, and wall time, so a run can
be reproduced from its output directory alone. Reports are RFC-4180 CSV with
a header row.

``select`` and ``eval`` warn on stderr when the trace's middle region is
too short to compress, too short for its period, or longer than the period,
which ``eval``'s cache refuses (``_warn_if_middle_too_short``).

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 data mismatch. A flag value
that no input could make valid, such as ``--k 0``, is a usage error, and so is
a ``select`` ``--k``/``--T`` past the spectral bound ``2k - 1 <= T`` or an
``analyze`` ``--dims`` range whose end is below its start. An ``eval``
manifest past it, or ``compare-bases --k`` with ``2k - 1`` past the trace
length, is a data mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from fourier_kv.attention import (
    attend_compressed_fused,
    attend_compressed_materialized,
    attend_full,
    decompose_scores,
    output_divergence,
    perturb_dims,
)
from fourier_kv.cache import PartitionParams, ingest, memory_report, prefill_trace
from fourier_kv.dimselect import (
    HISTOGRAM_GROUP,
    CompressionSchema,
    build_selection_report,
    read_selection_manifest,
    schema_variants,
    selection_histogram,
    temporal_std,
    write_selection_manifest,
)
from fourier_kv.legt import compare_bases
from fourier_kv.spectral import _run_degree, build_basis
from fourier_kv.traceio import (
    TinyModelConfig,
    TraceFormatError,
    gen_synthetic,
    read_trace,
    tiny_forward,
    write_trace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

_SCHEMA_NAMES = ("inverted", "uniform", "kv-inv", "layer-inv")


class DataMismatchError(ValueError):
    """Inputs are readable but inconsistent with each other or the flags."""


class UsageError(Exception):
    """Flag values that no input data could make valid."""


def _fmt(x) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_run_manifest(primary_output, command: str, args: dict, inputs, outputs, started: float):
    out_dir = Path(primary_output).resolve().parent
    canonical = json.dumps({"command": command, "args": args}, sort_keys=True)
    doc = {
        "command": command,
        "args": args,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": args.get("seed"),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    with open(out_dir / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _parse_dims(text: str):
    """Dimension list flag: '0-69' or '0,3,17' or a mix; a range's end is at least its start."""
    dims = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = (int(end) for end in part.split("-", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"range {part!r} ends below its start")
            dims.extend(range(lo, hi + 1))
        else:
            dims.append(int(part))
    if not dims:
        raise argparse.ArgumentTypeError(f"no dimensions in {text!r}")
    return sorted(set(dims))


def _at_least(low, cast=int):
    """Flag type: ``cast(text)``, rejected by argparse (exit 2) unless it is ``>= low``."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not value >= low:  # NaN too
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    return parse


def _float32(text: str) -> float:
    """Flag type: a float a float32 trace can hold, rejected by argparse (exit 2) otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not abs(value) <= float(np.finfo(np.float32).max):  # NaN and Inf too
        raise argparse.ArgumentTypeError(f"must be finite in float32, got {text}")
    return value


def _resolve_partition(args) -> PartitionParams:
    """Flag precedence: explicit value, then desk preset, then stock defaults."""
    desk = args.preset == "desk"
    init_len = args.init if args.init is not None else 4
    local_len = args.local if args.local is not None else (64 if desk else 1024)
    orders = args.k if args.k is not None else (16 if desk else 512)
    period = args.T if args.T is not None else (4096 if desk else 32768)
    try:
        return PartitionParams(init_len, local_len, period, orders)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _warn_if_middle_too_short(partition: PartitionParams, seq_len: int) -> None:
    """Warn on stderr when a middle region of ``seq_len`` is too short to compress.

    A compressed dimension keeps ``2*orders`` float64 values, ``16*orders``
    bytes, in place of the middle's float32 rows, 4 bytes a position: with
    ``M <= 4*orders`` middle positions the state is no smaller. Over ``M``
    positions the basis rows are also combinations of the moments fold's
    Chebyshev terms, ``spectral._run_degree`` of them, so every state the
    middle folds lies in a space of that many dimensions. Below ``orders``
    the window uses fewer than half of the ``2*orders`` coefficients: the
    period is too long for it. Past ``period`` positions the fold aliases,
    two positions sharing a residue, and a cache refuses the middle, so
    ``select`` calibrates a selection that ``eval`` cannot prefill.
    """
    middle = len(partition.middle(seq_len))
    if middle > partition.period:
        print(f"warning: the middle region holds {middle} positions, more than the period "
              f"{partition.period}: its fold aliases, and a cache refuses it", file=sys.stderr)
    if middle <= 4 * partition.orders:
        print(f"warning: the middle region holds {middle} positions, at most "
              f"4 * orders = {4 * partition.orders}: each compressed dimension's float64 "
              f"state outweighs the float32 rows it replaces", file=sys.stderr)
    degree = _run_degree(partition.orders, partition.period, middle)
    if middle and degree < partition.orders:
        print(f"warning: at period {partition.period} the middle region's {middle} positions "
              f"resolve {degree} Chebyshev terms, fewer than half of the 2 * orders = "
              f"{2 * partition.orders} coefficients each compressed dimension keeps: "
              f"a shorter period would serve this window", file=sys.stderr)


def _build_schema(name: str, layers: int) -> CompressionSchema:
    base = CompressionSchema.inverted_pyramid(layers)
    if name == "inverted":
        return base
    variants = schema_variants(base)
    return variants[{"uniform": "uniform", "kv-inv": "kv_inverted", "layer-inv": "layer_inverted"}[name]]


def cmd_gen_trace(args) -> int:
    started = time.monotonic()
    try:
        if args.kind == "tiny":
            config = TinyModelConfig(
                layers=args.layers,
                heads=args.heads if args.q_heads is None else args.q_heads,
                kv_heads=args.heads,
                head_dim=args.dim,
                vocab=args.vocab,
                seed=args.seed,
            )
            tokens = np.random.default_rng(args.seed).integers(0, args.vocab, size=args.len)
            trace = tiny_forward(config, tokens)
        else:
            trace = gen_synthetic(
                args.kind,
                layers=args.layers,
                kv_heads=args.heads,
                head_dim=args.dim,
                seq_len=args.len,
                seed=args.seed,
                period=args.period,
                tone_order=args.tone_order,
                band_orders=args.band_orders,
                sigma=args.sigma,
                value=args.value,
            )
    except ValueError as exc:
        # generator complaints are always flag-derived here
        raise UsageError(str(exc)) from exc
    write_trace(args.out, trace)
    _write_run_manifest(
        args.out, "gen-trace", _public_args(args), inputs=[], outputs=[args.out], started=started
    )
    print(f"wrote {args.out}: {trace.layers}x{trace.kv_heads}x{trace.seq_len}x{trace.head_dim}")
    return EXIT_OK


def cmd_select(args) -> int:
    started = time.monotonic()
    partition = _resolve_partition(args)
    trace = read_trace(args.trace)
    basis = build_basis(partition.orders, partition.period)
    schema = _build_schema(args.schema, trace.layers)
    report = build_selection_report(trace, schema, partition, basis)
    _warn_if_middle_too_short(partition, trace.seq_len)
    write_selection_manifest(report, args.out_manifest)

    hist_path = args.hist_csv or str(Path(args.out_manifest).with_name("histogram.csv"))
    hist = selection_histogram(report)
    rows = []
    for layer in range(hist.shape[0]):
        for kv_idx, kv in enumerate(("K", "V")):
            for grp in range(hist.shape[2]):
                rows.append((layer, kv, grp * HISTOGRAM_GROUP, hist[layer, kv_idx, grp]))
    _write_csv(hist_path, ("layer", "kv", "group_start", "mean_compressed"), rows)
    _write_run_manifest(
        args.out_manifest, "select", _public_args(args),
        inputs=[args.trace], outputs=[args.out_manifest, hist_path], started=started,
    )
    frac = schema.aggregate_fraction()
    print(f"selection written: schema={schema.preset} aggregate_fraction={frac:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.monotonic()
    trace = read_trace(args.trace)
    # the manifest's geometry is checked against the trace before its mask is sized
    layout, _ = read_selection_manifest(
        args.manifest, (trace.layers, trace.kv_heads, trace.head_dim))
    _warn_if_middle_too_short(layout.partition, trace.seq_len)
    basis = build_basis(layout.partition.orders, layout.partition.period)
    cache = prefill_trace(trace, layout, basis)

    # the dense oracle's rows, one float64 block per head filled up to the current length
    final_len = trace.seq_len + args.decode_steps
    shape = (trace.layers, trace.kv_heads, final_len, trace.head_dim)
    keys, values = np.empty(shape), np.empty(shape)
    keys[:, :, : trace.seq_len] = trace.keys
    values[:, :, : trace.seq_len] = trace.values

    rng = np.random.default_rng(args.seed)
    rows = []
    for step in range(args.decode_steps):
        length = trace.seq_len + step + 1
        for layer in range(trace.layers):
            # each head's K and then V token, in the order of one draw per vector
            kv = rng.standard_normal((trace.kv_heads, 2, 1, trace.head_dim)).astype(np.float32)
            ingest(cache.layers[layer], basis, kv[:, 0], kv[:, 1])
            keys[layer, :, length - 1] = kv[:, 0, 0]
            values[layer, :, length - 1] = kv[:, 1, 0]
        # one query per head in (layer, head) order: one draw, the same as one per head
        queries = rng.standard_normal((trace.layers, trace.kv_heads, trace.head_dim))
        for layer in range(trace.layers):
            for head in range(trace.kv_heads):
                q = queries[layer, head]
                ref = attend_full(q, keys[layer, head, :length], values[layer, head, :length])
                sl = cache.slice(layer, head)
                for path, attend in (("materialized", attend_compressed_materialized),
                                     ("fused", attend_compressed_fused)):
                    metrics = output_divergence(ref, attend(q, sl, basis))
                    rows.append((layer, head, step, path,
                                 metrics["max_abs"], metrics["rmse"], metrics["cosine"]))

    _write_csv(
        args.report,
        ("layer", "head", "step", "path", "max_abs", "rmse", "cosine"),
        rows,
    )
    mem = memory_report(layout, final_len)
    mem_path = str(Path(args.report).with_name("memory.csv"))
    _write_csv(
        mem_path,
        ("seq_len", "exact_floats", "spectral_floats", "padding_floats", "full_cache_floats",
         "compressed_fraction", "ratio_vs_full"),
        [(final_len, mem["exact_floats"], mem["spectral_floats"], mem["padding_floats"],
          mem["full_cache_floats"], mem["compressed_fraction"], mem["ratio_vs_full"])],
    )
    _write_run_manifest(
        args.report, "eval", _public_args(args),
        inputs=[args.trace, args.manifest], outputs=[args.report, mem_path], started=started,
    )
    worst = max((r[4] for r in rows), default=0.0)
    print(f"eval: {len(rows)} comparisons, worst max_abs={worst:.3e}, "
          f"compressed_fraction={mem['compressed_fraction']:.4f}")
    return EXIT_OK


def cmd_compare_bases(args) -> int:
    started = time.monotonic()
    trace = read_trace(args.trace)
    report = compare_bases(trace, args.k, tensor=args.tensor)
    _write_csv(
        args.out,
        ("layer", "head", "dim", "mse_fourier", "mse_legt"),
        report.rows,
    )
    _write_run_manifest(
        args.out, "compare-bases", _public_args(args),
        inputs=[args.trace], outputs=[args.out], started=started,
    )
    print(f"win_rate={report.win_rate:.4f} over {len(report.rows)} dimensions "
          f"(fourier_orders={report.fourier_orders}, legt_order={report.legt_order})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.monotonic()
    trace = read_trace(args.trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    std_path = out_dir / "temporal_std.csv"
    curves = temporal_std(trace)
    rows = []
    for layer in range(curves.shape[0]):
        for kv_idx, kv in enumerate(("K", "V")):
            for rank in range(curves.shape[2]):
                rows.append((layer, kv, rank, curves[layer, kv_idx, rank]))
    _write_csv(std_path, ("layer", "kv", "sorted_dim", "std"), rows)

    # score decomposition heatmap for one head, keys doubling as queries
    layer, head = args.layer, args.head
    if not (0 <= layer < trace.layers and 0 <= head < trace.kv_heads):
        raise DataMismatchError(f"layer/head ({layer}, {head}) out of trace range")
    split_dim = args.split_dim
    if split_dim is None:
        # the canonical 70-of-128 split, scaled to this trace's head width
        split_dim = max(1, round(trace.head_dim * 70 / 128))
    block = trace.keys[layer, head].astype(np.float64)
    low, high = decompose_scores(block, block, split_dim=split_dim)
    heat_path = out_dir / "score_decomposition.csv"
    heat_rows = []
    for qi in range(block.shape[0]):
        for kj in range(qi + 1):  # each query's own key and the keys before it
            heat_rows.append((qi, kj, low[qi, kj], high[qi, kj], low[qi, kj] + high[qi, kj]))
    _write_csv(heat_path, ("query_pos", "key_pos", "low", "high", "full"), heat_rows)

    perturbed = perturb_dims(trace, dims=args.dims, sigma=args.sigma, seed=args.seed)
    pert_path = out_dir / "perturbation.csv"
    pert_rows = []
    for l in range(trace.layers):
        for h in range(trace.kv_heads):
            q = trace.keys[l, h, -1].astype(np.float64)
            ref = attend_full(q, trace.keys[l, h], trace.values[l, h])
            cand = attend_full(q, perturbed.keys[l, h], perturbed.values[l, h])
            metrics = output_divergence(ref, cand)
            pert_rows.append((l, h, metrics["max_abs"], metrics["rmse"], metrics["cosine"]))
    _write_csv(pert_path, ("layer", "head", "max_abs", "rmse", "cosine"), pert_rows)

    _write_run_manifest(
        std_path, "analyze", _public_args(args),
        inputs=[args.trace], outputs=[std_path, heat_path, pert_path], started=started,
    )
    print(f"analyze: wrote {std_path.name}, {heat_path.name}, {pert_path.name} to {out_dir}")
    return EXIT_OK


def _public_args(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourier-kv",
        description="Spectral KV-cache compression: traces, selection, evaluation, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-trace", help="generate a synthetic or tiny-transformer trace")
    gen.add_argument("--kind", required=True,
                     choices=["constant", "tone", "bandlimited", "noise", "mix", "tiny"])
    gen.add_argument("--layers", type=_at_least(1), default=2)
    gen.add_argument("--heads", type=_at_least(1), default=2, help="KV heads")
    gen.add_argument("--q-heads", type=_at_least(1), default=None,
                     help="query heads (tiny; default = --heads)")
    gen.add_argument("--dim", type=_at_least(1), default=16)
    gen.add_argument("--len", type=_at_least(1), default=256)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--period", type=_at_least(1), default=None,
                     help="signal period for tone/bandlimited/mix")
    gen.add_argument("--tone-order", type=int, default=1)
    gen.add_argument("--band-orders", type=_at_least(1), default=4)
    gen.add_argument("--sigma", type=_at_least(0.0, _float32), default=1.0)
    gen.add_argument("--value", type=_float32, default=1.0)
    gen.add_argument("--vocab", type=_at_least(1), default=128)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_trace)

    sel = sub.add_parser("select", help="rank dimensions and write a selection manifest")
    sel.add_argument("--trace", required=True)
    sel.add_argument("--schema", default="inverted", choices=_SCHEMA_NAMES)
    sel.add_argument("--k", type=_at_least(1), default=None, help="spectral state count")
    sel.add_argument("--T", type=_at_least(1), default=None, help="spectral window length")
    sel.add_argument("--init", type=_at_least(0), default=None)
    sel.add_argument("--local", type=_at_least(1), default=None)
    sel.add_argument("--preset", choices=["desk"], default=None,
                     help="desk-scale defaults: local=64, k=16, T=4096")
    sel.add_argument("--hist-csv", default=None)
    sel.add_argument("--out-manifest", required=True)
    sel.set_defaults(func=cmd_select)

    ev = sub.add_parser("eval", help="prefill, decode, and compare attention paths")
    ev.add_argument("--trace", required=True)
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--decode-steps", type=_at_least(0), default=8)
    ev.add_argument("--seed", type=_at_least(0), default=0)
    ev.add_argument("--report", required=True)
    ev.set_defaults(func=cmd_eval)

    cmp_ = sub.add_parser("compare-bases", help="Fourier vs Legendre reconstruction MSE")
    cmp_.add_argument("--trace", required=True)
    cmp_.add_argument("--k", type=_at_least(1), required=True,
                      help="Fourier state count (Legendre gets 2k)")
    cmp_.add_argument("--tensor", default="keys", choices=["keys", "values"])
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare_bases)

    an = sub.add_parser("analyze", help="std curves, score decomposition, perturbation report")
    an.add_argument("--trace", required=True)
    an.add_argument("--split-dim", type=_at_least(1), default=None,
                    help="low/high boundary (default: 70/128 of head_dim)")
    an.add_argument("--sigma", type=_at_least(0.0, _float32), default=1.0)
    an.add_argument("--dims", type=_parse_dims, default=[0],
                    help="dimensions to perturb, e.g. '0-69' or '0,3,17'")
    an.add_argument("--layer", type=_at_least(0), default=0)
    an.add_argument("--head", type=_at_least(0), default=0)
    an.add_argument("--seed", type=_at_least(0), default=0)
    an.add_argument("--out", required=True, help="output directory")
    an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops a flag's value "--" (``--len=--``) and stores an empty
    # list without calling the flag's type; no flag takes an empty list
    for name, value in vars(args).items():
        if isinstance(value, list) and not value:
            parser.error(f"argument --{name.replace('_', '-')}: expected one value, got '--'")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceFormatError, DataMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

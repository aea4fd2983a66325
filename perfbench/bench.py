"""One benchmark run: set-up, timed episodes, checks, quality and memory.

A run calls only the library's public entry points (see ``README.md``):
``read_trace``, ``write_trace``, ``build_basis``, ``build_selection_report``,
``prefill_trace``, ``CompressedCache.append``, ``attend_compressed_fused``
(the production attention path), ``attend_compressed_materialized`` (its
oracle), ``attend_full`` (dense reference) and ``memory_report``.

The end-to-end metrics come from a phase with tracing off. A traced run
repeats the timed phase with spans on and derives the per-layer metrics from
them; the gap between the two phases is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fourier_kv.attention import (
    attend_compressed_fused,
    attend_compressed_materialized,
    attend_full,
)
from fourier_kv.cache import memory_report, prefill_trace
from fourier_kv.dimselect import CompressionSchema, build_selection_report
from fourier_kv.spectral import build_basis
from fourier_kv.traceio import KVTrace, read_trace, write_trace

from tracer import NullTracer, SpanTable, Tracer
from workloads import Workload, make_inputs

MB = 1e6
P90_TAIL = 10  # samples that must lie beyond the reported p90
CHECKED_EPISODES = 4  # episodes whose final state the correctness gate checks
# production vs materialized oracle: same arithmetic up to summation order
ORACLE_RTOL = 1e-6
# measured held bytes over memory_report arithmetic: kept rows sit in buffers
# that grow by doubling, so up to twice their size, plus object overhead
HELD_VS_REPORT = (0.99, 2.05)

# (name, unit, better) in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("prefill_tok_s", "tok/s", "higher"),
    ("prefill_ms_p50", "ms", "lower"),
    ("decode_step_ms_p50", "ms", "lower"),
    ("decode_step_ms_p90", "ms", "lower"),
    ("decode_tok_s", "tok/s", "higher"),
    ("attn_cosine_mean", "1", "higher"),
    ("attn_cosine_p10", "1", "higher"),
    ("cache_mb", "MB", "lower"),
    ("cache_ratio_vs_dense", "1", "lower"),
    ("peak_transient_mb", "MB", "lower"),
)

PER_LAYER = (
    ("traceio.read_trace.ms", "ms", "lower"),
    ("dimselect.rank_dimensions.ms", "ms", "lower"),
    ("dimselect.apply_schema.ms", "ms", "lower"),
    ("dimselect.temporal_std.ms", "ms", "lower"),
    ("spectral.compress_batch.ms", "ms", "lower"),
    ("spectral.compress_batch.calls", "count", "lower"),
    ("spectral.basis_positions_per_prefill", "count", "lower"),
    ("cache.prefill.self_ms", "ms", "lower"),
    ("spectral.fold_token.us", "us", "lower"),
    ("spectral.fold_token.calls", "count", "lower"),
    ("cache.append_token.self_us", "us", "lower"),
    ("cache.evictions_per_step", "count", "lower"),
    ("spectral.basis_positions_per_step", "count", "lower"),
    ("spectral.basis_distinct_per_step", "count", "lower"),
    ("spectral.reconstruct.ms", "ms", "lower"),
    ("spectral.reconstruct.calls", "count", "lower"),
    ("attention.compressed.self_ms", "ms", "lower"),
    ("attention.full.ms", "ms", "lower"),
    ("attention.slowdown_vs_dense", "1", "lower"),
    ("attention.materialized.ms", "ms", "lower"),
    ("attention.middle_mass", "1", "higher"),
    ("cache.held_vs_report", "1", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
)


class RefClock:
    """Rescales wall times to a fixed reference speed.

    The CPU speed of a shared host can change twofold within seconds. So a
    fixed reference workload, independent of the library (small numpy
    operations in a Python loop, like the decode path), is timed after every
    sample, and each sample is scaled by ``REF_SECONDS`` over the mean of the
    reference times just before and just after it. A reported time is then
    the time the sample would take on a machine that runs the reference in
    ``REF_SECONDS``. The raw wall times are kept per kind in ``raw``.
    """

    REF_SECONDS = 2.5e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(1024)
        self._mat = rng.standard_normal((64, 64))
        self.raw = {}
        self.ref = []
        self._last = self._probe()

    def _probe(self) -> float:
        t0 = perf_counter()
        for i in range(100):
            np.cos(self._vec * (i % 7)).sum()
            self._mat @ self._mat[:, :8]
        return perf_counter() - t0

    def scale(self, wall: float, kind: str) -> float:
        """Reference-speed seconds of a sample that just took ``wall`` seconds."""
        ref = self._probe()
        scaled = wall * self.REF_SECONDS / ((self._last + ref) / 2)
        self._last = ref
        self.raw.setdefault(kind, []).append(wall)
        self.ref.append(ref)
        return scaled


@dataclass
class Tally:
    """Operations attempted and failed; a failure is recorded, never raised."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)
            print(f"failed: {what}", file=sys.stderr)


def entry_points(tracer) -> dict:
    """The public functions a run calls, wrapped in spans when tracing."""
    calls = {
        "traceio.read_trace": read_trace,
        "spectral.build_basis": build_basis,
        "dimselect.build_selection_report": build_selection_report,
        "cache.prefill_trace": prefill_trace,
        "attention.compressed": attend_compressed_fused,
        "attention.materialized": attend_compressed_materialized,
        "attention.full": attend_full,
    }
    if tracer.enabled:
        calls = {name: tracer.wrap(name, fn) for name, fn in calls.items()}
    return calls


@dataclass
class Setup:
    fulls: list
    layout: object
    basis: object


def run_setup(w: Workload, paths, tracer) -> tuple:
    """Read every input trace, build the basis and calibrate on the first prompt.

    Returns the seconds spent in the program's calls and their results.
    Slicing the calibration prompt out of the first trace is input
    preparation and is not timed.
    """
    calls = entry_points(tracer)
    part = w.partition
    with tracer.region("bench.setup"):
        t0 = perf_counter()
        fulls = [calls["traceio.read_trace"](p) for p in paths]
        t1 = perf_counter()
        calibration = _prompt(fulls[0], w.prompt_len)
        t2 = perf_counter()
        basis = calls["spectral.build_basis"](part.orders, part.period)
        schema = CompressionSchema.inverted_pyramid(w.layers)
        report = calls["dimselect.build_selection_report"](calibration, schema, part, basis)
        t3 = perf_counter()
    return (t1 - t0) + (t3 - t2), Setup(fulls=fulls, layout=report.layout, basis=basis)


def _prompt(full, prompt_len):
    return KVTrace(keys=full.keys[:, :, :prompt_len], values=full.values[:, :, :prompt_len],
                   provenance=full.provenance)


@dataclass
class Timed:
    prefill_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    step_wall_s: list = field(default_factory=list)
    evictions: int = 0
    outputs: list = field(default_factory=list)  # per kept episode, (steps, L, H, G, D)
    caches: list = field(default_factory=list)  # per checked episode, state after its last step


def timed_phase(w, setup, prompts, queries, tracer, tally, clock, seconds, keep,
                between) -> Timed:
    """Run episodes: prefill a prompt, then ``w.steps`` decode steps.

    Runs at least ``w.episodes`` episodes and goes on while fewer than
    ``seconds`` have passed, calling ``between()`` after each episode. One
    decode step appends the trace's next K/V row on every (layer, KV head) and
    runs the production attention path for every query head. Sample times are
    at reference speed (see ``RefClock``). With ``keep``, the outputs of the
    first ``w.episodes`` episodes are kept for the quality pass, and the final
    cache of the first ``CHECKED_EPISODES`` for the checks.
    """
    episodes = w.episodes
    calls = entry_points(tracer)
    prefill_fn = calls["cache.prefill_trace"]
    fused = calls["attention.compressed"]
    layout, basis = setup.layout, setup.basis
    shape = (w.steps, w.layers, w.kv_heads, w.group, w.head_dim)
    out = Timed()
    started = perf_counter()
    e = 0
    while e < episodes or perf_counter() - started < seconds:
        p = e % w.prompts
        keys, values = setup.fulls[p].keys, setup.fulls[p].values
        qs = queries[e % len(queries)]
        outputs = np.full(shape, np.nan) if keep and e < episodes else None
        with tracer.region("bench.prefill"):
            t0 = perf_counter()
            cache = prefill_fn(prompts[p], layout, basis)
            wall = perf_counter() - t0
        out.prefill_s.append(clock.scale(wall, "prefill"))
        middle0 = _middle_total(cache, w)
        for s in range(w.steps):
            pos = w.prompt_len + s
            t0 = perf_counter()
            with tracer.region("bench.decode_step"):
                for layer in range(w.layers):
                    with tracer.region("bench.layer", layer):
                        for head in range(w.kv_heads):
                            tally.attempted += 1
                            try:
                                cache.append(layer, head, keys[layer, head, pos],
                                             values[layer, head, pos])
                            except Exception as exc:  # counted, the run goes on
                                tally.fail(f"append L{layer} H{head} pos {pos}: {exc!r}")
                            head_slice = cache.slice(layer, head)
                            for j in range(w.group):
                                tally.attempted += 1
                                try:
                                    res = fused(qs[s, layer, head, j], head_slice, basis)
                                except Exception as exc:  # counted, the run goes on
                                    tally.fail(f"attention L{layer} H{head} step {s}: {exc!r}")
                                    continue
                                if outputs is not None:
                                    outputs[s, layer, head, j] = res.output
            wall = perf_counter() - t0
            out.step_wall_s.append(wall)
            out.step_s.append(clock.scale(wall, "decode_step"))
        out.evictions += _middle_total(cache, w) - middle0
        if outputs is not None:
            out.outputs.append(outputs)
            if e < CHECKED_EPISODES:
                out.caches.append(cache)
        del cache
        between()
        e += 1
    return out


def _middle_total(cache, w) -> int:
    return sum(
        cache.slice(layer, head).middle_count
        for layer in range(w.layers)
        for head in range(w.kv_heads)
    )


def run_checks(w, setup, queries, timed, tracer, tally) -> None:
    """Correctness gate on the final state of the first ``CHECKED_EPISODES`` episodes.

    Every slice represents exactly the tokens ingested, and the production
    path's last-step outputs match ``attend_compressed_materialized`` within
    ``ORACLE_RTOL`` of the output scale.
    """
    calls = entry_points(tracer)
    materialized = calls["attention.materialized"]
    ingested = w.prompt_len + w.steps
    with tracer.region("bench.check"):
        for e, (cache, outputs) in enumerate(zip(timed.caches, timed.outputs)):
            qs = queries[e % len(queries)]
            for layer in range(w.layers):
                for head in range(w.kv_heads):
                    head_slice = cache.slice(layer, head)
                    got = head_slice.represented()
                    tally.check(got == ingested,
                                f"episode {e} L{layer} H{head} represents {got} of {ingested}")
                    for j in range(w.group):
                        ref = materialized(qs[-1, layer, head, j], head_slice, setup.basis).output
                        prod = outputs[-1, layer, head, j]
                        err = float(np.max(np.abs(prod - ref)))
                        bound = ORACLE_RTOL * max(1.0, float(np.max(np.abs(ref))))
                        tally.check(bool(err <= bound),
                                    f"episode {e} L{layer} H{head} q{j}: fused vs materialized "
                                    f"max_abs {err:.3e} > {bound:.3e}")


def quality_pass(w, setup, inputs, timed, tracer, tally) -> dict:
    """Production outputs of the kept episodes against ``attend_full`` on exact K/V."""
    calls = entry_points(tracer)
    full_fn = calls["attention.full"]
    part = w.partition
    cosines, retrieval, masses = [], [], []
    with tracer.region("bench.quality"):
        for e, outputs in enumerate(timed.outputs):
            trace = setup.fulls[e % w.prompts]
            qs = inputs.queries[e % len(inputs.queries)]
            kinds = inputs.retrieval[e % len(inputs.retrieval)]
            for s in range(w.steps):
                n = w.prompt_len + s + 1
                middle = slice(min(part.init_len, n), max(part.init_len, n - part.local_len))
                for layer in range(w.layers):
                    for head in range(w.kv_heads):
                        keys = trace.keys[layer, head, :n]
                        values = trace.values[layer, head, :n]
                        for j in range(w.group):
                            prod = outputs[s, layer, head, j]
                            if not tally.check(bool(np.isfinite(prod).all()),
                                               f"episode {e} step {s} L{layer} H{head} q{j}: "
                                               "no finite output"):
                                continue
                            ref = full_fn(qs[s, layer, head, j], keys, values,
                                          return_weights=True)
                            cosines.append(_cosine(ref.output, prod))
                            retrieval.append(bool(kinds[s, layer, head, j]))
                            masses.append(float(ref.weights[middle].sum()))
    cos = np.asarray(cosines)
    kinds = np.asarray(retrieval, dtype=bool)
    return {
        "cosines": cosines,
        "middle_mass": float(np.mean(masses)) if masses else 0.0,
        "cosine_retrieval_mean": float(cos[kinds].mean()) if kinds.any() else None,
        "cosine_diffuse_mean": float(cos[~kinds].mean()) if (~kinds).any() else None,
    }


def _cosine(a, b) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0 if na == nb else 0.0
    return float(np.dot(a, b) / (na * nb))


def memory_pass(w, setup, prompts, inputs, tally) -> dict:
    """Bytes held and transient peaks under ``tracemalloc``, in a pass of its own.

    Repeats episode 0 untimed: prefill, ``w.steps`` appends on every head,
    and the production attention of the last step, whose middle region is
    the longest. Held bytes are what is still allocated at the end; the
    transient is the largest peak of prefill, appends or attention above what
    was held when it ended.
    """
    layout, basis = setup.layout, setup.basis
    keys, values = setup.fulls[0].keys, setup.fulls[0].values
    last_queries = inputs.queries[0][-1]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = prefill_trace(prompts[0], layout, basis)
        current, peak = tracemalloc.get_traced_memory()
        transient = peak - current
        tracemalloc.reset_peak()
        for pos in range(w.prompt_len, w.prompt_len + w.steps):
            for layer in range(w.layers):
                for head in range(w.kv_heads):
                    cache.append(layer, head, keys[layer, head, pos], values[layer, head, pos])
        current, peak = tracemalloc.get_traced_memory()
        transient = max(transient, peak - current)
        tracemalloc.reset_peak()
        for layer in range(w.layers):
            for head in range(w.kv_heads):
                for j in range(w.group):
                    attend_compressed_fused(last_queries[layer, head, j],
                                            cache.slice(layer, head), basis)
        current, peak = tracemalloc.get_traced_memory()
        transient = max(transient, peak - current)
        held = current - base
    finally:
        tracemalloc.stop()
    length = w.prompt_len + w.steps
    report = memory_report(layout, length)
    report_bytes = 4 * report["exact_floats"] + 8 * report["spectral_floats"]
    dense_bytes = 4 * report["full_cache_floats"]
    ratio = held / report_bytes
    lo, hi = HELD_VS_REPORT
    tally.check(lo <= ratio <= hi,
                f"held {held} B is {ratio:.3f}x memory_report's {report_bytes} B, "
                f"outside [{lo}, {hi}]")
    del cache
    return {
        "held_bytes": held,
        "report_bytes": report_bytes,
        "dense_bytes": dense_bytes,
        "transient_bytes": transient,
    }


def table_lines(result, specs) -> list:
    """One line per metric: name, value, unit and direction."""
    return [
        f"{name:40s} {result['metrics'][name]['value']:>14.6g} {unit:6s} {better} is better"
        for name, unit, better in specs
    ]


def _q(samples, n, i) -> float:
    return float(statistics.quantiles(samples, n=n)[i])


def end_to_end(w, setup_s, timed, quality, memory) -> dict:
    steps_ms = [s * 1e3 for s in timed.step_s]
    return {
        "setup_s": statistics.median(setup_s),
        "prefill_tok_s": len(timed.prefill_s) * w.prompt_len / sum(timed.prefill_s),
        "prefill_ms_p50": statistics.median(timed.prefill_s) * 1e3,
        "decode_step_ms_p50": statistics.median(steps_ms),
        "decode_step_ms_p90": _q(steps_ms, 10, 8),
        "decode_tok_s": len(timed.step_s) / sum(timed.step_s),
        "attn_cosine_mean": float(np.mean(quality["cosines"])),
        "attn_cosine_p10": _q(quality["cosines"], 10, 0),
        "cache_mb": memory["held_bytes"] / MB,
        "cache_ratio_vs_dense": memory["held_bytes"] / memory["dense_bytes"],
        "peak_transient_mb": memory["transient_bytes"] / MB,
    }


def per_layer(untraced, traced, table, quality, memory) -> tuple:
    """Per-layer metrics from the traced phase, plus the ``.L<i>`` rows."""
    t = table
    reps = max(1, len(t.roots("bench.setup")))
    prefills = max(1, len(traced.prefill_s))
    steps = max(1, len(traced.step_s))
    decode_roots = t.roots("bench.decode_step")
    prefill_roots = t.roots("bench.prefill")

    def setup_ms(name):
        return t.total(name, "bench.setup") / reps * 1e3

    per_step_positions = [t.position_counts.get(i, 0) for i in decode_roots]
    per_step_distinct = [
        np.unique(np.concatenate(t.position_sets[i])).size if t.position_sets.get(i) else 0
        for i in decode_roots
    ]
    library_self = t.library_self("bench.decode_step")
    untraced_p50 = statistics.median(untraced.step_s)
    traced_p50 = statistics.median(traced.step_s)
    compressed_mean = t.mean("attention.compressed", "bench.decode_step")
    full_mean = t.mean("attention.full", "bench.quality")
    metrics = {
        "traceio.read_trace.ms": setup_ms("traceio.read_trace"),
        "dimselect.rank_dimensions.ms": setup_ms("dimselect.rank_dimensions"),
        "dimselect.apply_schema.ms": setup_ms("dimselect.apply_schema"),
        "dimselect.temporal_std.ms": setup_ms("dimselect.temporal_std"),
        "spectral.compress_batch.ms":
            t.total("spectral.compress_batch", "bench.prefill") / prefills * 1e3,
        "spectral.compress_batch.calls":
            t.count("spectral.compress_batch", "bench.prefill") / prefills,
        "spectral.basis_positions_per_prefill":
            sum(t.position_counts.get(i, 0) for i in prefill_roots) / prefills,
        "cache.prefill.self_ms":
            t.total("cache.prefill", "bench.prefill", self_only=True) / prefills * 1e3,
        "spectral.fold_token.us": t.mean("spectral.fold_token", "bench.decode_step") * 1e6,
        "spectral.fold_token.calls": t.count("spectral.fold_token", "bench.decode_step") / steps,
        "cache.append_token.self_us":
            t.mean("cache.append_token", "bench.decode_step", self_only=True) * 1e6,
        "cache.evictions_per_step": traced.evictions / steps,
        "spectral.basis_positions_per_step": float(np.mean(per_step_positions)),
        "spectral.basis_distinct_per_step": float(np.mean(per_step_distinct)),
        "spectral.reconstruct.ms":
            t.total("spectral.reconstruct", "bench.decode_step") / steps * 1e3,
        "spectral.reconstruct.calls":
            t.count("spectral.reconstruct", "bench.decode_step") / steps,
        "attention.compressed.self_ms":
            t.total("attention.compressed", "bench.decode_step", self_only=True) / steps * 1e3,
        "attention.full.ms": full_mean * 1e3,
        "attention.slowdown_vs_dense": compressed_mean / full_mean if full_mean else 0.0,
        "attention.materialized.ms": t.mean("attention.materialized", "bench.check") * 1e3,
        "attention.middle_mass": quality["middle_mass"],
        "cache.held_vs_report": memory["held_bytes"] / memory["report_bytes"],
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "trace.accounted_pct": library_self / sum(traced.step_wall_s) * 100.0,
    }
    rows = {}
    for name, phase, count in (
        ("cache.prefill", "bench.prefill", prefills),
        ("attention.compressed", "bench.decode_step", steps),
        ("spectral.reconstruct", "bench.decode_step", steps),
    ):
        self_only = name != "spectral.reconstruct"
        label = f"{name}.self_ms" if self_only else f"{name}.ms"
        for layer, secs in sorted(t.by_layer(name, phase, self_only).items(),
                                  key=lambda kv: (kv[0] is None, kv[0])):
            rows[f"{label}.L{layer}"] = secs / count * 1e3
    return metrics, rows


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One run of workload ``w``; returns the result line and the report.

    Set-up runs once before the first episode and again after every episode,
    so its median samples the whole run. With ``trace``, a phase of
    ``w.episodes`` untraced episodes is followed by as many traced ones, and
    the per-layer metrics replace the end-to-end ones.
    """
    tally = Tally()
    tracer = Tracer() if trace else NullTracer()
    untraced = NullTracer()
    phase_s = {}
    mark = perf_counter()
    ref_clock = RefClock()
    inputs = make_inputs(w, seed)
    work = root / ".perfbench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = [work / f"prompt{p}.kvtr" for p in range(w.prompts)]
        for path, full in zip(paths, inputs.fulls):
            write_trace(path, full)
        phase_s["inputs"], mark = perf_counter() - mark, perf_counter()

        setup_s = []

        def setup_rep(tr=untraced):
            wall, result = run_setup(w, paths, tr)
            if not tr.enabled:
                setup_s.append(ref_clock.scale(wall, "setup"))
            return result

        setup = setup_rep()
        prompts = [_prompt(full, w.prompt_len) for full in setup.fulls]
        timed = timed_phase(w, setup, prompts, inputs.queries, untraced, tally, ref_clock,
                            0.0 if trace else seconds, True, setup_rep)
        phase_s["timed"], mark = perf_counter() - mark, perf_counter()
        traced = None
        if trace:
            with tracer:
                traced = timed_phase(w, setup, prompts, inputs.queries, tracer, tally,
                                     RefClock(), 0.0, False, lambda: setup_rep(tracer))
            phase_s["traced"], mark = perf_counter() - mark, perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with tracer:
        run_checks(w, setup, inputs.queries, timed, tracer, tally)
        quality = quality_pass(w, setup, inputs, timed, tracer, tally)
    timed.caches.clear()
    phase_s["quality"], mark = perf_counter() - mark, perf_counter()
    memory = memory_pass(w, setup, prompts, inputs, tally)
    phase_s["memory"] = perf_counter() - mark

    steps_ms = [s * 1e3 for s in timed.step_s]
    beyond = sum(x > _q(steps_ms, 10, 8) for x in steps_ms)
    tally.check(beyond >= P90_TAIL, f"only {beyond} of {len(steps_ms)} steps beyond p90")

    report = {
        "phase_s": phase_s,
        "samples_ms": {"setup": [x * 1e3 for x in setup_s],
                       "prefill": [x * 1e3 for x in timed.prefill_s],
                       "decode_step": steps_ms},
        "wall_samples_ms": {kind: [x * 1e3 for x in walls]
                            for kind, walls in ref_clock.raw.items()},
        "reference_ms": [x * 1e3 for x in ref_clock.ref],
        "quality_queries": len(quality["cosines"]),
        "cosine_retrieval_mean": quality["cosine_retrieval_mean"],
        "cosine_diffuse_mean": quality["cosine_diffuse_mean"],
        "memory": memory,
        "failures": tally.notes,
    }
    if trace:
        values, rows = per_layer(timed, traced, SpanTable(tracer), quality, memory)
        specs = PER_LAYER
        report["layer_rows"] = rows
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)
    else:
        values = end_to_end(w, setup_s, timed, quality, memory)
        specs = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in specs}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return {"result": result, "report": report, "tracer": tracer if trace else None}

"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout: ``python -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import workloads  # noqa: E402
from fourier_kv.cache import PartitionParams  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_PART = PartitionParams(init_len=2, local_len=8, period=256, orders=4)


def smoke(name):
    """The named workload at toy size; the episode and step counts stay."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, layers=min(w.layers, 2), head_dim=16, partition=SMOKE_PART,
                               prompt_len=40)


_RUNS = {}


def smoke_run(name, trace, tmp_path_factory, seed=3, again=False):
    key = (name, trace, seed, again)
    if key not in _RUNS:
        root = tmp_path_factory.mktemp("run")
        _RUNS[key] = bench.run(smoke(name), seed, 0.0, trace, root)
    return _RUNS[key]


def test_benchmark_json_lists_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        bench.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path_factory):
    result = smoke_run(name, trace, tmp_path_factory)["result"]
    specs = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in specs]
    for metric, unit, _ in specs:
        assert result["metrics"][metric]["unit"] == unit
        assert math.isfinite(result["metrics"][metric]["value"])
    lines = bench.table_lines(result, specs)
    for (metric, unit, better), line in zip(specs, lines):
        assert line.split()[0] == metric and f"{better} is better" in line and unit in line


DETERMINISTIC_E2E = ("attn_cosine_mean", "attn_cosine_p10", "cache_mb", "cache_ratio_vs_dense",
                     "peak_transient_mb")
DETERMINISTIC_LAYER = ("spectral.compress_batch.calls", "spectral.basis_positions_per_prefill",
                       "spectral.fold_token.calls", "cache.evictions_per_step",
                       "spectral.basis_positions_per_step", "spectral.basis_distinct_per_step",
                       "spectral.reconstruct.calls", "attention.middle_mass",
                       "cache.held_vs_report")


SMOKE_RUN = """
import json, sys
sys.path[:0] = {paths!r}
import bench
from test_perfbench import smoke
out = bench.run(smoke({name!r}), {seed}, 0.0, {trace}, __import__("pathlib").Path({root!r}))
print(json.dumps(out["result"]))
"""


def smoke_run_in_process_of_its_own(name, trace, root, seed=3):
    """A fresh interpreter per run, as the benchmark command has."""
    code = SMOKE_RUN.format(paths=[str(ROOT / "src"), str(BENCH_DIR), str(BENCH_DIR / "tests")],
                            name=name, seed=seed, trace=trace, root=str(root))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quality_memory_and_counts_repeat_for_a_seed(name, tmp_path):
    for trace, names in ((False, DETERMINISTIC_E2E), (True, DETERMINISTIC_LAYER)):
        first, second = (smoke_run_in_process_of_its_own(name, trace, tmp_path) for _ in range(2))
        for metric in names:
            assert first[metric]["value"] == second[metric]["value"], metric


def test_quality_changes_with_the_seed(tmp_path_factory):
    a = smoke_run("decode_stock_gqa", False, tmp_path_factory)["result"]["metrics"]
    b = smoke_run("decode_stock_gqa", False, tmp_path_factory, seed=4)["result"]["metrics"]
    assert a["attn_cosine_mean"]["value"] != b["attn_cosine_mean"]["value"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_and_self_times_are_non_negative(name, tmp_path_factory):
    tracer = smoke_run(name, True, tmp_path_factory)["tracer"]
    assert tracer.spans and None not in tracer.spans
    names = set()
    for i, (span, t0, t1, parent, _) in enumerate(tracer.spans):
        names.add(span)
        assert t1 >= t0
        if parent >= 0:
            assert parent < i
            _, p0, p1, _, _ = tracer.spans[parent]
            assert p0 <= t0 and t1 <= p1
    table = bench.SpanTable(tracer)
    assert (table.self_time >= -1e-9).all()
    for required in ("cache.prefill", "spectral.compress_batch", "cache.append_token",
                     "spectral.fold_token", "spectral.reconstruct", "attention.compressed",
                     "attention.full", "attention.materialized", "dimselect.rank_dimensions"):
        assert required in names
    assert not tracer.absent


def test_steps_leave_ten_samples_beyond_p90():
    for w in workloads.WORKLOADS.values():
        samples = [float(i) for i in range(w.min_steps)]
        p90 = statistics.quantiles(samples, n=10)[8]
        assert sum(s > p90 for s in samples) >= bench.P90_TAIL, w.name


def test_a_missing_library_name_is_reported_absent(monkeypatch):
    import fourier_kv.attention

    monkeypatch.delattr(fourier_kv.attention, "reconstruct")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["fourier_kv.attention.reconstruct"]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "decode_desk_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

"""Command-line surface: artifacts, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fourier_kv.cache import memory_report
from fourier_kv.cli import main
from fourier_kv.dimselect import read_selection_manifest
from fourier_kv.traceio import read_trace


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """The CLI's exit code: what ``main`` returns, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# the (layers, kv_heads, head_dim) of trace_file
TRACE_GEOMETRY = (2, 2, 8)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.kvt"
    assert run("gen-trace", "--kind", "mix", "--layers", 2, "--heads", 2, "--dim", 8,
               "--len", 44, "--period", 32, "--sigma", 0.2, "--seed", 3, "--out", path) == 0
    return path


@pytest.fixture
def manifest_file(tmp_path, trace_file):
    # window 64 leaves fold headroom past the 32-position middle for decoding
    path = tmp_path / "sel" / "selection.json"
    path.parent.mkdir()
    assert run("select", "--trace", trace_file, "--schema", "inverted",
               "--k", 4, "--T", 64, "--init", 4, "--local", 8,
               "--out-manifest", path) == 0
    return path


class TestGenTrace:
    def test_writes_valid_trace_and_manifest(self, tmp_path):
        out = tmp_path / "c.kvt"
        assert run("gen-trace", "--kind", "constant", "--len", 64, "--out", out) == 0
        trace = read_trace(out)
        assert trace.seq_len == 64
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-trace"
        assert str(out) in manifest["outputs"]

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("gen-trace", "--kind", "constant", "--len", 8)
        assert err.value.code == 2

    def test_tone_without_period_is_usage_error(self, tmp_path):
        assert run("gen-trace", "--kind", "tone", "--len", 8,
                   "--out", tmp_path / "t.kvt") == 2

    @pytest.mark.parametrize("flags", [("--heads", 0), ("--dim", 0)], ids=["heads-0", "dim-0"])
    def test_tiny_geometry_no_model_can_have_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "t.kvt"
        assert exit_code("gen-trace", "--kind", "tiny", *flags, "--len", 8, "--out", out) == 2
        assert not out.exists()

    # sizes and counts below 1 that no input could make valid; the cases with a
    # period or band orders of 0 must exit before numpy warns, which
    # filterwarnings = error turns into a failure
    @pytest.mark.parametrize("flags", [
        ("--kind", "noise", "--layers", 0),
        ("--kind", "tiny", "--layers", 0),
        ("--kind", "noise", "--len", 0),
        ("--kind", "noise", "--dim", 0),
        ("--kind", "constant", "--heads", 0),
        ("--kind", "tone", "--period", -3),
        ("--kind", "tone", "--period", 0),
        ("--kind", "bandlimited", "--period", 16, "--band-orders", 0),
        ("--kind", "tiny", "--q-heads", 0),
        ("--kind", "tiny", "--vocab", 0),
    ], ids=["noise-layers-0", "tiny-layers-0", "len-0", "noise-dim-0", "constant-heads-0",
            "period-negative", "period-0", "band-orders-0", "q-heads-0", "vocab-0"])
    def test_sizes_below_one_are_usage_errors(self, tmp_path, flags):
        out = tmp_path / "t.kvt"
        # a flag given twice takes its last value, so --len 0 overrides --len 8
        assert exit_code("gen-trace", "--len", 8, *flags, "--out", out) == 2
        assert not out.exists()

    # a negative noise scale, or a constant a float32 trace cannot hold, is a
    # usage error that names its flag, and no trace is written; flag=value,
    # since argparse reads a lone "-inf" as an option
    @pytest.mark.parametrize("kind, flag, value", [
        (("noise",), "--sigma", -1),
        (("mix", "--period", 16), "--sigma", -1),
        (("constant",), "--value", "inf"),
        (("constant",), "--value", "-inf"),
        (("constant",), "--value", "nan"),
        (("constant",), "--value", "1e39"),
    ], ids=["noise-sigma-negative", "mix-sigma-negative", "value-inf", "value-minus-inf",
            "value-nan", "value-past-float32"])
    def test_bad_sigma_or_value_is_usage_error_naming_the_flag(self, tmp_path, capsys, kind,
                                                              flag, value):
        out = tmp_path / "t.kvt"
        assert exit_code("gen-trace", "--len", 8, "--kind", *kind, f"{flag}={value}",
                         "--out", out) == 2
        assert not out.exists()
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_tiny_trace_deterministic(self, tmp_path):
        a, b = tmp_path / "a.kvt", tmp_path / "b.kvt"
        for out in (a, b):
            assert run("gen-trace", "--kind", "tiny", "--layers", 2, "--heads", 2,
                       "--dim", 8, "--len", 40, "--seed", 7, "--vocab", 64,
                       "--out", out) == 0
        assert sha256(a) == sha256(b)

    def test_unwritable_out_is_io_error(self, tmp_path):
        assert run("gen-trace", "--kind", "constant", "--len", 8,
                   "--out", tmp_path / "nonexistent_dir" / "t.kvt") == 3


# the CLI's documented exit codes: success, usage, I/O failure, data mismatch
EXIT_CODES = (0, 2, 3, 4)

# flags of gen-trace whose values the properties below draw, and a small
# valid base every call starts from: 1 x 1 x 16 x 4 floats of K and of V,
# so two drawn sizes of at most 6 keep a trace within 4,608 floats
GEN_FLAGS = ("--layers", "--heads", "--q-heads", "--dim", "--len", "--seed", "--period",
             "--tone-order", "--band-orders", "--sigma", "--value", "--vocab")
GEN_BASE = ("--layers", 1, "--heads", 1, "--dim", 4, "--len", 16, "--period", 8)

flag_values = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "3e38", "", "x", "1.5", "1e", "0x10", "2..",
                     "--"]),
)


def quiet_exit_code(*argv):
    """:func:`exit_code` with every warning recorded: ``(code, warnings)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(*argv)
    return code, [str(w.message) for w in caught]


# the flags each command's property draws, over a valid base that reads a
# 1 x 1 x 40 x 4 trace, 320 floats; no output path is drawn, so a call writes
# only into its own directory. Beside flag_values, each may take a value that
# some flag accepts
COMMAND_FLAGS = {
    "select": ("--trace", "--schema", "--k", "--T", "--init", "--local", "--preset"),
    "eval": ("--trace", "--manifest", "--decode-steps", "--seed"),
    "compare-bases": ("--trace", "--k", "--tensor"),
    "analyze": ("--trace", "--split-dim", "--sigma", "--dims", "--layer", "--head", "--seed"),
}
command_values = st.one_of(
    flag_values, st.sampled_from(["desk", "uniform", "kv-inv", "values", "0-2", "1,3", "5-3"]))

# the warnings cli's docstring documents: a middle region too short to compress
SHORT_MIDDLE = ("warning: the middle region holds ", "warning: at period ")


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A 320-float trace and a selection manifest of it, read by every drawn call."""
    tmp = tmp_path_factory.mktemp("tiny")
    trace, manifest = tmp / "t.kvt", tmp / "sel.json"
    assert run("gen-trace", "--kind", "mix", "--layers", 1, "--heads", 1, "--dim", 4,
               "--len", 40, "--period", 16, "--seed", 3, "--out", trace) == 0
    assert run("select", "--trace", trace, "--k", 2, "--T", 64, "--init", 2, "--local", 4,
               "--out-manifest", manifest) == 0
    return trace, manifest


def command_base(command, trace, manifest, out):
    """A valid call of ``command`` over the tiny inputs, writing under ``out``."""
    return {
        "select": ("--trace", trace, "--k", 2, "--T", 64, "--init", 2, "--local", 4,
                   "--out-manifest", out / "m.json"),
        "eval": ("--trace", trace, "--manifest", manifest, "--decode-steps", 2,
                 "--report", out / "r.csv"),
        "compare-bases": ("--trace", trace, "--k", 2, "--out", out / "c.csv"),
        "analyze": ("--trace", trace, "--split-dim", 2, "--dims", "0-1", "--out", out / "a"),
    }[command]


class TestExitCodeProperties:
    """Any drawn flags give a documented exit code: no traceback, no warning."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["constant", "tone", "bandlimited", "noise", "mix", "tiny"]),
           flags=st.lists(st.tuples(st.sampled_from(GEN_FLAGS), flag_values),
                          min_size=1, max_size=2))
    def test_gen_trace_exits_with_a_documented_code(self, kind, flags):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "t.kvt"
            # flag=value, since argparse reads a lone "-inf" or "-3" as an option
            drawn = [f"{flag}={value}" for flag, value in flags]
            code, caught = quiet_exit_code("gen-trace", "--kind", kind, *GEN_BASE, *drawn,
                                           "--out", out)
            assert code in EXIT_CODES
            assert not caught
            assert out.exists() == (code == 0)
            if code == 0:
                # at least one layer, head, position and dim, and a few thousand floats
                trace = read_trace(out)
                assert min(trace.keys.shape) >= 1 and 2 * trace.keys.size <= 4608

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["constant", "tone", "bandlimited", "noise", "mix", "tiny"]),
           flags=st.lists(st.tuples(st.sampled_from(GEN_FLAGS), st.integers(-3, 6).map(str)),
                          max_size=2),
           window=st.tuples(st.integers(1, 4), st.integers(1, 16), st.integers(0, 3),
                            st.integers(1, 6)))
    def test_select_and_eval_never_exit_1_on_a_written_trace(self, kind, flags, window):
        orders, period, init, local = window
        with tempfile.TemporaryDirectory() as tmp:
            trace, manifest = Path(tmp) / "t.kvt", Path(tmp) / "sel.json"
            drawn = [f"{flag}={value}" for flag, value in flags]
            if exit_code("gen-trace", "--kind", kind, *GEN_BASE, *drawn, "--out", trace):
                return
            code = exit_code("select", "--trace", trace, "--k", orders, "--T", period,
                             "--init", init, "--local", local, "--out-manifest", manifest)
            assert code in EXIT_CODES
            if code == 0:
                assert exit_code("eval", "--trace", trace, "--manifest", manifest,
                                 "--decode-steps", 2, "--report", Path(tmp) / "r") in EXIT_CODES

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_command_exits_with_a_documented_code(self, tiny_inputs, command, data):
        flags = data.draw(st.lists(st.tuples(st.sampled_from(COMMAND_FLAGS[command]),
                                             command_values), min_size=1, max_size=2))
        with tempfile.TemporaryDirectory() as tmp:
            base = command_base(command, *tiny_inputs, Path(tmp))
            assert exit_code(command, *base) == 0  # the base alone is valid
            # flag=value, since argparse reads a lone "-inf" or "-3" as an option
            drawn = [f"{flag}={value}" for flag, value in flags]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, caught = quiet_exit_code(command, *base, *drawn)
        assert code in EXIT_CODES
        assert not caught
        for line in err.getvalue().splitlines():
            assert "Traceback" not in line
            assert not line.startswith("warning:") or line.startswith(SHORT_MIDDLE), line


class TestSelect:
    def test_manifest_has_preset_ratios(self, manifest_file):
        layout, schema = read_selection_manifest(manifest_file, TRACE_GEOMETRY)
        assert schema.preset == "inverted_pyramid"
        assert schema.ratios[0] == (0.90, 0.95)   # first eighth of 2 layers -> layer 0
        assert schema.ratios[1] == (0.50, 0.70)
        assert layout.partition.orders == 4

    def test_histogram_row_count(self, manifest_file):
        rows = read_csv(manifest_file.parent / "histogram.csv")
        # layers x {K,V} x ceil(8/16) groups
        assert len(rows) == 2 * 2 * 1

    def test_zero_ratio_schema_keeps_all(self, tmp_path, trace_file):
        # uniform variant of a 2-layer pyramid is nonzero; use kv-inv to check swap
        path = tmp_path / "swap.json"
        assert run("select", "--trace", trace_file, "--schema", "kv-inv",
                   "--k", 4, "--T", 32, "--init", 4, "--local", 8,
                   "--out-manifest", path) == 0
        _, schema = read_selection_manifest(path, TRACE_GEOMETRY)
        assert schema.ratios[0] == (0.95, 0.90)

    def test_select_is_deterministic(self, tmp_path, trace_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run("select", "--trace", trace_file, "--k", 4, "--T", 32,
                       "--init", 4, "--local", 8, "--out-manifest", path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_too_short_is_data_error(self, tmp_path):
        short = tmp_path / "short.kvt"
        assert run("gen-trace", "--kind", "constant", "--len", 8, "--layers", 1,
                   "--heads", 1, "--dim", 4, "--out", short) == 0
        assert run("select", "--trace", short, "--k", 4, "--T", 32,
                   "--init", 4, "--local", 8, "--out-manifest", tmp_path / "m.json") == 4

    def test_missing_trace_is_io_error(self, tmp_path):
        assert run("select", "--trace", tmp_path / "absent.kvt", "--k", 4, "--T", 32,
                   "--out-manifest", tmp_path / "m.json") == 3

    def test_a_trace_of_head_dim_0_is_data_error(self, tmp_path, capsys):
        # a hand-packed header of 1 layer, 1 KV head, head_dim 0 and 64
        # positions: its payload is empty, and the trace holds no dimension to rank
        trace = tmp_path / "empty.kvt"
        trace.write_bytes(struct.pack("<4sIIIIII", b"KVTR", 1, 1, 1, 0, 64, 1))
        assert run("select", "--trace", trace, "--k", 4, "--T", 32, "--init", 4,
                   "--local", 8, "--out-manifest", tmp_path / "m.json") == 4
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestEval:
    def test_divergence_and_memory_reports(self, tmp_path, trace_file, manifest_file):
        report = tmp_path / "out" / "divergence.csv"
        report.parent.mkdir()
        assert run("eval", "--trace", trace_file, "--manifest", manifest_file,
                   "--decode-steps", 2, "--report", report) == 0
        rows = read_csv(report)
        assert len(rows) == 2 * 2 * 2 * 2  # layers x heads x steps x paths
        assert {r["path"] for r in rows} == {"materialized", "fused"}
        mem = read_csv(report.parent / "memory.csv")[0]
        assert float(mem["compressed_fraction"]) > 0.5
        assert float(mem["ratio_vs_full"]) < 1.0
        assert int(mem["padding_floats"]) == 0  # each layer's heads compress equal counts

    def test_memory_report_counts_the_padding_of_unequal_heads(self, tmp_path, trace_file,
                                                               manifest_file):
        # one head of layer 0 compresses one K dim fewer than the other
        doc = json.loads(manifest_file.read_text())
        doc["dims"][0][0]["k_compressed"].pop()
        unequal = tmp_path / "unequal.json"
        unequal.write_text(json.dumps(doc))
        report = tmp_path / "out" / "divergence.csv"
        report.parent.mkdir()
        assert run("eval", "--trace", trace_file, "--manifest", unequal,
                   "--decode-steps", 2, "--report", report) == 0
        layout, _ = read_selection_manifest(unequal, TRACE_GEOMETRY)
        padding = memory_report(layout, 44 + 2)["padding_floats"]
        assert padding > 0
        assert int(read_csv(report.parent / "memory.csv")[0]["padding_floats"]) == padding

    def test_lossless_manifest_tracks_oracle(self, tmp_path, trace_file):
        # hand-written manifest with empty compressed sets
        from fourier_kv.cache import PartitionParams
        from fourier_kv.cache import CacheLayout
        from fourier_kv.dimselect import (
            CompressionSchema,
            SelectionReport,
            write_selection_manifest,
        )

        part = PartitionParams(init_len=4, local_len=8, period=64, orders=4)
        schema = CompressionSchema(ratios=((0.0, 0.0), (0.0, 0.0)))
        layout = CacheLayout(partition=part, compressed=np.zeros((2, 2, 2, 8), dtype=bool))
        manifest = tmp_path / "lossless.json"
        write_selection_manifest(SelectionReport(layout=layout, schema=schema), manifest)

        report = tmp_path / "lossless" / "divergence.csv"
        report.parent.mkdir()
        assert run("eval", "--trace", trace_file, "--manifest", manifest,
                   "--decode-steps", 2, "--report", report) == 0
        for row in read_csv(report):
            assert float(row["max_abs"]) <= 1e-6

    def test_geometry_mismatch_is_data_error(self, tmp_path, manifest_file):
        other = tmp_path / "other.kvt"
        assert run("gen-trace", "--kind", "constant", "--layers", 1, "--heads", 1,
                   "--dim", 4, "--len", 32, "--out", other) == 0
        assert run("eval", "--trace", other, "--manifest", manifest_file,
                   "--report", tmp_path / "r.csv") == 4

    def test_a_huge_stated_head_dim_is_rejected_before_anything_is_sized(
            self, tmp_path, manifest_file):
        # a few hundred bytes that state head_dim 10**6: compared with the trace's
        # geometry first, the file sizes nothing (its mask and sorts took 22 MB)
        small = tmp_path / "small.kvt"
        assert run("gen-trace", "--kind", "constant", "--layers", 1, "--heads", 1,
                   "--dim", 4, "--len", 32, "--out", small) == 0
        doc = json.loads(manifest_file.read_text())
        doc["geometry"].update(layers=1, kv_heads=1, head_dim=10**6)
        doc["dims"] = [[{"k_compressed": [0], "v_compressed": [1]}]]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        report = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            code = run("eval", "--trace", small, "--manifest", huge, "--report", report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2**20
        assert not report.exists()

    @pytest.mark.parametrize("damage", [
        lambda doc: doc.pop("geometry"),
        lambda doc: doc.update(dims=5),
        lambda doc: doc["partition"].update(orders="4"),
        lambda doc: doc["schema"].pop("ratios"),
        lambda doc: doc["partition"].update(orders=33),  # period 64 takes at most 32
        # a compressed index that is not an int in [0, head_dim)
        lambda doc: doc["dims"][0][0]["k_compressed"].append(0.5),
        lambda doc: doc["dims"][0][0]["k_compressed"].append(True),
        lambda doc: doc["dims"][0][0]["k_compressed"].append("1"),
        lambda doc: doc["dims"][0][0]["k_compressed"].append(1e20),
        lambda doc: doc["dims"][0][0]["k_compressed"].append(10**20),
        # a partition field that is not an int, which np.full and
        # int.bit_length met past the manifest check
        lambda doc: doc["partition"].update(orders=4.5),
        lambda doc: doc["partition"].update(orders=True),
        lambda doc: doc["partition"].update(orders=4.0),
        lambda doc: doc["partition"].update(period=256.0),
        lambda doc: doc["partition"].update(init_len=2.5),
        lambda doc: doc["partition"].update(local_len=16.5),
    ], ids=["no-geometry", "dims-not-a-list", "string-orders", "no-ratios",
            "orders-past-the-bound", "half-index", "true-index", "string-index",
            "float-1e20-index", "int-10**20-index", "half-orders", "true-orders",
            "float-orders", "float-period", "half-init-len", "half-local-len"])
    def test_malformed_manifest_is_data_error(self, tmp_path, trace_file, manifest_file,
                                              capsys, damage):
        doc = json.loads(manifest_file.read_text())
        damage(doc)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        report = tmp_path / "r.csv"
        assert run("eval", "--trace", trace_file, "--manifest", broken, "--report", report) == 4
        assert str(broken) in capsys.readouterr().err
        assert not report.exists()

class TestStateSizeWarning:
    """``select`` and ``eval`` warn when a float64 state outweighs the float32 rows it replaces."""

    # the fixture trace's middle region holds 44 - 4 - 8 = 32 positions
    @pytest.mark.parametrize("orders, warns", [(7, False), (8, True)])
    def test_warns_when_the_middle_is_at_most_four_orders(self, tmp_path, trace_file, capsys,
                                                          orders, warns):
        manifest = tmp_path / "sel.json"
        assert run("select", "--trace", trace_file, "--k", orders, "--T", 64,
                   "--init", 4, "--local", 8, "--out-manifest", manifest) == 0
        err = capsys.readouterr().err
        assert ("warning:" in err) == warns
        assert run("eval", "--trace", trace_file, "--manifest", manifest,
                   "--decode-steps", 1, "--report", tmp_path / "r.csv") == 0
        assert capsys.readouterr().err == err
        if warns:
            assert "holds 32 positions, at most 4 * orders = 32" in err


class TestPeriodWarning:
    """``select`` and ``eval`` warn when the middle's moment degree is below ``orders``:
    the window can use fewer than half of a state's ``2 * orders`` coefficients."""

    # the benchmark's middles: 1020 positions at stock, where 512 orders over
    # period 32768 resolve 98 terms, and 956 at desk, where 16 orders over
    # period 4096 resolve 38
    @pytest.mark.parametrize("length, preset, warning", [
        (2048, [], "at period 32768 the middle region's 1020 positions resolve 98 Chebyshev "
                   "terms, fewer than half of the 2 * orders = 1024 coefficients"),
        (1024, ["--preset", "desk"], None),
    ], ids=["stock", "desk"])
    def test_warns_when_the_period_outgrows_the_window(self, tmp_path, capsys, length, preset,
                                                       warning):
        trace = tmp_path / "t.kvt"
        assert run("gen-trace", "--kind", "noise", "--layers", 1, "--heads", 1, "--dim", 2,
                   "--len", length, "--seed", 4, "--out", trace) == 0
        capsys.readouterr()
        manifest = tmp_path / "sel.json"
        assert run("select", "--trace", trace, *preset, "--out-manifest", manifest) == 0
        err = capsys.readouterr().err
        assert run("eval", "--trace", trace, "--manifest", manifest,
                   "--decode-steps", 1, "--report", tmp_path / "r.csv") == 0
        assert capsys.readouterr().err == err
        if warning is None:
            assert "Chebyshev" not in err
        else:
            assert warning in err


class TestLongMiddleWarning:
    """``select`` warns when the middle is longer than the period: it calibrates,
    as ``rank_dimensions`` over a longer middle does, but ``eval`` refuses it."""

    def test_warns_when_the_middle_outgrows_the_period(self, tmp_path, capsys):
        trace, manifest = tmp_path / "t.kvt", tmp_path / "sel.json"
        assert run("gen-trace", "--kind", "noise", "--layers", 1, "--heads", 1, "--dim", 4,
                   "--len", 200, "--out", trace) == 0
        capsys.readouterr()
        assert run("select", "--trace", trace, "--k", 4, "--T", 64, "--local", 8,
                   "--out-manifest", manifest) == 0
        warning = "holds 188 positions, more than the period 64"
        assert warning in capsys.readouterr().err
        assert run("eval", "--trace", trace, "--manifest", manifest,
                   "--report", tmp_path / "r.csv") == 4
        err = capsys.readouterr().err
        assert warning in err
        assert "would exceed the spectral period 64" in err


class TestCompareBases:
    def test_tone_trace_wins_everywhere(self, tmp_path):
        trace = tmp_path / "tone.kvt"
        assert run("gen-trace", "--kind", "tone", "--layers", 1, "--heads", 1,
                   "--dim", 4, "--len", 32, "--period", 32, "--tone-order", 2,
                   "--seed", 1, "--out", trace) == 0
        out = tmp_path / "cmp.csv"
        assert run("compare-bases", "--trace", trace, "--k", 4, "--out", out) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["mse_fourier"]) < 1e-8
            assert float(row["mse_legt"]) > float(row["mse_fourier"])

    def test_constant_trace_reports_tie(self, tmp_path, capsys):
        trace = tmp_path / "const.kvt"
        assert run("gen-trace", "--kind", "constant", "--layers", 1, "--heads", 1,
                   "--dim", 4, "--len", 32, "--out", trace) == 0
        out = tmp_path / "cmp.csv"
        assert run("compare-bases", "--trace", trace, "--k", 2, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "win_rate=1.0000" in printed

    def test_tiny_trace_summary_line(self, tmp_path, capsys):
        trace = tmp_path / "tiny.kvt"
        assert run("gen-trace", "--kind", "tiny", "--layers", 2, "--heads", 2,
                   "--dim", 8, "--len", 64, "--seed", 5, "--out", trace) == 0
        out = tmp_path / "cmp.csv"
        assert run("compare-bases", "--trace", trace, "--k", 4, "--out", out) == 0
        printed = capsys.readouterr().out
        win = float(printed.split("win_rate=")[1].split(" ")[0])
        assert 0.0 <= win <= 1.0


class TestAnalyze:
    def test_outputs_and_exactness(self, tmp_path, trace_file):
        out_dir = tmp_path / "analysis"
        assert run("analyze", "--trace", trace_file, "--split-dim", 5,
                   "--sigma", 0.5, "--dims", "0-3", "--out", out_dir) == 0
        heat = read_csv(out_dir / "score_decomposition.csv")
        for row in heat[:200]:
            assert abs(float(row["low"]) + float(row["high"]) - float(row["full"])) < 1e-6
        assert (out_dir / "temporal_std.csv").exists()
        assert (out_dir / "perturbation.csv").exists()

    def test_sigma_zero_divergence_is_zero(self, tmp_path, trace_file):
        out_dir = tmp_path / "clean"
        assert run("analyze", "--trace", trace_file, "--sigma", 0.0,
                   "--dims", "0-7", "--out", out_dir) == 0
        for row in read_csv(out_dir / "perturbation.csv"):
            assert float(row["max_abs"]) == 0.0
            assert float(row["cosine"]) == 1.0

    def test_constant_trace_std_csv_zero(self, tmp_path):
        trace = tmp_path / "const.kvt"
        assert run("gen-trace", "--kind", "constant", "--layers", 1, "--heads", 1,
                   "--dim", 4, "--len", 16, "--out", trace) == 0
        out_dir = tmp_path / "an"
        assert run("analyze", "--trace", trace, "--split-dim", 2, "--sigma", 0,
                   "--dims", "0", "--out", out_dir) == 0
        for row in read_csv(out_dir / "temporal_std.csv"):
            assert float(row["std"]) == 0.0

    def test_bad_dims_flag_is_usage_error(self, tmp_path, trace_file):
        with pytest.raises(SystemExit) as err:
            run("analyze", "--trace", trace_file, "--dims", "zebra", "--out", tmp_path / "x")
        assert err.value.code == 2

    @pytest.mark.parametrize("dims", ["5-3", "1,5-3", "0-2,5-3,7"],
                             ids=["alone", "after-a-dim", "between-valid-parts"])
    def test_a_reversed_range_is_usage_error(self, tmp_path, trace_file, capsys, dims):
        with pytest.raises(SystemExit) as err:
            run("analyze", "--trace", trace_file, "--dims", dims, "--out", tmp_path / "x")
        assert err.value.code == 2
        assert "range '5-3' ends below its start" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestFlagValues:
    """A flag value that no input could make valid exits 2 (usage) before any input is read."""

    @pytest.mark.parametrize("command, flag, value", [
        ("select", "--k", 0), ("select", "--T", 0), ("select", "--local", 0),
        ("select", "--init", -1), ("eval", "--decode-steps", -2), ("eval", "--seed", -1),
        ("compare-bases", "--k", 0), ("analyze", "--sigma", -1), ("analyze", "--sigma", "nan"),
        ("analyze", "--split-dim", 0), ("analyze", "--layer", -1), ("analyze", "--head", -1),
        ("analyze", "--seed", -1),
    ], ids=lambda x: str(x))
    def test_is_usage_error(self, tmp_path, trace_file, manifest_file, capsys,
                            command, flag, value):
        out = tmp_path / "out"
        rest = {
            "select": ("--trace", trace_file, "--out-manifest", out),
            "eval": ("--trace", trace_file, "--manifest", manifest_file, "--report", out),
            "compare-bases": ("--trace", trace_file, "--out", out),
            "analyze": ("--trace", trace_file, "--out", out),
        }[command]
        with pytest.raises(SystemExit) as err:
            run(command, flag, value, *rest)
        assert err.value.code == 2
        # --sigma reads a float32 first, which rejects NaN before its bound
        message = "must be finite in float32" if value == "nan" else "must be >= "
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-trace", "analyze"])
    @pytest.mark.parametrize("value", ["inf", "1e308"])
    def test_a_noise_scale_past_float32_is_usage_error(self, tmp_path, trace_file, capsys,
                                                       command, value):
        out = tmp_path / "out"
        rest = {"gen-trace": ("--kind", "noise", "--len", 8, "--out", out),
                "analyze": ("--trace", trace_file, "--out", out)}[command]
        with pytest.raises(SystemExit) as err:
            run(command, f"--sigma={value}", *rest)
        assert err.value.code == 2
        assert "argument --sigma: must be finite in float32, got " in capsys.readouterr().err
        assert not out.exists()

    def test_noise_that_overflows_float32_is_rejected_without_a_warning(self, tmp_path,
                                                                         trace_file):
        # a scale float32 holds, whose noise does not: the generator's trace is
        # rejected as a usage error, and analyze's perturbed keys as data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen-trace", "--kind", "noise", "--len", 8, "--sigma=3e38",
                       "--out", tmp_path / "t.kvt") == 2
            assert run("analyze", "--trace", trace_file, "--sigma=3e38",
                       "--out", tmp_path / "a") == 4

    def test_a_flag_that_is_not_a_number_is_usage_error(self, tmp_path, trace_file, capsys):
        with pytest.raises(SystemExit) as err:
            run("select", "--trace", trace_file, "--k", "four", "--out-manifest", tmp_path / "m")
        assert err.value.code == 2
        assert "argument --k: invalid int value: 'four'" in capsys.readouterr().err


class TestSpectralBound:
    """Orders past ``(T + 1) // 2`` alias: a usage error from flags, a data error from inputs."""

    @pytest.mark.parametrize("flags", [
        ("--k", 33, "--T", 64), ("--T", 7), ("--preset", "desk", "--k", 2049),
        ("--preset", "desk", "--T", 30),
    ], ids=["k-and-T", "stock-k", "desk-k", "desk-T"])
    def test_select_flags_past_the_bound_are_usage_errors(self, tmp_path, trace_file, capsys,
                                                          flags):
        out = tmp_path / "m.json"
        assert run("select", "--trace", trace_file, *flags, "--out-manifest", out) == 2
        assert "orders must be <= (period + 1) // 2" in capsys.readouterr().err
        assert not out.exists()

    def test_select_at_the_bound_succeeds(self, tmp_path, trace_file):
        # 32 middle positions, 4 orders: 2 * 4 - 1 = 7 == T
        assert run("select", "--trace", trace_file, "--k", 4, "--T", 7, "--init", 4,
                   "--local", 8, "--out-manifest", tmp_path / "m.json") == 0

    def test_compare_bases_past_the_trace_length_is_a_data_error(self, tmp_path, capsys):
        trace = tmp_path / "tone.kvt"
        assert run("gen-trace", "--kind", "tone", "--layers", 1, "--heads", 1, "--dim", 2,
                   "--len", 32, "--period", 32, "--seed", 1, "--out", trace) == 0
        assert run("compare-bases", "--trace", trace, "--k", 16, "--out", tmp_path / "a.csv") == 0
        out = tmp_path / "b.csv"
        assert run("compare-bases", "--trace", trace, "--k", 17, "--out", out) == 4
        assert "orders=17 at period=32" in capsys.readouterr().err
        assert not out.exists()


class TestManifestReproducibility:
    def test_rerun_from_manifest_args_matches(self, tmp_path, trace_file):
        first = tmp_path / "m1" / "sel.json"
        first.parent.mkdir()
        assert run("select", "--trace", trace_file, "--k", 4, "--T", 32,
                   "--init", 4, "--local", 8, "--out-manifest", first) == 0
        doc = json.loads((first.parent / "run_manifest.json").read_text())
        args = doc["args"]
        second = tmp_path / "m2" / "sel.json"
        second.parent.mkdir()
        assert run("select", "--trace", args["trace"], "--schema", args["schema"],
                   "--k", args["k"], "--T", args["T"], "--init", args["init"],
                   "--local", args["local"], "--out-manifest", second) == 0
        assert first.read_bytes() == second.read_bytes()

"""Trace format round trips, corruption handling, and generators."""

import errno
import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from fourier_kv import traceio
from fourier_kv.spectral import build_basis, compress_batch, reconstruct, reconstruction_mse
from fourier_kv.traceio import (
    BadMagicError,
    KVTrace,
    TinyModelConfig,
    TraceFormatError,
    TruncatedPayloadError,
    UnknownDtypeError,
    gen_synthetic,
    read_trace,
    tiny_forward,
    write_trace,
)


def random_trace(rng, layers=2, kv_heads=2, seq_len=6, head_dim=4):
    shape = (layers, kv_heads, seq_len, head_dim)
    return KVTrace(
        keys=rng.standard_normal(shape).astype(np.float32),
        values=rng.standard_normal(shape).astype(np.float32),
    )


def version_1_bytes(trace):
    """A trace hand-packed in format version 1: per layer, its keys then its values."""
    header = struct.pack("<4sIIIIII", b"KVTR", 1, trace.layers, trace.kv_heads,
                         trace.head_dim, trace.seq_len, 1)
    return header + b"".join(
        trace.keys[layer].astype("<f4").tobytes() + trace.values[layer].astype("<f4").tobytes()
        for layer in range(trace.layers)
    )


def assert_same_c_ordered(back, trace):
    """``back`` holds ``trace``'s bits in C-ordered, writeable, disjoint float32 arrays."""
    for got, sent in ((back.keys, trace.keys), (back.values, trace.values)):
        assert got.dtype == np.float32 and got.shape == sent.shape
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got.view(np.uint32), sent.view(np.uint32))
    assert not np.shares_memory(back.keys, back.values)


class TestFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = random_trace(rng)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        np.testing.assert_array_equal(back.keys, trace.keys)
        np.testing.assert_array_equal(back.values, trace.values)

    def test_multi_layer_round_trip_gives_owned_c_ordered_arrays(self, tmp_path):
        # a few MB, so that the fixed objects of a call are small against the payload
        rng = np.random.default_rng(6)
        trace = random_trace(rng, layers=3, kv_heads=2, seq_len=1024, head_dim=64)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        stored = path.read_bytes()
        tracemalloc.start()
        try:
            back = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file is mapped, not copied: nothing that grows with the payload is allocated
        assert peak < 0.01 * (trace.keys.nbytes + trace.values.nbytes)
        assert_same_c_ordered(back, trace)
        back.keys[1, 0, 5] = -7.0  # copy-on-write: the file never sees it
        back.values[2] = 0.0
        assert path.read_bytes() == stored
        np.testing.assert_array_equal(read_trace(path).keys, trace.keys)

    @pytest.mark.parametrize("layers", [1, 3], ids=["1-layer", "3-layers"])
    def test_reads_version_1_files(self, tmp_path, layers):
        rng = np.random.default_rng(10)
        trace = random_trace(rng, layers=layers, kv_heads=2, seq_len=7, head_dim=3)
        path = tmp_path / "t.kvt"
        path.write_bytes(version_1_bytes(trace))
        assert_same_c_ordered(read_trace(path), trace)

    def test_a_trace_read_from_a_file_keeps_its_values_when_the_file_is_rewritten(self, tmp_path):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, layers=2, kv_heads=2, seq_len=2048, head_dim=8)
        other = random_trace(rng, layers=1, kv_heads=1, seq_len=5, head_dim=2)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        back = read_trace(path)
        write_trace(path, other)  # shorter: a write in place would cut the mapped pages off
        np.testing.assert_array_equal(back.keys, trace.keys)
        np.testing.assert_array_equal(back.values, trace.values)
        np.testing.assert_array_equal(read_trace(path).keys, other.keys)

    def test_a_write_that_fails_part_way_leaves_the_old_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        stored = path.read_bytes()

        class FullDisk(io.FileIO):
            def write(self, data):
                if isinstance(data, np.ndarray):  # the header goes through, the payload not
                    raise OSError(errno.ENOSPC, "no space left on device")
                return super().write(data)

        monkeypatch.setattr(traceio, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="no space"):
            write_trace(path, random_trace(rng, seq_len=9))
        assert path.read_bytes() == stored
        assert list(tmp_path.iterdir()) == [path]

    def test_writing_through_a_symlink_replaces_its_target(self, tmp_path):
        rng = np.random.default_rng(13)
        trace = random_trace(rng)
        other = random_trace(rng, seq_len=4)
        (tmp_path / "store").mkdir()
        target = tmp_path / "store" / "t.kvt"
        link = tmp_path / "link.kvt"
        write_trace(target, trace)
        link.symlink_to(target)
        write_trace(link, other)
        assert link.is_symlink() and link.resolve() == target.resolve()
        np.testing.assert_array_equal(read_trace(target).keys, other.keys)
        assert list((tmp_path / "store").iterdir()) == [target]

    def test_trailing_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(TruncatedPayloadError):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_trace(path)

    def test_header_payload_size_mismatch(self, tmp_path):
        # header says one more position than the payload holds
        rng = np.random.default_rng(2)
        trace = random_trace(rng, seq_len=7)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        data = bytearray(path.read_bytes())
        seq_field = 4 + 4 * 4  # after magic, version, layers, kv_heads, head_dim
        data[seq_field : seq_field + 4] = (8).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedPayloadError):
            read_trace(path)

    def test_huge_header_geometry_is_rejected_before_allocating(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        data = bytearray(path.read_bytes())
        data[8:12] = (2**31).to_bytes(4, "little")  # layers: a 2**40-byte payload
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedPayloadError):
            read_trace(path)

    @pytest.mark.parametrize(
        "change, version",
        [pytest.param(change, version, id=change if version == 2 else f"{change}-v1")
         for version in (2, 1) for change in ("none", "short", "trailing")],
    )
    def test_payload_read_from_a_pipe(self, tmp_path, change, version):
        # a pipe has no size to check up front: the reads themselves must see it
        rng = np.random.default_rng(9)
        trace = random_trace(rng, layers=3)
        path = tmp_path / "t.kvt"
        write_trace(path, trace)
        data = path.read_bytes() if version == 2 else version_1_bytes(trace)
        data = {"none": data, "short": data[:-5], "trailing": data + b"\0" * 4}[change]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)  # far below a pipe's buffer, so this never blocks

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if change == "none":
                assert_same_c_ordered(read_trace(fifo), trace)
            else:
                with pytest.raises(TruncatedPayloadError):
                    read_trace(fifo)
        finally:
            writer.join()

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_trace(path)

    def test_unknown_dtype(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        data = bytearray(path.read_bytes())
        data[24:28] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(UnknownDtypeError):
            read_trace(path)

    def test_unsupported_version(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "t.kvt"
        write_trace(path, random_trace(rng))
        data = bytearray(path.read_bytes())
        data[4:8] = (3).to_bytes(4, "little")  # versions 1 and 2 are read
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 1, 2, 2), dtype=np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            KVTrace(keys=bad, values=np.zeros_like(bad))
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((2, 1, 3, 2), dtype=np.float32)
            bad[1, 0, 2, 1] = value
            with pytest.raises(ValueError, match="non-finite"):
                KVTrace(keys=np.zeros_like(bad), values=bad)

    @pytest.mark.parametrize("axis", range(4), ids=["layers", "kv-heads", "seq-len", "head-dim"])
    def test_rejects_a_zero_size_dimension(self, tmp_path, axis):
        shape = [1, 2, 3, 4]
        shape[axis] = 0
        empty = np.zeros(shape, dtype=np.float32)
        with pytest.raises(ValueError, match="must be >= 1"):
            KVTrace(keys=empty, values=empty)
        # a header of that geometry, hand-packed, and the empty payload it implies
        layers, kv_heads, seq_len, head_dim = shape
        path = tmp_path / "t.kvt"
        path.write_bytes(struct.pack("<4sIIIIII", b"KVTR", 1, layers, kv_heads, head_dim,
                                     seq_len, 1))
        with pytest.raises(ValueError, match="must be >= 1"):
            read_trace(path)


class TestSynthetic:
    def test_constant_has_zero_temporal_std(self):
        trace = gen_synthetic("constant", layers=1, kv_heads=1, head_dim=3, seq_len=16, value=2.5)
        assert np.all(trace.keys == 2.5)
        assert np.all(trace.keys.std(axis=2) == 0.0)

    def test_tone_is_in_band(self):
        period = 32
        trace = gen_synthetic(
            "tone", layers=1, kv_heads=1, head_dim=2, seq_len=period,
            seed=3, period=period, tone_order=2,
        )
        basis = build_basis(orders=4, period=period)
        block = trace.keys[0, 0].astype(np.float64)
        state = compress_batch(basis, block, start_pos=0)
        recon = reconstruct(state, basis, np.arange(period))
        assert reconstruction_mse(block, recon).max() < 1e-8

    def test_noise_std_near_sigma(self):
        trace = gen_synthetic("noise", layers=1, kv_heads=1, head_dim=4, seq_len=4096, sigma=1.0, seed=9)
        stds = trace.keys[0, 0].std(axis=0)
        assert np.all(np.abs(stds - 1.0) < 0.05)

    def test_determinism(self):
        kwargs = dict(layers=2, kv_heads=2, head_dim=4, seq_len=32, seed=7, period=32)
        a = gen_synthetic("mix", **kwargs)
        b = gen_synthetic("mix", **kwargs)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_synthetic("fractal", layers=1, kv_heads=1, head_dim=2, seq_len=4)

    def test_tone_requires_period(self):
        with pytest.raises(ValueError):
            gen_synthetic("tone", layers=1, kv_heads=1, head_dim=2, seq_len=4)


class TestTinyModel:
    def test_deterministic_per_seed(self):
        cfg = TinyModelConfig(layers=2, heads=4, kv_heads=2, head_dim=8, vocab=64, seed=5)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 64, size=48)
        a = tiny_forward(cfg, tokens)
        b = tiny_forward(cfg, tokens)
        np.testing.assert_array_equal(a.keys, b.keys)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_out_of_vocab(self):
        cfg = TinyModelConfig(vocab=16)
        with pytest.raises(ValueError):
            tiny_forward(cfg, [0, 1, 16])

    @pytest.mark.parametrize("tokens", [[1.7, 2.2, 3.9], [1.0, 2.0], [True, False]],
                             ids=["fractions", "whole-floats", "bools"])
    def test_rejects_tokens_that_are_not_integers(self, tokens):
        # a float id used to be truncated and a bool read as 0 or 1
        with pytest.raises(ValueError, match="integers"):
            tiny_forward(TinyModelConfig(vocab=16), tokens)

    def test_accepts_numpy_integer_tokens(self):
        cfg = TinyModelConfig(layers=1, heads=2, kv_heads=1, head_dim=4, vocab=16, seed=2)
        a = tiny_forward(cfg, np.array([1, 2, 3], dtype=np.uint8))
        np.testing.assert_array_equal(a.keys, tiny_forward(cfg, [1, 2, 3]).keys)

    def test_file_size_arithmetic(self, tmp_path):
        cfg = TinyModelConfig(layers=4, heads=4, kv_heads=4, head_dim=64, vocab=64, seed=0)
        tokens = np.arange(512) % 64
        trace = tiny_forward(cfg, tokens)
        path = tmp_path / "tiny.kvt"
        write_trace(path, trace)
        assert path.stat().st_size == 28 + 4 * 2 * 4 * 512 * 64 * 4

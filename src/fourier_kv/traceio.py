"""KV trace storage and generation.

A trace is the raw per-layer, per-head key/value cache of a model run:
float32 tensors of shape ``(layers, kv_heads, seq_len, head_dim)`` for keys
and values. Traces round-trip losslessly through a small little-endian
binary format and can be produced synthetically (test signals) or by a tiny
seeded transformer forward pass that yields realistically structured caches
at desk scale.

The format is a 28-byte header (magic ``KVTR``, version, layers, kv_heads,
head_dim, seq_len, dtype code; little-endian uint32 after the magic), then
the payload of little-endian float32. Version 2, which ``write_trace``
writes, stores every key as one C-ordered ``(layers, kv_heads, seq_len,
head_dim)`` block and then every value the same way, so each is one span of
the file. Version 1 interleaved them per layer, ``[layer][K then
V][head][pos][dim]``; ``read_trace`` still reads it.

``read_trace`` maps a regular file copy-on-write instead of copying it, so
a trace read from a file shares the file's pages until it writes to them.
Changing such a file in place from another program while a trace read from
it is alive is undefined: the trace may see the new bytes, and if the file
is truncated, on Linux the next read of a lost page kills the process with
SIGBUS. ``write_trace`` never writes in place: it replaces the file whole.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BadMagicError",
    "KVTrace",
    "TinyModelConfig",
    "TraceFormatError",
    "TruncatedPayloadError",
    "UnknownDtypeError",
    "gen_synthetic",
    "read_trace",
    "tiny_forward",
    "write_trace",
]

MAGIC = b"KVTR"
FORMAT_VERSION = 2
DTYPE_F32 = 1
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, layers, kv_heads, head_dim, seq_len, dtype


class TraceFormatError(ValueError):
    """The file is not a valid KV trace."""


class BadMagicError(TraceFormatError):
    """Leading magic bytes do not spell a KV trace."""


class TruncatedPayloadError(TraceFormatError):
    """Payload size disagrees with the header geometry."""


class UnknownDtypeError(TraceFormatError):
    """Header declares a dtype code this reader does not understand."""


@dataclass
class KVTrace:
    """Raw key/value cache dump plus provenance.

    ``keys`` and ``values`` have shape ``(layers, kv_heads, seq_len, head_dim)``,
    every size at least 1, and dtype float32. All entries must be finite.
    Arrays that are already C-ordered float32 are kept, not copied.
    """

    keys: np.ndarray
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.float32)
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.keys.ndim != 4 or self.keys.shape != self.values.shape:
            raise ValueError(
                f"keys/values must share a 4-D shape, got {self.keys.shape} vs {self.values.shape}"
            )
        if not self.keys.size:
            raise ValueError(f"every trace dimension must be >= 1, got {self.keys.shape}")
        for block in (self.keys, self.values):
            # NaN and +-inf carry through max and min, so no trace-sized mask is built
            if not (np.isfinite(block.max()) and np.isfinite(block.min())):
                raise ValueError("trace contains non-finite values")

    @property
    def layers(self) -> int:
        return self.keys.shape[0]

    @property
    def kv_heads(self) -> int:
        return self.keys.shape[1]

    @property
    def seq_len(self) -> int:
        return self.keys.shape[2]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[3]


def write_trace(path, trace: KVTrace) -> None:
    """Serialize a trace in format version 2.

    The 28-byte header is followed by every key as one C-ordered
    ``(layers, kv_heads, seq_len, head_dim)`` little-endian float32 block,
    then every value the same way. The bytes go to a new temporary file
    beside the destination, or beside a symlink's target, which
    ``os.replace`` then moves onto it. So the old file is never truncated: a
    trace mapped from it by ``read_trace`` keeps its values, and a write that
    fails part-way leaves the old file as it was and removes the temporary.
    """
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        trace.layers,
        trace.kv_heads,
        trace.head_dim,
        trace.seq_len,
        DTYPE_F32,
    )
    target = os.path.realpath(path)
    temporary = f"{target}.{os.urandom(6).hex()}.tmp"
    fh = open(temporary, "xb")
    try:
        with fh:
            fh.write(header)
            for block in (trace.keys, trace.values):
                fh.write(np.ascontiguousarray(block, dtype="<f4"))
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def read_trace(path) -> KVTrace:
    """Read a trace file, validating magic, version, dtype, and payload size.

    A regular file is mapped copy-on-write, not copied: ``keys`` and
    ``values`` are C-ordered, writeable, disjoint views of the mapping, and
    writes to them never reach the file. A pipe, or a file on a file system
    that cannot be mapped, is read into one new buffer. Version-1 files, K
    and V interleaved per layer, are split per layer, and ``KVTrace`` copies
    the halves of a multi-layer file to C order. Every header and size check
    runs before anything is mapped or allocated; a payload shorter or longer
    than the header implies raises :class:`TruncatedPayloadError`.
    Truncating the file in place while the result is alive is undefined
    (SIGBUS on Linux); ``write_trace`` never does so.
    """
    with open(path, "rb") as fh:
        raw_header = fh.read(_HEADER.size)
        if len(raw_header) < _HEADER.size:
            raise TruncatedPayloadError(f"{path}: file shorter than the fixed header")
        magic, version, layers, kv_heads, head_dim, seq_len, dtype = _HEADER.unpack(raw_header)
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}")
        if version not in (1, FORMAT_VERSION):
            raise TraceFormatError(f"{path}: unsupported version {version}")
        if dtype != DTYPE_F32:
            raise UnknownDtypeError(f"{path}: unknown dtype code {dtype}")
        count = layers * 2 * kv_heads * seq_len * head_dim
        expected = count * 4
        status = os.fstat(fh.fileno())
        regular = stat.S_ISREG(status.st_mode)
        if regular and status.st_size - _HEADER.size != expected:
            # checked before mapping or allocating, so a corrupt header cannot ask for huge arrays
            raise TruncatedPayloadError(
                f"{path}: payload holds {status.st_size - _HEADER.size} bytes, "
                f"header implies {expected}"
            )
        payload = _map_payload(fh, count) if regular else None
        if payload is None:
            payload = np.empty(count, dtype="<f4")
            if fh.readinto(payload) != expected:
                raise TruncatedPayloadError(
                    f"{path}: payload is shorter than the {expected} bytes the header implies"
                )
            if fh.read(1):
                raise TruncatedPayloadError(
                    f"{path}: payload is longer than the {expected} bytes the header implies"
                )
    if version == 1:
        pairs = payload.reshape(layers, 2, kv_heads, seq_len, head_dim)
        keys, values = pairs[:, 0], pairs[:, 1]
    else:
        keys, values = payload.reshape(2, layers, kv_heads, seq_len, head_dim)
    return KVTrace(keys=keys, values=values, provenance=str(path))


def _map_payload(fh, count: int):
    """The payload of an open trace file mapped copy-on-write, or None if it cannot be mapped."""
    try:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    except OSError:
        return None
    return np.frombuffer(mapped, dtype="<f4", count=count, offset=_HEADER.size)


_SYNTHETIC_KINDS = ("constant", "tone", "bandlimited", "noise", "mix")


def gen_synthetic(
    kind: str,
    *,
    layers: int,
    kv_heads: int,
    head_dim: int,
    seq_len: int,
    seed: int = 0,
    period: int | None = None,
    tone_order: int = 1,
    band_orders: int = 4,
    sigma: float = 1.0,
    value: float = 1.0,
) -> KVTrace:
    """Deterministic test-signal traces.

    Kinds:
      constant     every channel holds ``value`` at every position.
      tone         each channel carries one cosine of ``tone_order`` cycles per
                   ``period`` positions, with a seeded per-channel amplitude
                   and phase (in-band for any basis with more orders).
      bandlimited  seeded combination of all orders below ``band_orders``.
      noise        i.i.d. Gaussian with scale ``sigma``.
      mix          bandlimited plus noise.
    """
    if kind not in _SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; expected one of {_SYNTHETIC_KINDS}")
    if kind in ("tone", "bandlimited", "mix") and period is None:
        raise ValueError(f"kind {kind!r} requires a period")
    rng = np.random.default_rng(seed)
    shape = (layers, kv_heads, seq_len, head_dim)
    t = np.arange(seq_len, dtype=np.float64)

    def channel_field(builder):
        out = np.empty(shape, dtype=np.float64)
        for layer in range(layers):
            for head in range(kv_heads):
                for dim in range(head_dim):
                    out[layer, head, :, dim] = builder()
        return out

    def build(kind_):
        if kind_ == "constant":
            return np.full(shape, value, dtype=np.float64)
        if kind_ == "tone":
            def one_tone():
                amp = rng.uniform(0.5, 1.5)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                return amp * np.cos(2.0 * np.pi * tone_order * t / period + phase)
            return channel_field(one_tone)
        if kind_ == "bandlimited":
            def one_band():
                sig = np.zeros(seq_len)
                for n in range(band_orders):
                    sig += rng.standard_normal() * np.cos(2.0 * np.pi * n * t / period)
                    sig += rng.standard_normal() * np.sin(2.0 * np.pi * n * t / period)
                return sig / np.sqrt(band_orders)
            return channel_field(one_band)
        if kind_ == "noise":
            return sigma * rng.standard_normal(shape)
        return build("bandlimited") + sigma * rng.standard_normal(shape)

    # a noise scale past float32's range overflows to inf, which KVTrace rejects
    with np.errstate(over="ignore"):
        keys = build(kind).astype(np.float32)
        vals = build(kind).astype(np.float32)
    return KVTrace(keys=keys, values=vals, provenance=f"synthetic:{kind}:seed={seed}")


@dataclass(frozen=True)
class TinyModelConfig:
    """Geometry and seed for the tiny deterministic transformer.

    Each layer is a pre-norm block: grouped-query softmax attention, in which
    each position reads itself and the positions before it, with rotary keys
    and queries, then a SiLU MLP of width ``2 * model_dim``.
    """

    layers: int = 4
    heads: int = 4
    kv_heads: int = 2
    head_dim: int = 16
    vocab: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1 or self.kv_heads < 1:
            raise ValueError(f"heads and kv_heads must be >= 1, got {self.heads} and {self.kv_heads}")
        if self.head_dim < 2:
            raise ValueError(f"head_dim must be >= 2, got {self.head_dim}")
        if self.heads % self.kv_heads != 0:
            raise ValueError("heads must be a multiple of kv_heads")
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for rotary pairs")

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


def _orthogonal(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q if n_in >= n_out else q.T


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + 1e-6)


def _rotary(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate half-split pairs of the last axis by position-dependent angles."""
    dim = x.shape[-1]
    half = dim // 2
    inv_freq = 10000.0 ** (-np.arange(half) * 2.0 / dim)
    ang = positions[:, None] * inv_freq[None, :]  # (L, half)
    cos, sin = np.cos(ang), np.sin(ang)
    while cos.ndim < x.ndim:
        cos, sin = cos[:, None], sin[:, None]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def tiny_forward(config: TinyModelConfig, token_ids) -> KVTrace:
    """Run the tiny transformer and dump its per-layer KV cache.

    Keys are cached after rotary rotation, values straight after projection,
    mirroring where a decoder's cache sits. Deterministic per seed.
    ``token_ids`` are integers, numpy's too, not floats or bools.
    """
    tokens = np.asarray(token_ids)
    if tokens.ndim != 1 or tokens.size == 0 or tokens.dtype.kind not in "iu":
        raise ValueError(f"token_ids must be a non-empty 1-D sequence of integers, got {tokens!r}")
    tokens = tokens.astype(np.int64, copy=False)
    if tokens.min() < 0 or tokens.max() >= config.vocab:
        raise ValueError(f"token id out of vocab range [0, {config.vocab})")

    rng = np.random.default_rng(config.seed)
    dim, hd = config.model_dim, config.head_dim
    embed = rng.standard_normal((config.vocab, dim)) / np.sqrt(dim)
    layers = []
    for _ in range(config.layers):
        layers.append(
            {
                "wq": _orthogonal(rng, dim, config.heads * hd),
                "wk": _orthogonal(rng, dim, config.kv_heads * hd),
                "wv": _orthogonal(rng, dim, config.kv_heads * hd),
                "wo": _orthogonal(rng, config.heads * hd, dim),
                "w_up": _orthogonal(rng, dim, 2 * dim),
                "w_down": _orthogonal(rng, 2 * dim, dim),
            }
        )

    length = tokens.size
    positions = np.arange(length, dtype=np.float64)
    group = config.heads // config.kv_heads
    x = embed[tokens]
    keys_out = np.empty((config.layers, config.kv_heads, length, hd), dtype=np.float32)
    vals_out = np.empty_like(keys_out)
    future = np.triu(np.ones((length, length), dtype=bool), k=1)  # keys after each query

    for li, w in enumerate(layers):
        h = _rmsnorm(x)
        q = _rotary((h @ w["wq"]).reshape(length, config.heads, hd), positions)
        k = _rotary((h @ w["wk"]).reshape(length, config.kv_heads, hd), positions)
        v = (h @ w["wv"]).reshape(length, config.kv_heads, hd)
        keys_out[li] = k.transpose(1, 0, 2)
        vals_out[li] = v.transpose(1, 0, 2)

        attn = np.empty((length, config.heads, hd))
        for qh in range(config.heads):
            kv = qh // group
            scores = (q[:, qh] @ k[:, kv].T) / np.sqrt(hd)
            scores[future] = -np.inf
            scores -= scores.max(axis=1, keepdims=True)
            weights = np.exp(scores)
            weights /= weights.sum(axis=1, keepdims=True)
            attn[:, qh] = weights @ v[:, kv]
        x = x + attn.reshape(length, -1) @ w["wo"]

        up = _rmsnorm(x) @ w["w_up"]
        up = up / (1.0 + np.exp(-up))  # silu
        x = x + up @ w["w_down"]

    return KVTrace(
        keys=keys_out,
        values=vals_out,
        provenance=f"tiny:seed={config.seed}",
    )

"""Dense containers, deterministic RNG, the shared softmax exponential, and
the VLT1 binary tensor format.

Everything downstream works on two value types: a flat token matrix
(``M`` tokens by ``c`` channels) and the 4-axis latent tensor it is
flattened from. Both share one frozen base, which holds only the data,
an immutable float64 copy checked for finiteness, rank and extents >= 1,
so neither the numerical modules nor the loaders re-check them. Either
container, built from a fresh array of the package's own (an attention
output, a loaded file, a training batch), adopts it under the same
checks without a copy, through ``_adopt``.
``flatten``/``unflatten`` are the one definition of the token layout.
``_write_csv`` is the one writer of every CSV artifact.
``_exp_shifted`` is the one max-shifted exponential behind every exact
softmax in the package: the objective's column softmax and contrastive
rows, and ``attention_weights`` (the attention kernels shift their
scores inside the score product). ``_anchor_matrix`` is the one check of
an anchor set handed to attention or the quantization error.

All in-memory arithmetic is float64; the on-disk format stores float32.
The writers refuse, before opening a file, any record that the decoder's
check would reject; only the readers go on to cast the payload.
"""

from __future__ import annotations

import contextlib
import csv
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"VLT1"

# Refuse to allocate for absurd headers (product of extents) before touching
# the payload; also bounds each extent read from disk.
MAX_ELEMENTS = 1 << 32

# entries per chunk of a container's finiteness check: one reused 64 KiB
# mask, which stays in cache, not a boolean copy an eighth the array's size
_FINITE_CHUNK = 1 << 16


class AnchorKitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(AnchorKitError):
    """A shape, extent, or axis-length contract was violated."""


class ConfigError(AnchorKitError):
    """A configuration value is outside its legal range."""


class NumericalError(AnchorKitError):
    """Non-finite values where finite ones are required."""


class FormatError(AnchorKitError):
    """Base class for tensor-file decode failures."""


class BadMagicError(FormatError):
    """File does not start with the VLT1 magic bytes."""


class TruncatedPayloadError(FormatError):
    """File ends before the declared header or payload is complete."""


class ExtentOverflowError(FormatError):
    """Declared extents exceed the supported element budget."""


class ZeroExtentError(FormatError, DimensionError):
    """Header declares an axis of length zero."""


def seeded_rng(*words: int) -> np.random.Generator:
    """Return a PCG64 generator seeded by one or more non-negative integers.

    PCG64 produces a bit-identical stream for given seed words across runs
    and platforms, which all reproducibility contracts in this package
    rely on. One word gives the same stream as that integer alone.
    """
    if not words or min(words) < 0:
        raise ConfigError(f"seeds must be one or more integers >= 0, got {words}")
    return np.random.Generator(np.random.PCG64([int(w) for w in words]))


def _write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, to ``path`` as CSV with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _exp_shifted(x: np.ndarray, axis: int, out: np.ndarray, shift=None) -> np.ndarray:
    """exp(x - shift) into ``out``, which may be ``x``; returns the shift.

    ``shift`` defaults to the max along ``axis``; a caller that sees ``x``
    in blocks passes the max over all of them.
    """
    if shift is None:
        shift = x.max(axis=axis, keepdims=True)
    np.exp(np.subtract(x, shift, out=out), out=out)
    return shift


def _anchor_matrix(anchors, channels: int) -> np.ndarray:
    """``anchors`` as a float64 (n >= 1, ``channels``) matrix of finite rows."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1 or anchors.shape[1] != channels:
        raise DimensionError(f"anchors must be (n >= 1, {channels}), got {anchors.shape}")
    if not np.isfinite(anchors).all():
        raise NumericalError("anchors contain non-finite entries")
    return anchors


@dataclass(frozen=True)
class _Container:
    """One read-only float64 array, ``data``: finite, every extent >= 1, and
    of the rank ``_rank`` of the subclass, which names it ``_name``.

    The constructor holds a C-ordered copy of what it is given; ``_adopt``
    holds a fresh C-ordered float64 array (or a view of a buffer) that
    nothing else holds, under the same checks but without a copy.
    """

    data: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.data, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray):
        held = object.__new__(cls)
        held._hold(arr)
        return held

    def _hold(self, arr: np.ndarray) -> None:
        flat = arr.reshape(-1)
        mask = np.empty(min(flat.size, _FINITE_CHUNK), dtype=bool)
        for start in range(0, flat.size, _FINITE_CHUNK):
            part = flat[start : start + _FINITE_CHUNK]
            if not np.isfinite(part, out=mask[: part.size]).all():
                raise NumericalError(f"{self._name} contains non-finite entries")
        if arr.ndim != self._rank:
            raise DimensionError(f"{self._name} must be rank {self._rank}, got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"{self._name} extents must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class TokenMatrix(_Container):
    """Immutable ``M x c`` matrix of token feature rows; ``data`` is all it holds.

    Row ordering is frame-major, then row-major within each frame:
    token ``m`` for frame ``f``, grid row ``y``, grid column ``x`` sits at
    ``m = f*(h*w) + y*w + x``. :func:`flatten` and :func:`unflatten` are
    the one definition of this layout.
    """

    _name = "token matrix"
    _rank = 2

    @property
    def num_tokens(self) -> int:
        return self.data.shape[0]

    @property
    def num_channels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LatentTensor(_Container):
    """Immutable 4-axis latent block: frames x channels x height x width."""

    _name = "latent tensor"
    _rank = 4


def flatten(latent: LatentTensor) -> TokenMatrix:
    """Reshape a latent tensor into its token matrix.

    Output row ``f*(h*w) + y*w + x`` holds the channel vector at frame
    ``f``, grid position ``(y, x)``. Exact inverse of :func:`unflatten`.
    """
    c = latent.data.shape[1]
    data = latent.data.transpose(0, 2, 3, 1).reshape(-1, c)
    # with one channel or a 1x1 grid the reshape is a view of the latent's buffer
    if np.shares_memory(data, latent.data):
        data = data.copy()
    return TokenMatrix._adopt(data)


def unflatten(tokens: TokenMatrix, frames: int, height: int, width: int) -> LatentTensor:
    """Rebuild the 4-axis tensor for a token matrix; inverse of :func:`flatten`."""
    expected = frames * height * width
    if tokens.num_tokens != expected:
        raise DimensionError(
            f"shape ({frames}, {height}, {width}) implies {expected} tokens, "
            f"matrix has {tokens.num_tokens}"
        )
    return LatentTensor(tokens.data.reshape(frames, height, width, -1).transpose(0, 3, 1, 2))


def _encode_array(arr: np.ndarray) -> bytes:
    """Serialize one array as a VLT1 record.

    Layout, all little-endian: magic ``VLT1``; u32 rank; rank u32 extents;
    float32 payload in row-major order.
    """
    shape = arr.shape
    header = MAGIC + struct.pack("<I", len(shape))
    header += struct.pack(f"<{len(shape)}I", *shape)
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return header + payload


def _check_record(buf: bytes, offset: int) -> tuple[tuple[int, ...], np.ndarray, int]:
    """The VLT1 record at ``offset`` as (shape, flat float32 payload view, next offset).

    Bad bytes, including a non-finite payload value, raise FormatError.
    """
    if len(buf) < offset + 4 and MAGIC.startswith(buf[offset:]):
        raise TruncatedPayloadError("file ends inside the magic bytes")
    if buf[offset : offset + 4] != MAGIC:
        raise BadMagicError(f"expected magic {MAGIC!r} at offset {offset}")
    offset += 4
    if len(buf) < offset + 4:
        raise TruncatedPayloadError("file ends inside the rank field")
    (rank,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if rank < 1 or rank > 8:
        raise ExtentOverflowError(f"unsupported rank {rank}")
    if len(buf) < offset + 4 * rank:
        raise TruncatedPayloadError("file ends inside the extent list")
    shape = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    if any(e == 0 for e in shape):
        raise ZeroExtentError(f"zero extent in header: {shape}")
    count = 1
    for e in shape:
        count *= e
        if count > MAX_ELEMENTS:
            raise ExtentOverflowError(f"extents {shape} exceed element budget")
    nbytes = 4 * count
    if len(buf) < offset + nbytes:
        raise TruncatedPayloadError(
            f"payload needs {nbytes} bytes, {len(buf) - offset} remain"
        )
    flat = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    if not np.isfinite(flat).all():  # checked before the cast, which warns on a signalling NaN
        raise FormatError(f"non-finite values in the payload at offset {offset}")
    return shape, flat, offset + nbytes


def _decode_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    """One VLT1 record at ``offset`` as (finite float64 array, next offset)."""
    shape, flat, end = _check_record(buf, offset)
    return flat.reshape(shape).astype(np.float64), end


@contextlib.contextmanager
def _naming(verb: str, path):
    """Re-raise a refusal (a FormatError or DimensionError) as ``cannot VERB PATH: reason``."""
    try:
        yield
    except (FormatError, DimensionError) as exc:
        raise type(exc)(f"cannot {verb} {path}: {exc}") from None


def _checked_record(path, arr) -> bytes:
    """``arr``'s VLT1 record; one that :func:`_check_record` rejects raises, naming ``path``."""
    with np.errstate(over="ignore"), _naming("write", path):  # float32 overflow: inf, refused
        record = _encode_array(np.asarray(arr))
        _check_record(record, 0)
    return record


def save_array(path, arr: np.ndarray) -> None:
    """Write one array to ``path`` in the VLT1 format (float32 payload)."""
    record = _checked_record(path, arr)
    with open(path, "wb") as fh:
        fh.write(record)


def load_array(path) -> np.ndarray:
    """Read exactly one VLT1 record from ``path``; returns float64 data."""
    with open(path, "rb") as fh, _naming("read", path):
        buf = fh.read()
        arr, end = _decode_array(buf, 0)
        if end != len(buf):
            raise FormatError(f"{len(buf) - end} trailing bytes after tensor payload")
    return arr


def save_tokens(path, tokens: TokenMatrix) -> None:
    save_array(path, tokens.data)


def load_tokens(path) -> TokenMatrix:
    arr = load_array(path)
    with _naming("read", path):  # a file of another rank
        return TokenMatrix._adopt(arr)


def save_latent(path, latent: LatentTensor) -> None:
    save_array(path, latent.data)


def load_latent(path) -> LatentTensor:
    arr = load_array(path)
    with _naming("read", path):  # a file of another rank
        return LatentTensor._adopt(arr)

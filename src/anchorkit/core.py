"""Dense containers, deterministic RNG, the shared softmax exponential, and
the VLT1 binary tensor format.

Everything downstream works on two value types: a flat token matrix
(``M`` tokens by ``c`` channels) and the 4-axis latent tensor it is
flattened from. Each holds only its data, an immutable float64 copy that
``_as_owned_f64`` checks for finiteness, rank and extents >= 1, so
neither the numerical modules nor the loaders re-check them.
``flatten``/``unflatten`` are the one definition of the token layout.
``_exp_shifted`` is the one max-shifted exponential behind every softmax
in the package: the objective's column softmax and contrastive rows, and
the attention scores. ``_anchor_matrix`` is the one check of an anchor
set handed to attention or the quantization error.

All in-memory arithmetic is float64; the on-disk format stores float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"VLT1"

# Refuse to allocate for absurd headers (product of extents) before touching
# the payload; also bounds each extent read from disk.
MAX_ELEMENTS = 1 << 32


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


def _exp_shifted(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """exp(x - max along ``axis``) into ``out``, which may be ``x``; returns the max."""
    shift = x.max(axis=axis, keepdims=True)
    np.exp(np.subtract(x, shift, out=out), out=out)
    return shift


def _as_owned_f64(data, name: str, ndim: int) -> np.ndarray:
    """A frozen float64 copy of ``data``: finite, rank ``ndim``, every extent >= 1."""
    arr = np.array(data, dtype=np.float64, order="C")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name} contains non-finite entries")
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be rank {ndim}, got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise DimensionError(f"{name} extents must be >= 1, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _anchor_matrix(anchors, channels: int) -> np.ndarray:
    """``anchors`` as a float64 (n >= 1, ``channels``) matrix of finite rows."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1 or anchors.shape[1] != channels:
        raise DimensionError(f"anchors must be (n >= 1, {channels}), got {anchors.shape}")
    if not np.isfinite(anchors).all():
        raise NumericalError("anchors contain non-finite entries")
    return anchors


@dataclass(frozen=True)
class TokenMatrix:
    """Immutable ``M x c`` matrix of token feature rows; ``data`` is all it holds.

    Row ordering is frame-major, then row-major within each frame:
    token ``m`` for frame ``f``, grid row ``y``, grid column ``x`` sits at
    ``m = f*(h*w) + y*w + x``. :func:`flatten` and :func:`unflatten` are
    the one definition of this layout.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_owned_f64(self.data, "token matrix", 2))

    @property
    def num_tokens(self) -> int:
        return self.data.shape[0]

    @property
    def num_channels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LatentTensor:
    """Immutable 4-axis latent block: frames x channels x height x width."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_owned_f64(self.data, "latent tensor", 4))


def flatten(latent: LatentTensor) -> TokenMatrix:
    """Reshape a latent tensor into its token matrix.

    Output row ``f*(h*w) + y*w + x`` holds the channel vector at frame
    ``f``, grid position ``(y, x)``. Exact inverse of :func:`unflatten`.
    """
    c = latent.data.shape[1]
    return TokenMatrix(latent.data.transpose(0, 2, 3, 1).reshape(-1, c))


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


def _decode_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    """One VLT1 record at ``offset`` as (finite array, next offset); bad bytes raise FormatError."""
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
    arr = flat.reshape(shape).astype(np.float64)
    return arr, offset + nbytes


def save_array(path, arr: np.ndarray) -> None:
    """Write one array to ``path`` in the VLT1 format (float32 payload)."""
    with open(path, "wb") as fh:
        fh.write(_encode_array(np.asarray(arr)))


def load_array(path) -> np.ndarray:
    """Read exactly one VLT1 record from ``path``; returns float64 data."""
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = _decode_array(buf, 0)
    if end != len(buf):
        raise FormatError(f"{len(buf) - end} trailing bytes after tensor payload")
    return arr


def save_tokens(path, tokens: TokenMatrix) -> None:
    save_array(path, tokens.data)


def load_tokens(path) -> TokenMatrix:
    return TokenMatrix(load_array(path))


def save_latent(path, latent: LatentTensor) -> None:
    save_array(path, latent.data)


def load_latent(path) -> LatentTensor:
    return LatentTensor(load_array(path))

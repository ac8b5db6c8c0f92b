"""Dense containers, deterministic RNG, and the VLT1 binary tensor format.

Everything downstream works on two value types: a flat token matrix
(``M`` tokens by ``c`` channels) and the 4-axis latent tensor it is
flattened from. Both are immutable after construction and validate their
own invariants, so the numerical modules never re-check shapes or
finiteness.

All in-memory arithmetic is float64; the on-disk format stores float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

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


def seeded_rng(seed: int) -> np.random.Generator:
    """Return a PCG64 generator for ``seed``.

    PCG64 produces a bit-identical stream for a given seed across runs
    and platforms, which all reproducibility contracts in this package
    rely on.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def _as_owned_f64(data, name: str) -> np.ndarray:
    arr = np.array(data, dtype=np.float64, order="C")
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Provenance:
    """Original 4-axis shape a token matrix was flattened from."""

    frames: int
    height: int
    width: int

    def __post_init__(self):
        for field in ("frames", "height", "width"):
            if getattr(self, field) < 1:
                raise DimensionError(f"provenance {field} must be >= 1")

    @property
    def num_tokens(self) -> int:
        return self.frames * self.height * self.width


@dataclass(frozen=True)
class TokenMatrix:
    """Immutable ``M x c`` matrix of token feature rows.

    Row ordering is frame-major, then row-major within each frame:
    token ``m`` for frame ``f``, grid row ``y``, grid column ``x`` sits at
    ``m = f*(h*w) + y*w + x``.
    """

    data: np.ndarray
    provenance: Optional[Provenance] = None

    def __post_init__(self):
        arr = _as_owned_f64(self.data, "token matrix")
        if arr.ndim != 2:
            raise DimensionError(f"token matrix must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"token matrix extents must be >= 1, got {arr.shape}")
        if self.provenance is not None and self.provenance.num_tokens != arr.shape[0]:
            raise DimensionError(
                f"provenance implies {self.provenance.num_tokens} tokens, "
                f"matrix has {arr.shape[0]}"
            )
        object.__setattr__(self, "data", arr)

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
        arr = _as_owned_f64(self.data, "latent tensor")
        if arr.ndim != 4:
            raise DimensionError(f"latent tensor must be 4-D, got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise DimensionError(f"latent extents must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def width(self) -> int:
        return self.data.shape[3]


def flatten(latent: LatentTensor) -> TokenMatrix:
    """Reshape a latent tensor into its token matrix.

    Output row ``f*(h*w) + y*w + x`` holds the channel vector at frame
    ``f``, grid position ``(y, x)``. Exact inverse of :func:`unflatten`.
    """
    l, c, h, w = latent.data.shape
    tokens = latent.data.transpose(0, 2, 3, 1).reshape(l * h * w, c)
    return TokenMatrix(tokens, Provenance(l, h, w))


def unflatten(tokens: TokenMatrix, frames: int, height: int, width: int) -> LatentTensor:
    """Rebuild the 4-axis tensor for a token matrix; inverse of :func:`flatten`."""
    expected = frames * height * width
    if tokens.num_tokens != expected:
        raise DimensionError(
            f"shape ({frames}, {height}, {width}) implies {expected} tokens, "
            f"matrix has {tokens.num_tokens}"
        )
    c = tokens.num_channels
    cube = tokens.data.reshape(frames, height, width, c).transpose(0, 3, 1, 2)
    return LatentTensor(cube)


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
    """Decode one VLT1 record starting at ``offset``; returns (array, next offset)."""
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
        raise DimensionError(f"zero extent in header: {shape}")
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
    flat = np.frombuffer(buf[offset : offset + nbytes], dtype="<f4")
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
    arr = load_array(path)
    if arr.ndim != 2:
        raise DimensionError(f"expected a rank-2 tensor, file holds rank {arr.ndim}")
    return TokenMatrix(arr)


def save_latent(path, latent: LatentTensor) -> None:
    save_array(path, latent.data)


def load_latent(path) -> LatentTensor:
    arr = load_array(path)
    if arr.ndim != 4:
        raise DimensionError(f"expected a rank-4 tensor, file holds rank {arr.ndim}")
    return LatentTensor(arr)

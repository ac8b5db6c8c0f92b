"""Cross-frame attention kernels and their cost model.

Two single-head kernels share one scaled-dot-product core: the full
quadratic baseline (keys and values from all tokens) and the compressed
variant where keys and values come from a small anchor set while queries
still come from every token. The exact multiply-accumulate counts of both
are exposed so benchmarks can report measured time against predicted
work.

The core walks the queries in row tiles whose scores fit in one reused
buffer of about ``_TILE_BYTES``, so a call holds one score tile plus
O(M*d) memory for its projections and output, never the M x N score
matrix. Each tile is normalised after the value product, which divides
M*d entries instead of M*N, and its output overwrites its query rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, DimensionError, LatentTensor, NumericalError, TokenMatrix, seeded_rng

# bytes of the one score buffer a call reuses for every row tile: big
# enough for efficient matrix products (128 rows at 8192 keys), small
# enough that the max, exp and sum passes stay in cache, not main memory
_TILE_BYTES = 8 * 2**20


@dataclass(frozen=True)
class AttentionProjection:
    w_query: np.ndarray  # (c, d)
    w_key: np.ndarray
    w_value: np.ndarray

    def __post_init__(self):
        shapes = {a.shape for a in (self.w_query, self.w_key, self.w_value)}
        if len(shapes) != 1 or self.w_query.ndim != 2:
            raise DimensionError("projection matrices must share one (c, d) shape")
        for arr in (self.w_query, self.w_key, self.w_value):
            if not np.isfinite(arr).all():
                raise DimensionError("projection matrices must be finite")

    @property
    def input_dim(self) -> int:
        return self.w_query.shape[0]

    @property
    def proj_dim(self) -> int:
        return self.w_query.shape[1]


def init_projection(input_dim: int, proj_dim: int, seed: int = 0) -> AttentionProjection:
    """Seeded Xavier-uniform query/key/value projections."""
    if input_dim < 1 or proj_dim < 1:
        raise ConfigError("projection dims must be >= 1")
    rng = seeded_rng(seed)
    bound = np.sqrt(6.0 / (input_dim + proj_dim))
    mats = [rng.uniform(-bound, bound, size=(input_dim, proj_dim)) for _ in range(3)]
    return AttentionProjection(*mats)


def align(latent: LatentTensor) -> np.ndarray:
    """Spatial-major view for cross-frame attention: (h*w, frames, channels).

    Pure permutation: output[p][f][ch] = input[f][ch][p // w][p % w].
    """
    l, c, h, w = latent.data.shape
    return latent.data.transpose(2, 3, 0, 1).reshape(h * w, l, c)


def unalign(aligned: np.ndarray, height: int, width: int) -> LatentTensor:
    """Inverse of :func:`align`."""
    aligned = np.asarray(aligned, dtype=np.float64)
    if aligned.ndim != 3 or aligned.shape[0] != height * width:
        raise DimensionError(
            f"aligned block must be ({height * width}, frames, channels), got {aligned.shape}"
        )
    hw, l, c = aligned.shape
    return LatentTensor(aligned.reshape(height, width, l, c).transpose(2, 3, 0, 1))


def _exp_shifted(scores: np.ndarray) -> np.ndarray:
    """exp(scores - row max) in place: unnormalised softmax rows."""
    scores -= scores.max(axis=1, keepdims=True)
    return np.exp(scores, out=scores)


def attention_weights(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row-stochastic weights softmax(Q K^T / sqrt(d)), max-subtracted."""
    weights = _exp_shifted((queries / np.sqrt(queries.shape[1])) @ keys.T)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def _attend(queries: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V, one row tile at a time.

    Works in the buffer of ``queries``, so callers pass a fresh projection:
    it is scaled in place, and each tile's output rows overwrite the query
    rows they were computed from. Values must have the queries' width.
    """
    m, n = queries.shape[0], keys.shape[0]
    queries /= np.sqrt(queries.shape[1])
    rows = max(1, _TILE_BYTES // (8 * n))
    scores = np.empty((min(rows, m), n))
    for start in range(0, m, rows):
        tile = slice(start, start + rows)
        weights = scores[: min(rows, m - start)]
        _exp_shifted(np.matmul(queries[tile], keys.T, out=weights))
        np.matmul(weights, values, out=queries[tile])
        queries[tile] /= weights.sum(axis=1, keepdims=True)
    return queries


def full_attention(tokens: TokenMatrix, proj: AttentionProjection) -> TokenMatrix:
    """Quadratic baseline: queries, keys and values all from the tokens."""
    if tokens.num_channels != proj.input_dim:
        raise DimensionError(
            f"projection expects {proj.input_dim} channels, got {tokens.num_channels}"
        )
    z = tokens.data
    out = _attend(z @ proj.w_query, z @ proj.w_key, z @ proj.w_value)
    return TokenMatrix(out)


def anchor_attention(
    tokens: TokenMatrix, anchors: np.ndarray, proj: AttentionProjection
) -> TokenMatrix:
    """Compressed kernel: queries from tokens, keys/values from anchors.

    Cost is linear in the token count at a fixed anchor count, which is
    the whole point of compressing the latents first.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if tokens.num_channels != proj.input_dim:
        raise DimensionError(
            f"projection expects {proj.input_dim} channels, got {tokens.num_channels}"
        )
    if anchors.ndim != 2 or anchors.shape[0] < 1 or anchors.shape[1] != tokens.num_channels:
        raise DimensionError(
            f"anchors must be (n >= 1, {tokens.num_channels}), got {anchors.shape}"
        )
    if not np.isfinite(anchors).all():
        raise NumericalError("anchors contain non-finite entries")
    out = _attend(tokens.data @ proj.w_query, anchors @ proj.w_key, anchors @ proj.w_value)
    return TokenMatrix(out)


def flop_count(
    n_tokens: int,
    n_anchors: int,
    channels: int,
    proj_dim: int,
    mode: str,
    hidden_dims: Sequence[int] = (),
) -> int:
    """Multiply-accumulate count of each kernel as implemented.

    Closed forms (M tokens, A anchors, c channels, d projected dims):

    * ``full``:   3*M*c*d projections + M*M*d scores + M*M*d mixing
    * ``anchor``: M*c*d + 2*A*c*d projections + M*A*d scores + M*A*d mixing
    * ``fphi``:   M * sum of consecutive width products through the
      assignment MLP (c -> hidden ... -> A), the linear-in-M side cost of
      producing assignments.

    Softmax exponentials are not multiply-accumulates and are excluded.
    """
    m, a, c, d = int(n_tokens), int(n_anchors), int(channels), int(proj_dim)
    if min(m, a, c, d) < 1:
        raise ConfigError("all extents must be >= 1")
    if mode == "full":
        return 3 * m * c * d + 2 * m * m * d
    if mode == "anchor":
        return m * c * d + 2 * a * c * d + 2 * m * a * d
    if mode == "fphi":
        widths = [c, *[int(hd) for hd in hidden_dims], a]
        return m * sum(w0 * w1 for w0, w1 in zip(widths[:-1], widths[1:]))
    raise ConfigError(f"unknown mode {mode!r}")

"""Cross-frame attention kernels and their cost model.

Two single-head kernels share one body, which checks the projection
width, projects queries, keys and values, and runs the scaled-dot-product
core: the full quadratic baseline (keys and values from all tokens) and
the compressed variant where keys and values come from a small anchor set
while queries still come from every token. Only the anchor kernel checks
its anchors. The exact multiply-accumulate counts of both are exposed so
benchmarks can report measured time against predicted work. ``align``
and ``unalign`` regroup a latent per spatial position for cross-frame
attention through ``core.flatten``/``unflatten``.

The core walks tiles of at most ``_TILE_ROWS`` query rows by
``_KEY_BLOCK`` keys in one reused score buffer, so a call holds one score
tile plus O(M*d) memory for its projections and output, never the M x N
score matrix; query and key norms are taken a row tile at a time too.
The projections are written into buffers one column (values: one
row) wider than d, and that extra line folds the softmax into the two
matrix products: the queries carry the Cauchy-Schwarz bound
|q_i| max_j |k_j| on their row's scores and the keys -1, so the score
product yields each score minus a bound it cannot exceed; the values carry
1, so the value product also yields each row's weight sum. A tile thus
costs two products and one ``np.exp``, with no max, subtract or sum pass.
Because each row's shift is fixed before any key is read, the weight sums
and mixed values of a row tile's key blocks simply add, with none of the
rescaling an online softmax needs when its running max moves. A row whose
sum underflows, because its bound sat hundreds of units above its largest
score, reruns the same key-block loop with its exact row max, found in
one more pass over the key blocks, in place of the bound. Each row tile
is normalised after its last key block, which divides M*d entries
instead of M*N, into the query rows it has read, packed d wide, so the
returned ``TokenMatrix`` holds the output without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, DimensionError, LatentTensor, NumericalError, TokenMatrix
from .core import _anchor_matrix, _exp_shifted, flatten, seeded_rng, unflatten

# query rows per score tile: tall enough that each key block is packed for
# the matrix products once per 512 rows, short enough that a tile over 512
# anchors is 2 MiB
_TILE_ROWS = 512

# keys per score tile: 512 rows by 2048 keys is one 8 MiB buffer, big
# enough for efficient matrix products, small enough for the exp pass
_KEY_BLOCK = 2048

# a row's weight sum below this (or NaN) reruns it with its exact row max;
# it is a normal float64, so a sum above it kept its row's mass
_TINY_SUM = 2.0**-900


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
                raise NumericalError("projection matrices must be finite")

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
    """Spatial-major read-only view for cross-frame attention: (h*w, frames, channels).

    Pure permutation: output[p][f][ch] = input[f][ch][p // w][p % w].
    """
    l, c, h, w = latent.data.shape
    return flatten(latent).data.reshape(l, h * w, c).swapaxes(0, 1)


def unalign(aligned: np.ndarray, height: int, width: int) -> LatentTensor:
    """Inverse of :func:`align`."""
    aligned = np.asarray(aligned, dtype=np.float64)
    if aligned.ndim != 3:
        raise DimensionError(f"aligned block must be rank 3, got shape {aligned.shape}")
    hw, l, c = aligned.shape
    return unflatten(TokenMatrix(aligned.swapaxes(0, 1).reshape(l * hw, c)), l, height, width)


def attention_weights(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row-stochastic weights softmax(Q K^T / sqrt(d)), max-subtracted."""
    weights = (queries / np.sqrt(queries.shape[1])) @ keys.T
    _exp_shifted(weights, 1, weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def _attend(queries: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V, one (query rows x key block) tile at a time.

    Takes (m, d+1) queries and (n, d+1) keys whose first d columns hold
    the projections, and (d+1, n) values whose first d rows hold the
    projected values transposed, so each key block's values are a column
    slice. The last query and key column and the last value row are free;
    this fills them so one product gives each score minus a bound on its
    row, and the other gives each row's weight sum under its mixed values.
    Works in the buffer of ``queries``, so callers pass a fresh
    projection; the result is a C-ordered (m, d) view of its leading m*d
    entries.
    """
    m, n = queries.shape[0], keys.shape[0]
    d = queries.shape[1] - 1
    width, rows = min(n, _KEY_BLOCK), min(m, _TILE_ROWS)
    # Cauchy-Schwarz: |q_i| max_j |k_j| bounds every score in row i, so
    # q.k - shift never overflows exp; a tile's norms square only its rows
    key_bound = max(np.linalg.norm(keys[b : b + _TILE_ROWS, :d], axis=1).max()
                    for b in range(0, n, _TILE_ROWS))
    keys[:, d] = -1.0
    values[d] = 1.0
    blocks = [slice(b, b + width) for b in range(0, n, width)]
    scores = np.empty((rows, width))
    sums, part = np.empty((2, d + 1, rows))
    # the output's m*d entries lead the queries' m*(d+1): a tile's output
    # rows end where its query rows end, so they overwrite only query rows
    # already read, and no (m, d) buffer lives next to the score tile
    out = queries.reshape(-1)[: m * d].reshape(m, d)
    for start in range(0, m, rows):
        tile = queries[start : start + rows]
        tile[:, :d] /= np.sqrt(d)
        np.multiply(np.linalg.norm(tile[:, :d], axis=1), key_bound, out=tile[:, d])
        acc = _block_sums(tile, keys, values, blocks, scores, part, sums[:, : len(tile)])
        # rows whose bound sat so far above their largest score that the
        # weights underflowed: rerun them shifted by their exact row max
        low = np.flatnonzero(~(acc[d] >= _TINY_SUM))
        if low.size:
            exact = tile[low]
            exact[:, d] = 0.0
            exact[:, d] = _row_max(exact, keys, blocks, scores)
            acc[:, low] = _block_sums(
                exact, keys, values, blocks, scores, part, np.empty((d + 1, low.size)))
        np.divide(acc[:d].T, acc[d, :, None], out=out[start : start + len(tile)])
    return out


def _block_sums(queries, keys, values, blocks, scores, part, out) -> np.ndarray:
    """(d+1, rows) mixed values and weight sums of ``queries`` into ``out``: each key
    block's shifted scores are exponentiated in ``scores``, mixed into ``part``."""
    out.fill(0.0)
    for block in blocks:
        weights = scores[: len(queries), : len(keys[block])]
        np.exp(np.matmul(queries, keys[block].T, out=weights), out=weights)
        out += np.matmul(values[:, block], weights.T, out=part[:, : len(queries)])
    return out


def _row_max(queries, keys, blocks, scores) -> np.ndarray:
    """Each row's largest score over all key blocks, one block at a time in ``scores``."""
    best = np.full(len(queries), -np.inf)
    for block in blocks:
        tile = np.matmul(queries, keys[block].T, out=scores[: len(queries), : len(keys[block])])
        np.maximum(best, tile.max(axis=1), out=best)
    return best


def _qkv_attend(tokens: TokenMatrix, kv: np.ndarray, proj: AttentionProjection) -> TokenMatrix:
    """Width-checked attention: queries from ``tokens``, keys and values from rows of ``kv``."""
    if tokens.num_channels != proj.input_dim:
        raise DimensionError(
            f"projection expects {proj.input_dim} channels, got {tokens.num_channels}"
        )
    d = proj.proj_dim
    queries, keys = (np.empty((x.shape[0], d + 1)) for x in (tokens.data, kv))
    np.matmul(tokens.data, proj.w_query, out=queries[:, :d])
    np.matmul(kv, proj.w_key, out=keys[:, :d])
    values = np.empty((d + 1, kv.shape[0]))
    np.matmul(proj.w_value.T, kv.T, out=values[:d])
    return TokenMatrix._adopt(_attend(queries, keys, values))


def full_attention(tokens: TokenMatrix, proj: AttentionProjection) -> TokenMatrix:
    """Quadratic baseline: queries, keys and values all from the tokens."""
    return _qkv_attend(tokens, tokens.data, proj)


def anchor_attention(
    tokens: TokenMatrix, anchors: np.ndarray, proj: AttentionProjection
) -> TokenMatrix:
    """Compressed kernel: queries from tokens, keys/values from anchors.

    Cost is linear in the token count at a fixed anchor count, which is
    the whole point of compressing the latents first.
    """
    return _qkv_attend(tokens, _anchor_matrix(anchors, tokens.num_channels), proj)


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

    * ``full``:   3*M*c*d projections + M*M*(d+1) scores + M*M*(d+1) mixing
    * ``anchor``: M*c*d + 2*A*c*d projections + M*A*(d+1) scores
      + M*A*(d+1) mixing
    * ``fphi``:   M * sum of consecutive width products through the
      assignment MLP (c -> hidden ... -> A), the linear-in-M side cost of
      producing assignments.

    The score and mixing products are d+1 wide: the extra column carries
    each row's softmax shift into the scores and its weight sum out of the
    mixing. Softmax exponentials are not multiply-accumulates and are
    excluded, as are the rows that underflow and are recomputed exactly.
    """
    m, a, c, d = int(n_tokens), int(n_anchors), int(channels), int(proj_dim)
    if min(m, a, c, d) < 1:
        raise ConfigError("all extents must be >= 1")
    if mode == "full":
        return 3 * m * c * d + 2 * m * m * (d + 1)
    if mode == "anchor":
        return m * c * d + 2 * a * c * d + 2 * m * a * (d + 1)
    if mode == "fphi":
        widths = [c, *[int(hd) for hd in hidden_dims], a]
        return m * sum(w0 * w1 for w0, w1 in zip(widths[:-1], widths[1:]))
    raise ConfigError(f"unknown mode {mode!r}")

"""Anchor-compression objective: soft assignment, pooling, and all loss terms.

Each token gets a categorical distribution over anchors (a column-wise
softmax of the network logits); anchors are responsibility-weighted sums
of the tokens. Training balances two forces:

* a top-k contrastive term that pulls every anchor toward the tokens most
  responsible for it and away from the rest, and
* a divergence penalty that keeps assignments from collapsing onto a few
  anchors (categorical-to-uniform by default, or a Gaussian
  moment-matching variant for ablations); a zero weight turns it off.

Every loss term takes the assignments, never the logits, and has one
private kernel that shares its work between the value and the gradient;
``total_loss`` pools the anchors once and runs each kernel once per step.
The contrastive and KL terms are also public ``*_value_and_grad``
functions, which pool the anchors themselves if they need them.
``contrastive_loss``, ``contrastive_grad``, ``kl_uniform`` and
``kl_uniform_grad`` return one half of such a call. With the categorical
prior ``total_loss`` holds one (n_anchors, M) gradient buffer beyond the
assignments: the KL term's value sweep, the contrastive term and the KL
gradient's sweep all work in it. The Gaussian prior keeps a second one,
its own gradient. The matrix products fill whole buffers; the
elementwise passes between them, the top-k partition and mask (never an
(n_anchors, M) one) and the softmax backward walk the anchors in the row
tiles of :func:`_row_tiles`, so a tile stays in cache between passes.
Every result is bit-identical to whole-matrix passes: each reduction
runs along a row, except the softmax backward's column sums, which carry
their running sums from tile to tile in the row order of numpy's own
axis-0 sum, and the KL value, one sum over the whole buffer. No public
function writes its arguments, except an ``out`` array handed to
``soft_assign`` or ``total_loss``.

All gradients here are with respect to the logits; callers chain them
into network parameters with ``assignnet.backward``. Every gradient is an
exact derivative of the corresponding value as implemented, with one
documented exception: the top-k positive sets are treated as constant
under differentiation (selection is piecewise constant in the logits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, DimensionError, NumericalError, TokenMatrix, _exp_shifted

PRIOR_MODES = ("categorical", "gaussian")

# responsibility mass below which an anchor is treated as unused
DEGENERATE_MASS = 1e-12
# added to cosine-similarity denominators so zero-norm inputs stay finite
SIM_EPSILON = 1e-8
# lower bound on the Gaussian prior's per-anchor variances
VARIANCE_FLOOR = 1e-6

# bytes of one row tile of an (n_anchors, M) array in the elementwise passes:
# a tile and its few companions fit one core's L2 cache (2 MiB), so a tile
# stays in cache from one pass to the next instead of going back to memory
_TILE_BYTES = 512 * 2**10


def _row_tiles(shape: tuple[int, int], *dtypes):
    """Walk the rows of a float64 ``shape`` array in tiles of at most
    ``_TILE_BYTES`` (at least one row), in order: yield each tile's row
    slice, then, per entry of ``dtypes``, a view cut to the tile's rows of
    one buffer of that dtype that every tile reuses."""
    n, m = shape
    rows = min(n, max(1, _TILE_BYTES // (8 * m)))
    buffers = [np.empty((rows, m), dtype=dtype) for dtype in dtypes]
    for start in range(0, n, rows):
        yield (slice(start, start + rows), *(b[: min(rows, n - start)] for b in buffers))


@dataclass(frozen=True)
class AnchorConfig:
    """Tunables of the compression objective.

    ``top_k``, ``temperature`` and ``kl_weight`` have no canonical values;
    the defaults are the common contrastive-learning scale (0.1) and a
    regularizer weight small enough not to dominate. ``n_anchors``
    defaults to the production setting of 512 but is always overridable.
    ``kl_weight = 0`` turns the regularizer off.
    """

    n_anchors: int = 512
    top_k: int = 8
    temperature: float = 0.1
    kl_weight: float = 0.1
    prior_mode: str = "categorical"

    def __post_init__(self):
        if self.n_anchors < 1:
            raise ConfigError(f"n_anchors must be >= 1, got {self.n_anchors}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not (np.isfinite(self.kl_weight) and self.kl_weight >= 0):
            raise ConfigError(f"kl_weight must be finite and >= 0, got {self.kl_weight}")
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(
                f"prior_mode must be one of {PRIOR_MODES}, got {self.prior_mode!r}"
            )


def soft_assign(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column-wise softmax over the anchor axis, max-subtracted.

    Input and output are (n_anchors, M); every output column is a probability
    vector, computed in ``out`` (which may be ``logits``) or in a new array.
    The column max (the shift) and min are non-finite if any logit is, so
    they check the logits with no (n_anchors, M) mask, before any write.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got {logits.ndim}-D")
    shift = logits.max(axis=0, keepdims=True)
    if not (np.isfinite(shift).all() and np.isfinite(logits.min(axis=0)).all()):
        raise NumericalError("logits contain non-finite entries")
    if out is None:
        out = np.empty_like(logits)
    _exp_shifted(logits, 0, out, shift)
    out /= out.sum(axis=0, keepdims=True)
    return out


def pool_anchors(assignments: np.ndarray, tokens: TokenMatrix) -> np.ndarray:
    """Responsibility-weighted sums: anchor ``a`` is sum_m r[a,m] * z_m.

    Note this is a weighted sum, not an average; anchor magnitude grows
    with the responsibility mass it absorbs.
    """
    r = np.asarray(assignments, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != tokens.num_tokens:
        raise DimensionError(
            f"assignments must be (n_anchors, {tokens.num_tokens}), got {r.shape}"
        )
    return r @ tokens.data


def kl_uniform_value_and_grad(assignments: np.ndarray) -> tuple[float, np.ndarray]:
    """Total divergence of the per-token assignments from uniform, and its
    logit gradient, exact through the column softmax.

    Per token: sum_a r * log(r * A), with 0 * log 0 = 0, summed over all
    tokens. Runs :func:`total_loss`' two KL sweeps at weight 1, adding
    into negative zeros, the additive identity, so every entry keeps the
    bits of its term.
    """
    r = np.asarray(assignments, dtype=np.float64)
    grad = np.empty(r.shape)
    value, column_sums = _kl_value_and_column_sums(r, grad)
    grad.fill(-0.0)
    _add_kl_grad(r, column_sums, 1.0, grad)
    return value, grad


def kl_uniform(assignments: np.ndarray) -> float:
    """The value of :func:`kl_uniform_value_and_grad`."""
    return kl_uniform_value_and_grad(assignments)[0]


def kl_uniform_grad(assignments: np.ndarray) -> np.ndarray:
    """The gradient of :func:`kl_uniform_value_and_grad`."""
    return kl_uniform_value_and_grad(assignments)[1]


def _kl_dvalue(r: np.ndarray, n_anchors: int, log_ratio: np.ndarray, out: np.ndarray,
               dead: np.ndarray) -> None:
    """For a row tile ``r`` of the assignments: log(r * A) into ``log_ratio``
    and d(value)/dr, log(r * A) + 1, into ``out`` (which may be
    ``log_ratio``), both 0 at the entries that are not > 0 (zeros, and NaN
    in bad input), which the boolean ``dead`` marks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.multiply(r, n_anchors, out=log_ratio), out=log_ratio)
    np.logical_not(np.greater(r, 0.0, out=dead), out=dead)
    log_ratio[dead] = 0.0
    np.add(log_ratio, 1.0, out=out)
    out[dead] = 0.0


def _kl_value_and_column_sums(r: np.ndarray, grad: np.ndarray) -> tuple[float, np.ndarray]:
    """The KL value of float64 ``r``, and the column sums of r * d(value)/dr
    that its softmax backward subtracts; ``grad`` is the scratch.

    log(r * A) fills ``grad`` one row tile at a time, and each tile's
    products join the column sums in :func:`_carried_column_sums`' order.
    The value is then one pairwise sum of r * log(r * A) over the whole
    array, as a whole-array pass gives.
    """
    column_sums = None
    for t, u, dead in _row_tiles(r.shape, float, bool):
        _kl_dvalue(r[t], len(r), grad[t], u, dead)
        column_sums = _carried_column_sums(np.multiply(r[t], u, out=u), column_sums)
    value = float(np.multiply(r, grad, out=grad).sum())
    return value, column_sums


def _add_kl_grad(r: np.ndarray, column_sums: np.ndarray, weight: float,
                 grad: np.ndarray) -> None:
    """Add ``weight`` times the KL logit gradient of float64 ``r`` into
    ``grad``, given :func:`_kl_value_and_column_sums`' column sums.

    Each row tile recomputes log(r * A) + 1 and runs the softmax backward
    of :func:`_softmax_backward` on it, so the gradient needs no array of
    its own beyond one tile.
    """
    for t, u, dead in _row_tiles(r.shape, float, bool):
        _kl_dvalue(r[t], len(r), u, u, dead)
        u -= column_sums
        u *= r[t]
        u *= weight
        grad[t] += u


def _top_k_mask(assignments: np.ndarray, k: int, out=None) -> np.ndarray:
    """Boolean mask of each row's top-k token set, in ``out`` if given.

    Ties at the k-th largest value break toward the lowest token index,
    so equal inputs always give the identical set. The rule is row-wise, so
    the contrastive term applies it to one row tile at a time, in one reused
    boolean tile, and holds no (n_anchors, M) mask or partition.
    """
    r = np.asarray(assignments, dtype=np.float64)
    m = r.shape[1]
    if k > m:
        raise ConfigError(f"top_k={k} exceeds token count {m}")
    kth = np.partition(r, m - k, axis=1)[:, m - k, None]
    mask = np.greater_equal(r, kth, out=out)
    # a row with more than k entries at or above its k-th largest value has
    # ties at that value; the surplus ties drop from the highest token index
    surplus = mask.sum(axis=1) - k
    for a in np.flatnonzero(surplus):
        ties = np.flatnonzero(r[a] == kth[a])
        mask[a, ties[len(ties) - surplus[a]:]] = False
    return mask


def contrastive_value_and_grad(
    assignments: np.ndarray, tokens: TokenMatrix, cfg: AnchorConfig
) -> tuple[float, np.ndarray]:
    """Summed top-k contrastive term over all anchors, and its logit gradient.

    For each anchor, the k tokens with highest responsibility are
    positives; the partition function runs over every token. Each
    anchor's term is the mean negative log-probability of its positives
    under a temperature-scaled softmax of cosine similarities.

    The anchors are pooled here, anchors = R Z, and the gradient flows
    through that product and then through the column softmax, with the
    top-k sets held fixed. Tokens are data and receive no gradient.

    One (n_anchors, M) buffer, ``work``, holds in turn the products
    c_a . z_m, the top-k products for the positives' sum, the direct
    weights dL/dsims / denom, dL/dR and dL/dlogits; the matrix products
    fill it whole. Between them, each row tile of anchors runs every
    elementwise pass in three tile buffers (the denominator, the
    similarities and their scaled exponentials) and one boolean tile (its
    top-k mask), and fills its rows of the per-anchor vectors.
    """
    r = np.asarray(assignments, dtype=np.float64)
    return _contrastive(r, tokens, cfg, np.empty(r.shape), pool_anchors(r, tokens))


def _contrastive(r: np.ndarray, tokens: TokenMatrix, cfg: AnchorConfig,
                 work: np.ndarray, anchors: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`contrastive_value_and_grad` of float64 ``r`` and its ``anchors`` in
    the C-ordered (n_anchors, M) buffer ``work``, which ends up holding the gradient."""
    z = tokens.data
    anchor_norms = np.linalg.norm(anchors, axis=1)
    token_norms = np.linalg.norm(z, axis=1)
    np.matmul(anchors, z.T, out=work)
    positives, lse, beta = (np.empty(len(work)) for _ in range(3))
    for t, den, sim, sc, in_top in _row_tiles(work.shape, float, float, float, bool):
        block = work[t]
        top = _top_k_mask(r[t], cfg.top_k, out=in_top)
        np.multiply(anchor_norms[t, None], token_norms[None, :], out=den)
        den += SIM_EPSILON
        np.divide(block, den, out=sim)
        np.divide(sim, cfg.temperature, out=sc)
        positives[t] = np.multiply(sc, top, out=block).sum(axis=1)
        row_max = _exp_shifted(sc, 1, sc)  # sc now holds the exponentials
        row_sum = sc.sum(axis=1, keepdims=True)
        lse[t] = np.log(row_sum[:, 0]) + row_max[:, 0]
        # sc in turn: softmax, dL/d(sims/tau), dL/dsims
        sc /= row_sum
        np.subtract(sc, 1.0 / cfg.top_k, out=sc, where=top)
        sc /= cfg.temperature
        # sims[a,m] = (c_a . z_m) / denom[a,m]; differentiate both factors.
        w_direct = np.divide(sc, den, out=block)
        # beta = sum_m w_direct * sims * |z_m|, in the similarity tile
        sim *= w_direct
        sim *= token_norms[None, :]
        beta[t] = sim.sum(axis=1)
    value = float((lse - positives / cfg.top_k).sum())

    d_anchors = work @ z
    safe_norms = np.maximum(anchor_norms, 1e-300)
    d_anchors -= (beta / safe_norms)[:, None] * anchors
    np.matmul(d_anchors, z.T, out=work)
    return value, _softmax_backward(r, work)


def contrastive_loss(assignments: np.ndarray, tokens: TokenMatrix, cfg: AnchorConfig) -> float:
    """The value of :func:`contrastive_value_and_grad`."""
    return contrastive_value_and_grad(assignments, tokens, cfg)[0]


def contrastive_grad(assignments: np.ndarray, tokens: TokenMatrix,
                     cfg: AnchorConfig) -> np.ndarray:
    """The gradient of :func:`contrastive_value_and_grad`."""
    return contrastive_value_and_grad(assignments, tokens, cfg)[1]


def _softmax_backward(assignments: np.ndarray, d_assignments: np.ndarray) -> np.ndarray:
    """Chain dL/dR through the column softmax to dL/dlogits, in ``d_assignments``' buffer.

    The column sums of r * dL/dR are taken one row tile of products at a
    time, by :func:`_carried_column_sums`.
    """
    r = np.asarray(assignments, dtype=np.float64)
    d = d_assignments
    inner = None
    for t, products in _row_tiles(d.shape, float):
        inner = _carried_column_sums(np.multiply(r[t], d[t], out=products), inner)
    for (t,) in _row_tiles(d.shape):
        d[t] -= inner
        d[t] *= r[t]
    return d


def _carried_column_sums(products: np.ndarray, sums: Optional[np.ndarray]) -> np.ndarray:
    """Column sums of the rows so far: ``sums``, those of the row tiles
    before ``products`` (None for the first), plus ``products``' rows.

    ``sums`` is added into the first row of ``products``, which is
    overwritten. numpy's axis-0 sum adds the rows of a C-ordered array one
    after another, so tile by tile these sums equal those over the whole
    array. (A single column is summed pairwise instead, but it needs
    65,536 anchors to fill a second tile.)
    """
    if sums is not None:
        products[0] += sums
    return products.sum(axis=0)


def gaussian_kl_closed_form(mean: np.ndarray, variance: np.ndarray) -> float:
    """Divergence of N(mean, diag variance) from the standard normal.

    Closed form: 0.5 * sum_i (var_i + mean_i^2 - 1 - log var_i), summed
    over all rows when given matrices.
    """
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if mean.shape != variance.shape:
        raise DimensionError(f"mean/variance shapes differ: {mean.shape} vs {variance.shape}")
    if np.any(variance <= 0):
        raise NumericalError("variances must be > 0")
    return float(0.5 * (variance + mean**2 - 1.0 - np.log(variance)).sum())


def _anchor_mass(assignments: np.ndarray):
    """Mass per anchor, the mask of masses reaching ``DEGENERATE_MASS``, and a safe divisor."""
    mass = np.asarray(assignments, dtype=np.float64).sum(axis=1)
    ok = mass >= DEGENERATE_MASS
    return mass, ok, np.where(ok, mass, 1.0)


def _gaussian(r: np.ndarray, tokens: TokenMatrix, anchors: np.ndarray):
    """Gaussian-prior regularizer of float64 ``r`` and its ``anchors``, and its logit gradient.

    Each anchor's posterior is the diagonal Gaussian matching its
    responsibility-weighted token moments (variances floored); the value
    is the summed divergence from the standard normal. An anchor with mass
    below ``DEGENERATE_MASS`` gets mean 0 and variance equal to the floor,
    so it contributes the prior-only constant. The gradient is exact away
    from the floor, where the variance path carries zero derivative (the
    floor is a max); degenerate anchors are constant and contribute nothing.
    """
    z = tokens.data
    z2 = z**2
    _, ok, safe_mass = _anchor_mass(r)
    means = anchors / safe_mass[:, None]
    raw_var = (r @ z2) / safe_mass[:, None] - means**2
    means = np.where(ok[:, None], means, 0.0)
    raw_var = np.where(ok[:, None], raw_var, VARIANCE_FLOOR)
    variances = np.maximum(raw_var, VARIANCE_FLOOR)
    value = gaussian_kl_closed_form(means, variances)

    # dKL/dvar through the floor: zero where the floor is active
    active = raw_var > VARIANCE_FLOOR
    d_var = np.where(active, 0.5 * (1.0 - 1.0 / variances), 0.0)

    # Per-responsibility derivative, with dmean_i/dw_m = (z_mi - mean_i)/mass
    # and dvar_i/dw_m = ((z_mi - mean_i)^2 - raw_var_i)/mass, expanded into
    # matrix products to keep memory at (n_anchors, M):
    #   dKL_a/dw_m = [ sum_i z_mi mean_ai - |mean_a|^2
    #                + sum_i d_var_ai z_mi^2 - 2 sum_i d_var_ai mean_ai z_mi
    #                + sum_i d_var_ai (mean_ai^2 - raw_var_ai) ] / mass_a
    per_anchor_const = (
        -(means**2).sum(axis=1) + (d_var * (means**2 - raw_var)).sum(axis=1)
    )
    per_token = (
        means @ z.T + d_var @ z2.T - 2.0 * (d_var * means) @ z.T
    ) + per_anchor_const[:, None]
    per_token /= safe_mass[:, None]
    per_token[~ok] = 0.0
    return value, _softmax_backward(r, per_token)


@dataclass(frozen=True)
class ObjectiveValue:
    """One evaluation of the full objective at an assignment matrix, with its logit gradient."""

    total: float
    contrastive: float
    regularizer: float
    grad_logits: np.ndarray


def total_loss(
    assignments: np.ndarray, tokens: TokenMatrix, cfg: AnchorConfig,
    out: Optional[np.ndarray] = None,
) -> ObjectiveValue:
    """Contrastive term plus the weighted prior regularizer, with gradient.

    ``assignments`` is :func:`soft_assign` of the logits. ``prior_mode``
    picks the regularizer: categorical-to-uniform or Gaussian moment
    matching. At ``kl_weight = 0`` no regularizer is evaluated and
    ``regularizer`` is 0.0.

    The anchors are pooled first, once, which also checks the shapes.
    One (n_anchors, M) buffer, ``grad``, carries the step and is returned
    as ``grad_logits``: ``out`` if given, a C-ordered float64 array of
    that shape, not ``assignments``, whose contents are overwritten, else
    a new array. With the categorical prior, a first row-tile sweep
    writes log(r * A) into it and takes the KL value and the column sums
    of its softmax backward; the contrastive term then works in ``grad``
    and leaves its gradient there; a second sweep recomputes log(r * A)
    tile by tile and adds the weighted KL gradient into it. That
    recompute is one log pass per step more than the minimum, paid so
    the KL gradient needs no array of its own. The Gaussian prior's three
    products stay whole for their bits, so it keeps its own gradient:
    taken before a new ``grad`` is allocated, so its scratch is freed
    first, and added into ``grad`` at the end. Each entry is the same sum
    of the weighted regularizer gradient and the contrastive one as
    adding the two whole arrays.
    """
    r = np.asarray(assignments, dtype=np.float64)
    anchors = pool_anchors(r, tokens)
    weight = cfg.kl_weight
    reg, column_sums, reg_grad = 0.0, None, None
    if weight != 0.0 and cfg.prior_mode == "gaussian":
        reg, reg_grad = _gaussian(r, tokens, anchors)
        reg_grad *= weight
    grad = np.empty(r.shape) if out is None else out
    if weight != 0.0 and cfg.prior_mode == "categorical":
        reg, column_sums = _kl_value_and_column_sums(r, grad)
    contrast = _contrastive(r, tokens, cfg, grad, anchors)[0]
    if column_sums is not None:
        _add_kl_grad(r, column_sums, weight, grad)
    if reg_grad is not None:
        grad += reg_grad
    return ObjectiveValue(contrast + weight * reg, contrast, reg, grad)

"""Anchor-compression objective: soft assignment, pooling, and all loss terms.

Each token gets a categorical distribution over anchors (a column-wise
softmax of the network logits); anchors are responsibility-weighted sums
of the tokens. Training balances two forces:

* a top-k contrastive term that pulls every anchor toward the tokens most
  responsible for it and away from the rest, and
* a divergence penalty that keeps assignments from collapsing onto a few
  anchors (categorical-to-uniform by default, or a Gaussian
  moment-matching variant for ablations); a zero weight turns it off.

Each term has one ``*_value_and_grad`` function that shares its work
between the value and the gradient; ``total_loss`` calls each once per
training step. ``contrastive_loss``, ``contrastive_grad``, ``kl_uniform``
and ``kl_uniform_grad`` return one half of such a call. Elementwise
steps write into (n_anchors, M) buffers the pass already holds; no public
function writes its arguments.

All gradients here are with respect to the logits; callers chain them
into network parameters with ``assignnet.backward``. Every gradient is an
exact derivative of the corresponding value as implemented, with one
documented exception: the top-k positive sets are treated as constant
under differentiation (selection is piecewise constant in the logits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionError, NumericalError, TokenMatrix

PRIOR_MODES = ("categorical", "gaussian")

# responsibility mass below which an anchor is treated as unused
DEGENERATE_MASS = 1e-12
# added to cosine-similarity denominators so zero-norm inputs stay finite
SIM_EPSILON = 1e-8
# lower bound on the Gaussian prior's per-anchor variances
VARIANCE_FLOOR = 1e-6


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


def soft_assign(logits: np.ndarray) -> np.ndarray:
    """Column-wise softmax over the anchor axis, max-subtracted.

    Input and output are (n_anchors, M); every output column is a
    probability vector, computed in the one array this allocates.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got {logits.ndim}-D")
    return _column_softmax(logits, np.empty_like(logits))


def _column_softmax(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`soft_assign` of 2-D float64 ``logits`` into ``out``, which may be ``logits``."""
    if not np.isfinite(logits).all():
        raise NumericalError("logits contain non-finite entries")
    np.subtract(logits, logits.max(axis=0, keepdims=True), out=out)
    np.exp(out, out=out)
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
    tokens.
    """
    r = np.asarray(assignments, dtype=np.float64)
    mask = r > 0
    log_ratio = np.zeros_like(r)
    np.multiply(r, r.shape[0], out=log_ratio, where=mask)
    np.log(log_ratio, out=log_ratio, where=mask)
    scratch = np.multiply(r, log_ratio)
    value = float(scratch.sum())
    log_ratio += mask  # d(value)/dr: log(r * A) + 1 where r > 0, else 0
    return value, _softmax_backward(r, log_ratio, scratch)


def kl_uniform(assignments: np.ndarray) -> float:
    """The value of :func:`kl_uniform_value_and_grad`."""
    return kl_uniform_value_and_grad(assignments)[0]


def kl_uniform_grad(assignments: np.ndarray) -> np.ndarray:
    """The gradient of :func:`kl_uniform_value_and_grad`."""
    return kl_uniform_value_and_grad(assignments)[1]


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u| |v| + eps); the epsilon guards zero-norm inputs."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise DimensionError(f"vector lengths differ: {u.shape} vs {v.shape}")
    denom = np.linalg.norm(u) * np.linalg.norm(v) + SIM_EPSILON
    return float(u @ v / denom)


def _sim_matrix(anchors: np.ndarray, tokens: TokenMatrix):
    """Cosine similarities of every anchor against every token.

    Returns (sims, denom, anchor_norms, token_norms) so gradient code can
    reuse the factors.
    """
    z = tokens.data
    anchor_norms = np.linalg.norm(anchors, axis=1)
    token_norms = np.linalg.norm(z, axis=1)
    denom = anchor_norms[:, None] * token_norms[None, :]
    denom += SIM_EPSILON
    sims = anchors @ z.T
    sims /= denom
    return sims, denom, anchor_norms, token_norms


def _top_k_mask(assignments: np.ndarray, k: int) -> np.ndarray:
    """Boolean (n_anchors, M) mask of each row's top-k token set.

    Ties at the k-th largest value break toward the lowest token index,
    so equal inputs always give the identical set.
    """
    r = np.asarray(assignments, dtype=np.float64)
    m = r.shape[1]
    if k > m:
        raise ConfigError(f"top_k={k} exceeds token count {m}")
    kth = np.partition(r, m - k, axis=1)[:, m - k, None]
    mask = r >= kth
    # a row with more than k entries at or above its k-th largest value has
    # ties at that value; the surplus ties drop from the highest token index
    surplus = mask.sum(axis=1) - k
    for a in np.flatnonzero(surplus):
        ties = np.flatnonzero(r[a] == kth[a])
        mask[a, ties[len(ties) - surplus[a]:]] = False
    return mask


def contrastive_value_and_grad(
    anchors: np.ndarray,
    tokens: TokenMatrix,
    assignments: np.ndarray,
    cfg: AnchorConfig,
) -> tuple[float, np.ndarray]:
    """Summed top-k contrastive term over all anchors, and its logit gradient.

    For each anchor, the k tokens with highest responsibility are
    positives; the partition function runs over every token. Each
    anchor's term is the mean negative log-probability of its positives
    under a temperature-scaled softmax of cosine similarities.

    ``anchors`` must be the pooled product of (assignments, tokens): the
    gradient flows through anchors = R Z and then through the column
    softmax, with the top-k sets held fixed. Tokens are data and receive
    no gradient. The similarity matrix, its exponentials and the top-k
    mask are built once and shared by the value and the gradient, in four
    (n_anchors, M) buffers besides the mask.
    """
    z = tokens.data
    sims, denom, anchor_norms, token_norms = _sim_matrix(anchors, tokens)
    scaled = sims / cfg.temperature
    mask = _top_k_mask(assignments, cfg.top_k)

    row_max = scaled.max(axis=1, keepdims=True)
    d_assignments = np.multiply(scaled, mask)  # this buffer later takes dL/dR
    positives_mean = d_assignments.sum(axis=1) / cfg.top_k
    expd = np.exp(np.subtract(scaled, row_max, out=scaled), out=scaled)
    row_sum = expd.sum(axis=1, keepdims=True)
    lse = np.log(row_sum[:, 0]) + row_max[:, 0]
    value = float((lse - positives_mean).sum())

    # one buffer, in turn: softmax, dL/d(sims/tau), dL/dsims, direct weight
    w_direct = np.divide(expd, row_sum, out=expd)
    np.subtract(w_direct, 1.0 / cfg.top_k, out=w_direct, where=mask)
    w_direct /= cfg.temperature
    # sims[a,m] = (c_a . z_m) / denom[a,m]; differentiate both factors.
    w_direct /= denom
    d_anchors = w_direct @ z
    # beta = sum_m w_direct * sims * |z_m|, built in sims' buffer (its last use)
    sims *= w_direct
    sims *= token_norms[None, :]
    beta = sims.sum(axis=1)
    safe_norms = np.maximum(anchor_norms, 1e-300)
    d_anchors -= (beta / safe_norms)[:, None] * anchors

    np.matmul(d_anchors, z.T, out=d_assignments)
    return value, _softmax_backward(assignments, d_assignments, sims)


def contrastive_loss(anchors: np.ndarray, tokens: TokenMatrix, assignments: np.ndarray,
                     cfg: AnchorConfig) -> float:
    """The value of :func:`contrastive_value_and_grad`."""
    return contrastive_value_and_grad(anchors, tokens, assignments, cfg)[0]


def contrastive_grad(anchors: np.ndarray, tokens: TokenMatrix, assignments: np.ndarray,
                     cfg: AnchorConfig) -> np.ndarray:
    """The gradient of :func:`contrastive_value_and_grad`."""
    return contrastive_value_and_grad(anchors, tokens, assignments, cfg)[1]


def _softmax_backward(
    assignments: np.ndarray, d_assignments: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Chain dL/dR through the column softmax to dL/dlogits, in ``d_assignments``' buffer;
    ``scratch`` is a spare array of its shape."""
    r = np.asarray(assignments, dtype=np.float64)
    inner = np.multiply(r, d_assignments, out=scratch).sum(axis=0, keepdims=True)
    d_assignments -= inner
    d_assignments *= r
    return d_assignments


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


def anchor_moments(assignments: np.ndarray, tokens: TokenMatrix):
    """Responsibility-weighted mean and variance of the tokens per anchor.

    Returns (means, floored variances, raw variances, mass) where mass is
    each anchor's total responsibility. Anchors with mass below
    ``DEGENERATE_MASS`` get mean 0 and variance equal to the floor.
    """
    r = np.asarray(assignments, dtype=np.float64)
    z = tokens.data
    if r.shape[1] != z.shape[0]:
        raise DimensionError(
            f"assignments have {r.shape[1]} tokens, matrix has {z.shape[0]}"
        )
    mass = r.sum(axis=1)
    ok = mass >= DEGENERATE_MASS
    safe_mass = np.where(ok, mass, 1.0)
    means = (r @ z) / safe_mass[:, None]
    second = (r @ z**2) / safe_mass[:, None]
    raw_var = second - means**2
    means = np.where(ok[:, None], means, 0.0)
    raw_var = np.where(ok[:, None], raw_var, VARIANCE_FLOOR)
    variances = np.maximum(raw_var, VARIANCE_FLOOR)
    return means, variances, raw_var, mass


def gaussian_prior_value_and_grad(
    assignments: np.ndarray, tokens: TokenMatrix
) -> tuple[float, np.ndarray]:
    """Gaussian-prior regularizer over the anchor space, and its logit gradient.

    Each anchor's posterior is the diagonal Gaussian matching its
    responsibility-weighted token moments (variances floored); the value
    is the summed divergence from the standard normal. Anchors with no
    responsibility mass contribute the prior-only constant (mean 0,
    variance equal to the floor).

    The gradient is exact away from the variance floor: at floored
    coordinates the variance path carries zero derivative (the floor is a
    max); degenerate anchors are constant and contribute nothing.
    """
    r = np.asarray(assignments, dtype=np.float64)
    z = tokens.data
    means, variances, raw_var, mass = anchor_moments(assignments, tokens)
    value = gaussian_kl_closed_form(means, variances)
    ok = mass >= DEGENERATE_MASS
    safe_mass = np.where(ok, mass, 1.0)

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
        means @ z.T + d_var @ (z**2).T - 2.0 * (d_var * means) @ z.T
    ) + per_anchor_const[:, None]
    per_token /= safe_mass[:, None]
    return value, _softmax_backward(r, np.where(ok[:, None], per_token, 0.0), per_token)


@dataclass(frozen=True)
class ObjectiveValue:
    """One evaluation of the full objective at a logit matrix."""

    total: float
    contrastive: float
    regularizer: float
    grad_logits: np.ndarray
    assignments: np.ndarray
    anchors: np.ndarray


def total_loss(logits: np.ndarray, tokens: TokenMatrix, cfg: AnchorConfig) -> ObjectiveValue:
    """Contrastive term plus the weighted prior regularizer, with gradient.

    ``prior_mode`` picks the regularizer: categorical-to-uniform or
    Gaussian moment matching. At ``kl_weight = 0`` no regularizer is
    evaluated and ``regularizer`` is 0.0.
    """
    assignments = soft_assign(logits)
    anchors = pool_anchors(assignments, tokens)
    contrast, grad = contrastive_value_and_grad(anchors, tokens, assignments, cfg)
    reg = 0.0
    if cfg.kl_weight != 0.0:
        if cfg.prior_mode == "categorical":
            reg, reg_grad = kl_uniform_value_and_grad(assignments)
        else:
            reg, reg_grad = gaussian_prior_value_and_grad(assignments, tokens)
        reg_grad *= cfg.kl_weight
        grad += reg_grad
    total = contrast + cfg.kl_weight * reg
    return ObjectiveValue(total, contrast, reg, grad, assignments, anchors)

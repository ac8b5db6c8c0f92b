"""Independent references for the tests: each rule of the package once.

Every function here takes plain arrays (a network or projection only for
its weight attributes), makes a fresh array per operation, and calls no
``anchorkit`` function, so a test that compares the package with one of
them checks the package against a second implementation, not against
itself. Where a test asks for bit identity, each reference keeps the
package's operation order: the bits follow from the rule and that order,
not from shared code. Only the objective's and k-means' constants come
from the package. Test modules import this file as ``from reference import ...``;
pytest does not collect it.
"""

import numpy as np

from anchorkit.baselines import MAX_ITERS, TOL
from anchorkit.objective import DEGENERATE_MASS, SIM_EPSILON, VARIANCE_FLOOR


def reference_soft_assign(logits):
    """The column softmax over the anchor axis, max-subtracted."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=0, keepdims=True)


def reference_forward(net, z):
    """The tanh MLP's activations on the (M, c) tokens ``z``: the (c, M)
    input, then each layer's output, the last one linear (the logits)."""
    acts = [z.T]
    x = acts[0]
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        pre = layer.weight @ x + layer.bias[:, None]
        x = np.tanh(pre) if i < last else pre
        acts.append(x)
    return acts


def reference_backprop(net, acts, upstream):
    """Each layer's (weight, bias) gradient from :func:`reference_forward`'s
    activations and the logit gradient ``upstream``."""
    grads = []
    delta = upstream
    for i in range(len(net.layers) - 1, -1, -1):
        grads.append((delta @ acts[i].T, delta.sum(axis=1)))
        if i > 0:
            delta = (net.layers[i].weight.T @ delta) * (1.0 - acts[i] ** 2)
    grads.reverse()
    return tuple(grads)


def softmax_backward(r, d_assignments):
    """dL/dR chained through the column softmax with assignments ``r`` to dL/dlogits."""
    return r * (d_assignments - (r * d_assignments).sum(axis=0, keepdims=True))


def lexsort_top_k_mask(r, k):
    """Each row's k largest entries, ties broken toward the lowest token index."""
    mask = np.zeros_like(r, dtype=bool)
    cols = np.arange(r.shape[1])
    for a in range(r.shape[0]):
        mask[a, np.lexsort((cols, -r[a]))[:k]] = True
    return mask


def reference_kl_uniform_value_and_grad(r):
    """Summed divergence of each column of ``r`` from uniform, 0 log 0 = 0
    (entries not > 0 count as dead), and its logit gradient."""
    mask = r > 0
    log_ratio = np.zeros_like(r)
    np.log(r * r.shape[0], out=log_ratio, where=mask)
    value = float((r * log_ratio).sum())
    return value, softmax_backward(r, log_ratio + mask)


def reference_cosine(u, v):
    """The cosine similarity of two vectors, u.v / (|u| |v| + eps)."""
    return u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + SIM_EPSILON)


def reference_contrastive_value_and_grad(r, z, cfg):
    """The top-k contrastive term of assignments ``r`` over tokens ``z``, and
    its logit gradient through the pooled anchors r @ z, top-k sets fixed."""
    anchors = r @ z
    anchor_norms = np.linalg.norm(anchors, axis=1)
    token_norms = np.linalg.norm(z, axis=1)
    denom = anchor_norms[:, None] * token_norms[None, :] + SIM_EPSILON
    sims = (anchors @ z.T) / denom
    scaled = sims / cfg.temperature
    mask = lexsort_top_k_mask(r, cfg.top_k)
    row_max = scaled.max(axis=1, keepdims=True)
    positives_mean = (scaled * mask).sum(axis=1) / cfg.top_k
    expd = np.exp(scaled - row_max)
    row_sum = expd.sum(axis=1, keepdims=True)
    value = float((np.log(row_sum[:, 0]) + row_max[:, 0] - positives_mean).sum())
    softmax = expd / row_sum
    w_direct = np.where(mask, softmax - 1.0 / cfg.top_k, softmax) / cfg.temperature / denom
    beta = (sims * w_direct * token_norms[None, :]).sum(axis=1)
    d_anchors = w_direct @ z
    d_anchors -= (beta / np.maximum(anchor_norms, 1e-300))[:, None] * anchors
    return value, softmax_backward(r, d_anchors @ z.T)


def reference_gaussian_value_and_grad(r, z):
    """Summed divergence from the standard normal of each anchor's diagonal
    Gaussian (its responsibility-weighted token moments, variances floored;
    an anchor below ``DEGENERATE_MASS`` has mean 0 and the floor), and its
    logit gradient, zero through the floor and for degenerate anchors."""
    z2 = z**2
    mass = r.sum(axis=1)
    ok = (mass >= DEGENERATE_MASS)[:, None]
    safe_mass = np.where(ok, mass[:, None], 1.0)
    means = (r @ z) / safe_mass
    raw_var = np.where(ok, (r @ z2) / safe_mass - means**2, VARIANCE_FLOOR)
    means = np.where(ok, means, 0.0)
    variances = np.maximum(raw_var, VARIANCE_FLOOR)
    value = float(0.5 * (variances + means**2 - 1.0 - np.log(variances)).sum())
    d_var = np.where(raw_var > VARIANCE_FLOOR, 0.5 * (1.0 - 1.0 / variances), 0.0)
    const = -(means**2).sum(axis=1) + (d_var * (means**2 - raw_var)).sum(axis=1)
    per_token = (means @ z.T + d_var @ z2.T - 2.0 * (d_var * means) @ z.T) + const[:, None]
    return value, softmax_backward(r, np.where(ok, per_token / safe_mass, 0.0))


def reference_total_loss(r, z, cfg):
    """(total, contrastive, regularizer, logit gradient) of the objective,
    composed from the per-term references; no regularizer at weight 0."""
    contrast, grad = reference_contrastive_value_and_grad(r, z, cfg)
    reg = 0.0
    if cfg.kl_weight != 0.0:
        if cfg.prior_mode == "categorical":
            reg, reg_grad = reference_kl_uniform_value_and_grad(r)
        else:
            reg, reg_grad = reference_gaussian_value_and_grad(r, z)
        grad = grad + cfg.kl_weight * reg_grad
    return contrast + cfg.kl_weight * reg, contrast, reg, grad


def naive_attention(queries, keys, values):
    """softmax(Q K^T / sqrt(d)) V as a triple loop with a per-row softmax."""
    m, d = queries.shape
    out = np.zeros((m, values.shape[1]))
    for i in range(m):
        scores = np.array([queries[i] @ keys[j] / np.sqrt(d) for j in range(keys.shape[0])])
        scores -= scores.max()
        weights = np.exp(scores) / np.exp(scores).sum()
        for j in range(keys.shape[0]):
            out[i] += weights[j] * values[j]
    return out


def oracle(mode, tokens, anchors, proj):
    """:func:`naive_attention` with queries from the (M, c) ``tokens`` and
    keys and values from the tokens (``"full"``) or the ``anchors``."""
    keys_from = tokens if mode == "full" else anchors
    return naive_attention(tokens @ proj.w_query, keys_from @ proj.w_key,
                           keys_from @ proj.w_value)


def reference_pairwise_sq_dists(points, centers):
    """The expanded squared distance with a fresh array per operation."""
    d2 = ((points**2).sum(axis=1)[:, None] - 2.0 * points @ centers.T
          + (centers**2).sum(axis=1)[None, :])
    return np.maximum(d2, 0.0)


def reference_kmeans(points, k, seed):
    """k-means++ seeding, then Lloyd passes that update one cluster at a time,
    each center the sum of its points in point order over their count.

    Returns centers, labels, inertia and the inertia history, as ``kmeans`` does.
    """
    n = points.shape[0]
    rng = np.random.Generator(np.random.PCG64([seed]))
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    best = reference_pairwise_sq_dists(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = best.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=best / total))
        centers[i] = points[idx]
        best = np.minimum(best, reference_pairwise_sq_dists(points, centers[i : i + 1])[:, 0])
    history = []
    for _ in range(MAX_ITERS):
        d2 = reference_pairwise_sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total = np.zeros(points.shape[1])
                for p in members:
                    total = total + p
                new_centers[j] = total / len(members)
            else:  # an empty cluster takes the point farthest from its center
                new_centers[j] = points[int(d2[np.arange(n), labels].argmax())]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < TOL:
            break
    labels = reference_pairwise_sq_dists(points, centers).argmin(axis=1)
    inertia = float(((points - centers[labels]) ** 2).sum())
    return centers, labels, inertia, (*history, inertia)

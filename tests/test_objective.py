"""Loss-term exactness and gradient fidelity for the anchor objective.

Every analytic gradient is checked against central finite differences
computed through the full value pipeline (logits -> softmax -> pooling ->
loss), at points where the top-k selections are stable under the probe.
"""

import numpy as np
import pytest

from anchorkit.core import ConfigError, NumericalError, TokenMatrix, seeded_rng
from anchorkit.objective import (
    DEGENERATE_MASS,
    PRIOR_MODES,
    AnchorConfig,
    _sim_matrix,
    _top_k_mask,
    anchor_moments,
    contrastive_grad,
    contrastive_loss,
    cosine_sim,
    gaussian_kl_closed_form,
    gaussian_prior_value_and_grad,
    kl_uniform,
    kl_uniform_grad,
    pool_anchors,
    soft_assign,
    total_loss,
)


def fd_grad(fn, logits, h=1e-6):
    """Central finite differences of a scalar function of the logits."""
    grad = np.zeros_like(logits)
    for idx in range(logits.size):
        probe = logits.copy()
        probe.ravel()[idx] += h
        fp = fn(probe)
        probe.ravel()[idx] -= 2 * h
        fm = fn(probe)
        grad.ravel()[idx] = (fp - fm) / (2 * h)
    return grad


def rel_err(analytic, numeric):
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)


def top_k_indices(r, anchor, k):
    """One anchor row's top-k token set from the objective's mask, ascending."""
    return np.flatnonzero(_top_k_mask(r, k)[anchor])


def reference_top_k(row, k):
    """Definitional top-k: sort by (-responsibility, token index)."""
    return sorted(sorted(range(len(row)), key=lambda m: (-row[m], m))[:k])


class TestSoftAssign:
    def test_symmetric_column(self):
        np.testing.assert_allclose(soft_assign(np.zeros((2, 1))), [[0.5], [0.5]])

    def test_ln3_column(self):
        r = soft_assign(np.array([[np.log(3.0)], [0.0]]))
        np.testing.assert_allclose(r, [[0.75], [0.25]], atol=1e-15)

    def test_saturated_column_no_overflow(self):
        r = soft_assign(np.array([[1000.0], [0.0]]))
        np.testing.assert_allclose(r, [[1.0], [0.0]], atol=1e-12)
        assert np.isfinite(r).all()

    def test_columns_sum_to_one_in_bulk(self):
        rng = seeded_rng(0)
        logits = rng.uniform(-50, 50, size=(16, 10_000))
        r = soft_assign(logits)
        assert np.all(r >= 0) and np.all(r <= 1)
        np.testing.assert_allclose(r.sum(axis=0), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = seeded_rng(1)
        logits = rng.standard_normal((5, 4))
        shifted = logits + rng.standard_normal(4)[None, :]
        np.testing.assert_allclose(soft_assign(shifted), soft_assign(logits), atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            soft_assign(np.array([[np.nan], [0.0]]))


class TestPoolAnchors:
    def test_identity_assignment(self):
        rng = seeded_rng(2)
        z = TokenMatrix(rng.standard_normal((4, 3)))
        np.testing.assert_array_equal(pool_anchors(np.eye(4), z), z.data)

    def test_half_half_hand_case(self):
        z = TokenMatrix([[1.0, 0.0], [0.0, 1.0]])
        r = np.full((2, 2), 0.5)
        np.testing.assert_allclose(pool_anchors(r, z), [[0.5, 0.5], [0.5, 0.5]])

    def test_single_token_one_hot(self):
        z = TokenMatrix([[2.0, 3.0]])
        r = np.array([[1.0], [0.0], [0.0]])
        pooled = pool_anchors(r, z)
        np.testing.assert_array_equal(pooled[0], [2.0, 3.0])
        assert not pooled[1:].any()

    def test_linear_in_tokens(self):
        rng = seeded_rng(3)
        r = soft_assign(rng.standard_normal((3, 6)))
        z1 = rng.standard_normal((6, 4))
        z2 = rng.standard_normal((6, 4))
        combined = pool_anchors(r, TokenMatrix(2.0 * z1 + 3.0 * z2))
        separate = 2.0 * pool_anchors(r, TokenMatrix(z1)) + 3.0 * pool_anchors(r, TokenMatrix(z2))
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestKlUniform:
    def test_uniform_is_zero(self):
        r = np.full((4, 7), 0.25)
        assert abs(kl_uniform(r)) <= 1e-12

    def test_one_hot_is_log_a(self):
        r = np.array([[1.0], [0.0], [0.0], [0.0]])
        assert abs(kl_uniform(r) - np.log(4.0)) <= 1e-12

    def test_half_mass_is_log_two(self):
        r = np.array([[0.5], [0.5], [0.0], [0.0]])
        assert abs(kl_uniform(r) - np.log(2.0)) <= 1e-12

    def test_range_and_sum_over_tokens(self):
        rng = seeded_rng(4)
        r = soft_assign(rng.standard_normal((8, 40)))
        value = kl_uniform(r)
        assert 0.0 <= value <= 40 * np.log(8.0)
        per_token = sum(kl_uniform(r[:, m : m + 1]) for m in range(40))
        np.testing.assert_allclose(value, per_token, rtol=1e-12)

    def test_mean_normalized_variant(self):
        rng = seeded_rng(5)
        r = soft_assign(rng.standard_normal((4, 10)))
        np.testing.assert_allclose(kl_uniform(r, True), kl_uniform(r) / 10.0, rtol=1e-12)


class TestKlUniformGrad:
    def test_uniform_is_stationary(self):
        grad = kl_uniform_grad(np.full((4, 3), 0.25))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = seeded_rng(6)
        logits = rng.standard_normal((3, 5))
        analytic = kl_uniform_grad(soft_assign(logits))
        numeric = fd_grad(lambda l: kl_uniform(soft_assign(l)), logits)
        assert rel_err(analytic, numeric) < 1e-6

    def test_dominant_logit_pushed_down(self):
        """Near one-hot, descent decreases the dominant logit."""
        logits = np.array([[8.0], [0.0], [0.0]])
        grad = kl_uniform_grad(soft_assign(logits))
        assert grad[0, 0] > 0  # minimizer steps opposite the gradient


class TestCosineSim:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, 2.0])
        assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_hand_case(self):
        assert cosine_sim([3.0, 4.0], [4.0, 3.0]) == pytest.approx(24.0 / 25.0, rel=1e-9)


class TestTopK:
    def test_tie_breaks_to_lowest_index(self):
        r = np.array([[0.4, 0.4, 0.2]])
        np.testing.assert_array_equal(top_k_indices(r, 0, 1), [0])

    def test_two_of_three(self):
        r = np.array([[0.1, 0.7, 0.2]])
        np.testing.assert_array_equal(top_k_indices(r, 0, 2), [1, 2])

    def test_k_equals_m(self):
        r = np.array([[0.1, 0.7, 0.2]])
        np.testing.assert_array_equal(top_k_indices(r, 0, 3), [0, 1, 2])

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            top_k_indices(np.ones((1, 3)) / 3, 0, 4)

    def test_matches_full_sort(self):
        rng = seeded_rng(7)
        r = soft_assign(rng.standard_normal((4, 12)))
        for a in range(4):
            order = sorted(range(12), key=lambda m: (-r[a, m], m))
            np.testing.assert_array_equal(top_k_indices(r, a, 5), sorted(order[:5]))

    @pytest.mark.parametrize("name,rows", [
        ("all equal", np.full((3, 9), 0.25)),
        ("exact zeros", np.array([[0.0, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, 0.0, -0.0],
                                  [0.0] * 9,
                                  [-0.0, 0.0] * 4 + [1.0]])),
        ("quantised", np.round(seeded_rng(21).uniform(0, 1, (40, 16)) * 3) / 3),
    ])
    def test_tie_heavy_rows_match_reference(self, name, rows):
        for k in range(1, rows.shape[1] + 1):
            mask = _top_k_mask(rows, k)
            for a, row in enumerate(rows):
                np.testing.assert_array_equal(
                    np.flatnonzero(mask[a]), reference_top_k(list(row), k), err_msg=f"{name}, k={k}"
                )


class TestContrastiveLoss:
    def test_single_token_single_anchor_is_zero(self):
        z = TokenMatrix([[1.0, 2.0]])
        cfg = AnchorConfig(n_anchors=1, top_k=1)
        r = np.array([[1.0]])
        c = pool_anchors(r, z)
        assert contrastive_loss(c, z, r, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_tokens_log_two(self):
        z = TokenMatrix([[1.0, 2.0], [1.0, 2.0]])
        cfg = AnchorConfig(n_anchors=1, top_k=1)
        r = np.array([[1.0, 1.0]])
        c = pool_anchors(r, z)
        assert contrastive_loss(c, z, r, cfg) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_matches_naive_double_loop(self):
        """Vectorized loss equals the definitional double loop to 1e-12."""
        rng = seeded_rng(8)
        z = TokenMatrix(rng.standard_normal((4, 3)))
        cfg = AnchorConfig(n_anchors=2, top_k=2, temperature=0.1)
        r = soft_assign(rng.standard_normal((2, 4)))
        c = pool_anchors(r, z)
        value = contrastive_loss(c, z, r, cfg)

        total = 0.0
        for a in range(2):
            positives = top_k_indices(r, a, 2)
            for m in positives:
                s_m = cosine_sim(c[a], z.data[m], cfg.sim_epsilon) / cfg.temperature
                denom = sum(
                    np.exp(cosine_sim(c[a], z.data[mp], cfg.sim_epsilon) / cfg.temperature)
                    for mp in range(4)
                )
                total += -np.log(np.exp(s_m) / denom) / 2
        np.testing.assert_allclose(value, total, atol=1e-12)

    def test_token_rescale_invariance(self):
        """Scaling all tokens rescales anchors too; cosine terms unchanged.

        The sim_epsilon guard leaves an O(eps / norm-product) residual, so
        the instance keeps anchor norms away from zero (offset tokens).
        """
        rng = seeded_rng(9)
        z = rng.standard_normal((6, 4)) + 2.0
        cfg = AnchorConfig(n_anchors=3, top_k=2)
        r = soft_assign(rng.standard_normal((3, 6)))
        base = contrastive_loss(pool_anchors(r, TokenMatrix(z)), TokenMatrix(z), r, cfg)
        zs = 7.5 * z
        scaled = contrastive_loss(pool_anchors(r, TokenMatrix(zs)), TokenMatrix(zs), r, cfg)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestContrastiveGrad:
    def test_identical_tokens_give_negligible_gradient(self):
        """With all tokens equal the loss is symmetric in the assignments;
        only the sim_epsilon guard leaves a vanishing residual."""
        z = TokenMatrix(np.tile([1.0, -2.0, 0.5], (5, 1)))
        cfg = AnchorConfig(n_anchors=3, top_k=2)
        logits = seeded_rng(10).standard_normal((3, 5))
        r = soft_assign(logits)
        grad = contrastive_grad(pool_anchors(r, z), z, r, cfg)
        assert np.abs(grad).max() < 1e-6
        numeric = fd_grad(
            lambda l: contrastive_loss(
                pool_anchors(soft_assign(l), z), z, soft_assign(l), cfg
            ),
            logits,
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_matches_finite_differences(self):
        rng = seeded_rng(11)
        z = TokenMatrix(rng.standard_normal((6, 4)))
        cfg = AnchorConfig(n_anchors=3, top_k=2, temperature=0.1)
        logits = rng.standard_normal((3, 6))

        def value(l):
            r = soft_assign(l)
            return contrastive_loss(pool_anchors(r, z), z, r, cfg)

        r = soft_assign(logits)
        # stability: the probe must not flip any top-k set
        for a in range(3):
            row = np.sort(r[a])[::-1]
            assert row[cfg.top_k - 1] - row[cfg.top_k] > 1e-4
        analytic = contrastive_grad(pool_anchors(r, z), z, r, cfg)
        numeric = fd_grad(value, logits)
        assert rel_err(analytic, numeric) < 1e-5

    def test_gradient_linearity_in_scale(self):
        rng = seeded_rng(12)
        z = TokenMatrix(rng.standard_normal((5, 3)))
        cfg = AnchorConfig(n_anchors=2, top_k=2)
        r = soft_assign(rng.standard_normal((2, 5)))
        c = pool_anchors(r, z)
        g = contrastive_grad(c, z, r, cfg)
        np.testing.assert_allclose(2.0 * g, 2.0 * contrastive_grad(c, z, r, cfg), rtol=1e-15)


class TestGaussianPriorKl:
    def test_standard_moments_give_zero(self):
        """Tokens at +1/-1 per dimension with equal weights: mean 0, var 1."""
        z = TokenMatrix(np.vstack([np.ones(3), -np.ones(3)]))
        r = np.full((2, 2), 0.5)
        assert gaussian_prior_value_and_grad(r, z)[0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_case(self):
        """mean 1, var 1, one dimension: value 1/2."""
        z = TokenMatrix([[0.0], [2.0]])
        r = np.array([[0.5, 0.5]])
        assert gaussian_prior_value_and_grad(r, z)[0] == pytest.approx(0.5, rel=1e-12)

    def test_wide_variance_case(self):
        """mean 0, var 2, one dimension: (2 - 1 - ln 2)/2."""
        target = 0.5 * (2.0 - 1.0 - np.log(2.0))
        z = TokenMatrix([[np.sqrt(2.0)], [-np.sqrt(2.0)]])
        r = np.array([[0.5, 0.5]])
        assert gaussian_prior_value_and_grad(r, z)[0] == pytest.approx(target, rel=1e-12)

    def test_nonnegative_and_zero_only_at_standard(self):
        rng = seeded_rng(13)
        for _ in range(25):
            z = TokenMatrix(rng.standard_normal((8, 3)))
            r = soft_assign(rng.standard_normal((2, 8)))
            assert gaussian_prior_value_and_grad(r, z)[0] >= 0.0

    def test_closed_form_helper(self):
        assert gaussian_kl_closed_form(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(0.5)
        assert gaussian_kl_closed_form(np.zeros((1, 1)), np.array([[2.0]])) == pytest.approx(
            0.5 * (2.0 - 1.0 - np.log(2.0))
        )

    def test_degenerate_anchor_prior_only_value(self):
        """A zero-mass anchor contributes the mean-0, floored-variance constant."""
        floor = 1e-6
        z = TokenMatrix(seeded_rng(14).standard_normal((3, 2)))
        r = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        value = gaussian_prior_value_and_grad(r, z, floor)[0]
        means, variances, _, mass = anchor_moments(r, z, floor)
        assert mass[1] == 0.0
        prior_only = 0.5 * 2 * (floor - 1.0 - np.log(floor))
        live = gaussian_kl_closed_form(means[:1], variances[:1])
        np.testing.assert_allclose(value, live + prior_only, rtol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = seeded_rng(15)
        z = TokenMatrix(rng.standard_normal((7, 3)))
        logits = rng.standard_normal((2, 7))
        analytic = gaussian_prior_value_and_grad(soft_assign(logits), z)[1]
        numeric = fd_grad(lambda l: gaussian_prior_value_and_grad(soft_assign(l), z)[0], logits)
        assert rel_err(analytic, numeric) < 1e-6


class TestTotalLoss:
    def test_zero_weight_reduces_to_contrastive(self):
        rng = seeded_rng(16)
        z = TokenMatrix(rng.standard_normal((6, 3)))
        logits = rng.standard_normal((3, 6))
        cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.0)
        out = total_loss(logits, z, cfg)
        r = soft_assign(logits)
        assert out.total == pytest.approx(contrastive_loss(pool_anchors(r, z), z, r, cfg))
        np.testing.assert_array_equal(out.grad_logits, contrastive_grad(pool_anchors(r, z), z, r, cfg))

    def test_prior_none_equals_zero_weight(self):
        rng = seeded_rng(17)
        z = TokenMatrix(rng.standard_normal((5, 3)))
        logits = rng.standard_normal((2, 5))
        none = total_loss(logits, z, AnchorConfig(n_anchors=2, top_k=2, prior_mode="none"))
        zeroed = total_loss(logits, z, AnchorConfig(n_anchors=2, top_k=2, kl_weight=0.0))
        assert none.total == zeroed.total
        np.testing.assert_array_equal(none.grad_logits, zeroed.grad_logits)

    def test_decomposition_matches_separate_calls(self):
        rng = seeded_rng(18)
        z = TokenMatrix(rng.standard_normal((6, 4)))
        logits = rng.standard_normal((3, 6))
        cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.37)
        out = total_loss(logits, z, cfg)
        r = soft_assign(logits)
        expected = contrastive_loss(pool_anchors(r, z), z, r, cfg) + 0.37 * kl_uniform(r)
        np.testing.assert_allclose(out.total, expected, atol=1e-12)

    def test_gaussian_mode_uses_gaussian_term(self):
        rng = seeded_rng(19)
        z = TokenMatrix(rng.standard_normal((6, 3)))
        logits = rng.standard_normal((2, 6))
        cfg = AnchorConfig(n_anchors=2, top_k=2, kl_weight=0.2, prior_mode="gaussian")
        out = total_loss(logits, z, cfg)
        assert out.regularizer == pytest.approx(gaussian_prior_value_and_grad(soft_assign(logits), z)[0])

    def test_full_gradient_matches_finite_differences(self):
        rng = seeded_rng(20)
        z = TokenMatrix(rng.standard_normal((8, 4)))
        logits = rng.standard_normal((3, 8))
        for mode in ("categorical", "gaussian", "none"):
            cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.3, prior_mode=mode)
            analytic = total_loss(logits, z, cfg).grad_logits
            numeric = fd_grad(lambda l: total_loss(l, z, cfg).total, logits)
            assert rel_err(analytic, numeric) < 1e-5


def lexsort_top_k_mask(r, k):
    """The per-anchor lexsort mask the partition mask replaced."""
    mask = np.zeros_like(r, dtype=bool)
    cols = np.arange(r.shape[1])
    for a in range(r.shape[0]):
        mask[a, np.lexsort((cols, -r[a]))[:k]] = True
    return mask


def softmax_backward(r, d_assignments):
    return r * (d_assignments - (r * d_assignments).sum(axis=0, keepdims=True))


def two_pass_total_loss(logits, z, cfg):
    """Reference objective with separate value and gradient passes per term.

    Each pass rebuilds its own similarity matrix, top-k mask, logs and
    moments, as the objective did before its terms were merged; the
    arithmetic of every pass is otherwise the same. Returns
    (total, contrastive, regularizer, grad_logits).
    """
    r = soft_assign(logits)
    anchors = pool_anchors(r, z)

    sims, _, _, _ = _sim_matrix(anchors, z, cfg.sim_epsilon)
    scaled = sims / cfg.temperature
    mask = lexsort_top_k_mask(r, cfg.top_k)
    row_max = scaled.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scaled - row_max).sum(axis=1)) + row_max[:, 0]
    contrast = float((lse - (scaled * mask).sum(axis=1) / cfg.top_k).sum())

    sims, denom, anchor_norms, token_norms = _sim_matrix(anchors, z, cfg.sim_epsilon)
    scaled = sims / cfg.temperature
    mask = lexsort_top_k_mask(r, cfg.top_k)
    row_max = scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled - row_max)
    softmax = expd / expd.sum(axis=1, keepdims=True)
    w_direct = (softmax - mask / cfg.top_k) / cfg.temperature / denom
    d_anchors = w_direct @ z.data
    beta = (w_direct * sims * token_norms[None, :]).sum(axis=1)
    d_anchors -= (beta / np.maximum(anchor_norms, 1e-300))[:, None] * anchors
    grad = softmax_backward(r, d_anchors @ z.data.T)

    if cfg.prior_mode == "categorical":
        live = r > 0
        terms = np.zeros_like(r)
        terms[live] = r[live] * np.log(r[live] * r.shape[0])
        reg = float(terms.sum())
        u = np.zeros_like(r)
        u[live] = np.log(r[live] * r.shape[0]) + 1.0
        reg_grad = softmax_backward(r, u)
        if cfg.kl_mean_normalized:
            reg /= r.shape[1]
            reg_grad /= r.shape[1]
    elif cfg.prior_mode == "gaussian":
        means, variances, _, _ = anchor_moments(r, z, cfg.variance_floor)
        reg = gaussian_kl_closed_form(means, variances)
        means, variances, raw_var, mass = anchor_moments(r, z, cfg.variance_floor)
        ok = mass >= DEGENERATE_MASS
        d_var = np.where(raw_var > cfg.variance_floor, 0.5 * (1.0 - 1.0 / variances), 0.0)
        const = -(means**2).sum(axis=1) + (d_var * (means**2 - raw_var)).sum(axis=1)
        per_token = (
            means @ z.data.T + d_var @ (z.data**2).T - 2.0 * (d_var * means) @ z.data.T
        ) + const[:, None]
        per_token /= np.where(ok, mass, 1.0)[:, None]
        reg_grad = softmax_backward(r, np.where(ok[:, None], per_token, 0.0))
    else:
        reg, reg_grad = 0.0, None
    if reg_grad is not None and cfg.kl_weight != 0.0:
        grad = grad + cfg.kl_weight * reg_grad
    return contrast + cfg.kl_weight * reg, contrast, reg, grad


class TestSinglePass:
    """total_loss computes each term once and still matches the two-pass
    reference bit for bit, tie-heavy assignments included."""

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("mean_normalized", [False, True])
    @pytest.mark.parametrize("quantised", [False, True])
    def test_total_loss_equals_two_pass_reference(self, mode, mean_normalized, quantised):
        rng = seeded_rng(22)
        z = TokenMatrix(rng.standard_normal((48, 5)))
        logits = rng.standard_normal((6, 48))
        if quantised:  # repeated logit columns tie responsibilities at the top-k cut
            logits = np.tile(np.round(logits[:, :8]), 6)
        cfg = AnchorConfig(n_anchors=6, top_k=5, kl_weight=0.3, prior_mode=mode,
                           kl_mean_normalized=mean_normalized)
        out = total_loss(logits, z, cfg)
        total, contrast, reg, grad = two_pass_total_loss(logits, z, cfg)
        np.testing.assert_array_equal(out.total, total)
        np.testing.assert_array_equal(out.contrastive, contrast)
        np.testing.assert_array_equal(out.regularizer, reg)
        np.testing.assert_array_equal(out.grad_logits, grad)

    def test_partition_mask_equals_lexsort_mask(self):
        rng = seeded_rng(23)
        for trial in range(50):
            a, m = rng.integers(1, 9), rng.integers(1, 60)
            r = rng.uniform(0, 1, (a, m))
            if trial % 2:
                r = np.round(r * 3) / 3
            for k in range(1, m + 1):
                np.testing.assert_array_equal(_top_k_mask(r, k), lexsort_top_k_mask(r, k))

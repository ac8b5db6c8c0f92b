"""Loss-term exactness and gradient fidelity for the anchor objective.

Every analytic gradient is checked against central finite differences
computed through the full value pipeline (logits -> softmax -> pooling ->
loss), at points where the top-k selections are stable under the probe.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anchorkit import objective
from anchorkit.core import ConfigError, NumericalError, TokenMatrix, seeded_rng
from anchorkit.objective import (
    DEGENERATE_MASS,
    PRIOR_MODES,
    SIM_EPSILON,
    VARIANCE_FLOOR,
    AnchorConfig,
    _gaussian,
    _moments,
    _top_k_mask,
    contrastive_grad,
    contrastive_loss,
    contrastive_value_and_grad,
    cosine_sim,
    gaussian_kl_closed_form,
    kl_uniform,
    kl_uniform_grad,
    kl_uniform_value_and_grad,
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


class TestAnchorConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("kl_weight", np.nan),
            ("kl_weight", np.inf),
            ("kl_weight", -0.1),
            ("temperature", np.inf),
            ("temperature", np.nan),
            ("temperature", 0.0),
        ],
    )
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            AnchorConfig(**{field: value})


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
        assert contrastive_loss(r, z, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_tokens_log_two(self):
        z = TokenMatrix([[1.0, 2.0], [1.0, 2.0]])
        cfg = AnchorConfig(n_anchors=1, top_k=1)
        r = np.array([[1.0, 1.0]])
        assert contrastive_loss(r, z, cfg) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_matches_naive_double_loop(self):
        """Vectorized loss equals the definitional double loop to 1e-12."""
        rng = seeded_rng(8)
        z = TokenMatrix(rng.standard_normal((4, 3)))
        cfg = AnchorConfig(n_anchors=2, top_k=2, temperature=0.1)
        r = soft_assign(rng.standard_normal((2, 4)))
        c = pool_anchors(r, z)
        value = contrastive_loss(r, z, cfg)

        total = 0.0
        for a in range(2):
            positives = top_k_indices(r, a, 2)
            for m in positives:
                s_m = cosine_sim(c[a], z.data[m]) / cfg.temperature
                denom = sum(
                    np.exp(cosine_sim(c[a], z.data[mp]) / cfg.temperature)
                    for mp in range(4)
                )
                total += -np.log(np.exp(s_m) / denom) / 2
        np.testing.assert_allclose(value, total, atol=1e-12)

    def test_token_rescale_invariance(self):
        """Scaling all tokens rescales anchors too; cosine terms unchanged.

        The SIM_EPSILON guard leaves an O(eps / norm-product) residual, so
        the instance keeps anchor norms away from zero (offset tokens).
        """
        rng = seeded_rng(9)
        z = rng.standard_normal((6, 4)) + 2.0
        cfg = AnchorConfig(n_anchors=3, top_k=2)
        r = soft_assign(rng.standard_normal((3, 6)))
        base = contrastive_loss(r, TokenMatrix(z), cfg)
        scaled = contrastive_loss(r, TokenMatrix(7.5 * z), cfg)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestContrastiveGrad:
    def test_identical_tokens_give_negligible_gradient(self):
        """With all tokens equal the loss is symmetric in the assignments;
        only the SIM_EPSILON guard leaves a vanishing residual."""
        z = TokenMatrix(np.tile([1.0, -2.0, 0.5], (5, 1)))
        cfg = AnchorConfig(n_anchors=3, top_k=2)
        logits = seeded_rng(10).standard_normal((3, 5))
        r = soft_assign(logits)
        grad = contrastive_grad(r, z, cfg)
        assert np.abs(grad).max() < 1e-6
        numeric = fd_grad(lambda l: contrastive_loss(soft_assign(l), z, cfg), logits)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_matches_finite_differences(self):
        rng = seeded_rng(11)
        z = TokenMatrix(rng.standard_normal((6, 4)))
        cfg = AnchorConfig(n_anchors=3, top_k=2, temperature=0.1)
        logits = rng.standard_normal((3, 6))

        def value(l):
            return contrastive_loss(soft_assign(l), z, cfg)

        r = soft_assign(logits)
        # stability: the probe must not flip any top-k set
        for a in range(3):
            row = np.sort(r[a])[::-1]
            assert row[cfg.top_k - 1] - row[cfg.top_k] > 1e-4
        analytic = contrastive_grad(r, z, cfg)
        numeric = fd_grad(value, logits)
        assert rel_err(analytic, numeric) < 1e-5

    def test_gradient_linearity_in_scale(self):
        rng = seeded_rng(12)
        z = TokenMatrix(rng.standard_normal((5, 3)))
        cfg = AnchorConfig(n_anchors=2, top_k=2)
        r = soft_assign(rng.standard_normal((2, 5)))
        g = contrastive_grad(r, z, cfg)
        np.testing.assert_allclose(2.0 * g, 2.0 * contrastive_grad(r, z, cfg), rtol=1e-15)


class TestGaussianPriorKl:
    def test_standard_moments_give_zero(self):
        """Tokens at +1/-1 per dimension with equal weights: mean 0, var 1."""
        z = TokenMatrix(np.vstack([np.ones(3), -np.ones(3)]))
        r = np.full((2, 2), 0.5)
        assert _gaussian(r, z, pool_anchors(r, z))[0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_case(self):
        """mean 1, var 1, one dimension: value 1/2."""
        z = TokenMatrix([[0.0], [2.0]])
        r = np.array([[0.5, 0.5]])
        assert _gaussian(r, z, pool_anchors(r, z))[0] == pytest.approx(0.5, rel=1e-12)

    def test_wide_variance_case(self):
        """mean 0, var 2, one dimension: (2 - 1 - ln 2)/2."""
        target = 0.5 * (2.0 - 1.0 - np.log(2.0))
        z = TokenMatrix([[np.sqrt(2.0)], [-np.sqrt(2.0)]])
        r = np.array([[0.5, 0.5]])
        assert _gaussian(r, z, pool_anchors(r, z))[0] == pytest.approx(target, rel=1e-12)

    def test_nonnegative_and_zero_only_at_standard(self):
        rng = seeded_rng(13)
        for _ in range(25):
            z = TokenMatrix(rng.standard_normal((8, 3)))
            r = soft_assign(rng.standard_normal((2, 8)))
            assert _gaussian(r, z, pool_anchors(r, z))[0] >= 0.0

    def test_closed_form_helper(self):
        assert gaussian_kl_closed_form(np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(0.5)
        assert gaussian_kl_closed_form(np.zeros((1, 1)), np.array([[2.0]])) == pytest.approx(
            0.5 * (2.0 - 1.0 - np.log(2.0))
        )

    def test_degenerate_anchor_prior_only_value(self):
        """A zero-mass anchor contributes the mean-0, floored-variance constant."""
        floor = VARIANCE_FLOOR
        z = TokenMatrix(seeded_rng(14).standard_normal((3, 2)))
        r = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        value = _gaussian(r, z, pool_anchors(r, z))[0]
        means, variances, _, mass = _moments(r, pool_anchors(r, z), z.data**2)[:4]
        assert mass[1] == 0.0
        prior_only = 0.5 * 2 * (floor - 1.0 - np.log(floor))
        live = gaussian_kl_closed_form(means[:1], variances[:1])
        np.testing.assert_allclose(value, live + prior_only, rtol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = seeded_rng(15)
        z = TokenMatrix(rng.standard_normal((7, 3)))
        logits = rng.standard_normal((2, 7))
        r = soft_assign(logits)
        analytic = _gaussian(r, z, pool_anchors(r, z))[1]

        def value(l):
            r = soft_assign(l)
            return _gaussian(r, z, pool_anchors(r, z))[0]

        numeric = fd_grad(value, logits)
        assert rel_err(analytic, numeric) < 1e-6


class TestTotalLoss:
    def test_zero_weight_reduces_to_contrastive(self):
        rng = seeded_rng(16)
        z = TokenMatrix(rng.standard_normal((6, 3)))
        logits = rng.standard_normal((3, 6))
        cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.0)
        r = soft_assign(logits)
        out = total_loss(r, z, cfg)
        assert out.total == pytest.approx(contrastive_loss(r, z, cfg))
        np.testing.assert_array_equal(out.grad_logits, contrastive_grad(r, z, cfg))

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    def test_zero_weight_evaluates_no_regularizer(self, mode, monkeypatch):
        def refuse(*args):
            raise AssertionError("regularizer evaluated at kl_weight = 0")

        monkeypatch.setattr(objective, "kl_uniform_value_and_grad", refuse)
        monkeypatch.setattr(objective, "_kl_value_and_column_sums", refuse)
        monkeypatch.setattr(objective, "_gaussian", refuse)
        rng = seeded_rng(17)
        z = TokenMatrix(rng.standard_normal((5, 3)))
        logits = rng.standard_normal((2, 5))
        cfg = AnchorConfig(n_anchors=2, top_k=2, kl_weight=0.0, prior_mode=mode)
        r = soft_assign(logits)
        out = total_loss(r, z, cfg)
        contrast, grad = contrastive_value_and_grad(r, z, cfg)
        assert out.regularizer == 0.0
        np.testing.assert_array_equal(out.total, contrast)
        np.testing.assert_array_equal(out.grad_logits, grad)

    @pytest.mark.parametrize("weight", [0.0, 0.3])
    @pytest.mark.parametrize("mode", PRIOR_MODES)
    def test_anchors_pooled_once_per_call(self, mode, weight, monkeypatch):
        calls = []
        pool = objective.pool_anchors

        def spy(*args):
            calls.append(args)
            return pool(*args)

        monkeypatch.setattr(objective, "pool_anchors", spy)
        rng = seeded_rng(17)
        z = TokenMatrix(rng.standard_normal((5, 3)))
        cfg = AnchorConfig(n_anchors=2, top_k=2, kl_weight=weight, prior_mode=mode)
        total_loss(soft_assign(rng.standard_normal((2, 5))), z, cfg)
        assert len(calls) == 1

    def test_decomposition_matches_separate_calls(self):
        rng = seeded_rng(18)
        z = TokenMatrix(rng.standard_normal((6, 4)))
        logits = rng.standard_normal((3, 6))
        cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.37)
        r = soft_assign(logits)
        out = total_loss(r, z, cfg)
        expected = contrastive_loss(r, z, cfg) + 0.37 * kl_uniform(r)
        np.testing.assert_allclose(out.total, expected, atol=1e-12)

    def test_gaussian_mode_uses_gaussian_term(self):
        rng = seeded_rng(19)
        z = TokenMatrix(rng.standard_normal((6, 3)))
        logits = rng.standard_normal((2, 6))
        cfg = AnchorConfig(n_anchors=2, top_k=2, kl_weight=0.2, prior_mode="gaussian")
        r = soft_assign(logits)
        out = total_loss(r, z, cfg)
        assert out.regularizer == pytest.approx(_gaussian(r, z, pool_anchors(r, z))[0])

    def test_full_gradient_matches_finite_differences(self):
        rng = seeded_rng(20)
        z = TokenMatrix(rng.standard_normal((8, 4)))
        logits = rng.standard_normal((3, 8))
        for mode in PRIOR_MODES:
            cfg = AnchorConfig(n_anchors=3, top_k=2, kl_weight=0.3, prior_mode=mode)
            analytic = total_loss(soft_assign(logits), z, cfg).grad_logits
            numeric = fd_grad(lambda l: total_loss(soft_assign(l), z, cfg).total, logits)
            assert rel_err(analytic, numeric) < 1e-5


def lexsort_top_k_mask(r, k):
    """The per-anchor lexsort mask the partition mask replaced."""
    mask = np.zeros_like(r, dtype=bool)
    cols = np.arange(r.shape[1])
    for a in range(r.shape[0]):
        mask[a, np.lexsort((cols, -r[a]))[:k]] = True
    return mask


def sim_matrix(anchors, tokens):
    """Cosine similarities of every anchor against every token, and the
    factors the gradient reuses: (sims, denom, anchor_norms, token_norms)."""
    z = tokens.data
    anchor_norms = np.linalg.norm(anchors, axis=1)
    token_norms = np.linalg.norm(z, axis=1)
    denom = anchor_norms[:, None] * token_norms[None, :]
    denom += SIM_EPSILON
    sims = anchors @ z.T
    sims /= denom
    return sims, denom, anchor_norms, token_norms


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

    sims, _, _, _ = sim_matrix(anchors, z)
    scaled = sims / cfg.temperature
    mask = lexsort_top_k_mask(r, cfg.top_k)
    row_max = scaled.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scaled - row_max).sum(axis=1)) + row_max[:, 0]
    contrast = float((lse - (scaled * mask).sum(axis=1) / cfg.top_k).sum())

    sims, denom, anchor_norms, token_norms = sim_matrix(anchors, z)
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
    else:
        means, variances, _, _ = _moments(r, pool_anchors(r, z), z.data**2)[:4]
        reg = gaussian_kl_closed_form(means, variances)
        means, variances, raw_var, mass = _moments(r, pool_anchors(r, z), z.data**2)[:4]
        ok = mass >= DEGENERATE_MASS
        d_var = np.where(raw_var > VARIANCE_FLOOR, 0.5 * (1.0 - 1.0 / variances), 0.0)
        const = -(means**2).sum(axis=1) + (d_var * (means**2 - raw_var)).sum(axis=1)
        per_token = (
            means @ z.data.T + d_var @ (z.data**2).T - 2.0 * (d_var * means) @ z.data.T
        ) + const[:, None]
        per_token /= np.where(ok, mass, 1.0)[:, None]
        reg_grad = softmax_backward(r, np.where(ok[:, None], per_token, 0.0))
    grad = grad + cfg.kl_weight * reg_grad
    return contrast + cfg.kl_weight * reg, contrast, reg, grad


def assert_same_bits(got, want):
    """Equal shapes and bytes: unlike ``assert_array_equal``, -0.0 differs from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_total_loss_equals_two_pass_reference(mode, quantised):
    rng = seeded_rng(22)
    z = TokenMatrix(rng.standard_normal((48, 5)))
    logits = rng.standard_normal((6, 48))
    if quantised:  # repeated logit columns tie responsibilities at the top-k cut
        logits = np.tile(np.round(logits[:, :8]), 6)
    cfg = AnchorConfig(n_anchors=6, top_k=5, kl_weight=0.3, prior_mode=mode)
    out = total_loss(soft_assign(logits), z, cfg)
    total, contrast, reg, grad = two_pass_total_loss(logits, z, cfg)
    assert_same_bits(out.total, total)
    assert_same_bits(out.contrastive, contrast)
    assert_same_bits(out.regularizer, reg)
    assert_same_bits(out.grad_logits, grad)


class TestSinglePass:
    """total_loss computes each term once and still matches the two-pass
    reference bit for bit, tie-heavy assignments included."""

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("quantised", [False, True])
    def test_total_loss_equals_two_pass_reference(self, mode, quantised):
        assert_total_loss_equals_two_pass_reference(mode, quantised)

    def test_partition_mask_equals_lexsort_mask(self):
        rng = seeded_rng(23)
        for trial in range(50):
            a, m = rng.integers(1, 9), rng.integers(1, 60)
            r = rng.uniform(0, 1, (a, m))
            if trial % 2:
                r = np.round(r * 3) / 3
            for k in range(1, m + 1):
                np.testing.assert_array_equal(_top_k_mask(r, k), lexsort_top_k_mask(r, k))


def reference_soft_assign(logits):
    """The column softmax with a fresh array per operation."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=0, keepdims=True)


def reference_kl_uniform_value_and_grad(r):
    """The categorical regularizer with a fresh array per operation."""
    mask = r > 0
    log_ratio = np.zeros_like(r)
    np.log(r * r.shape[0], out=log_ratio, where=mask)
    value = float((r * log_ratio).sum())
    return value, softmax_backward(r, log_ratio + mask)


def reference_contrastive_value_and_grad(anchors, z, r, cfg):
    """The contrastive term with a fresh array per operation."""
    anchor_norms = np.linalg.norm(anchors, axis=1)
    token_norms = np.linalg.norm(z.data, axis=1)
    denom = anchor_norms[:, None] * token_norms[None, :] + SIM_EPSILON
    sims = (anchors @ z.data.T) / denom
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
    d_anchors = w_direct @ z.data
    d_anchors -= (beta / np.maximum(anchor_norms, 1e-300))[:, None] * anchors
    return value, softmax_backward(r, d_anchors @ z.data.T)


def logit_cases():
    """Random, tie-heavy and large-magnitude (+-700) logits with tokens."""
    rng = seeded_rng(40)
    z = TokenMatrix(rng.standard_normal((48, 5)))
    plain = rng.standard_normal((6, 48))
    return {
        "random": (plain, z),
        "ties": (np.tile(np.round(plain[:, :8]), 6), z),
        "huge": (700.0 * np.sign(plain) * (np.abs(plain) > 0.5), z),
    }


def assert_terms_equal_references(case):
    logits, z = logit_cases()[case]
    r = reference_soft_assign(logits)
    np.testing.assert_array_equal(soft_assign(logits), r)
    buf = logits.copy()
    assert soft_assign(buf, out=buf) is buf
    np.testing.assert_array_equal(buf, r)
    for got, want in zip(kl_uniform_value_and_grad(r), reference_kl_uniform_value_and_grad(r)):
        assert_same_bits(got, want)
    cfg = AnchorConfig(n_anchors=6, top_k=5)
    for got, want in zip(contrastive_value_and_grad(r, z, cfg),
                         reference_contrastive_value_and_grad(r @ z.data, z, r, cfg)):
        assert_same_bits(got, want)


class TestInPlaceObjective:
    """The buffer-reusing softmax and loss terms match the one-array-per-
    operation references bit for bit and never write their inputs."""

    @pytest.mark.parametrize("case", ["random", "ties", "huge"])
    def test_terms_equal_references(self, case):
        assert_terms_equal_references(case)

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    def test_public_functions_leave_inputs_unchanged(self, mode):
        logits, z = logit_cases()["random"]
        logits_seen, data = logits.copy(), z.data.copy()
        r = soft_assign(logits_seen)
        r_seen = r.copy()
        cfg = AnchorConfig(n_anchors=6, top_k=5, prior_mode=mode)
        total_loss(r_seen, z, cfg)
        contrastive_value_and_grad(r_seen, z, cfg)
        np.testing.assert_array_equal(logits_seen, logits)
        np.testing.assert_array_equal(r_seen, r)
        np.testing.assert_array_equal(z.data, data)

    @pytest.mark.parametrize("case", ["random", "ties", "huge"])
    def test_soft_assign_into_its_input_equals_a_fresh_output(self, case):
        logits, _ = logit_cases()[case]
        seen = logits.copy()
        fresh = soft_assign(seen)
        np.testing.assert_array_equal(seen, logits)
        buf = logits.copy()
        assert soft_assign(buf, out=buf) is buf
        np.testing.assert_array_equal(buf, fresh)

    @pytest.mark.parametrize("case", ["random", "huge"])
    def test_terms_take_fortran_ordered_assignments(self, case):
        """A column-major view gives the same bits as its C-ordered copy
        ("huge" has zero responsibilities, which the KL term zeroes)."""
        logits, z = logit_cases()[case]
        r = reference_soft_assign(logits)
        cfg = AnchorConfig(n_anchors=6, top_k=5)
        for term, args in ((kl_uniform_value_and_grad, ()),
                           (contrastive_value_and_grad, (z, cfg))):
            for got, want in zip(term(np.asfortranarray(r), *args), term(r, *args)):
                assert_same_bits(got, want)

    def test_soft_assign_traced_peak_is_one_output(self):
        """At A=512, M=4096 the softmax holds its output and (M,) column
        arrays: below 1.25 output sizes (one array per operation peaked at
        3)."""
        logits = seeded_rng(41).standard_normal((512, 4096))
        tracemalloc.start()
        try:
            soft_assign(logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * logits.nbytes

    def test_soft_assign_in_place_holds_no_mask(self):
        """At A=512, M=8192 the in-place softmax holds only (M,) column
        arrays: under 0.05 logit arrays (a boolean finiteness mask of the
        logits peaked at 0.125)."""
        logits = seeded_rng(42).standard_normal((512, 8192))
        tracemalloc.start()
        try:
            soft_assign(logits, out=logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * logits.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 3), (4, 1)])
    def test_soft_assign_rejects_non_finite_before_writing(self, bad, where):
        """The column max shows NaN and +inf, the column min -inf, wherever
        the entry sits in its column."""
        logits = seeded_rng(43).standard_normal((5, 4))
        logits[where] = bad
        seen = logits.copy()
        with pytest.raises(NumericalError, match="non-finite"):
            soft_assign(seen, out=seen)
        np.testing.assert_array_equal(seen, logits)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_soft_assign_of_any_finite_logits(self, logits):
        with np.errstate(over="ignore"):  # x - max overflows to -inf across +-1e308
            want = reference_soft_assign(logits)
            np.testing.assert_array_equal(soft_assign(logits), want)
            buf = logits.copy()
            np.testing.assert_array_equal(soft_assign(buf, out=buf), want)
        np.testing.assert_allclose(want.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def whole_array_top_k_mask(r, k):
    """The top-k mask from one np.partition of the whole array."""
    m = r.shape[1]
    kth = np.partition(r, m - k, axis=1)[:, m - k, None]
    mask = r >= kth
    surplus = mask.sum(axis=1) - k
    for a in np.flatnonzero(surplus):
        ties = np.flatnonzero(r[a] == kth[a])
        mask[a, ties[len(ties) - surplus[a]:]] = False
    return mask


class TestRowTiles:
    """The elementwise passes walk the anchors in row tiles. Budgets of 1, 2,
    3 and 5 rows split the 6 anchors into several tiles, the last one
    ragged, 6 rows make one tile, and every result stays bit-identical to
    the references."""

    @pytest.fixture(params=[1, 2, 3, 5, 6])
    def rows_per_tile(self, request, monkeypatch):
        monkeypatch.setattr(objective, "_TILE_BYTES", 8 * 48 * request.param)
        return request.param

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("quantised", [False, True])
    def test_total_loss_equals_two_pass_reference(self, rows_per_tile, mode, quantised):
        assert objective._row_tiles((6, 48), objective._TILE_BYTES)[0] == rows_per_tile
        assert_total_loss_equals_two_pass_reference(mode, quantised)

    @pytest.mark.parametrize("case", ["random", "ties", "huge"])
    def test_terms_equal_references(self, rows_per_tile, case):
        assert_terms_equal_references(case)

    def test_top_k_mask_equals_whole_array_partition(self, rows_per_tile):
        """Rows tie at their k-th value, and equal rows sit on both sides of
        every tile boundary."""
        rng = seeded_rng(44)
        row = np.round(rng.uniform(0, 3, 48)) / 3
        r = np.stack([row, row, np.roll(row, 5), np.roll(row, 5), row, np.roll(row, 11)])
        for k in range(1, 49):
            want = whole_array_top_k_mask(r, k)
            np.testing.assert_array_equal(_top_k_mask(r, k), want)
            np.testing.assert_array_equal(_top_k_mask(np.asfortranarray(r), k), want)

    @pytest.mark.parametrize("scale", [1.0, 400.0])
    def test_kl_sweeps_equal_references(self, rows_per_tile, scale):
        """At scale 400 most responsibilities underflow to 0, the entries
        both KL sweeps zero."""
        logits, z = logit_cases()["random"]
        logits = scale * logits
        r = reference_soft_assign(logits)
        assert (r == 0).any() == (scale > 1)
        for got, want in zip(kl_uniform_value_and_grad(r), reference_kl_uniform_value_and_grad(r)):
            assert_same_bits(got, want)
        for weight in (0.1, 2.5):
            cfg = AnchorConfig(n_anchors=6, top_k=5, kl_weight=weight)
            out = total_loss(r, z, cfg)
            total, contrast, reg, grad = two_pass_total_loss(logits, z, cfg)
            for got, want in ((out.total, total), (out.contrastive, contrast),
                              (out.regularizer, reg), (out.grad_logits, grad)):
                assert_same_bits(got, want)

    def test_kl_of_nan_assignments_equals_reference(self, rows_per_tile):
        """NaN entries count as dead, as in the reference: the value and
        their columns of the gradient come out NaN, bit for bit."""
        r = reference_soft_assign(logit_cases()["random"][0])
        r[[0, 3, 5], [2, 2, 40]] = np.nan
        got, want = kl_uniform_value_and_grad(r), reference_kl_uniform_value_and_grad(r)
        assert np.isnan(got[0]) and np.isnan(got[1][:, [2, 40]]).all()
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    def test_total_loss_traced_peak_below_two_and_a_half_assignment_matrices(self, mode):
        """At A=512, M=4096 (16-row tiles) the Gaussian regularizer runs
        first and its scratch is freed before the gradient buffer is made,
        so the objective holds at most two assignment-sized arrays beyond
        its input, plus the top-k mask and a few tiles (the whole-matrix
        passes peaked near 4.1)."""
        tokens = TokenMatrix(seeded_rng(42).standard_normal((4096, 16)))
        r = soft_assign(seeded_rng(43).standard_normal((512, 4096)))
        tracemalloc.start()
        try:
            total_loss(r, tokens, AnchorConfig(n_anchors=512, prior_mode=mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * r.nbytes

    def test_categorical_total_loss_traced_peak_below_one_and_a_half_assignment_matrices(self):
        """With the categorical prior the objective holds one gradient
        buffer, the top-k mask and a few tiles: the KL sweeps work in the
        buffer the contrastive term then fills (a KL gradient of its own
        peaked at 2.27)."""
        tokens = TokenMatrix(seeded_rng(42).standard_normal((4096, 16)))
        r = soft_assign(seeded_rng(43).standard_normal((512, 4096)))
        tracemalloc.start()
        try:
            total_loss(r, tokens, AnchorConfig(n_anchors=512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * r.nbytes

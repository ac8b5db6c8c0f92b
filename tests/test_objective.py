"""Loss-term exactness and gradient fidelity for the anchor objective.

Every analytic gradient is checked against central finite differences
computed through the full value pipeline (logits -> softmax -> pooling ->
loss), at points where the top-k selections are stable under the probe.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anchorkit import objective
from anchorkit.core import ConfigError, NumericalError, TokenMatrix, seeded_rng
from anchorkit.objective import (
    PRIOR_MODES,
    VARIANCE_FLOOR,
    AnchorConfig,
    _gaussian,
    _top_k_mask,
    contrastive_grad,
    contrastive_loss,
    contrastive_value_and_grad,
    gaussian_kl_closed_form,
    kl_uniform,
    kl_uniform_grad,
    kl_uniform_value_and_grad,
    pool_anchors,
    soft_assign,
    total_loss,
)
from reference import (
    lexsort_top_k_mask,
    reference_contrastive_value_and_grad,
    reference_cosine,
    reference_gaussian_value_and_grad,
    reference_kl_uniform_value_and_grad,
    reference_soft_assign,
    reference_total_loss,
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


def straddling_ties():
    """Six tie-heavy rows of 48 values in thirds; equal rows sit on both
    sides of every boundary of 1-, 2- and 3-row tiles."""
    row = np.round(seeded_rng(44).uniform(0, 3, 48)) / 3
    return np.stack([row, row, np.roll(row, 5), np.roll(row, 5), row, np.roll(row, 11)])


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


class TestTopK:
    def test_tie_breaks_to_lowest_index(self):
        r = np.array([[0.4, 0.4, 0.2]])
        np.testing.assert_array_equal(_top_k_mask(r, 1), [[True, False, False]])

    def test_two_of_three(self):
        r = np.array([[0.1, 0.7, 0.2]])
        np.testing.assert_array_equal(_top_k_mask(r, 2), [[False, True, True]])

    def test_k_equals_m(self):
        r = np.array([[0.1, 0.7, 0.2]])
        np.testing.assert_array_equal(_top_k_mask(r, 3), [[True, True, True]])

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            _top_k_mask(np.ones((1, 3)) / 3, 4)

    def test_matches_full_sort(self):
        rng = seeded_rng(7)
        r = soft_assign(rng.standard_normal((4, 12)))
        mask = _top_k_mask(r, 5)
        for a in range(4):
            order = sorted(range(12), key=lambda m: (-r[a, m], m))
            np.testing.assert_array_equal(np.flatnonzero(mask[a]), sorted(order[:5]))

    @pytest.mark.parametrize("name,rows", [
        ("all equal", np.full((3, 9), 0.25)),
        ("exact zeros", np.array([[0.0, -0.0, 0.0, 0.5, -0.0, 0.0, 0.5, 0.0, -0.0],
                                  [0.0] * 9,
                                  [-0.0, 0.0] * 4 + [1.0]])),
        ("quantised", np.round(seeded_rng(21).uniform(0, 1, (40, 16)) * 3) / 3),
        ("straddling", straddling_ties()),
    ])
    def test_tie_heavy_rows_match_reference(self, name, rows):
        """Every k, from C- and Fortran-ordered rows."""
        for k in range(1, rows.shape[1] + 1):
            want = lexsort_top_k_mask(rows, k)
            for order in (rows, np.asfortranarray(rows)):
                np.testing.assert_array_equal(_top_k_mask(order, k), want,
                                              err_msg=f"{name}, k={k}")

    def test_partition_mask_equals_lexsort_mask(self):
        rng = seeded_rng(23)
        for trial in range(50):
            a, m = rng.integers(1, 9), rng.integers(1, 60)
            r = rng.uniform(0, 1, (a, m))
            if trial % 2:
                r = np.round(r * 3) / 3
            for k in range(1, m + 1):
                np.testing.assert_array_equal(_top_k_mask(r, k), lexsort_top_k_mask(r, k))


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
        mask = lexsort_top_k_mask(r, 2)

        total = 0.0
        for a in range(2):
            positives = np.flatnonzero(mask[a])
            for m in positives:
                s_m = reference_cosine(c[a], z.data[m]) / cfg.temperature
                denom = sum(
                    np.exp(reference_cosine(c[a], z.data[mp]) / cfg.temperature)
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
        prior_only = 0.5 * 2 * (floor - 1.0 - np.log(floor))
        live = gaussian_kl_closed_form(z.data.mean(axis=0), z.data.var(axis=0))
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


def assert_same_bits(got, want):
    """Equal shapes and bytes: unlike ``assert_array_equal``, -0.0 differs from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_total_loss_equals_reference(r, z, cfg):
    out = total_loss(r, z, cfg)
    for got, want in zip((out.total, out.contrastive, out.regularizer, out.grad_logits),
                         reference_total_loss(r, z.data, cfg)):
        assert_same_bits(got, want)


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


class TestInPlaceObjective:
    """The buffer-reusing softmax and loss terms never write their inputs."""

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

    @pytest.mark.parametrize("weight", [0.0, 0.3])
    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("case", ["random", "huge"])
    def test_total_loss_into_out_equals_a_fresh_gradient(self, case, mode, weight):
        """``total_loss(..., out=buf)`` returns ``buf`` as its gradient, with
        the bits of a fresh call whatever ``buf`` held before."""
        logits, z = logit_cases()[case]
        r = soft_assign(logits)
        cfg = AnchorConfig(n_anchors=6, top_k=5, kl_weight=weight, prior_mode=mode)
        buf = np.full(r.shape, np.nan)
        got, want = total_loss(r, z, cfg, out=buf), total_loss(r, z, cfg)
        assert got.grad_logits is buf
        for a, b in zip((got.total, got.contrastive, got.regularizer, got.grad_logits),
                        (want.total, want.contrastive, want.regularizer, want.grad_logits)):
            assert_same_bits(a, b)

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

    def test_soft_assign_traced_peak_is_one_output(self, traced_peak):
        """At A=512, M=4096 the softmax holds its output and (M,) column
        arrays: below 1.25 output sizes (one array per operation peaked at
        3)."""
        logits = seeded_rng(41).standard_normal((512, 4096))
        assert traced_peak(soft_assign, logits) < 1.25 * logits.nbytes

    def test_soft_assign_in_place_holds_no_mask(self, traced_peak):
        """At A=512, M=8192 the in-place softmax holds only (M,) column
        arrays: under 0.05 logit arrays (a boolean finiteness mask of the
        logits peaked at 0.125)."""
        logits = seeded_rng(42).standard_normal((512, 8192))
        assert traced_peak(soft_assign, logits, out=logits) < 0.05 * logits.nbytes

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


class TestRowTileWalker:
    """One helper walks the objective's row tiles and hands each tile its
    views of the buffers that every tile reuses."""

    @pytest.mark.parametrize("budget,rows", [(8 * 48 * 4, 4), (8 * 48 * 5 - 1, 4), (1, 1),
                                             (2**40, 6)])
    def test_rows_fit_the_budget_and_every_tile_starts_once(self, monkeypatch, budget, rows):
        monkeypatch.setattr(objective, "_TILE_BYTES", budget)
        tiles = list(objective._row_tiles((6, 48), float, bool))
        assert [t for t, _, _ in tiles] == [slice(s, s + rows) for s in range(0, 6, rows)]
        np.testing.assert_array_equal(np.concatenate([np.arange(6)[t] for t, _, _ in tiles]),
                                      np.arange(6))
        first_u, first_dead = tiles[0][1:]
        for t, u, dead in tiles:
            n = len(range(6)[t])
            assert u.shape == dead.shape == (n, 48)
            assert (u.dtype, dead.dtype) == (np.float64, bool)
            assert np.shares_memory(u, first_u) and np.shares_memory(dead, first_dead)


class TestRowTiles:
    """The elementwise passes walk the anchors in row tiles. Budgets of 1, 2,
    3 and 5 rows split the 6 anchors into several tiles, the last one
    ragged, 6 rows make one tile, as the default budget does, and every
    result of the buffer-reusing softmax and loss terms stays bit-identical
    to the one-array-per-operation references, tie-heavy assignments
    included."""

    @pytest.fixture(params=[1, 2, 3, 5, 6])
    def rows_per_tile(self, request, monkeypatch):
        monkeypatch.setattr(objective, "_TILE_BYTES", 8 * 48 * request.param)
        return request.param

    @pytest.mark.parametrize("mode", PRIOR_MODES)
    @pytest.mark.parametrize("quantised", [False, True])
    def test_total_loss_equals_reference(self, rows_per_tile, mode, quantised):
        assert next(objective._row_tiles((6, 48))) == (slice(0, rows_per_tile),)
        rng = seeded_rng(22)
        z = TokenMatrix(rng.standard_normal((48, 5)))
        logits = rng.standard_normal((6, 48))
        if quantised:  # repeated logit columns tie responsibilities at the top-k cut
            logits = np.tile(np.round(logits[:, :8]), 6)
        cfg = AnchorConfig(n_anchors=6, top_k=5, kl_weight=0.3, prior_mode=mode)
        assert_total_loss_equals_reference(reference_soft_assign(logits), z, cfg)

    @pytest.mark.parametrize("case", ["random", "ties", "huge"])
    def test_terms_equal_references(self, rows_per_tile, case):
        logits, z = logit_cases()[case]
        r = reference_soft_assign(logits)
        seen = logits.copy()
        np.testing.assert_array_equal(soft_assign(seen), r)
        np.testing.assert_array_equal(seen, logits)
        buf = logits.copy()
        assert soft_assign(buf, out=buf) is buf
        np.testing.assert_array_equal(buf, r)
        for got, want in zip(kl_uniform_value_and_grad(r), reference_kl_uniform_value_and_grad(r)):
            assert_same_bits(got, want)
        cfg = AnchorConfig(n_anchors=6, top_k=5)
        for got, want in zip(contrastive_value_and_grad(r, z, cfg),
                             reference_contrastive_value_and_grad(r, z.data, cfg)):
            assert_same_bits(got, want)
        for got, want in zip(_gaussian(r, z, pool_anchors(r, z)),
                             reference_gaussian_value_and_grad(r, z.data)):
            assert_same_bits(got, want)

    def test_top_k_mask_equals_whole_array_partition(self, rows_per_tile):
        """Masking tile by tile, as the contrastive term does, into the one
        boolean tile every tile reuses, gives the whole array's mask. Rows
        tie at their k-th value, and equal rows sit on both sides of every
        tile boundary."""
        r = straddling_ties()
        for k in range(1, 49):
            want = lexsort_top_k_mask(r, k)
            for order in (r, np.asfortranarray(r)):
                got = np.zeros(r.shape, dtype=bool)
                for t, in_top in objective._row_tiles(r.shape, bool):
                    got[t] = _top_k_mask(order[t], k, out=in_top)
                np.testing.assert_array_equal(got, want, err_msg=f"k={k}")

    def test_contrastive_with_ties_across_tiles_equals_lexsort_reference(self, rows_per_tile):
        """The contrastive term masks each row tile in one boolean tile. At
        44 of the 48 values of k every row has surplus ties at its k-th
        value, on both sides of every tile boundary, and at every k the
        value and gradient keep the lexsort mask's bits."""
        r = straddling_ties()
        z = logit_cases()["random"][1]
        for k in range(1, 49):
            cfg = AnchorConfig(n_anchors=6, top_k=k)
            for got, want in zip(contrastive_value_and_grad(r, z, cfg),
                                 reference_contrastive_value_and_grad(r, z.data, cfg)):
                assert_same_bits(got, want)

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
            assert_total_loss_equals_reference(r, z, AnchorConfig(n_anchors=6, top_k=5,
                                                                  kl_weight=weight))

    def test_kl_of_nan_assignments_equals_reference(self, rows_per_tile):
        """NaN entries count as dead, as in the reference: the value and
        their columns of the gradient come out NaN, bit for bit."""
        r = reference_soft_assign(logit_cases()["random"][0])
        r[[0, 3, 5], [2, 2, 40]] = np.nan
        got, want = kl_uniform_value_and_grad(r), reference_kl_uniform_value_and_grad(r)
        assert np.isnan(got[0]) and np.isnan(got[1][:, [2, 40]]).all()
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("mode,bound", [("categorical", 1.5), ("gaussian", 2.5)])
    def test_total_loss_traced_peak_in_assignment_matrices(self, traced_peak, mode, bound):
        """At A=512, M=4096 (16-row tiles) the categorical objective holds
        one gradient buffer and a few tiles: the KL sweeps work in the
        buffer the contrastive term then fills. The Gaussian regularizer
        runs first and frees its scratch before the gradient buffer is
        made, so it holds at most two assignment-sized arrays beyond its
        input."""
        tokens = TokenMatrix(seeded_rng(42).standard_normal((4096, 16)))
        r = soft_assign(seeded_rng(43).standard_normal((512, 4096)))
        cfg = AnchorConfig(n_anchors=512, prior_mode=mode)
        assert traced_peak(total_loss, r, tokens, cfg) < bound * r.nbytes

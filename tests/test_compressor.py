"""Training-loop contracts, one-pass compression, and usage diagnostics."""

import time

import numpy as np
import pytest

from anchorkit import assignnet
from anchorkit.assignnet import AdamParams, init_network
from anchorkit.compressor import (
    TrainConfig,
    TrainingDivergedError,
    anchor_means,
    anchor_usage_entropy,
    compress,
    train,
)
from anchorkit.core import ConfigError, TokenMatrix, seeded_rng
from anchorkit.objective import AnchorConfig, total_loss
from anchorkit.synth import MixtureSpec, gaussian_mixture


def small_objective(**kw):
    base = dict(n_anchors=4, top_k=2)
    base.update(kw)
    return AnchorConfig(**base)


def random_tokens(m=32, c=5, seed=0):
    return TokenMatrix(seeded_rng(seed).standard_normal((m, c)))


class TestTrainContract:
    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)

    def test_one_step_trains_once(self):
        tokens = random_tokens()
        cfg = TrainConfig(steps=1, log_every=10, seed=3, objective=small_objective(),
                          hidden_dims=(8,))
        net, report = train(tokens, cfg)
        assert len(report.records) == 1
        assert report.records[0].step == 1

    def test_fixed_seed_bit_identical(self):
        tokens = random_tokens(seed=5)
        cfg = TrainConfig(steps=25, log_every=5, seed=11, objective=small_objective(),
                          hidden_dims=(8,))
        net_a, report_a = train(tokens, cfg)
        net_b, report_b = train(tokens, cfg)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert report_a == report_b

    @pytest.mark.parametrize("mode", ["categorical", "gaussian", "none"])
    def test_cached_backprop_equals_public_forward_and_backward(self, mode):
        """train runs the network forward once per step and backpropagates
        through those activations; the result is bit-identical to calling
        the public forward, total_loss, backward and adam_step in turn."""
        tokens = random_tokens(m=40, seed=6)
        cfg = TrainConfig(steps=3, log_every=1, seed=2, hidden_dims=(8, 6),
                          objective=small_objective(kl_weight=0.2, prior_mode=mode))
        net, report = train(tokens, cfg)

        expected = init_network(tokens.num_channels, 4, (8, 6), seed=2)
        state = assignnet.init_adam(expected, cfg.adam)
        for step in range(1, 4):
            value = total_loss(assignnet.forward(expected, tokens), tokens, cfg.objective)
            grads = assignnet.backward(expected, tokens, value.grad_logits)
            expected, state = assignnet.adam_step(expected, grads, state)
            assert report.records[step - 1].total == value.total
        for got, want in zip(net.layers, expected.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
            np.testing.assert_array_equal(got.bias, want.bias)

    @pytest.mark.parametrize(
        "steps,log_every", [(1, 1), (5, 2), (10, 3), (10, 10), (7, 50)]
    )
    def test_report_row_count(self, steps, log_every):
        """Record count equals ceil(steps / log_every)."""
        tokens = random_tokens(m=12, c=3, seed=1)
        cfg = TrainConfig(steps=steps, log_every=log_every, seed=0,
                          objective=small_objective(), hidden_dims=(6,))
        _, report = train(tokens, cfg)
        assert len(report.records) == -(-steps // log_every)
        assert report.final.step == steps

    def test_loss_decreases_on_mixture(self):
        """Separable mixture, lr large enough to move: loss goes down."""
        data = gaussian_mixture(MixtureSpec(8, 8, 32, 1.0, 0.05, seed=21))
        cfg = TrainConfig(
            steps=300, log_every=1, seed=0,
            objective=small_objective(n_anchors=8, kl_weight=0.0),
            adam=AdamParams(learning_rate=1e-2), hidden_dims=(32,),
        )
        _, report = train(data.tokens, cfg)
        assert report.final.total < report.records[0].total

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_step(self):
        """An absurd learning rate drives parameters to inf within steps."""
        tokens = random_tokens(m=16, c=4, seed=2)
        cfg = TrainConfig(
            steps=10, log_every=10, seed=0, objective=small_objective(),
            adam=AdamParams(learning_rate=1e308), hidden_dims=(8,),
        )
        with pytest.raises(TrainingDivergedError) as err:
            train(tokens, cfg)
        assert 1 <= err.value.step <= 10

    def test_subsample_contract(self):
        tokens = random_tokens(m=20, c=3, seed=7)
        cfg = TrainConfig(steps=8, log_every=8, seed=0, objective=small_objective(),
                          hidden_dims=(6,), subsample=10)
        net, report = train(tokens, cfg)
        assert report.final.step == 8
        with pytest.raises(ConfigError):
            train(tokens, TrainConfig(steps=1, seed=0, objective=small_objective(),
                                      subsample=21))

    def test_checkpoint_reuse_continues(self):
        tokens = random_tokens(m=16, c=4, seed=9)
        cfg = TrainConfig(steps=5, log_every=5, seed=1, objective=small_objective(),
                          hidden_dims=(6,))
        net1, _ = train(tokens, cfg)
        net2, report = train(tokens, cfg, net=net1)
        assert report.final.step == 5
        changed = any(
            not np.array_equal(a.weight, b.weight)
            for a, b in zip(net1.layers, net2.layers)
        )
        assert changed

    def test_resume_with_wrong_anchor_count_rejected(self):
        from anchorkit.core import DimensionError

        tokens = random_tokens(m=10, c=4, seed=1)
        net = init_network(4, 3, hidden_dims=(6,), seed=0)
        cfg = TrainConfig(steps=1, seed=0, objective=small_objective(n_anchors=5))
        with pytest.raises(DimensionError):
            train(tokens, cfg, net=net)

    def test_weighted_regularizer_column(self):
        """The report's regularizer column carries kl_weight * divergence,
        so prior 'none' and kl_weight 0 produce identical reports."""
        tokens = random_tokens(m=16, c=4, seed=3)
        base = dict(steps=6, log_every=2, seed=4, hidden_dims=(6,))
        _, rep_none = train(tokens, TrainConfig(
            objective=small_objective(prior_mode="none"), **base))
        _, rep_zero = train(tokens, TrainConfig(
            objective=small_objective(kl_weight=0.0), **base))
        assert rep_none == rep_zero


class TestCompress:
    def test_repeat_calls_bit_identical(self):
        tokens = random_tokens(m=14, c=4, seed=8)
        net = init_network(4, 3, hidden_dims=(5,), seed=2)
        a = compress(tokens, net)
        b = compress(tokens, net)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.anchors, b.anchors)

    def test_single_anchor_sums_tokens(self):
        """With one anchor every responsibility is 1; the anchor is the
        column sum of the token matrix."""
        tokens = random_tokens(m=9, c=3, seed=4)
        net = init_network(3, 1, hidden_dims=(4,), seed=0)
        result = compress(tokens, net)
        np.testing.assert_allclose(result.assignments, 1.0, atol=1e-15)
        np.testing.assert_allclose(result.anchors[0], tokens.data.sum(axis=0), rtol=1e-12)

    def test_result_satisfies_invariants(self):
        tokens = random_tokens(m=25, c=6, seed=6)
        net = init_network(6, 5, hidden_dims=(8,), seed=3)
        result = compress(tokens, net)
        np.testing.assert_allclose(result.assignments.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(result.assignments >= 0) and np.all(result.assignments <= 1)
        np.testing.assert_allclose(
            result.anchors, result.assignments @ tokens.data, rtol=1e-9
        )

    def test_linear_time_in_tokens(self):
        """Doubling M at fixed anchors and channels at most ~doubles time
        (tolerance +30%). Wall time on shared hardware conflates the
        algorithm with cache-regime cliffs, so the check accepts the
        cleanest adjacent doubling: a quadratic kernel would show no
        near-2x doubling anywhere in the sweep."""
        net = init_network(16, 8, hidden_dims=(64, 64), seed=0)
        sizes = (2_000, 4_000, 8_000, 16_000)
        batches = {m: TokenMatrix(seeded_rng(m).standard_normal((m, 16))) for m in sizes}
        for tokens in batches.values():
            compress(tokens, net)  # warm allocator and caches
        times = {m: [] for m in sizes}
        for _ in range(9):
            for m in sizes:
                t0 = time.perf_counter()
                compress(batches[m], net)
                times[m].append(time.perf_counter() - t0)
        medians = {m: float(np.median(times[m])) for m in sizes}
        ratios = [medians[b] / medians[a] for a, b in zip(sizes, sizes[1:])]
        assert min(ratios) <= 2.0 * 1.3, f"no clean doubling in {ratios}"


class TestUsageEntropy:
    def test_uniform_is_log_a(self):
        r = np.full((8, 30), 1.0 / 8)
        assert anchor_usage_entropy(r) == pytest.approx(np.log(8.0), rel=1e-12)

    def test_all_mass_on_one_anchor_is_zero(self):
        r = np.zeros((4, 10))
        r[0] = 1.0
        assert anchor_usage_entropy(r) == pytest.approx(0.0, abs=1e-12)

    def test_two_anchor_split_is_log_two(self):
        """Half the columns one-hot on anchor 0, half on anchor 1."""
        r = np.zeros((4, 10))
        r[0, :5] = 1.0
        r[1, 5:] = 1.0
        assert anchor_usage_entropy(r) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_bounds(self):
        rng = seeded_rng(5)
        from anchorkit.objective import soft_assign

        r = soft_assign(rng.standard_normal((6, 40)))
        assert 0.0 <= anchor_usage_entropy(r) <= np.log(6.0) + 1e-12


class TestCollapseMitigation:
    def test_regularizer_raises_usage_entropy(self):
        """Collapse-prone tokens: median entropy with the regularizer on
        is at least the median with it off (3 seeds)."""
        base = seeded_rng(77).standard_normal(6)
        entropies = {0.0: [], 0.1: []}
        for lam in entropies:
            for seed in (0, 1, 2):
                noise = seeded_rng(100 + seed).standard_normal((128, 6))
                tokens = TokenMatrix(base[None, :] + 0.01 * noise)
                cfg = TrainConfig(
                    steps=150, log_every=150, seed=seed,
                    objective=AnchorConfig(n_anchors=4, top_k=2, kl_weight=lam),
                    adam=AdamParams(learning_rate=1e-2), hidden_dims=(16,),
                )
                net, _ = train(tokens, cfg)
                entropies[lam].append(anchor_usage_entropy(compress(tokens, net).assignments))
        assert np.median(entropies[0.1]) >= np.median(entropies[0.0])


class TestAnchorLearning:
    def test_training_beats_untrained_anchors_on_mixture(self):
        """In a specialization-friendly regime (no divergence term, softer
        temperature, lr large enough to move), trained anchor means land
        far closer to the clusters than the untrained network's."""
        from anchorkit.baselines import quantization_error
        from anchorkit.assignnet import init_network

        data = gaussian_mixture(MixtureSpec(8, 16, 128, 1.0, 0.09, seed=42))
        cfg = TrainConfig(
            steps=800, log_every=800, seed=0,
            objective=AnchorConfig(n_anchors=8, kl_weight=0.0, temperature=0.3),
            adam=AdamParams(learning_rate=1e-2),
        )
        untrained = init_network(16, 8, cfg.hidden_dims, seed=cfg.seed)
        before = quantization_error(
            data.tokens,
            anchor_means(compress(data.tokens, untrained).assignments, data.tokens),
        )
        net, _ = train(data.tokens, cfg)
        after = quantization_error(
            data.tokens,
            anchor_means(compress(data.tokens, net).assignments, data.tokens),
        )
        assert after < before / 3


class TestAnchorMeans:
    def test_means_are_mass_normalized_anchors(self):
        tokens = random_tokens(m=12, c=3, seed=10)
        net = init_network(3, 4, hidden_dims=(6,), seed=1)
        result = compress(tokens, net)
        means = anchor_means(result.assignments, tokens)
        mass = result.assignments.sum(axis=1)
        np.testing.assert_allclose(means, result.anchors / mass[:, None], rtol=1e-12)

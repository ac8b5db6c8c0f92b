"""Training-loop contracts, one-pass compression, and usage diagnostics."""

import time
import tracemalloc

import numpy as np
import pytest

from anchorkit import assignnet, compressor
from anchorkit.assignnet import AdamParams, AssignmentNetwork, Layer, init_network
from anchorkit.compressor import (
    TrainConfig,
    TrainingDivergedError,
    anchor_means,
    anchor_usage_entropy,
    compress,
    train,
)
from anchorkit.core import ConfigError, NumericalError, TokenMatrix, seeded_rng
from anchorkit.objective import (
    DEGENERATE_MASS, AnchorConfig, pool_anchors, soft_assign, total_loss,
)
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

    @pytest.mark.parametrize("subsample", [None, 25])
    @pytest.mark.parametrize("mode", ["categorical", "gaussian"])
    def test_cached_backprop_equals_public_forward_and_backward(self, mode, subsample):
        """train runs the network forward once per step, into the first
        step's arrays, and backpropagates through those activations; the
        result is bit-identical to calling the public forward, total_loss,
        backward and adam_step in turn on the same batches."""
        tokens = random_tokens(m=40, seed=6)
        cfg = TrainConfig(steps=3, log_every=1, seed=2, hidden_dims=(8, 6),
                          objective=small_objective(kl_weight=0.2, prior_mode=mode),
                          subsample=subsample)
        net, report = train(tokens, cfg)

        expected = init_network(tokens.num_channels, 4, (8, 6), seed=2)
        state = assignnet.init_adam(expected, cfg.adam)
        rng = seeded_rng(2)
        for step in range(1, 4):
            batch = tokens
            if subsample is not None:
                idx = np.sort(rng.choice(tokens.num_tokens, size=subsample, replace=False))
                batch = TokenMatrix(tokens.data[idx])
            r = soft_assign(assignnet.forward(expected, batch))
            value = total_loss(r, batch, cfg.objective)
            grads = assignnet.backward(expected, batch, value.grad_logits)
            expected, state = assignnet.adam_step(expected, grads, state)
            assert report.records[step - 1].total == value.total
        for got, want in zip(net.layers, expected.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
            np.testing.assert_array_equal(got.bias, want.bias)

    @pytest.mark.parametrize("subsample", [None, 20])
    def test_steps_reuse_the_first_steps_layer_arrays(self, monkeypatch, subsample):
        """Every step's forward pass writes into the arrays the first one
        allocated, so a step does not fault in fresh pages."""
        seen = []
        forward_cached = assignnet._forward_cached

        def spy(net, tokens, out=None):
            acts = forward_cached(net, tokens, out=out)
            seen.append(acts[1:])
            return acts

        monkeypatch.setattr(assignnet, "_forward_cached", spy)
        cfg = TrainConfig(steps=4, log_every=2, seed=4, objective=small_objective(),
                          hidden_dims=(8, 6), subsample=subsample)
        train(random_tokens(m=32), cfg)
        assert len(seen) == 4
        for later in seen[1:]:
            assert len(later) == 3
            for got, first in zip(later, seen[0]):
                assert np.shares_memory(got, first)

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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_logits_stop_at_step_one(self):
        """The column softmax's finiteness check names the logits term."""
        tokens = TokenMatrix(np.abs(seeded_rng(3).standard_normal((16, 4))) + 1.0)
        net = AssignmentNetwork((Layer(np.full((4, 4), 1e308), np.zeros(4)),))
        cfg = TrainConfig(steps=3, seed=0, objective=small_objective())
        with pytest.raises(TrainingDivergedError) as err:
            train(tokens, cfg, net=net)
        assert (err.value.step, err.value.term) == (1, "logits")

    @pytest.mark.parametrize("mode", ["categorical", "gaussian"])
    def test_one_step_traced_peak_below_four_and_a_quarter_assignment_matrices(self, mode):
        """At A=512, M=4096, hidden (128, 128) a training step softmaxes
        in the logits' buffer and the objective works in row tiles, so it
        peaks near 3.8 assignment matrices with the Gaussian prior (whole-
        matrix objective passes peaked near 5.7, a fresh assignment array
        near 6.7)."""
        tokens = random_tokens(m=4096, c=16, seed=16)
        net = init_network(16, 512, hidden_dims=(128, 128), seed=17)
        cfg = TrainConfig(steps=1, seed=0, hidden_dims=(128, 128),
                          objective=AnchorConfig(n_anchors=512, prior_mode=mode))
        tracemalloc.start()
        try:
            train(tokens, cfg, net=net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * 512 * 4096 * 8

    def test_categorical_one_step_traced_peak_below_three_and_a_quarter_assignment_matrices(self):
        """With the categorical prior the objective holds one gradient
        buffer, so a step at A=512, M=4096, hidden (128, 128) peaks near
        2.8 assignment matrices (3.8 with a KL gradient of its own)."""
        tokens = random_tokens(m=4096, c=16, seed=16)
        net = init_network(16, 512, hidden_dims=(128, 128), seed=17)
        cfg = TrainConfig(steps=1, seed=0, hidden_dims=(128, 128),
                          objective=AnchorConfig(n_anchors=512))
        tracemalloc.start()
        try:
            train(tokens, cfg, net=net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * 512 * 4096 * 8

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
        so a kl_weight 0 run reports 0.0 in every row."""
        tokens = random_tokens(m=16, c=4, seed=3)
        base = dict(steps=6, log_every=2, seed=4, hidden_dims=(6,))
        _, rep_zero = train(tokens, TrainConfig(
            objective=small_objective(kl_weight=0.0), **base))
        assert [rec.regularizer for rec in rep_zero.records] == [0.0, 0.0, 0.0]


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


def reference_compress(tokens, net):
    """Forward pass, column softmax and pooling with a fresh array per
    operation; returns (assignments, anchors)."""
    x = tokens.data.T
    for i, layer in enumerate(net.layers):
        pre = layer.weight @ x + layer.bias[:, None]
        x = np.tanh(pre) if i < len(net.layers) - 1 else pre
    expd = np.exp(x - x.max(axis=0, keepdims=True))
    r = expd / expd.sum(axis=0, keepdims=True)
    return r, r @ tokens.data


class TestInPlaceCompress:
    @pytest.mark.parametrize("scale", [1.0, 700.0])
    def test_equal_to_reference(self, scale):
        tokens = random_tokens(m=60, c=5, seed=12)
        net = init_network(5, 7, hidden_dims=(9, 6), seed=13)
        last = net.layers[-1]
        net = AssignmentNetwork((*net.layers[:-1], Layer(scale * last.weight, last.bias)))
        result = compress(tokens, net)
        assignments, anchors = reference_compress(tokens, net)
        np.testing.assert_array_equal(result.assignments, assignments)
        np.testing.assert_array_equal(result.anchors, anchors)

    def test_leaves_inputs_unchanged(self):
        data = seeded_rng(14).standard_normal((30, 4))
        tokens = TokenMatrix(data.copy())
        net = init_network(4, 6, hidden_dims=(8,), seed=15)
        params = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        compress(tokens, net)
        np.testing.assert_array_equal(tokens.data, data)
        for layer, (w, b) in zip(net.layers, params):
            np.testing.assert_array_equal(layer.weight, w)
            np.testing.assert_array_equal(layer.bias, b)

    def test_traced_peak_below_two_assignment_matrices(self):
        """At A=512, M=4096, hidden (128, 128) compress holds the logits
        (then assignments) and one hidden activation: 1.25 assignment
        matrices (one array per operation peaked at 4)."""
        tokens = random_tokens(m=4096, c=16, seed=16)
        net = init_network(16, 512, hidden_dims=(128, 128), seed=17)
        tracemalloc.start()
        try:
            compress(tokens, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 512 * 4096 * 8

    def test_traced_peak_holds_no_dead_activation(self):
        """At M=8192, A=512, c=64, hidden (128, 128) compress holds the
        logits and the last hidden activation, 1.25 assignment matrices;
        keeping the first one too, and a finiteness mask, peaked at 1.5."""
        tokens = random_tokens(m=8192, c=64, seed=20)
        net = init_network(64, 512, hidden_dims=(128, 128), seed=21)
        tracemalloc.start()
        try:
            compress(tokens, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 512 * 8192 * 8

    def test_non_finite_logits_raise(self):
        """Last-layer weights of 1e308 overflow the logits to inf."""
        net = init_network(5, 4, hidden_dims=(6,), seed=18)
        last = net.layers[-1]
        net = AssignmentNetwork((net.layers[0], Layer(np.full_like(last.weight, 1e308), last.bias)))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
            compress(random_tokens(m=10, c=5, seed=19), net)


class TestOneSoftmax:
    """train and compress softmax through the public soft_assign, once per
    step or call, in the buffer of the logits it is handed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        in_place = []

        def counted(logits, out=None):
            in_place.append(out is logits)
            return soft_assign(logits, out=out)

        monkeypatch.setattr(compressor, "soft_assign", counted)
        return in_place

    def test_train_calls_soft_assign_once_per_step(self, calls):
        cfg = TrainConfig(steps=3, log_every=10, seed=3, objective=small_objective(),
                          hidden_dims=(8,))
        train(random_tokens(), cfg)
        assert calls == [True] * 3

    def test_compress_calls_soft_assign_once_per_call(self, calls):
        net = init_network(5, 4, hidden_dims=(6,), seed=1)
        compress(random_tokens(), net)
        compress(random_tokens(seed=1), net)
        assert calls == [True] * 2


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
            anchor_means(compress(data.tokens, untrained)),
        )
        net, _ = train(data.tokens, cfg)
        after = quantization_error(
            data.tokens,
            anchor_means(compress(data.tokens, net)),
        )
        assert after < before / 3


class TestAnchorMeans:
    def test_means_are_mass_normalized_anchors(self):
        tokens = random_tokens(m=12, c=3, seed=10)
        net = init_network(3, 4, hidden_dims=(6,), seed=1)
        result = compress(tokens, net)
        means = anchor_means(result)
        mass = result.assignments.sum(axis=1)
        np.testing.assert_allclose(means, result.anchors / mass[:, None], rtol=1e-12)

    def test_means_divide_the_pooled_anchors_bit_for_bit(self):
        """An anchor whose logits sit 1000 below the rest gets no mass and
        is dropped; the others are the pooled rows over their mass."""
        tokens = random_tokens(m=12, c=3, seed=10)
        net = init_network(3, 4, hidden_dims=(6,), seed=1)
        last = net.layers[-1]
        net = AssignmentNetwork((net.layers[0], Layer(last.weight, last.bias - [1000, 0, 0, 0])))
        result = compress(tokens, net)
        r = result.assignments
        mass = r.sum(axis=1)
        ok = mass >= DEGENERATE_MASS
        assert ok.tolist() == [False, True, True, True]
        want = pool_anchors(r, tokens)[ok] / mass[ok, None]
        np.testing.assert_array_equal(anchor_means(result), want)

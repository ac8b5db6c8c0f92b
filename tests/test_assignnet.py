"""Network forward/backward exactness, Adam arithmetic, seeded init."""

import numpy as np
import pytest

from anchorkit.assignnet import (
    AdamParams,
    AssignmentNetwork,
    Layer,
    _backprop,
    _forward_cached,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from anchorkit.core import (
    ConfigError, DimensionError, FormatError, TokenMatrix, _encode_array, seeded_rng,
)


def single_layer(weight, bias=None):
    w = np.asarray(weight, dtype=np.float64)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return AssignmentNetwork((Layer(w, b),))


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        net = AssignmentNetwork((Layer(np.zeros((3, 2)), np.zeros(3)),))
        tokens = TokenMatrix(seeded_rng(0).standard_normal((5, 2)))
        np.testing.assert_array_equal(forward(net, tokens), np.zeros((3, 5)))

    def test_identity_layer_passes_tokens_through(self):
        net = single_layer(np.eye(2))
        logits = forward(net, TokenMatrix([[3.0, 4.0]]))
        np.testing.assert_array_equal(logits, [[3.0], [4.0]])

    def test_two_layer_matches_naive_evaluation(self):
        """Vectorized forward equals a per-element loop with explicit sums."""
        rng = seeded_rng(5)
        net = init_network(3, 4, hidden_dims=(6,), seed=9)
        tokens = TokenMatrix(rng.standard_normal((7, 3)))
        logits = forward(net, tokens)
        w0, b0 = net.layers[0].weight, net.layers[0].bias
        w1, b1 = net.layers[1].weight, net.layers[1].bias
        for m in range(7):
            z = tokens.data[m]
            hidden = np.array(
                [np.tanh(sum(w0[i, j] * z[j] for j in range(3)) + b0[i]) for i in range(6)]
            )
            out = [sum(w1[a, i] * hidden[i] for i in range(6)) + b1[a] for a in range(4)]
            np.testing.assert_allclose(logits[:, m], out, rtol=1e-12)

    def test_dimension_mismatch(self):
        net = init_network(3, 4, seed=0)
        with pytest.raises(DimensionError):
            forward(net, TokenMatrix(np.zeros((2, 5))))

    def test_final_layer_homogeneity(self):
        """With zero biases, a linear net's logits scale with its weights."""
        rng = seeded_rng(4)
        w = rng.standard_normal((4, 3))
        tokens = TokenMatrix(rng.standard_normal((6, 3)))
        base = forward(single_layer(w), tokens)
        scaled = forward(single_layer(2.5 * w), tokens)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = init_network(3, 4, hidden_dims=(5,), seed=1)
        tokens = TokenMatrix(seeded_rng(2).standard_normal((6, 3)))
        grads = backward(net, tokens, np.zeros((4, 6)))
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_single_layer_outer_product_rule(self):
        """One linear layer, one token: dL/dW = upstream_column (outer) token."""
        rng = seeded_rng(3)
        net = single_layer(rng.standard_normal((4, 3)))
        token = rng.standard_normal((1, 3))
        upstream = rng.standard_normal((4, 1))
        grads = backward(net, TokenMatrix(token), upstream)
        np.testing.assert_allclose(grads[0][0], np.outer(upstream[:, 0], token[0]), rtol=1e-12)
        np.testing.assert_allclose(grads[0][1], upstream[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("hidden", [(), (8,), (16, 12)])
    def test_gradients_match_finite_differences(self, hidden):
        """Analytic gradients vs central differences: rel error < 1e-6."""
        rng = seeded_rng(10 + len(hidden))
        net = init_network(4, 3, hidden_dims=hidden, seed=20 + len(hidden))
        tokens = TokenMatrix(rng.standard_normal((5, 4)))
        upstream = rng.standard_normal((3, 5))

        def loss(candidate):
            return float((forward(candidate, tokens) * upstream).sum())

        grads = backward(net, tokens, upstream)
        h = 1e-5
        for li in range(len(net.layers)):
            for which in ("weight", "bias"):
                arr = getattr(net.layers[li], which)
                analytic = grads[li][0 if which == "weight" else 1]
                fd = np.zeros_like(arr)
                for idx in range(arr.size):
                    def perturbed(delta, idx=idx):
                        buf = arr.copy()
                        buf.ravel()[idx] += delta
                        layers = list(net.layers)
                        if which == "weight":
                            layers[li] = Layer(buf, net.layers[li].bias)
                        else:
                            layers[li] = Layer(net.layers[li].weight, buf)
                        return AssignmentNetwork(tuple(layers))

                    fd.ravel()[idx] = (loss(perturbed(h)) - loss(perturbed(-h))) / (2 * h)
                scale = max(np.abs(fd).max(), 1e-8)
                assert np.abs(analytic - fd).max() / scale < 1e-6


def reference_forward_cached(net, tokens):
    """The forward pass with a fresh array per operation, as it was before
    the bias add and the tanh ran in the product's buffer."""
    acts = [tokens.data.T]
    x = acts[0]
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        pre = layer.weight @ x + layer.bias[:, None]
        x = np.tanh(pre) if i < last else pre
        acts.append(x)
    return acts


def reference_backprop(net, acts, upstream):
    """The backward loop with a fresh array per operation."""
    grads = []
    delta = upstream
    for i in range(len(net.layers) - 1, -1, -1):
        grads.append((delta @ acts[i].T, delta.sum(axis=1)))
        if i > 0:
            delta = (net.layers[i].weight.T @ delta) * (1.0 - acts[i] ** 2)
    grads.reverse()
    return tuple(grads)


class TestInPlaceLayers:
    """The in-place forward and backward passes match the one-array-per-
    operation reference bit for bit and never write their inputs."""

    @pytest.mark.parametrize("scale", [1.0, 700.0])
    @pytest.mark.parametrize("hidden", [(), (8,), (16, 12)])
    def test_equal_to_reference(self, hidden, scale):
        rng = seeded_rng(30 + len(hidden))
        net = init_network(5, 7, hidden_dims=hidden, seed=31)
        tokens = TokenMatrix(scale * rng.standard_normal((40, 5)))
        upstream = scale * rng.standard_normal((7, 40))
        acts = _forward_cached(net, tokens)
        ref_acts = reference_forward_cached(net, tokens)
        assert len(acts) == len(ref_acts)
        for got, want in zip(acts, ref_acts):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(_backprop(net, acts, upstream),
                             reference_backprop(net, ref_acts, upstream)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("hidden", [(), (8,), (16, 12)])
    def test_forward_writes_into_the_buffers_it_is_given(self, hidden):
        rng = seeded_rng(34)
        net = init_network(5, 7, hidden_dims=hidden, seed=35)
        tokens = TokenMatrix(rng.standard_normal((40, 5)))
        bufs = [np.full((w, 40), np.nan) for w in (*hidden, 7)]
        acts = _forward_cached(net, tokens, out=bufs)
        assert len(acts) == len(bufs) + 1
        for got, buf in zip(acts[1:], bufs):
            assert got is buf
        for got, want in zip(acts, _forward_cached(net, tokens)):
            np.testing.assert_array_equal(got, want)

    def test_backprop_writes_only_the_hidden_activations(self):
        rng = seeded_rng(36)
        net = init_network(4, 6, hidden_dims=(8, 8), seed=37)
        tokens = TokenMatrix(rng.standard_normal((30, 4)))
        acts = _forward_cached(net, tokens)
        kept = [a.copy() for a in acts]
        _backprop(net, acts, rng.standard_normal((6, 30)))
        np.testing.assert_array_equal(acts[0], kept[0])
        np.testing.assert_array_equal(acts[-1], kept[-1])

    def test_forward_and_backward_leave_inputs_unchanged(self):
        rng = seeded_rng(32)
        net = init_network(4, 6, hidden_dims=(8, 8), seed=33)
        data = rng.standard_normal((30, 4))
        upstream = rng.standard_normal((6, 30))
        params = [(l.weight.copy(), l.bias.copy()) for l in net.layers]
        tokens = TokenMatrix(data.copy())
        upstream_seen = upstream.copy()
        forward(net, tokens)
        backward(net, tokens, upstream_seen)
        np.testing.assert_array_equal(tokens.data, data)
        np.testing.assert_array_equal(upstream_seen, upstream)
        for layer, (w, b) in zip(net.layers, params):
            np.testing.assert_array_equal(layer.weight, w)
            np.testing.assert_array_equal(layer.bias, b)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        net = init_network(2, 3, hidden_dims=(), seed=0)
        state = init_adam(net)
        zeros = tuple((np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in net.layers)
        new_net, new_state = adam_step(net, zeros, state)
        assert new_state.step_count == 1
        for a, b in zip(net.layers, new_net.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_first_step_closed_form(self):
        """After bias correction, step one moves by -lr * g / (|g| + eps)."""
        params = AdamParams(learning_rate=1e-3)
        rng = seeded_rng(6)
        net = single_layer(rng.standard_normal((2, 2)))
        g = rng.standard_normal((2, 2))
        grads = ((g, np.zeros(2)),)
        new_net, _ = adam_step(net, grads, init_adam(net, params))
        expected = net.layers[0].weight - 1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(new_net.layers[0].weight, expected, rtol=1e-12)

    def test_two_constant_steps_match_scalar_recurrence(self):
        """Vectorized updates agree with a hand-run scalar Adam recurrence."""
        params = AdamParams(learning_rate=0.01)
        net = single_layer([[0.5]])
        g = np.array([[0.3]])
        grads = ((g, np.zeros(1)),)
        state = init_adam(net, params)
        net1, state = adam_step(net, grads, state)
        net2, state = adam_step(net1, grads, state)

        theta, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 0.3
            v = 0.999 * v + 0.001 * 0.3**2
            theta -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert state.step_count == 2
        np.testing.assert_allclose(net2.layers[0].weight[0, 0], theta, rtol=1e-12)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_network(5, 7, hidden_dims=(11,), seed=99)
        b = init_network(5, 7, hidden_dims=(11,), seed=99)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_biases_are_zero(self):
        net = init_network(4, 3, hidden_dims=(8, 8), seed=1)
        for layer in net.layers:
            assert not layer.bias.any()

    def test_xavier_bound(self):
        """fan_in=16, fan_out=8: every weight within sqrt(6/24)."""
        net = init_network(16, 8, hidden_dims=(), seed=5)
        bound = np.sqrt(6.0 / 24.0)
        assert np.abs(net.layers[0].weight).max() <= bound

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            init_network(4, 0, seed=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = init_network(3, 4, hidden_dims=(6,), seed=8)
        # float32 storage: round parameters first so the trip is exact
        rounded = AssignmentNetwork(
            tuple(
                Layer(l.weight.astype(np.float32).astype(np.float64),
                      l.bias.astype(np.float32).astype(np.float64))
                for l in net.layers
            )
        )
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, rounded, step_count=17)
        loaded, steps = load_checkpoint(path)
        assert steps == 17
        for a, b in zip(rounded.layers, loaded.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        net = init_network(2, 3, seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, 5)
        save_checkpoint(p2, net, 5)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("old,new,message", [
        (b"layers 1\n", b"layers abc\n", "malformed"),
        (b"layer 2 3\n", b"layer 3\n", "malformed"),
        (b"anchorkit-checkpoint v1", b"anchorkit-checkpoint v1\xff", "malformed"),
        (b"step_count 5\n", b"step_count \xe9\n", "malformed"),
        (b"\nend\n", b"\nfin\n", "no end marker"),
        (b"checkpoint v1", b"checkpoint v2", "not an anchorkit checkpoint"),
        (b"activation tanh", b"activation relu", "unsupported activation"),
        (b"layers 1\n", b"layers 2\n", "layer count"),
        (b"layer 2 3\n", b"layer 3 2\n", "tensor shapes"),
        (b"step_count 5\n", b"step_count -7\n", "negative step count"),
    ], ids=["layer-count-not-int", "layer-line-one-field", "non-utf8-header", "non-utf8-value",
            "no-end-marker", "wrong-first-line", "unsupported-activation",
            "layer-count-mismatch", "shapes-disagree", "negative-step-count"])
    def test_malformed_manifest_raises_format_error(self, tmp_path, old, new, message):
        net = init_network(3, 2, hidden_dims=(), seed=4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, 5)
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_trailing_bytes_raise_format_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_network(3, 2, hidden_dims=(), seed=4), 5)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_stored_weight_raises_format_error(self, tmp_path, value):
        net = init_network(3, 2, hidden_dims=(4,), seed=4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, 5)
        raw = bytearray(path.read_bytes())
        # the first weight's payload follows the manifest, its magic, rank and 2 extents
        first = raw.index(b"\nend\n") + len(b"\nend\n") + 4 + 4 + 2 * 4
        raw[first : first + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shapes", [[(4, 3), (2, 5)], []],
                             ids=["widths-do-not-chain", "no-layers"])
    def test_network_that_cannot_be_built_raises_format_error(self, tmp_path, shapes):
        """A manifest whose layers are each well formed but do not make a
        network is bad bytes too, not a DimensionError."""
        lines = ["anchorkit-checkpoint v1", "activation tanh", "step_count 0",
                 f"layers {len(shapes)}", *[f"layer {o} {i}" for o, i in shapes], "end"]
        raw = ("\n".join(lines) + "\n").encode("utf-8")
        for out_dim, in_dim in shapes:
            raw += _encode_array(np.zeros((out_dim, in_dim))) + _encode_array(np.zeros(out_dim))
        path = tmp_path / "net.ckpt"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="checkpoint network"):
            load_checkpoint(path)

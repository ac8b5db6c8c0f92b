"""Per-token assignment network: a small MLP with exact manual gradients.

The network maps each c-dimensional token to one logit per anchor. Hidden
layers use tanh (smooth, so finite-difference gradient checks converge);
the output layer is linear. Gradients are hand-derived and the optimizer
is a from-scratch bias-corrected Adam with the published constants of
Kingma & Ba (2015): ``BETA1``, ``BETA2`` and ``EPSILON``; only the learning
rate is a setting.

Parameter updates are functional: ``adam_step`` returns new network and
state objects rather than mutating. The forward pass writes each layer's
matrix product into one array, a fresh one or one the training loop kept
from its previous step, and runs the bias add and tanh there; the
backward pass computes tanh' and the propagated delta in the hidden
activations' own arrays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    FormatError,
    NumericalError,
    TokenMatrix,
    _checked_record,
    _decode_array,
    seeded_rng,
)

ACTIVATION = "tanh"

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# gradient arrays per layer, shaped like (weight, bias)
GradientBundle = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionError(
                f"layer wants weight (out, in) and bias (out,), got {w.shape}, {b.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericalError("layer parameters must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class AssignmentNetwork:
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise DimensionError(
                    f"layer widths do not chain: {prev.weight.shape} -> {nxt.weight.shape}"
                )
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


@dataclass(frozen=True)
class AdamParams:
    learning_rate: float = 1e-4

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class AdamState:
    first_moment: GradientBundle
    second_moment: GradientBundle
    step_count: int
    params: AdamParams


def init_network(
    input_dim: int,
    output_dim: int,
    hidden_dims: Sequence[int] = (128, 128),
    seed: int = 0,
) -> AssignmentNetwork:
    """Build a seeded network: Xavier-uniform weights, zero biases.

    Weights for a (fan_in -> fan_out) layer are drawn uniformly from
    ``±sqrt(6 / (fan_in + fan_out))``, row-major, layer by layer, so a
    given seed always yields bit-identical parameters.
    """
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(output_dim)]
    if min(dims) < 1:
        raise ConfigError(f"all layer widths must be >= 1, got {dims}")
    rng = seeded_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(weight, np.zeros(fan_out)))
    return AssignmentNetwork(tuple(layers))


def _check_tokens(net: AssignmentNetwork, tokens: TokenMatrix) -> None:
    if tokens.num_channels != net.input_dim:
        raise DimensionError(
            f"network expects {net.input_dim}-channel tokens, got {tokens.num_channels}"
        )


def _forward_cached(net: AssignmentNetwork, tokens: TokenMatrix, out=None, keep=True):
    """Run the network on all tokens; returns per-layer activations.

    ``acts[i]`` is the input to layer ``i`` as a (width, M) matrix;
    ``acts[-1]`` is the logit output. Given ``out``, the ``acts[1:]`` of
    an earlier call on as many tokens, layer ``i`` writes into ``out[i]``
    and ``acts[i + 1] is out[i]``; otherwise each layer allocates. Without
    ``keep`` each input is dropped once read, and ``acts`` is the logits.
    """
    acts = [tokens.data.T]
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        x = np.matmul(layer.weight, acts[-1], out=None if out is None else out[i])
        x += layer.bias[:, None]
        if i < last:
            np.tanh(x, out=x)
        if not keep:
            acts.pop()
        acts.append(x)
    return acts


def forward(net: AssignmentNetwork, tokens: TokenMatrix) -> np.ndarray:
    """Logits for every token, one column per token: (n_anchors, M)."""
    _check_tokens(net, tokens)
    return _forward_cached(net, tokens, keep=False)[-1]


def backward(
    net: AssignmentNetwork, tokens: TokenMatrix, upstream: np.ndarray
) -> GradientBundle:
    """Exact parameter gradients chain-ruled with ``upstream`` = dL/dlogits.

    Token contributions are accumulated by matrix products, giving a fixed
    summation order and hence bit-reproducible gradients.
    """
    _check_tokens(net, tokens)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (net.output_dim, tokens.num_tokens):
        raise DimensionError(
            f"upstream must be {(net.output_dim, tokens.num_tokens)}, got {upstream.shape}"
        )
    return _backprop(net, _forward_cached(net, tokens), upstream)


def _backprop(net: AssignmentNetwork, acts, upstream: np.ndarray) -> GradientBundle:
    """The backward loop over activations cached by ``_forward_cached``.

    It consumes the hidden activations ``acts[1:-1]``: once layer ``i``'s
    weight gradient is taken, ``acts[i]`` is overwritten with tanh' and
    then with the delta propagated to layer ``i - 1``. The tokens
    ``acts[0]`` and the output ``acts[-1]`` are never written.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    delta = upstream
    for i in range(len(net.layers) - 1, -1, -1):
        grads.append((delta @ acts[i].T, delta.sum(axis=1)))
        if i > 0:
            # tanh'(pre) = 1 - tanh(pre)^2, and acts[i] stores tanh(pre)
            slope = np.square(acts[i], out=acts[i])
            np.subtract(1.0, slope, out=slope)
            slope *= net.layers[i].weight.T @ delta
            delta = slope
    grads.reverse()
    return tuple(grads)


def init_adam(net: AssignmentNetwork, params: AdamParams = AdamParams()) -> AdamState:
    zeros = tuple(
        (np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in net.layers
    )
    return AdamState(zeros, zeros, 0, params)


def adam_step(
    net: AssignmentNetwork, grads: GradientBundle, state: AdamState
) -> tuple[AssignmentNetwork, AdamState]:
    """One bias-corrected Adam update; returns the new network and state."""
    if len(grads) != len(net.layers):
        raise DimensionError(f"expected {len(net.layers)} gradient pairs, got {len(grads)}")
    p = state.params
    t = state.step_count + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_layers = []
    new_m = []
    new_v = []
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(
        net.layers, grads, state.first_moment, state.second_moment
    ):
        if gw.shape != layer.weight.shape or gb.shape != layer.bias.shape:
            raise DimensionError("gradient shapes do not mirror parameters")
        mw = BETA1 * mw + (1.0 - BETA1) * gw
        mb = BETA1 * mb + (1.0 - BETA1) * gb
        vw = BETA2 * vw + (1.0 - BETA2) * gw**2
        vb = BETA2 * vb + (1.0 - BETA2) * gb**2
        weight = layer.weight - p.learning_rate * (mw / c1) / (np.sqrt(vw / c2) + EPSILON)
        bias = layer.bias - p.learning_rate * (mb / c1) / (np.sqrt(vb / c2) + EPSILON)
        new_layers.append(Layer(weight, bias))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    new_state = AdamState(tuple(new_m), tuple(new_v), t, p)
    return AssignmentNetwork(tuple(new_layers)), new_state


def save_checkpoint(path, net: AssignmentNetwork, step_count: int = 0) -> None:
    """Write a checkpoint: plain-text manifest, then VLT1 tensors.

    The manifest records the layer shapes, the activation tag, and the
    optimizer step count; each layer's weight then bias follow as VLT1
    records in layer order. A record that :func:`load_checkpoint` would
    reject raises before the file is opened.
    """
    lines = [
        "anchorkit-checkpoint v1",
        f"activation {ACTIVATION}",
        f"step_count {int(step_count)}",
        f"layers {len(net.layers)}",
    ]
    for layer in net.layers:
        lines.append(f"layer {layer.weight.shape[0]} {layer.weight.shape[1]}")
    lines.append("end")
    blob = io.BytesIO()
    blob.write(("\n".join(lines) + "\n").encode("utf-8"))
    for layer in net.layers:
        blob.write(_checked_record(path, layer.weight))
        blob.write(_checked_record(path, layer.bias))
    with open(path, "wb") as fh:
        fh.write(blob.getvalue())


def load_checkpoint(path) -> tuple[AssignmentNetwork, int]:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        buf = fh.read()
    end_marker = b"\nend\n"
    head_end = buf.find(end_marker)
    if head_end < 0:
        raise FormatError("checkpoint manifest has no end marker")
    offset = head_end + len(end_marker)
    meta = {}
    shapes = []
    try:
        manifest = buf[:head_end].decode("utf-8").splitlines()
        if not manifest or manifest[0] != "anchorkit-checkpoint v1":
            raise FormatError("not an anchorkit checkpoint")
        for line in manifest[1:]:
            key, _, value = line.partition(" ")
            if key == "layer":
                out_dim, in_dim = value.split()
                shapes.append((int(out_dim), int(in_dim)))
            else:
                meta[key] = value
        n_layers = int(meta.get("layers", -1))
        step_count = int(meta.get("step_count", 0))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise FormatError(f"malformed checkpoint manifest: {exc}") from None
    if meta.get("activation") != ACTIVATION:
        raise FormatError(f"unsupported activation {meta.get('activation')!r}")
    if n_layers != len(shapes):
        raise FormatError("manifest layer count disagrees with layer lines")
    if step_count < 0:
        raise FormatError(f"negative step count {step_count}")
    layers = []
    for out_dim, in_dim in shapes:
        weight, offset = _decode_array(buf, offset)
        bias, offset = _decode_array(buf, offset)
        if weight.shape != (out_dim, in_dim) or bias.shape != (out_dim,):
            raise FormatError(
                f"tensor shapes {weight.shape}/{bias.shape} disagree with manifest "
                f"({out_dim}, {in_dim})"
            )
        layers.append(Layer(weight, bias))
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after checkpoint tensors")
    try:
        return AssignmentNetwork(tuple(layers)), step_count
    except DimensionError as exc:  # no layers, or widths that do not chain
        raise FormatError(f"checkpoint network: {exc}") from None

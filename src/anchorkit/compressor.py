"""End-to-end anchor learning: the training loop and the one-pass extractor.

Training is plain full-batch gradient descent on the anchor objective:
every step runs the network, softmaxes its logits in their own buffer,
evaluates the losses on those assignments in one (n_anchors, batch)
gradient buffer (two with the Gaussian prior), records its report row,
and backpropagates into the network with the products in the spent
assignments. The network's arrays are allocated once and written again
by every step, so a step does not fault in fresh pages for them. When
the objective keeps one gradient buffer and the assignments can hold
every hidden activation plus one propagated product (n_anchors at least
the sum of the hidden widths plus the largest), the logits and that
buffer, also allocated once, are the step's only (n_anchors, batch)
arrays: the forward pass puts the hidden activations in the gradient
buffer's leading rows, the objective overwrites them, and they are
recomputed with the same bits into the spent assignments for backprop
(rematerialisation, Chen et al. 2016). Otherwise the hidden activations
keep arrays of their own and the objective's gradient is dropped before
the Adam step, so no phase holds a dead (n_anchors, batch) array. There
is no early stopping; a fixed step count keeps runs reproducible.
Settings that cannot train (a top-k larger than the batch, a network of
the wrong width) are rejected before a network is built or run.
Inference is the same forward pass, keeping no activation it has read,
and softmax, then one matrix multiplication.
``anchor_means`` divides the anchors ``compress`` pooled by their mass, with
the objective's degenerate-anchor rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import assignnet
from .assignnet import AdamParams, AssignmentNetwork
from .core import (
    AnchorKitError,
    ConfigError,
    NumericalError,
    TokenMatrix,
    _write_csv,
    seeded_rng,
)
from .objective import AnchorConfig, _anchor_mass, pool_anchors, soft_assign, total_loss

REPORT_COLUMNS = ("step", "total", "contrastive", "regularizer", "entropy")


class TrainingDivergedError(AnchorKitError):
    """Raised when a loss term stops being finite; carries the step index."""

    def __init__(self, step: int, term: str):
        super().__init__(f"non-finite {term} at step {step}")
        self.step = step
        self.term = term


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    log_every: int = 50
    seed: int = 0
    objective: AnchorConfig = field(default_factory=AnchorConfig)
    adam: AdamParams = field(default_factory=AdamParams)
    hidden_dims: tuple[int, ...] = (128, 128)
    # None trains full-batch; an integer subsamples that many tokens per step
    subsample: Optional[int] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")
        if self.subsample is not None and self.subsample < 1:
            raise ConfigError(f"subsample must be >= 1, got {self.subsample}")


@dataclass(frozen=True)
class TrainRecord:
    step: int
    total: float
    contrastive: float
    regularizer: float  # weighted contribution, kl_weight * divergence
    entropy: float


@dataclass(frozen=True)
class TrainReport:
    records: tuple[TrainRecord, ...]

    def write_csv(self, path) -> None:
        _write_csv(path, REPORT_COLUMNS, (
            [rec.step, repr(rec.total), repr(rec.contrastive),
             repr(rec.regularizer), repr(rec.entropy)]
            for rec in self.records
        ))

    @property
    def final(self) -> TrainRecord:
        return self.records[-1]


@dataclass(frozen=True)
class CompressResult:
    assignments: np.ndarray  # (n_anchors, M), column-stochastic
    anchors: np.ndarray  # (n_anchors, c), responsibility-weighted sums


def anchor_usage_entropy(assignments: np.ndarray) -> float:
    """Entropy of the marginal anchor-usage distribution.

    Usage of anchor ``a`` is its mean responsibility over tokens; the
    entropy lies in [0, log n_anchors] and is maximal when every anchor
    carries equal mass.
    """
    usage = _anchor_mass(assignments)[0] / np.shape(assignments)[1]
    mask = usage > 0
    return float(-(usage[mask] * np.log(usage[mask])).sum())


def train(
    tokens: TokenMatrix,
    cfg: TrainConfig,
    net: Optional[AssignmentNetwork] = None,
) -> tuple[AssignmentNetwork, TrainReport]:
    """Optimize an assignment network on one token matrix.

    A fresh Xavier-initialized network is created from ``cfg.seed`` unless
    one is passed in (checkpoint reuse). Identical (tokens, cfg, net)
    always produce bit-identical results. A step holds the assignments, the
    hidden activations and the objective's buffers, never an earlier step's;
    with one gradient buffer and at least sum(hidden_dims) + max(hidden_dims)
    anchors it holds the assignments and that buffer alone, and runs the
    hidden layers twice: forward into the gradient buffer, then, once the
    report row is taken, into the spent assignments for backprop.
    """
    obj = cfg.objective
    if cfg.subsample is not None and cfg.subsample > tokens.num_tokens:
        raise ConfigError(
            f"subsample {cfg.subsample} exceeds token count {tokens.num_tokens}"
        )
    batch_size = cfg.subsample or tokens.num_tokens
    if obj.top_k > batch_size:  # the objective would reject it only after a forward pass
        raise ConfigError(f"top_k={obj.top_k} exceeds the {batch_size}-token batch")
    if net is None:
        net = assignnet.init_network(
            tokens.num_channels, obj.n_anchors, cfg.hidden_dims, seed=cfg.seed
        )
    assignnet._check_tokens(net, tokens, obj.n_anchors)
    state = assignnet.init_adam(net, cfg.adam)
    rng = seeded_rng(cfg.seed)
    records = []
    widths = [layer.weight.shape[0] for layer in net.layers[:-1]]
    # the arrays every step writes: the logits, softmaxed in place, and either
    # one per hidden layer or, when the objective keeps one gradient buffer
    # and the assignments hold every hidden activation plus one propagated
    # product, that buffer, whose leading rows hold the hidden activations
    # until the objective overwrites them
    logits = np.empty((obj.n_anchors, batch_size))
    grad = None
    one_buffer = obj.kl_weight == 0.0 or obj.prior_mode == "categorical"
    if one_buffer and obj.n_anchors >= sum(widths) + max(widths, default=0):
        grad = np.empty_like(logits)
        layer_out = [*_row_blocks(grad, widths), logits]
    else:
        layer_out = [*(np.empty((width, batch_size)) for width in widths), logits]
    for step in range(1, cfg.steps + 1):
        if cfg.subsample is None:
            batch = tokens
        else:
            idx = np.sort(rng.choice(tokens.num_tokens, size=cfg.subsample, replace=False))
            batch = TokenMatrix._adopt(tokens.data[idx])
        # the forward pass, into the same arrays every step
        acts = assignnet._forward_cached(net, batch, out=layer_out)
        try:
            assignments = soft_assign(logits, out=logits)
        except NumericalError:
            raise TrainingDivergedError(step, "logits") from None
        value = total_loss(assignments, batch, obj, out=grad)
        for term, name in ((value.contrastive, "contrastive"), (value.regularizer, "regularizer")):
            if not np.isfinite(term):
                raise TrainingDivergedError(step, name)
        if step % cfg.log_every == 0 or step == cfg.steps:
            records.append(
                TrainRecord(
                    step,
                    value.total,
                    value.contrastive,
                    obj.kl_weight * value.regularizer,
                    anchor_usage_entropy(assignments),
                )
            )
        if grad is not None:
            # the same products, bias adds and tanh into the spent assignments,
            # so the same bits; backprop's products take the rows left over
            acts = assignnet._forward_cached(net, batch, out=_row_blocks(assignments, widths))
            acts.append(assignments[sum(widths):])
        # backprop's products go into the spent assignments; a gradient of the
        # objective's own is freed before Adam
        grads = assignnet._backprop(net, acts, value.grad_logits)
        del value
        try:
            net, state = assignnet.adam_step(net, grads, state)
        except NumericalError:
            raise TrainingDivergedError(step, "parameters") from None
    return net, TrainReport(tuple(records))


def _row_blocks(buf: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    """Consecutive row blocks of ``buf`` from its first row, ``widths[i]`` rows each."""
    return [buf[end - width : end] for width, end in zip(widths, itertools.accumulate(widths))]


def compress(tokens: TokenMatrix, net: AssignmentNetwork) -> CompressResult:
    """Extract the assignment matrix and pooled anchors in one pass.

    No iteration: a forward pass, a column softmax, and one matrix
    multiplication. The forward pass drops each hidden activation once the
    next layer has read it, and the softmax overwrites the fresh logits, so
    at its peak this holds the (n_anchors, M) logits and one hidden (width,
    M) array. Pure: equal inputs give bit-identical arrays.
    """
    logits = assignnet.forward(net, tokens)
    assignments = soft_assign(logits, out=logits)
    anchors = pool_anchors(assignments, tokens)
    return CompressResult(assignments, anchors)


def anchor_means(result: CompressResult) -> np.ndarray:
    """Responsibility-weighted token means per anchor of a :func:`compress` result.

    Each of the result's pooled anchor rows is divided by its
    responsibility mass, which puts anchors on the tokens' own scale; it
    is the representative set used for quantization-error comparisons
    against clustering baselines. Anchors with no mass are dropped.
    """
    mass, ok, _ = _anchor_mass(result.assignments)
    return result.anchors[ok] / mass[ok, None]

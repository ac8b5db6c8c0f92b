"""End-to-end anchor learning: the training loop and the one-pass extractor.

Training is plain full-batch gradient descent on the anchor objective:
every step runs the network, softmaxes its logits in their own buffer,
evaluates the losses on those assignments in one (n_anchors, batch)
gradient buffer (two with the Gaussian prior), records its report row,
backpropagates into the network with the products in the spent
assignments, and drops the gradient before its Adam step, so no phase
holds a dead (n_anchors, batch) array. The network's (width, batch) arrays are
allocated by the first step and written again by every later one, so a
step does not fault in fresh pages for them. There is no early stopping;
a fixed step count keeps runs reproducible. Settings that cannot train
(a top-k larger than the batch, a network of the wrong width) are
rejected before a network is built or run. Inference is the same forward pass,
keeping no activation it has read, and softmax, then one matrix multiplication.
``anchor_means`` divides the anchors ``compress`` pooled by their mass, with
the objective's degenerate-anchor rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import assignnet
from .assignnet import AdamParams, AssignmentNetwork
from .core import (
    AnchorKitError,
    ConfigError,
    DimensionError,
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
    hidden activations and the objective's buffers, never an earlier step's.
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
    elif net.output_dim != obj.n_anchors:
        raise DimensionError(
            f"network emits {net.output_dim} anchors, config wants {obj.n_anchors}"
        )
    assignnet._check_tokens(net, tokens)
    state = assignnet.init_adam(net, cfg.adam)
    rng = seeded_rng(cfg.seed)
    records = []
    layer_out = None  # the (width, batch) arrays every step's forward writes into
    for step in range(1, cfg.steps + 1):
        if cfg.subsample is None:
            batch = tokens
        else:
            idx = np.sort(rng.choice(tokens.num_tokens, size=cfg.subsample, replace=False))
            batch = TokenMatrix._adopt(tokens.data[idx])
        # one forward pass per step, into the first step's arrays; the softmax
        # reuses the logits' buffer, backprop the hidden activations'
        acts = assignnet._forward_cached(net, batch, out=layer_out)
        try:
            assignments = soft_assign(acts[-1], out=acts[-1])
        except NumericalError:
            raise TrainingDivergedError(step, "logits") from None
        value = total_loss(assignments, batch, obj)
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
        # the spent assignments take backprop's products; Adam runs without the gradient
        grads = assignnet._backprop(net, acts, value.grad_logits)
        del value
        layer_out = acts[1:]
        try:
            net, state = assignnet.adam_step(net, grads, state)
        except NumericalError:
            raise TrainingDivergedError(step, "parameters") from None
    return net, TrainReport(tuple(records))


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

"""End-to-end anchor learning: the training loop and the one-pass extractor.

Training is plain full-batch gradient descent on the anchor objective:
every step recomputes assignments and pooled anchors from the current
network, evaluates the losses, backpropagates into the network and takes
one Adam step. There is no early stopping; a fixed step count keeps runs
reproducible. Inference is a single forward pass, one softmax and one
matrix multiplication.
"""

from __future__ import annotations

import csv
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
)
from .objective import (
    DEGENERATE_MASS,
    AnchorConfig,
    anchor_moments,
    pool_anchors,
    soft_assign,
    total_loss,
)

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for rec in self.records:
                writer.writerow(
                    [rec.step, repr(rec.total), repr(rec.contrastive),
                     repr(rec.regularizer), repr(rec.entropy)]
                )

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
    r = np.asarray(assignments, dtype=np.float64)
    usage = r.sum(axis=1) / r.shape[1]
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
    always produce bit-identical results.
    """
    obj = cfg.objective
    if cfg.subsample is not None and cfg.subsample > tokens.num_tokens:
        raise ConfigError(
            f"subsample {cfg.subsample} exceeds token count {tokens.num_tokens}"
        )
    if net is None:
        net = assignnet.init_network(
            tokens.num_channels, obj.n_anchors, cfg.hidden_dims, seed=cfg.seed
        )
    elif net.input_dim != tokens.num_channels:
        raise DimensionError(
            f"network expects {net.input_dim}-channel tokens, got {tokens.num_channels}"
        )
    elif net.output_dim != obj.n_anchors:
        raise DimensionError(
            f"network emits {net.output_dim} anchors, config wants {obj.n_anchors}"
        )
    state = assignnet.init_adam(net, cfg.adam)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    records = []
    for step in range(1, cfg.steps + 1):
        if cfg.subsample is None:
            batch = tokens
        else:
            idx = np.sort(rng.choice(tokens.num_tokens, size=cfg.subsample, replace=False))
            batch = TokenMatrix(tokens.data[idx])
        # one forward pass per step; backprop reuses its activations
        acts = assignnet._forward_cached(net, batch)
        logits = acts[-1]
        if not np.isfinite(logits).all():
            raise TrainingDivergedError(step, "logits")
        value = total_loss(logits, batch, obj)
        for term, name in ((value.contrastive, "contrastive"), (value.regularizer, "regularizer")):
            if not np.isfinite(term):
                raise TrainingDivergedError(step, name)
        grads = assignnet._backprop(net, acts, value.grad_logits)
        del acts  # so one step's activations are freed before the next forward
        try:
            net, state = assignnet.adam_step(net, grads, state)
        except NumericalError:
            raise TrainingDivergedError(step, "parameters") from None
        if step % cfg.log_every == 0 or step == cfg.steps:
            records.append(
                TrainRecord(
                    step,
                    value.total,
                    value.contrastive,
                    obj.kl_weight * value.regularizer,
                    anchor_usage_entropy(value.assignments),
                )
            )
    return net, TrainReport(tuple(records))


def compress(tokens: TokenMatrix, net: AssignmentNetwork) -> CompressResult:
    """Extract the assignment matrix and pooled anchors in one pass.

    No iteration: a forward pass, a column softmax, and one matrix
    multiplication. Pure, so repeated calls on equal inputs return
    bit-identical arrays.
    """
    logits = assignnet.forward(net, tokens)
    assignments = soft_assign(logits)
    anchors = pool_anchors(assignments, tokens)
    return CompressResult(assignments, anchors)


def anchor_means(assignments: np.ndarray, tokens: TokenMatrix) -> np.ndarray:
    """Responsibility-weighted token means per anchor.

    This is the pooled anchor row divided by its responsibility mass,
    which puts anchors on the tokens' own scale; it is the representative
    set used for quantization-error comparisons against clustering
    baselines. Anchors with no mass are dropped.
    """
    means, _, _, mass = anchor_moments(assignments, tokens)
    return means[mass >= DEGENERATE_MASS]

"""Clustering oracles used to judge anchor quality.

Lloyd's k-means with k-means++ seeding from the package RNG is the
reference point: learned anchors are compared against its centers through
the shared quantization-error metric. Point norms are computed once per
call, and each Lloyd pass updates every center with one bincount. Passes
stop after ``MAX_ITERS`` or once no center moves by ``TOL`` or more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionError, TokenMatrix, seeded_rng

MAX_ITERS = 100
TOL = 1e-8


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray  # (k, c)
    labels: np.ndarray  # (M,) int
    inertia: float  # sum of squared distances to assigned centers
    inertia_history: tuple[float, ...]  # after each assignment pass


def _point_terms(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|p|^2 and 2p: the point side of the expanded squared distance, computed once."""
    return (points**2).sum(axis=1), 2.0 * points


def _pairwise_sq_dists(terms, centers: np.ndarray) -> np.ndarray:
    # |p - c|^2 = (|p|^2 - 2 p.c) + |c|^2 from _point_terms, clipped against fp cancellation
    d2 = terms[1] @ centers.T
    np.subtract(terms[0][:, None], d2, out=d2)
    d2 += (centers**2).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _nearest(points: np.ndarray, centers: np.ndarray, terms) -> tuple[np.ndarray, float]:
    """Nearest-center labels and the squared error summed from exact differences,
    which give 0 where a point is its center (the expanded form leaves ~1e-16)."""
    labels = _pairwise_sq_dists(terms, centers).argmin(axis=1)
    return labels, float(((points - centers[labels]) ** 2).sum())


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator, terms) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    best = _pairwise_sq_dists(terms, centers[:1])[:, 0]
    for i in range(1, k):
        total = best.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=best / total))
        centers[i] = points[idx]
        best = np.minimum(best, _pairwise_sq_dists(terms, centers[i : i + 1])[:, 0])
    return centers


def kmeans(tokens: TokenMatrix, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Iterates assign/update until the largest center shift drops below
    ``TOL`` or ``MAX_ITERS`` passes run. Assignment ties break toward the
    lowest center index. A cluster that loses all of its points is
    re-seeded to the point currently farthest from its assigned center,
    so the result always has exactly ``k`` centers.
    """
    points = tokens.data
    n, c = points.shape
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds point count {n}")
    rng = seeded_rng(seed)
    terms = _point_terms(points)
    centers = _plusplus_init(points, k, rng, terms)
    history = []
    for _ in range(MAX_ITERS):
        d2 = _pairwise_sq_dists(terms, centers)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        history.append(float(assigned.sum()))
        # sums in point order, as mean(axis=0) adds 2-D rows; one channel is summed pairwise
        if c > 1:
            bins = (labels[:, None] * c + np.arange(c)).ravel()
            sums = np.bincount(bins, weights=points.ravel(), minlength=k * c).reshape(k, c)
        else:
            sums = np.array([points[labels == j].sum(axis=0) for j in range(k)])
        counts = np.bincount(labels, minlength=k)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        new_centers[counts == 0] = points[assigned.argmax()]  # the farthest point
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < TOL:
            break
    labels, inertia = _nearest(points, centers, terms)
    history.append(inertia)
    return KMeansResult(centers, labels, inertia, tuple(history))


def quantization_error(tokens: TokenMatrix, anchors: np.ndarray) -> float:
    """Mean squared distance from each token to its nearest anchor row."""
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] < 1 or anchors.shape[1] != tokens.num_channels:
        raise DimensionError(
            f"anchors must be (n >= 1, {tokens.num_channels}), got {anchors.shape}"
        )
    return _nearest(tokens.data, anchors, _point_terms(tokens.data))[1] / tokens.num_tokens

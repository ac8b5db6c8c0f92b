"""Deterministic synthetic data with known structure.

Two generators: a Gaussian mixture in token space (ground-truth cluster
labels for anchor-quality checks) and a drifting-blob latent video whose
token clusters correspond to moving objects. Both are pure functions of
their spec, so equal seeds give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, LatentTensor, TokenMatrix, seeded_rng


def _check_spread(name: str, value: float) -> None:
    """A spread must be >= 0, and [-value, value] must have a finite width."""
    if not (value >= 0 and np.isfinite(2.0 * value)):
        raise ConfigError(f"{name} must be >= 0 and below half the float64 range, got {value}")


@dataclass(frozen=True)
class MixtureSpec:
    n_clusters: int
    dim: int
    points_per_cluster: int
    center_scale: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1 or self.dim < 1 or self.points_per_cluster < 1:
            raise ConfigError("n_clusters, dim and points_per_cluster must be >= 1")
        _check_spread("center_scale", self.center_scale)
        _check_spread("noise_sigma", self.noise_sigma)


@dataclass(frozen=True)
class MixtureData:
    tokens: TokenMatrix
    labels: np.ndarray  # (M,) cluster index per token
    centers: np.ndarray  # (n_clusters, dim)


def gaussian_mixture(spec: MixtureSpec) -> MixtureData:
    """Isotropic Gaussian blobs around uniformly drawn centers.

    Centers are drawn before any noise, so two specs differing only in
    ``noise_sigma`` share the same centers. Points are ordered cluster by
    cluster.
    """
    rng = seeded_rng(spec.seed)
    centers = rng.uniform(
        -spec.center_scale, spec.center_scale, size=(spec.n_clusters, spec.dim)
    )
    m = spec.n_clusters * spec.points_per_cluster
    labels = np.repeat(np.arange(spec.n_clusters), spec.points_per_cluster)
    points = centers[labels] + spec.noise_sigma * rng.standard_normal((m, spec.dim))
    return MixtureData(TokenMatrix(points), labels, centers)


def min_center_separation(centers: np.ndarray) -> float:
    """Smallest pairwise distance between mixture centers."""
    centers = np.asarray(centers, dtype=np.float64)
    diffs = centers[:, None, :] - centers[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2))
    n = centers.shape[0]
    if n < 2:
        return float("inf")
    return float(d[~np.eye(n, dtype=bool)].min())


@dataclass(frozen=True)
class DriftVideoSpec:
    frames: int
    channels: int
    height: int
    width: int
    n_objects: int
    drift_per_frame: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.frames, self.channels, self.height, self.width) < 1:
            raise ConfigError("all extents must be >= 1")
        if self.n_objects < 0:
            raise ConfigError(f"n_objects must be >= 0, got {self.n_objects}")
        if self.n_objects > self.height * self.width:
            raise ConfigError(
                f"{self.n_objects} objects do not fit a "
                f"{self.height}x{self.width} grid"
            )
        # grid positions must stay exact in float64, which keeps window indices in int64
        reach = abs(self.drift_per_frame) * self.frames + self.width
        if not reach < 2.0**53:  # also false for nan and inf
            raise ConfigError(
                f"drift_per_frame must be finite, with |drift_per_frame| * frames + width "
                f"below 2**53, got {self.drift_per_frame}"
            )


def drift_video(spec: DriftVideoSpec) -> LatentTensor:
    """Latent video of translating truncated-Gaussian blobs.

    Each object starts at a distinct grid cell, carries its own random
    channel signature, and shifts right by ``drift_per_frame`` pixels per
    frame (toroidal wrap). Blob support is the square window within
    ``2 * radius`` of the rounded center, so frames differ only where a
    blob's support moved.
    """
    rng = seeded_rng(spec.seed)
    h, w = spec.height, spec.width
    data = np.zeros((spec.frames, spec.channels, h, w))
    if spec.n_objects == 0:
        return LatentTensor(data)
    cells = rng.choice(h * w, size=spec.n_objects, replace=False)
    rows0 = cells // w
    cols0 = cells % w
    signatures = rng.standard_normal((spec.n_objects, spec.channels))
    radius = max(1.0, min(h, w) / 8.0)
    half = int(np.ceil(2.0 * radius))
    offsets = np.arange(-half, half + 1)
    for f in range(spec.frames):
        for j in range(spec.n_objects):
            cy = float(rows0[j])
            cx = float(cols0[j]) + f * spec.drift_per_frame
            iy, ix = int(round(cy)), int(round(cx))
            dy = (iy + offsets) - cy
            dx = (ix + offsets) - cx
            bump = np.exp(-(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * radius**2))
            ys = (iy + offsets) % h
            xs = (ix + offsets) % w
            patch = signatures[j][:, None, None] * bump[None, :, :]
            data[f][:, ys[:, None], xs[None, :]] += patch
    return LatentTensor(data)

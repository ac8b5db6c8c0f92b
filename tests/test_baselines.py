"""k-means oracle correctness and the quantization-error metric."""

import itertools

import numpy as np
import pytest

from anchorkit.baselines import kmeans, quantization_error
from anchorkit.core import ConfigError, DimensionError, TokenMatrix, seeded_rng
from anchorkit.synth import MixtureSpec, gaussian_mixture


def brute_force_two_clusters(points):
    """Best 2-partition inertia by exhaustive enumeration."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product((0, 1), repeat=n):
        groups = [
            np.array([p for p, a in zip(points, assignment) if a == g])
            for g in (0, 1)
        ]
        if any(len(g) == 0 for g in groups):
            continue
        inertia = sum(((g - g.mean(axis=0)) ** 2).sum() for g in groups)
        best = min(best, inertia)
    return best


class TestKMeans:
    def test_two_clusters_on_the_line(self):
        """{0, 1, 10, 11} with k=2: centers {0.5, 10.5}, inertia 1."""
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        result = kmeans(TokenMatrix(points), 2, seed=0)
        assert sorted(result.centers[:, 0]) == pytest.approx([0.5, 10.5])
        assert result.inertia == pytest.approx(1.0)
        assert result.inertia == pytest.approx(brute_force_two_clusters(points))

    def test_k_equals_m_zero_inertia(self):
        points = seeded_rng(1).standard_normal((6, 3))
        result = kmeans(TokenMatrix(points), 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_equals_m_inertia_is_exactly_zero(self):
        """Every point is its own center, so no rounding residue is left."""
        for seed in range(5):
            points = seeded_rng(seed).standard_normal((6, 3))
            assert kmeans(TokenMatrix(points), 6, seed=0).inertia == 0.0

    def test_identical_points_zero_inertia(self):
        points = np.tile([2.0, -1.0], (8, 1))
        result = kmeans(TokenMatrix(points), 2, seed=3)
        assert result.inertia == pytest.approx(0.0, abs=1e-24)

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(TokenMatrix(np.zeros((3, 2)) + np.arange(3)[:, None]), 4, seed=0)

    def test_inertia_history_monotone(self):
        data = gaussian_mixture(MixtureSpec(5, 4, 40, 2.0, 0.3, seed=9))
        result = kmeans(data.tokens, 5, seed=2)
        history = np.array(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_k_one_returns_centroid(self):
        points = seeded_rng(4).standard_normal((30, 3))
        result = kmeans(TokenMatrix(points), 1, seed=0)
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), rtol=1e-12)

    def test_labels_are_nearest_centers(self):
        data = gaussian_mixture(MixtureSpec(4, 3, 25, 1.0, 0.2, seed=5))
        result = kmeans(data.tokens, 4, seed=1)
        d2 = ((data.tokens.data[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(result.labels, d2.argmin(axis=1))

    def test_deterministic_per_seed(self):
        data = gaussian_mixture(MixtureSpec(3, 4, 30, 1.0, 0.2, seed=6))
        a = kmeans(data.tokens, 3, seed=7)
        b = kmeans(data.tokens, 3, seed=7)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestQuantizationError:
    def test_anchors_equal_tokens_zero(self):
        points = seeded_rng(2).standard_normal((10, 4))
        assert quantization_error(TokenMatrix(points), points) == pytest.approx(0.0, abs=1e-24)

    def test_single_centroid_hand_case(self):
        """Anchor at the centroid of {(0,0), (2,0)}: each point at distance 1."""
        tokens = TokenMatrix([[0.0, 0.0], [2.0, 0.0]])
        assert quantization_error(tokens, np.array([[1.0, 0.0]])) == pytest.approx(1.0)

    def test_redundant_anchor_never_hurts(self):
        rng = seeded_rng(3)
        tokens = TokenMatrix(rng.standard_normal((20, 3)))
        anchors = rng.standard_normal((4, 3))
        more = np.vstack([anchors, rng.standard_normal((1, 3))])
        assert quantization_error(tokens, more) <= quantization_error(tokens, anchors) + 1e-12

    def test_consistent_with_kmeans_inertia(self):
        data = gaussian_mixture(MixtureSpec(4, 5, 30, 1.0, 0.3, seed=8))
        result = kmeans(data.tokens, 4, seed=0)
        qerr = quantization_error(data.tokens, result.centers)
        assert qerr == pytest.approx(result.inertia / data.tokens.num_tokens, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quantization_error(TokenMatrix(np.ones((3, 2))), np.ones((2, 5)))

"""k-means oracle correctness and the quantization-error metric."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from anchorkit.baselines import kmeans, quantization_error
from anchorkit.core import ConfigError, DimensionError, NumericalError, TokenMatrix, seeded_rng
from anchorkit.synth import MixtureSpec, gaussian_mixture
from reference import reference_kmeans, reference_pairwise_sq_dists


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


def test_reference_module_imports_only_constants():
    """``tests/reference.py`` takes constants from the package and no code,
    so a reference cannot fall back on the implementation it checks."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "anchorkit":
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "anchorkit"]
    assert [name for name in imported if not name.isupper()] == []


def reference_cases():
    """Mixtures at k = 1, 2, n_clusters and M (one of them single-channel),
    negative zeros, and repeated points that leave clusters empty."""
    cases = {}
    for spec in (MixtureSpec(4, 5, 12, 1.0, 0.3, seed=11), MixtureSpec(3, 1, 20, 1.0, 0.3, seed=12)):
        points = gaussian_mixture(spec).tokens.data
        for k in (1, 2, spec.n_clusters, len(points)):
            cases[f"mixture-c{spec.dim}-k{k}"] = (points, k)
    cases["negative-zeros"] = (np.full((10, 3), -0.0), 3)
    distinct = seeded_rng(13).standard_normal((3, 4))
    cases["repeated"] = (np.repeat(distinct, 5, axis=0), 6)
    cases["repeated-c1"] = (np.repeat(distinct[:, :1], 5, axis=0), 5)
    return cases


class TestKMeansReference:
    """The bincount update equals the per-cluster loop bit for bit."""

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_reference(self, case, seed):
        points, k = reference_cases()[case]
        centers, labels, inertia, history = reference_kmeans(points, k, seed)
        got = kmeans(TokenMatrix(points), k, seed=seed)
        np.testing.assert_array_equal(got.centers, centers)
        np.testing.assert_array_equal(np.signbit(got.centers), np.signbit(centers))
        np.testing.assert_array_equal(got.labels, labels)
        assert got.inertia == inertia
        assert got.inertia_history == history

    @pytest.mark.parametrize("case", sorted(reference_cases()))
    def test_quantization_error_equals_reference(self, case):
        points, k = reference_cases()[case]
        anchors = seeded_rng(k).standard_normal((k, points.shape[1]))
        labels = reference_pairwise_sq_dists(points, anchors).argmin(axis=1)
        want = float(((points - anchors[labels]) ** 2).sum()) / len(points)
        assert quantization_error(TokenMatrix(points), anchors) == want


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

    def test_tokens_as_anchors_exactly_zero(self):
        tokens = gaussian_mixture(MixtureSpec(4, 8, 16, seed=42)).tokens
        assert quantization_error(tokens, tokens.data) == 0.0

    def test_random_anchors_match_expanded_distance(self):
        """Exact differences move the value by rounding only."""
        tokens = gaussian_mixture(MixtureSpec(4, 8, 16, seed=42)).tokens
        anchors = seeded_rng(4).standard_normal((6, 8))
        z = tokens.data
        expanded = ((z**2).sum(axis=1)[:, None] - 2.0 * z @ anchors.T
                    + (anchors**2).sum(axis=1)[None, :])
        reference = np.maximum(expanded, 0.0).min(axis=1).mean()
        assert abs(quantization_error(tokens, anchors) - reference) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            quantization_error(TokenMatrix(np.ones((3, 2))), np.ones((2, 5)))

    @pytest.mark.parametrize("anchors", [np.empty((0, 2)), np.ones(2), np.ones((1, 2, 1))],
                             ids=["no-rows", "1-D", "3-D"])
    def test_anchor_set_that_is_not_a_matrix_rejected(self, anchors):
        with pytest.raises(DimensionError):
            quantization_error(TokenMatrix(np.ones((3, 2))), anchors)

    @pytest.mark.parametrize("anchors", [[[np.nan, 0.0], [1.0, 1.0]],
                                         [[np.inf, 0.0], [1.0, 1.0]],
                                         [[1.0, 1.0], [0.0, -np.inf]]],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_anchors_named(self, anchors):
        """A non-finite row would otherwise win or poison the nearest-row search."""
        with pytest.raises(NumericalError, match="anchors"):
            quantization_error(TokenMatrix(np.ones((3, 2))), np.array(anchors))

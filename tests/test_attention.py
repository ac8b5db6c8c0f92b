"""Alignment permutation, attention kernels vs naive oracles, cost model."""

import tracemalloc

import numpy as np
import pytest

from anchorkit import attention
from anchorkit.attention import (
    align,
    anchor_attention,
    attention_weights,
    flop_count,
    full_attention,
    init_projection,
    unalign,
)
from anchorkit.core import (
    ConfigError,
    DimensionError,
    LatentTensor,
    NumericalError,
    TokenMatrix,
    seeded_rng,
)


def naive_attention(queries, keys, values):
    """Definitional triple loop with per-row softmax."""
    m, d = queries.shape
    out = np.zeros((m, values.shape[1]))
    for i in range(m):
        scores = np.array([queries[i] @ keys[j] / np.sqrt(d) for j in range(keys.shape[0])])
        scores -= scores.max()
        weights = np.exp(scores) / np.exp(scores).sum()
        for j in range(keys.shape[0]):
            out[i] += weights[j] * values[j]
    return out


class TestAlign:
    def test_single_frame_channel_vectors(self):
        rng = seeded_rng(0)
        lat = LatentTensor(rng.standard_normal((1, 3, 2, 2)))
        aligned = align(lat)
        for p in range(4):
            y, x = divmod(p, 2)
            np.testing.assert_array_equal(aligned[p, 0], lat.data[0, :, y, x])

    def test_two_frames_one_pixel(self):
        lat = LatentTensor([[[[1.0]]], [[[2.0]]]])
        aligned = align(lat)
        np.testing.assert_array_equal(aligned, [[[1.0], [2.0]]])

    def test_round_trip_and_index_formula(self):
        rng = seeded_rng(1)
        l, c, h, w = 3, 2, 4, 5
        lat = LatentTensor(rng.standard_normal((l, c, h, w)))
        aligned = align(lat)
        assert aligned.shape == (h * w, l, c)
        for p in range(h * w):
            for f in range(l):
                np.testing.assert_array_equal(
                    aligned[p, f], lat.data[f, :, p // w, p % w]
                )
        back = unalign(aligned, h, w)
        np.testing.assert_array_equal(back.data, lat.data)

    @pytest.mark.parametrize("shape", [(6, 2), (5, 2, 3)], ids=["rank-2", "wrong-positions"])
    def test_unalign_rejects_wrong_shape(self, shape):
        with pytest.raises(DimensionError):
            unalign(np.zeros(shape), 2, 3)


class TestFullAttention:
    def test_single_token_returns_value_row(self):
        rng = seeded_rng(2)
        proj = init_projection(3, 4, seed=0)
        tokens = TokenMatrix(rng.standard_normal((1, 3)))
        out = full_attention(tokens, proj)
        np.testing.assert_allclose(out.data, tokens.data @ proj.w_value, rtol=1e-12)

    def test_identical_tokens_give_mean_value_row(self):
        rng = seeded_rng(3)
        proj = init_projection(3, 4, seed=1)
        row = rng.standard_normal(3)
        tokens = TokenMatrix(np.vstack([row, row]))
        out = full_attention(tokens, proj)
        values = tokens.data @ proj.w_value
        expected = values.mean(axis=0)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)
        np.testing.assert_allclose(out.data[1], expected, rtol=1e-12)

    def test_matches_naive_loops(self):
        rng = seeded_rng(4)
        proj = init_projection(4, 3, seed=2)
        tokens = TokenMatrix(rng.standard_normal((5, 4)))
        out = full_attention(tokens, proj)
        z = tokens.data
        expected = naive_attention(z @ proj.w_query, z @ proj.w_key, z @ proj.w_value)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = seeded_rng(5)
        proj = init_projection(4, 4, seed=3)
        tokens = rng.standard_normal((7, 4))
        perm = seeded_rng(6).permutation(7)
        base = full_attention(TokenMatrix(tokens), proj)
        permuted = full_attention(TokenMatrix(tokens[perm]), proj)
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)

    def test_dimension_mismatch(self):
        proj = init_projection(4, 3, seed=0)
        with pytest.raises(DimensionError):
            full_attention(TokenMatrix(np.ones((2, 5))), proj)


class TestAnchorAttention:
    def test_anchors_equal_tokens_matches_full(self):
        """With the anchor set equal to the token set the kernels agree."""
        rng = seeded_rng(7)
        proj = init_projection(5, 4, seed=4)
        tokens = TokenMatrix(rng.standard_normal((9, 5)))
        out_full = full_attention(tokens, proj)
        out_anchor = anchor_attention(tokens, tokens.data, proj)
        np.testing.assert_allclose(out_anchor.data, out_full.data, atol=1e-12)

    def test_single_anchor_returns_its_value_row(self):
        rng = seeded_rng(8)
        proj = init_projection(3, 2, seed=5)
        tokens = TokenMatrix(rng.standard_normal((6, 3)))
        anchor = rng.standard_normal((1, 3))
        out = anchor_attention(tokens, anchor, proj)
        expected = anchor @ proj.w_value
        for i in range(6):
            np.testing.assert_allclose(out.data[i], expected[0], rtol=1e-12)

    def test_matches_naive_loops(self):
        rng = seeded_rng(9)
        proj = init_projection(4, 3, seed=6)
        tokens = TokenMatrix(rng.standard_normal((5, 4)))
        anchors = rng.standard_normal((3, 4))
        out = anchor_attention(tokens, anchors, proj)
        expected = naive_attention(
            tokens.data @ proj.w_query, anchors @ proj.w_key, anchors @ proj.w_value
        )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_invariant_to_anchor_permutation(self):
        rng = seeded_rng(10)
        proj = init_projection(4, 4, seed=7)
        tokens = TokenMatrix(rng.standard_normal((6, 4)))
        anchors = rng.standard_normal((5, 4))
        perm = seeded_rng(11).permutation(5)
        base = anchor_attention(tokens, anchors, proj)
        permuted = anchor_attention(tokens, anchors[perm], proj)
        np.testing.assert_allclose(permuted.data, base.data, atol=1e-12)

    def test_empty_anchor_set_rejected(self):
        proj = init_projection(4, 3, seed=0)
        tokens = TokenMatrix(seeded_rng(13).standard_normal((5, 4)))
        with pytest.raises(DimensionError):
            anchor_attention(tokens, np.empty((0, 4)), proj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchors_named(self, bad):
        proj = init_projection(4, 3, seed=0)
        rng = seeded_rng(14)
        tokens = TokenMatrix(rng.standard_normal((5, 4)))
        anchors = rng.standard_normal((3, 4))
        anchors[1, 2] = bad
        with pytest.raises(NumericalError, match="anchors"):
            anchor_attention(tokens, anchors, proj)


class TestProjection:
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_a_numerical_error(self, which, bad):
        mats = [seeded_rng(15 + i).standard_normal((4, 3)) for i in range(3)]
        mats[which][2, 1] = bad
        with pytest.raises(NumericalError, match="projection"):
            attention.AttentionProjection(*mats)


class TestTiling:
    """The kernel walks the queries in row tiles of one reused buffer."""

    M = 7

    # a budget below one row still gives one-row tiles
    @pytest.mark.parametrize("rows_per_tile", [0.1, 1, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_ragged_tiles_match_oracle_and_single_tile(self, monkeypatch, mode, rows_per_tile):
        rng = seeded_rng(15)
        proj = init_projection(4, 3, seed=8)
        tokens = TokenMatrix(rng.standard_normal((self.M, 4)))
        anchors = rng.standard_normal((3, 4))
        keys_from = tokens.data if mode == "full" else anchors

        def run():
            if mode == "full":
                return full_attention(tokens, proj).data
            return anchor_attention(tokens, anchors, proj).data

        single = run()  # default budget: every row in one tile
        budget = int(8 * keys_from.shape[0] * rows_per_tile)
        monkeypatch.setattr(attention, "_TILE_BYTES", budget)
        tiled = run()
        expected = naive_attention(
            tokens.data @ proj.w_query, keys_from @ proj.w_key, keys_from @ proj.w_value
        )
        np.testing.assert_allclose(tiled, expected, atol=1e-12)
        np.testing.assert_allclose(tiled, single, atol=1e-12)

    def test_peak_memory_is_one_tile_plus_linear_terms(self):
        """M=4096, d=64: the full score matrix would be 128 MiB; the kernel
        holds one score tile plus the projections and the output."""
        proj = init_projection(64, 64, seed=10)
        tokens = TokenMatrix(seeded_rng(16).standard_normal((4096, 64)))
        tracemalloc.start()
        try:
            full_attention(tokens, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * attention._TILE_BYTES


class TestAttentionWeights:
    def test_rows_are_stochastic(self):
        rng = seeded_rng(12)
        weights = attention_weights(rng.standard_normal((40, 8)), rng.standard_normal((16, 8)))
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


class TestFlopCount:
    def test_full_quadruples_when_tokens_double(self):
        """At large M the quadratic term dominates the full kernel."""
        small = flop_count(65_536, 512, 64, 64, "full")
        big = flop_count(131_072, 512, 64, 64, "full")
        assert big / small == pytest.approx(4.0, rel=0.01)

    def test_anchor_doubles_when_tokens_double(self):
        small = flop_count(4096, 512, 64, 64, "anchor")
        big = flop_count(8192, 512, 64, 64, "anchor")
        assert big / small == pytest.approx(2.0, rel=0.02)

    def test_anchor_equals_full_when_a_equals_m(self):
        """At A = M the two cost formulas coincide exactly."""
        for m in (64, 1024, 4096):
            assert flop_count(m, m, 32, 16, "anchor") == flop_count(m, m, 32, 16, "full")

    def test_fphi_is_linear_in_tokens(self):
        one = flop_count(1000, 512, 64, 64, "fphi", hidden_dims=(128, 128))
        two = flop_count(2000, 512, 64, 64, "fphi", hidden_dims=(128, 128))
        assert two == 2 * one
        assert one == 1000 * (64 * 128 + 128 * 128 + 128 * 512)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            flop_count(10, 5, 4, 4, "sparse")

"""Alignment permutation, attention kernels vs naive oracles, cost model."""

import math

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
from reference import oracle


def attend(mode, tokens, anchors, proj):
    """The package kernel of ``mode``, "full" or "anchor", on plain arrays."""
    if mode == "full":
        return full_attention(TokenMatrix(tokens), proj).data
    return anchor_attention(TokenMatrix(tokens), anchors, proj).data


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
        np.testing.assert_allclose(out.data, oracle("full", tokens.data, None, proj), atol=1e-12)

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
        expected = oracle("anchor", tokens.data, anchors, proj)
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

    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_width_disagreeing_with_tokens_is_named(self, mode):
        """Tokens and anchors agree on 4 channels; the projection expects 5."""
        proj = init_projection(5, 3, seed=0)
        with pytest.raises(DimensionError, match="projection expects 5 channels, got 4"):
            attend(mode, np.ones((2, 4)), np.ones((3, 4)), proj)


class TestTiling:
    """The kernel walks the queries in row tiles of one reused buffer."""

    M = 7

    # a fraction of a row rounds up to one-row tiles
    @pytest.mark.parametrize("rows_per_tile", [0.1, 1, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_ragged_tiles_match_oracle_and_single_tile(self, monkeypatch, mode, rows_per_tile):
        rng = seeded_rng(15)
        proj = init_projection(4, 3, seed=8)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((3, 4))
        single = attend(mode, tokens, anchors, proj)  # default tile: every row in one tile
        monkeypatch.setattr(attention, "_TILE_ROWS", math.ceil(rows_per_tile))
        tiled = attend(mode, tokens, anchors, proj)
        np.testing.assert_allclose(tiled, oracle(mode, tokens, anchors, proj), atol=1e-12)
        np.testing.assert_allclose(tiled, single, atol=1e-12)


class TestTileRows:
    """Tiles cut only the query rows, so each score keeps its d+1 terms and
    each value sum its key block; a few hundred anchors make a small tile."""

    @pytest.mark.parametrize("rows", [256, 512])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_whole_tiles_keep_the_bytes_of_one_tile(self, monkeypatch, mode, rows):
        """Rows 1 and 3 go through OpenBLAS's vector and edge kernels, whose
        bits differ; TestTiling holds them to the oracle's tolerance."""
        rng = seeded_rng(21)
        tokens = rng.standard_normal((1024, 16))
        anchors = rng.standard_normal((64, 16))
        proj = init_projection(16, 16, seed=11)
        monkeypatch.setattr(attention, "_TILE_ROWS", 1024)
        single = attend(mode, tokens, anchors, proj).tobytes()
        monkeypatch.setattr(attention, "_TILE_ROWS", rows)
        assert attend(mode, tokens, anchors, proj).tobytes() == single

    def test_anchor_attention_peak_at_inference_shapes(self, traced_peak):
        """M=8192, A=512, c=d=64: the (M, d+1) queries, one 512 x 512 score
        tile and its accumulators stay under 9 MiB (2048-row tiles sized
        from a byte budget peaked at 15.75 MiB)."""
        rng = seeded_rng(22)
        tokens = TokenMatrix(rng.standard_normal((8192, 64)))
        anchors = rng.standard_normal((512, 64))
        proj = init_projection(64, 64, seed=12)
        assert traced_peak(anchor_attention, tokens, anchors, proj) < 9 * 2**20


class TestKeyBlocks:
    """Tiles span a block of keys; each block's weight sums and mixed values
    add into the row tile's accumulator, since every row's shift is fixed
    before any key is read."""

    M = 7

    @staticmethod
    def block(monkeypatch, key_block, rows_per_tile):
        monkeypatch.setattr(attention, "_KEY_BLOCK", key_block)
        monkeypatch.setattr(attention, "_TILE_ROWS", rows_per_tile)

    # 7 keys in both modes: every token (full) or 7 anchors (anchor)
    @pytest.mark.parametrize("rows_per_tile", [1, 3, 7])
    @pytest.mark.parametrize("key_block", [1, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_ragged_key_blocks_match_oracle_and_single_tile(
        self, monkeypatch, mode, key_block, rows_per_tile
    ):
        rng = seeded_rng(19)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((self.M, 4))
        proj = init_projection(4, 3, seed=9)
        single = attend(mode, tokens, anchors, proj)
        self.block(monkeypatch, key_block, rows_per_tile)
        blocked = attend(mode, tokens, anchors, proj)
        np.testing.assert_allclose(
            blocked, oracle(mode, tokens, anchors, proj), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(blocked, single, rtol=1e-9, atol=1e-12)

    # a score buffer of 2 rows x 3 keys holds less than one row of 7 keys
    @pytest.mark.parametrize("key_block,rows_per_tile", [(3, 2), (2, 1), (5, 1)])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_fallback_rows_with_a_buffer_shorter_than_one_row(
        self, monkeypatch, mode, key_block, rows_per_tile
    ):
        rng = seeded_rng(17)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((self.M, 4))
        if mode == "full":
            tokens[2] *= 300
        else:
            anchors[0] *= 300
        proj = init_projection(4, 3, seed=8)
        single = attend(mode, tokens, anchors, proj)
        seen = []

        def spy(queries, *args):
            seen.append(len(queries))
            return exact(queries, *args)

        exact = attention._row_max
        monkeypatch.setattr(attention, "_row_max", spy)
        self.block(monkeypatch, key_block, rows_per_tile)
        assert key_block * rows_per_tile < self.M
        blocked = attend(mode, tokens, anchors, proj)
        assert 0 < sum(seen) < self.M
        np.testing.assert_allclose(
            blocked, oracle(mode, tokens, anchors, proj), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(blocked, single, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("key_block", [3, attention._KEY_BLOCK])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_two_calls_are_byte_identical(self, monkeypatch, mode, key_block):
        rng = seeded_rng(20)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((self.M, 4))
        proj = init_projection(4, 3, seed=10)
        self.block(monkeypatch, key_block, 2)
        first = attend(mode, tokens, anchors, proj)
        second = attend(mode, tokens, anchors, proj)
        assert first.tobytes() == second.tobytes()

    # scale 1e3 sends every row through the exact path
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_peak_memory_with_more_keys_than_one_block(self, traced_peak, scale):
        """M=4096 > _KEY_BLOCK, d=64: the full score matrix would be 128 MiB;
        the kernel holds one score tile plus the projections and the
        output, also when every row is recomputed block by block."""
        m = 4096
        assert m > attention._KEY_BLOCK
        proj = init_projection(64, 64, seed=10)
        tokens = TokenMatrix(scale * seeded_rng(16).standard_normal((m, 64)))
        peak = traced_peak(full_attention, tokens, proj)
        assert peak < 3 * 8 * attention._TILE_ROWS * attention._KEY_BLOCK


class TestExactFallback:
    """Rows whose weights underflow under the Cauchy-Schwarz shift are
    recomputed with the exact row-max shift; both paths match the oracle
    to perfbench's tolerance."""

    M = 7

    @pytest.fixture
    def exact_rows(self, monkeypatch):
        """Number of query rows that went through the exact path."""
        seen = []

        def spy(x, *args):
            seen.append(x.shape[0])
            return exact(x, *args)

        exact = attention._row_max
        monkeypatch.setattr(attention, "_row_max", spy)
        return lambda: sum(seen)

    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_scaled_tokens_take_the_exact_path_for_every_row(self, exact_rows, mode):
        rng = seeded_rng(17)
        tokens = 1e3 * rng.standard_normal((self.M, 4))
        anchors = 1e3 * rng.standard_normal((3, 4))
        proj = init_projection(4, 3, seed=8)
        out, expected = attend(mode, tokens, anchors, proj), oracle(mode, tokens, anchors, proj)
        assert exact_rows() == self.M
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)

    # one token (full) or one anchor (anchor) far longer than the rest:
    # rows pointing along its key keep the shifted path, the others fall back
    @pytest.mark.parametrize("rows_per_tile", [1, 2, 3, 7])
    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_some_rows_fall_back_under_ragged_tiles(
        self, monkeypatch, exact_rows, mode, rows_per_tile
    ):
        rng = seeded_rng(17)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((3, 4))
        if mode == "full":
            tokens[2] *= 300
        else:
            anchors[0] *= 300
        monkeypatch.setattr(attention, "_TILE_ROWS", rows_per_tile)
        proj = init_projection(4, 3, seed=8)
        out, expected = attend(mode, tokens, anchors, proj), oracle(mode, tokens, anchors, proj)
        assert 0 < exact_rows() < self.M
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode", ["full", "anchor"])
    def test_all_zero_keys_give_the_mean_value_row(self, exact_rows, mode):
        rng = seeded_rng(18)
        w_query, w_value = rng.standard_normal((2, 4, 3))
        proj = attention.AttentionProjection(w_query, np.zeros((4, 3)), w_value)
        tokens = rng.standard_normal((self.M, 4))
        anchors = rng.standard_normal((3, 4))
        out, expected = attend(mode, tokens, anchors, proj), oracle(mode, tokens, anchors, proj)
        keys_from = tokens if mode == "full" else anchors
        assert exact_rows() == 0
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            out, np.broadcast_to((keys_from @ w_value).mean(axis=0), out.shape), rtol=1e-12
        )


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

    def test_score_and_mixing_products_are_d_plus_one_wide(self):
        """The extra column carries the softmax shift in and the row sum out."""
        m, a, c, d = 10, 3, 5, 4
        assert flop_count(m, a, c, d, "full") == 3 * m * c * d + 2 * m * m * (d + 1)
        assert flop_count(m, a, c, d, "anchor") == (m + 2 * a) * c * d + 2 * m * a * (d + 1)

    def test_fphi_is_linear_in_tokens(self):
        one = flop_count(1000, 512, 64, 64, "fphi", hidden_dims=(128, 128))
        two = flop_count(2000, 512, 64, 64, "fphi", hidden_dims=(128, 128))
        assert two == 2 * one
        assert one == 1000 * (64 * 128 + 128 * 128 + 128 * 512)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            flop_count(10, 5, 4, 4, "sparse")

    @pytest.mark.parametrize("width", [0, -5])
    def test_hidden_width_below_one_rejected(self, width):
        with pytest.raises(ConfigError, match="extents must be >= 1"):
            flop_count(10, 4, 3, 1, "fphi", (width,))

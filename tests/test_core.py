"""Container invariants, flatten/unflatten arithmetic, and the VLT1 format."""

import numpy as np
import pytest

from anchorkit.core import (
    BadMagicError,
    DimensionError,
    ExtentOverflowError,
    FormatError,
    LatentTensor,
    NumericalError,
    Provenance,
    TokenMatrix,
    TruncatedPayloadError,
    flatten,
    load_array,
    load_tokens,
    save_array,
    save_tokens,
    seeded_rng,
    unflatten,
)


class TestContainers:
    def test_token_matrix_rejects_nan(self):
        with pytest.raises(NumericalError):
            TokenMatrix([[1.0, np.nan]])

    def test_token_matrix_rejects_empty(self):
        with pytest.raises(DimensionError):
            TokenMatrix(np.zeros((0, 3)))

    def test_token_matrix_is_immutable(self):
        tm = TokenMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            tm.data[0, 0] = 9.0

    def test_provenance_must_match_row_count(self):
        with pytest.raises(DimensionError):
            TokenMatrix(np.zeros((5, 2)), Provenance(2, 2, 2))

    def test_latent_tensor_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            LatentTensor(np.zeros((2, 2, 2)))


class TestFlatten:
    def test_single_element_identity(self):
        lat = LatentTensor([[[[5.0]]]])
        tokens = flatten(lat)
        assert tokens.data.shape == (1, 1)
        assert tokens.data[0, 0] == 5.0

    def test_frame_order(self):
        """Two 1x1 frames flatten in frame order."""
        lat = LatentTensor([[[[1.0]]], [[[2.0]]]])
        tokens = flatten(lat)
        np.testing.assert_array_equal(tokens.data, [[1.0], [2.0]])

    def test_index_formula(self):
        """Row f*(h*w) + y*w + x carries the channel vector at (f, y, x)."""
        rng = seeded_rng(3)
        l, c, h, w = 2, 3, 2, 4
        lat = LatentTensor(rng.standard_normal((l, c, h, w)))
        tokens = flatten(lat)
        for f in range(l):
            for y in range(h):
                for x in range(w):
                    m = f * (h * w) + y * w + x
                    np.testing.assert_array_equal(tokens.data[m], lat.data[f, :, y, x])

    def test_round_trip_2x2x2(self):
        rng = seeded_rng(1)
        lat = LatentTensor(rng.standard_normal((1, 2, 2, 2)))
        back = unflatten(flatten(lat), 1, 2, 2)
        np.testing.assert_array_equal(back.data, lat.data)

    def test_round_trip_random_shapes(self):
        """flatten and unflatten are mutually inverse over small shapes."""
        rng = seeded_rng(7)
        for _ in range(40):
            l, h, w = (int(rng.integers(1, 9)) for _ in range(3))
            c = int(rng.integers(1, 5))
            lat = LatentTensor(rng.standard_normal((l, c, h, w)))
            tokens = flatten(lat)
            assert tokens.provenance == Provenance(l, h, w)
            back = unflatten(tokens, l, h, w)
            np.testing.assert_array_equal(back.data, lat.data)
            again = flatten(back)
            np.testing.assert_array_equal(again.data, tokens.data)

    def test_unflatten_shape_mismatch_names_counts(self):
        tokens = TokenMatrix(np.zeros((5, 2)))
        with pytest.raises(DimensionError, match="8 tokens.*5"):
            unflatten(tokens, 2, 2, 2)


class TestVlt1Format:
    def test_single_value_bytes(self, tmp_path):
        """A 1x1 matrix [[5.0]] encodes to the documented 20-byte layout."""
        path = tmp_path / "one.vlt"
        save_tokens(path, TokenMatrix([[5.0]]))
        expected = (
            b"VLT1"
            + b"\x02\x00\x00\x00"
            + b"\x01\x00\x00\x00\x01\x00\x00\x00"
            + b"\x00\x00\xa0\x40"
        )
        assert path.read_bytes() == expected

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = seeded_rng(11)
        data = rng.standard_normal((64, 16)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.vlt"
        save_tokens(path, TokenMatrix(data))
        loaded = load_tokens(path)
        np.testing.assert_array_equal(loaded.data, data)
        # a second save produces identical bytes
        path2 = tmp_path / "m2.vlt"
        save_tokens(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("byte_index", [0, 1, 2, 3])
    def test_corrupt_magic_byte_raises(self, tmp_path, byte_index):
        path = tmp_path / "m.vlt"
        save_tokens(path, TokenMatrix([[5.0]]))
        raw = bytearray(path.read_bytes())
        raw[byte_index] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_tokens(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "m.vlt"
        save_tokens(path, TokenMatrix(np.ones((4, 4))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_tokens(path)

    @pytest.mark.parametrize("raw", [b"", b"V", b"VLT", b"VLT1", b"VLT1\x02\x00"])
    def test_file_cut_inside_the_header_is_truncated(self, tmp_path, raw):
        path = tmp_path / "m.vlt"
        path.write_bytes(raw)
        with pytest.raises(TruncatedPayloadError):
            load_array(path)

    def test_zero_extent_raises_dimension_error(self, tmp_path):
        path = tmp_path / "m.vlt"
        # header says 0 x 1 with no payload
        path.write_bytes(b"VLT1" + b"\x02\x00\x00\x00" + b"\x00\x00\x00\x00\x01\x00\x00\x00")
        with pytest.raises(DimensionError):
            load_tokens(path)

    def test_extent_overflow_raises(self, tmp_path):
        path = tmp_path / "m.vlt"
        huge = (0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(b"VLT1" + b"\x02\x00\x00\x00" + huge + huge)
        with pytest.raises(ExtentOverflowError):
            load_tokens(path)

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "m.vlt"
        save_tokens(path, TokenMatrix([[5.0]]))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_tokens(path)

    def test_rank4_round_trip(self, tmp_path):
        rng = seeded_rng(2)
        arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.vlt"
        save_array(path, arr)
        np.testing.assert_array_equal(load_array(path), arr)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = seeded_rng(1234).standard_normal(10_000)
        b = seeded_rng(1234).standard_normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).standard_normal(16)
        b = seeded_rng(2).standard_normal(16)
        assert not np.array_equal(a, b)

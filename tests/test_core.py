"""Container invariants, flatten/unflatten arithmetic, and the VLT1 format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anchorkit import core
from anchorkit.assignnet import (
    AssignmentNetwork, Layer, init_network, load_checkpoint, save_checkpoint,
)
from anchorkit.attention import align, unalign
from anchorkit.core import (
    AnchorKitError,
    BadMagicError,
    ConfigError,
    DimensionError,
    ExtentOverflowError,
    FormatError,
    LatentTensor,
    NumericalError,
    TokenMatrix,
    TruncatedPayloadError,
    _encode_array,
    _row_tiles,
    flatten,
    load_array,
    load_latent,
    load_tokens,
    save_array,
    save_latent,
    save_tokens,
    seeded_rng,
    unflatten,
)


CONTAINERS = pytest.mark.parametrize("container,rank", [(TokenMatrix, 2), (LatentTensor, 4)])


class TestContainers:
    @CONTAINERS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, container, rank, bad):
        arr = np.ones((2,) * rank)
        arr.flat[-1] = bad
        with pytest.raises(NumericalError):
            container(arr)

    @CONTAINERS
    @pytest.mark.parametrize("where", [0, 2, 3, -1])
    def test_rejects_non_finite_in_any_check_chunk(self, monkeypatch, container, rank, where):
        """Chunks of 3 entries over 2**rank of them: a bad entry is found
        at either end of the first chunk, in the second, or in the short
        last one."""
        monkeypatch.setattr(core, "_FINITE_CHUNK", 3)
        arr = np.ones((2,) * rank)
        arr.flat[where] = np.nan
        with pytest.raises(NumericalError):
            container(arr)
        assert container(np.ones((2,) * rank)).data.shape == (2,) * rank

    def test_rejects_non_finite_past_the_first_chunk(self):
        arr = np.ones((3, core._FINITE_CHUNK))
        arr[2, -1] = -np.inf
        with pytest.raises(NumericalError):
            TokenMatrix._adopt(arr)

    @CONTAINERS
    def test_rejects_a_zero_extent(self, container, rank):
        with pytest.raises(DimensionError):
            container(np.ones((2,) * (rank - 1) + (0,)))

    @CONTAINERS
    def test_holds_a_frozen_copy(self, container, rank):
        source = np.arange(2.0**rank).reshape((2,) * rank)
        held = container(source)
        source[...] = -1.0
        assert type(held) is container
        np.testing.assert_array_equal(held.data.ravel(), np.arange(2.0**rank))
        assert held.data.flags.c_contiguous and not held.data.flags.writeable
        with pytest.raises(ValueError):
            held.data[(0,) * rank] = 9.0

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

    def test_adopted_token_matrix_holds_its_array_frozen(self):
        arr = np.ones((2, 3))
        tm = TokenMatrix._adopt(arr)
        assert tm.data is arr and not arr.flags.writeable

    def test_adopted_latent_tensor_holds_its_array_frozen(self):
        arr = np.ones((2, 3, 1, 2))
        lat = LatentTensor._adopt(arr)
        assert type(lat) is LatentTensor and lat.data is arr and not arr.flags.writeable

    @pytest.mark.parametrize("arr,error", [(np.array([[1.0, np.nan]]), NumericalError),
                                           (np.ones((2, 2, 1)), DimensionError),
                                           (np.ones((0, 3)), DimensionError)])
    def test_adopted_token_matrix_keeps_the_checks(self, arr, error):
        with pytest.raises(error):
            TokenMatrix._adopt(arr)

    @pytest.mark.parametrize("arr,error", [(np.full((1, 1, 1, 2), np.inf), NumericalError),
                                           (np.ones((2, 2)), DimensionError),
                                           (np.ones((1, 0, 2, 2)), DimensionError)])
    def test_adopted_latent_tensor_keeps_the_checks(self, arr, error):
        with pytest.raises(error):
            LatentTensor._adopt(arr)

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
            back = unflatten(tokens, l, h, w)
            np.testing.assert_array_equal(back.data, lat.data)
            again = flatten(back)
            np.testing.assert_array_equal(again.data, tokens.data)

    @staticmethod
    def flatten_peak():
        lat = LatentTensor(seeded_rng(13).standard_normal((8, 64, 32, 32)))
        tracemalloc.start()
        try:
            tokens = flatten(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / tokens.data.nbytes

    def test_traced_peak_is_one_result(self):
        """The reshaped copy is adopted, not copied again: an 8x64x32x32
        latent flattens into one 4 MiB result (two copies peaked at
        8.5 MiB, 2.1 results)."""
        assert self.flatten_peak() < 1.2

    def test_adoption_check_holds_no_full_size_mask(self):
        """The finiteness check reuses one 64 KiB mask; a boolean mask of
        the whole result, an eighth of it, peaked at 1.125 results."""
        assert self.flatten_peak() <= 1.05

    @pytest.mark.parametrize("shape", [(3, 1, 2, 4), (3, 5, 1, 1)])
    def test_view_shapes_get_their_own_buffer(self, shape):
        """With one channel or a 1x1 grid the reshape is a view of the
        latent, which the token matrix must not share."""
        lat = LatentTensor(seeded_rng(14).standard_normal(shape))
        tokens = flatten(lat)
        assert not np.shares_memory(tokens.data, lat.data)
        assert tokens.data.flags.c_contiguous and not tokens.data.flags.writeable
        want = lat.data.transpose(0, 2, 3, 1).reshape(-1, shape[1])
        np.testing.assert_array_equal(tokens.data, want)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(*[st.integers(1, 6)] * 4), seed=st.integers(0, 2**32 - 1))
    def test_layout_round_trips_are_exact(self, tmp_path, shape, seed):
        """flatten, align and the VLT1 latent file give ``x`` back exactly,
        and align puts frame ``f`` of position ``p`` at ``[p, f]``."""
        l, c, h, w = shape
        x = LatentTensor(seeded_rng(seed).standard_normal(shape).astype(np.float32))
        np.testing.assert_array_equal(unflatten(flatten(x), l, h, w).data, x.data)
        path = tmp_path / "x.vlt"
        save_latent(path, x)
        np.testing.assert_array_equal(load_latent(path).data, x.data)
        aligned = align(x)
        np.testing.assert_array_equal(unalign(aligned, h, w).data, x.data)
        expected = [[x.data[f, :, p // w, p % w] for f in range(l)] for p in range(h * w)]
        np.testing.assert_array_equal(aligned, expected)

    def test_load_latent_peaks_like_load_tokens(self, tmp_path):
        """Both loaders hold the array that ``load_array`` decodes, without
        a further copy: the latent file's traced peak is within 10 % of the
        same values read as a token matrix."""
        x = seeded_rng(12).standard_normal((8, 64, 16, 16))
        save_latent(tmp_path / "x.vlt", LatentTensor(x))
        save_tokens(tmp_path / "t.vlt", TokenMatrix(x.reshape(-1, 64)))
        peaks = {}
        for loader, name in ((load_latent, "x.vlt"), (load_tokens, "t.vlt")):
            tracemalloc.start()
            try:
                loaded = loader(tmp_path / name)
                peaks[loader] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert loaded.data.size == x.size
        assert peaks[load_latent] <= 1.1 * peaks[load_tokens]

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

    def test_zero_extent_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.vlt"
        path.write_bytes(b"VLT1" + b"\x02\x00\x00\x00" + b"\x00\x00\x00\x00\x01\x00\x00\x00")
        with pytest.raises(FormatError):
            load_array(path)

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

    @pytest.mark.parametrize("loader,shape,rank", [(load_tokens, (1, 2, 1, 3), 2),
                                                   (load_latent, (2, 3), 4)])
    def test_loader_rejects_wrong_rank(self, tmp_path, loader, shape, rank):
        path = tmp_path / "m.vlt"
        save_array(path, np.ones(shape))
        with pytest.raises(DimensionError, match=f"must be rank {rank}, got rank {len(shape)}"):
            loader(path)

    def test_rank4_round_trip(self, tmp_path):
        rng = seeded_rng(2)
        arr = rng.standard_normal((2, 3, 4, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.vlt"
        save_array(path, arr)
        np.testing.assert_array_equal(load_array(path), arr)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000],
                             ids=["nan", "signalling-nan", "inf", "-inf"])
    @pytest.mark.parametrize("loader,shape", [(load_array, (3,)), (load_tokens, (2, 3)),
                                              (load_latent, (1, 2, 1, 3))])
    def test_non_finite_payload_is_a_format_error(self, tmp_path, bits, loader, shape):
        """Checked on the stored float32 values, so even a signalling NaN
        raises before the float64 cast could warn about it."""
        raw = bytearray(_encode_array(np.ones(shape)))
        raw[-8:-4] = bits.to_bytes(4, "little")
        path = tmp_path / "m.vlt"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            loader(path)


# arrays that the VLT1 reader rejects: bad ranks, a zero extent, and values
# that are not finite once stored as float32
UNREADABLE_ARRAYS = {
    "rank-0": np.array(1.0),
    "rank-9": np.ones((1,) * 9),
    "zero-extent": np.zeros((2, 0)),
    "nan": np.array([1.0, np.nan]),
    "inf": np.array([-np.inf, 1.0]),
    "float32-overflow": np.array([1.0, 1e39]),
}


class TestWritersRefuseWhatTheReaderRejects:
    @pytest.mark.parametrize("arr", UNREADABLE_ARRAYS.values(), ids=UNREADABLE_ARRAYS.keys())
    def test_save_array_raises_and_writes_nothing(self, tmp_path, arr):
        path = tmp_path / "bad.vlt"
        with pytest.raises(AnchorKitError, match="bad.vlt"):
            save_array(path, arr)
        assert not path.exists()

    def test_save_checkpoint_raises_and_writes_nothing(self, tmp_path):
        net = init_network(3, 2, hidden_dims=(4,), seed=0)
        last = net.layers[-1]
        net = AssignmentNetwork((net.layers[0], Layer(last.weight, np.full_like(last.bias, 1e39))))
        path = tmp_path / "net.ckpt"
        with pytest.raises(AnchorKitError, match="net.ckpt"):
            save_checkpoint(path, net)
        assert not path.exists()

    def test_largest_float32_round_trips(self, tmp_path):
        arr = np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max], dtype=np.float64)
        save_array(tmp_path / "max.vlt", arr)
        np.testing.assert_array_equal(load_array(tmp_path / "max.vlt"), arr)


class TestRowTiles:
    """One rule sizes the objective's and the attention kernel's row tiles."""

    @pytest.mark.parametrize("budget,rows", [(8 * 48 * 4, 4), (8 * 48 * 5 - 1, 4), (1, 1),
                                             (2**40, 6)])
    def test_rows_fit_the_budget_and_every_tile_starts_once(self, budget, rows):
        assert _row_tiles((6, 48), budget) == (rows, range(0, 6, rows))


# little-endian float32 signalling NaN, quiet NaN, +inf and -inf
FLOAT32_SPECIALS = st.sampled_from(
    [b"\x01\x00\x80\x7f", b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f", b"\x00\x00\x80\xff"]
)


def mutated(draw, raw: bytes) -> bytes:
    """``raw`` as it is, cut short, with bytes overwritten, extended, or
    replaced by arbitrary bytes."""
    raw = bytearray(raw)
    how = draw(st.sampled_from(["valid", "cut", "overwrite", "extend", "arbitrary"]))
    if how == "cut":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    elif how == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(raw) - 1))
            raw[at : at + 4] = draw(st.one_of(st.binary(min_size=1, max_size=4), FLOAT32_SPECIALS))
    elif how == "extend":
        raw += draw(st.binary(min_size=1, max_size=8))
    elif how == "arbitrary":
        raw = bytearray(draw(st.binary(max_size=64)))
    return bytes(raw)


@st.composite
def vlt1_files(draw):
    """A mutated VLT1 record of any float32 values, NaN and inf included."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    values = draw(st.lists(st.floats(width=32), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return mutated(draw, _encode_array(np.array(values, dtype=np.float32).reshape(shape)))


class TestDecoderFuzz:
    """Decoders return finite data or raise a FormatError on any bytes."""

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=vlt1_files())
    def test_load_array(self, tmp_path, raw):
        path = tmp_path / "m.vlt"
        path.write_bytes(raw)
        try:
            arr = load_array(path)
        except FormatError:
            return
        assert np.isfinite(arr).all()

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_checkpoint(self, tmp_path, data):
        path = tmp_path / "net.ckpt"
        net = init_network(3, 2, hidden_dims=(2,), seed=data.draw(st.integers(0, 3)))
        save_checkpoint(path, net, data.draw(st.integers(0, 9)))
        path.write_bytes(mutated(data.draw, path.read_bytes()))
        try:
            net, _ = load_checkpoint(path)
        except FormatError:
            return
        assert all(np.isfinite(l.weight).all() and np.isfinite(l.bias).all() for l in net.layers)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = seeded_rng(1234).standard_normal(10_000)
        b = seeded_rng(1234).standard_normal(10_000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("words", [(-1,), (3, -7, 2), ()])
    def test_negative_or_missing_seed_is_a_config_error(self, words):
        with pytest.raises(ConfigError, match="seeds must be"):
            seeded_rng(*words)

    def test_one_word_is_the_plain_pcg64_stream(self):
        expected = np.random.Generator(np.random.PCG64(5)).standard_normal(16)
        np.testing.assert_array_equal(seeded_rng(5).standard_normal(16), expected)

    def test_different_seeds_differ(self):
        a = seeded_rng(1).standard_normal(16)
        b = seeded_rng(2).standard_normal(16)
        assert not np.array_equal(a, b)

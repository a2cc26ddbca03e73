"""Binary weights file round-trips, format rejection and fuzzing."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from lfab import cli, encoders, frontend, tensor, weights
from lfab.encoders import EncoderConfig
from lfab.errors import WeightsFormatError
from lfab.tensor import Tensor
from lfab.weights import MAGIC, read_weights_file, write_weights_file


def serialize_weights(w):
    """The LFWB bytes write_weights_file streams, whole."""
    return b"".join(weights._chunks(w))


def small_weights():
    rng = np.random.default_rng(11)
    return {
        "a.w": Tensor(rng.standard_normal((3, 4)).astype(np.float32)),
        "a.b": Tensor(rng.standard_normal(4).astype(np.float32)),
        "deep.nested.name": Tensor(rng.standard_normal((2, 2, 2)).astype(np.float32)),
    }


# values of the one entry of multi_span_weights: over 19 blocks and a part
MULTI_SPAN_VALUES = (19 * weights._BLOCK) // 4 + 5


def multi_span_weights():
    """A small entry of part of one block, then one over many blocks."""
    rng = np.random.default_rng(12)
    return {
        "bias": Tensor(rng.standard_normal(7).astype(np.float32)),
        "big": Tensor(rng.standard_normal(MULTI_SPAN_VALUES).astype(np.float32)),
    }


def read_bytes(tmp_path, data):
    """read_weights_file over data written to a file."""
    path = tmp_path / "data.lfwb"
    path.write_bytes(data)
    return read_weights_file(path)


class TestRoundTrip:
    def test_serialize_deserialize_serialize_is_identity(self, tmp_path):
        w = small_weights()
        data = serialize_weights(w)
        again = serialize_weights(read_bytes(tmp_path, data))
        assert data == again

    def test_values_and_order_preserved(self, tmp_path):
        w = small_weights()
        out = read_bytes(tmp_path, serialize_weights(w))
        assert list(out) == list(w)
        for name in w:
            assert out[name].shape == w[name].shape
            np.testing.assert_array_equal(out[name].array, w[name].array)

    def test_file_round_trip(self, tmp_path):
        w = small_weights()
        path = tmp_path / "w.lfwb"
        write_weights_file(path, w)
        assert path.read_bytes() == serialize_weights(w)
        out = read_weights_file(path)
        assert list(out) == list(w)

    def test_entries_over_many_blocks_read_back_identical(self, tmp_path):
        # entries of one block, one block plus a value, and many blocks
        rng = np.random.default_rng(13)
        sizes = [weights._BLOCK // 4, weights._BLOCK // 4 + 1, 3, MULTI_SPAN_VALUES]
        w = {f"e{i}": Tensor(rng.standard_normal(n).astype(np.float32))
             for i, n in enumerate(sizes * 2)}
        data = serialize_weights(w)
        assert serialize_weights(read_bytes(tmp_path, data)) == data

    def test_write_replaces_existing_file(self, tmp_path):
        path = tmp_path / "w.lfwb"
        path.write_bytes(b"old junk")
        write_weights_file(path, small_weights())
        assert path.read_bytes().startswith(MAGIC)
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_dict_round_trips(self, tmp_path):
        data = serialize_weights({})
        assert data == MAGIC + struct.pack("<I", 0)
        assert read_bytes(tmp_path, data) == {}

    def test_model_weights_round_trip(self, tmp_path):
        cfg = EncoderConfig(family="conv_only", model_dim=32, channels=32,
                            num_blocks=2)
        model = encoders.attach_heads(encoders.build(cfg, seed=5))
        data = serialize_weights(model.weights)
        loaded = read_bytes(tmp_path, data)
        rebuilt = encoders.build(cfg, seed=999, source=loaded)
        encoders.attach_heads(rebuilt, source=loaded)
        assert not loaded  # every entry consumed
        assert serialize_weights(rebuilt.weights) == data


@pytest.fixture
def rejects(tmp_path):
    """Assert that the reader rejects data written to a file."""

    def check(data, match):
        with pytest.raises(WeightsFormatError, match=match):
            read_bytes(tmp_path, data)

    return check


class TestFormatErrors:
    def test_bad_magic(self, rejects):
        data = b"XXXX" + serialize_weights(small_weights())[4:]
        rejects(data, "magic")

    @pytest.mark.parametrize("cut", [0, 2, 6, 9, 20, -1])
    def test_truncation(self, cut, rejects):
        data = serialize_weights(small_weights())
        rejects(data[:cut], "truncated")

    def test_trailing_bytes(self, rejects):
        data = serialize_weights(small_weights()) + b"\x00"
        rejects(data, "trailing")

    def test_duplicate_names(self, rejects):
        one = Tensor(np.ones(2, dtype=np.float32))
        entry = serialize_weights({"x": one})[8:]
        data = MAGIC + struct.pack("<I", 2) + entry + entry
        rejects(data, "duplicate")

    def test_empty_name(self, rejects):
        body = struct.pack("<I", 0) + struct.pack("<II", 1, 1)
        body += struct.pack("<f", 1.0)
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "empty entry name")

    def test_zero_dim(self, rejects):
        body = struct.pack("<I", 1) + b"x" + struct.pack("<II", 1, 0)
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "zero-sized")

    def test_ndim_out_of_range(self, rejects):
        body = struct.pack("<I", 1) + b"x" + struct.pack("<I", 9)
        body += struct.pack("<9I", *([1] * 9)) + struct.pack("<f", 1.0)
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "ndim")

    def test_non_finite_values_rejected(self, rejects):
        body = struct.pack("<I", 1) + b"x" + struct.pack("<II", 1, 1)
        body += struct.pack("<f", float("nan"))
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "finite")

    def test_name_not_utf8(self, rejects):
        body = struct.pack("<I", 1) + b"\xff" + struct.pack("<II", 1, 1)
        body += struct.pack("<f", 1.0)
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "UTF-8")

    @pytest.mark.parametrize("dims", [(65536, 65536), (2**32 - 1,) * 8])
    def test_huge_entry_is_truncated_before_allocating(self, dims, rejects):
        # a tiny file whose header claims 2**32 or more elements: checked
        # against the bytes left, never allocated (no MemoryError)
        body = struct.pack("<I", 1) + b"x" + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
        body += struct.pack("<f", 1.0)
        data = MAGIC + struct.pack("<I", 1) + body
        rejects(data, "truncated")

    @pytest.mark.parametrize("at", [0, 1, MULTI_SPAN_VALUES - 1])
    @pytest.mark.parametrize("later", ["ndim", "trailing", "truncated"])
    def test_bad_values_reported_before_a_later_header_error(self, at, later, rejects):
        # the file is parsed in its order: the early entry's NaN is reported
        # before a later entry's infinities and before the header error
        data = bytearray(serialize_weights(multi_span_weights()))
        nan_at = len(data) - 4 * (MULTI_SPAN_VALUES - at)
        data[nan_at:nan_at + 4] = struct.pack("<f", float("nan"))
        data += struct.pack("<I", 5) + b"small" + struct.pack("<II", 1, 3)
        data += struct.pack("<3f", *[float("inf")] * 3)
        bad = {
            "ndim": data + struct.pack("<I", 1) + b"z" + struct.pack("<I", 9),
            "trailing": data + b"\x00",
            "truncated": data[:-1],
        }[later]
        bad[4:8] = struct.pack("<I", 3 + (later == "ndim"))
        rejects(bytes(bad), "^entry 'big': tensor values must be finite$")


class TestLoadingIntoBuild:
    def test_missing_entry_names_the_key(self):
        cfg = EncoderConfig(family="conv_only", model_dim=32, channels=32,
                            num_blocks=2)
        with pytest.raises(WeightsFormatError, match="prologue.0.dw"):
            encoders.build(cfg, seed=0, source={})

    def test_shape_mismatch_reported(self):
        cfg = EncoderConfig(family="conv_only", model_dim=32, channels=32,
                            num_blocks=2)
        donor = encoders.build(cfg, seed=1)
        loaded = dict(donor.weights)
        loaded["prologue.0.dw"] = Tensor.zeros((3, 3))
        with pytest.raises(WeightsFormatError, match="shape"):
            encoders.build(cfg, seed=0, source=loaded)


def toy_model_bytes(preset):
    model = cli.build_model(cli.resolve_run_config(preset), seed=1)
    return serialize_weights(model.weights)


# sha256 of the seed-1 weights of each toy preset, encoder and both heads, as
# gen-weights writes them: pins every shape, name and the draw order
PINNED_WEIGHTS_SHA256 = {
    "toy-citrinet": "552d87e36d4e485d95cacea1ae376bdd3530e490721bad0fd4180cfca2691025",
    "toy-conformer": "58bbef837bed6904c945c5dc0ff6ec000d3db8f3395fe34fc6ba5e3181aacfd4",
    "toy-contextnet": "3d80f8eecd7397c290bf132a76304718debc61c599fae10c5ea7def07b1a7f12",
    "toy-fastconformer": "58bbef837bed6904c945c5dc0ff6ec000d3db8f3395fe34fc6ba5e3181aacfd4",
    "toy-fastconformer-gt": "1faf1ddd4134263a8d185ae75d35c80f0a4d4785ecefdb734fedd71cc6a0aee6",
    "toy-quartznet2": "3ae11625d9d0c820bff0dfcebac02f15b9742d699dd59c05abb8e37c8d5df575",
}


class TestPinnedWeights:
    def test_pins_cover_every_toy_preset(self):
        assert set(PINNED_WEIGHTS_SHA256) == {p for p in cli.PRESETS if p.startswith("toy-")}

    @pytest.mark.parametrize("preset", sorted(PINNED_WEIGHTS_SHA256))
    def test_seed_1_weights_hash(self, preset):
        digest = hashlib.sha256(toy_model_bytes(preset)).hexdigest()
        assert digest == PINNED_WEIGHTS_SHA256[preset]


def header_offsets(w):
    """Byte offsets of every header byte (everything but tensor values)."""
    offsets, pos = list(range(8)), 8
    for name, t in w.items():
        head = 4 + len(name.encode("utf-8")) + 4 + 4 * t.ndim
        offsets += range(pos, pos + head)
        pos += head + t.nbytes
    return offsets


class TestFuzz:
    def test_mutations_read_alike_or_fail_alike(self, tmp_path, capsys):
        # every mutation either reads back to exactly its own bytes or fails
        # with a WeightsFormatError; any other exception fails the test
        data = toy_model_bytes("toy-quartznet2")
        heads = header_offsets(read_bytes(tmp_path, data))
        rng = np.random.default_rng(20231)
        path = tmp_path / "m.lfwb"
        failed = []
        kinds = {"ok": 0, "error": 0}
        for case in range(300):
            mutated = bytearray(data)
            kind = case % 4
            if kind == 0:  # one header byte set to a random value
                mutated[rng.choice(heads)] = rng.integers(256)
            elif kind == 1:  # one byte anywhere
                mutated[rng.integers(len(data))] = rng.integers(256)
            elif kind == 2:  # truncation
                del mutated[rng.integers(len(data)):]
            else:  # a large u32 over four header bytes, e.g. a dim
                at = min(rng.choice(heads), len(data) - 4)
                mutated[at:at + 4] = struct.pack("<I", rng.integers(2**16, 2**32))
            mutated = bytes(mutated)
            path.write_bytes(mutated)
            try:
                out = read_weights_file(path)
            except WeightsFormatError:
                kinds["error"] += 1
                if len(failed) < 4:
                    failed.append(mutated)
                continue
            assert serialize_weights(out) == mutated, case
            kinds["ok"] += 1
        assert kinds["ok"] > 0 and kinds["error"] > 0, kinds

        wav = tmp_path / "a.wav"
        frontend.write_wav(wav, frontend.synth_audio(0.5, seed=3))
        for i, mutated in enumerate(failed):
            bad = tmp_path / f"bad{i}.lfwb"
            bad.write_bytes(mutated)
            code = cli.main(["transcribe", "--config", "toy-quartznet2",
                             "--weights", str(bad), "--audio", str(wav)])
            assert code == 4, capsys.readouterr().err


class TestReadMemory:
    def test_peak_is_one_check_mask_plus_headers(self, tmp_path):
        # the tensors are views of the mapped file: no value buffer, so the
        # peak is one block's check mask and each entry's objects, whatever
        # the model's size
        path = tmp_path / "w.lfwb"
        path.write_bytes(toy_model_bytes("toy-contextnet"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            w = read_weights_file(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= weights._BLOCK // 4 + 2048 * len(w), (peak, len(w))
        assert peak < sum(t.nbytes for t in w.values()) // 2

    def test_finite_check_holds_no_entry_sized_mask(self, tmp_path):
        # each block is checked on its own, so the check adds a block's mask,
        # not a bool mask of the whole entry (4 MiB here)
        data = serialize_weights(
            {"w": Tensor(np.ones(4 * 2**20, dtype=np.float32))})
        path = tmp_path / "w.lfwb"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            read_weights_file(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= weights._BLOCK // 2, peak

    def test_loaded_tensors_are_read_only_views_owning_no_bytes(self, tmp_path):
        # the tensors share the map's pages, so the allocation tracker counts
        # none of their bytes, and none can be written through
        path = tmp_path / "w.lfwb"
        path.write_bytes(serialize_weights(multi_span_weights()))
        with tensor.AllocationTracker() as tr:
            w = read_weights_file(path)
        assert tr.peak_bytes == 0
        for t in w.values():
            assert t.array.base is not None and not t.array.flags.writeable
            with pytest.raises(ValueError):
                t.array[(0,) * t.ndim] = 1.0
        with tensor.AllocationTracker() as tr:
            Tensor(w["big"].array)
        assert tr.peak_bytes == w["big"].nbytes

    def test_loaded_weights_survive_the_file_being_replaced(self, tmp_path):
        # the map holds the old file's pages: a rename over it, as
        # write_weights_file does, leaves the loaded tensors as they were
        path = tmp_path / "w.lfwb"
        data = serialize_weights(multi_span_weights())
        path.write_bytes(data)
        w = read_weights_file(path)
        write_weights_file(path, small_weights())
        assert path.read_bytes() != data
        assert serialize_weights(w) == data

"""Property tests for the parsers of outside input: any byte string yields
data or a DataError, never another exception."""

import io
import json
import math
import zipfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynstress.features import read_fseq, write_fseq
from dynstress.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from dynstress.segmentation import (
    ClipRecord,
    DataError,
    load_wav,
    read_manifest,
    write_wav,
)

# Each test writes its example to one file in tmp_path and overwrites it.
FAST = settings(deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def parse_or_data_error(parse, path, blob):
    path.write_bytes(blob)
    try:
        return parse(path)
    except DataError as e:
        assert "\n" not in str(e)
        return None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
span_objects = st.fixed_dictionaries({}, optional={
    "start_s": json_values | st.floats(0, 60), "end_s": json_values | st.floats(0, 60),
    "label": json_values | st.sampled_from(["anger", "fear", "1,0,1", "2,0,0"]),
})
record_objects = st.fixed_dictionaries({}, optional={
    "audio_path": json_values | st.just("a.wav"),
    "speaker_id": json_values, "utterance_id": json_values, "text_id": json_values,
    "split": json_values | st.just("test"),
    "spans": json_values | st.lists(span_objects, max_size=3),
    "stress_spans": json_values | st.lists(span_objects, max_size=2),
    "stress_label": json_values,
})
manifest_bytes = st.binary(max_size=200) | st.lists(
    record_objects | json_values, min_size=1, max_size=3,
).map(lambda objs: "\n".join(json.dumps(o) for o in objs).encode())


@FAST
@given(blob=manifest_bytes)
def test_read_manifest_yields_records_or_data_error(tmp_path, blob):
    out = parse_or_data_error(read_manifest, tmp_path / "m.jsonl", blob)
    if out is not None:
        assert all(isinstance(r, ClipRecord) for r in out)
        assert all(isinstance(getattr(r, key), str) for r in out
                   for key in ("audio_path", "speaker_id", "utterance_id",
                               "text_id", "split"))


@pytest.mark.parametrize("read", [read_manifest, load_wav, read_fseq, load_checkpoint])
@pytest.mark.parametrize("kind", ["missing", "directory", "nul-in-name"])
def test_reader_of_a_path_it_cannot_open_raises_data_error(tmp_path, read, kind):
    path = tmp_path / ("in\0put" if kind == "nul-in-name" else "input")
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match="^cannot read ") as e:
        read(path)
    assert str(path) in str(e.value)


def mutations(valid: bytes):
    """Arbitrary bytes, and the valid file cut short or with bytes flipped."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
                     min_size=1, max_size=4)

    def flip(edits):
        blob = bytearray(valid)
        for pos, mask in edits:
            blob[pos] ^= mask
        return bytes(blob)

    return (st.binary(max_size=128)
            | st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
            | flips.map(flip))


CKPT_CFGS = [ModelConfig("lstm", feature_dim=3, hidden=4),
             ModelConfig("transformer", feature_dim=3, hidden=4, layers=1, heads=2, ffn=4)]
# the fields a checkpoint header gives each architecture
LSTM_FIELDS = {"arch", "feature_dim", "hidden", "dropout"}
ARCH_FIELDS = {"lstm": LSTM_FIELDS, "transformer": LSTM_FIELDS | {"layers", "heads", "ffn"}}


@pytest.fixture(scope="module")
def valid_checkpoints(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt")
    blobs = []
    for cfg in CKPT_CFGS:
        save_checkpoint(d / cfg.arch, init_params(cfg, np.random.default_rng(0)), cfg)
        blobs.append((d / cfg.arch).read_bytes())
    return blobs


def write_checkpoint(path, header, vector: bytes):
    """A checkpoint zip of any header and a `params.npy` member's bytes; each
    member's CRC is valid."""
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("header.json", json.dumps(header))
        z.writestr("params.npy", vector)


def checkpoint_members(blob: bytes):
    with zipfile.ZipFile(io.BytesIO(blob)) as z:
        return json.loads(z.read("header.json")), z.read("params.npy")


@FAST
@given(data=st.data())
def test_load_checkpoint_yields_params_or_data_error(tmp_path, valid_checkpoints, data):
    blob = data.draw(mutations(data.draw(st.sampled_from(valid_checkpoints))))
    out = parse_or_data_error(load_checkpoint, tmp_path / "c.ckpt", blob)
    if out is not None:
        params, cfg = out
        assert isinstance(cfg, ModelConfig) and params
        assert all(np.isfinite(p.data).all() for p in params.values())


@FAST
@given(data=st.data())
def test_load_checkpoint_checks_every_header_field(tmp_path, valid_checkpoints, data):
    """A well-formed zip whose header's model drops fields, adds the other
    architecture's or gives one any JSON value, and whose tensor list may be
    any JSON value, loads only if its model lists exactly its architecture's
    fields.  It then loads as the config those fields state, with the tensors
    that config builds holding the written vector; any other header is a
    one-line DataError."""
    header, vector = checkpoint_members(data.draw(st.sampled_from(valid_checkpoints)))
    model = header["model"]
    written = {**asdict(CKPT_CFGS[1]), **model}  # a value for every field
    values = st.sampled_from(["lstm", "transformer"]) | st.integers(0, 4) | st.floats(0, 1)
    # fields dropped, added or given another value, and the tensor list replaced
    edits = st.lists(st.sampled_from([*written, "tensors"]), min_size=1, max_size=2,
                     unique=True)
    for k in data.draw(st.just([]) | edits):
        if k == "tensors":
            header["tensors"] = data.draw(json_values)
        elif k in model and data.draw(st.booleans()):
            del model[k]
        else:
            model[k] = data.draw(st.just(written[k]) | values | json_values)
    write_checkpoint(tmp_path / "c.ckpt", header, vector)
    try:
        params, cfg = load_checkpoint(tmp_path / "c.ckpt")
    except DataError as e:
        assert "\n" not in str(e)
    else:
        assert header["model"].keys() == ARCH_FIELDS[header["model"]["arch"]]
        assert cfg == ModelConfig(**header["model"])
        assert list(params) == list(param_shapes(cfg))
        flat = np.concatenate([p.data.ravel() for p in params.values()])
        assert flat.dtype == np.float32
        assert flat.tobytes() == np.lib.format.read_array(io.BytesIO(vector)).tobytes()


@pytest.mark.parametrize("field", ["layers", "heads", "ffn"])
def test_an_lstm_header_with_a_transformer_field_is_one_data_error(
        tmp_path, valid_checkpoints, field):
    """The LSTM's tensors do not depend on `ffn`, `layers` or `heads`, so
    only its field list tells a header that holds one from a valid one."""
    header, vector = checkpoint_members(valid_checkpoints[0])
    header["model"][field] = 1
    write_checkpoint(tmp_path / "c.ckpt", header, vector)
    with pytest.raises(DataError, match="lstm model fields are arch, feature_dim, hidden, "
                                        "dropout, got") as e:
        load_checkpoint(tmp_path / "c.ckpt")
    assert "\n" not in str(e.value)


def npy_header(shape, descr="<f4", fortran_order=False) -> bytes:
    f = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        f, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return f.getvalue()


@st.composite
def npy_files(draw):
    """A version 1.0 `.npy` header of a drawn shape, dtype and order, and a
    payload cut short of, equal to or beyond the size that header declares."""
    shape = tuple(draw(st.lists(st.integers(0, 4) | st.sampled_from([2**31, 2**40]),
                                max_size=3)))
    descr = draw(st.sampled_from(["<f4", ">f4", "<f8", "|u1"]))
    size = min(np.dtype(descr).itemsize * math.prod(shape), 256)
    n = max(0, size + draw(st.integers(-8, 8)))
    return npy_header(shape, descr, draw(st.booleans())) + draw(st.binary(min_size=n, max_size=n))


@pytest.fixture(scope="module")
def valid_fseq(tmp_path_factory):
    path = tmp_path_factory.mktemp("fseq") / "v.fseq"
    write_fseq(path, np.random.default_rng(0).normal(size=(3, 4)))
    return path.read_bytes()


@FAST
@given(data=st.data())
def test_read_fseq_yields_matrix_or_data_error(tmp_path, valid_fseq, data):
    blob = data.draw(npy_files() | mutations(valid_fseq))
    out = parse_or_data_error(read_fseq, tmp_path / "x.fseq", blob)
    if out is not None:
        assert out.ndim == 2 and out.dtype == np.float32


# Headers on which numpy's own parser raises more than a ValueError (the ast
# module's TypeError, MemoryError and IndentationError, tokenize's TokenError)
# or a three-line message (a header too long), and shapes numpy accepts that
# no array has; each with as many payload bytes as its shape would take.
BAD_NPY_HEADERS = {
    "unhashable-key": ("{{}}", 0),
    "nested-too-deep": ("-" * 9000 + "1", 0),
    "bad-indentation": ("  1\n 2", 0),
    "ends-inside-a-string": ("'''", 0),
    "too-long": (" " * 10001, 0),
    "negative-dimensions": ("{'descr': '<f4', 'fortran_order': False, 'shape': (-2, -3), }", 24),
    "boolean-dimension": ("{'descr': '<f4', 'fortran_order': False, 'shape': (True, 2), }", 8),
    "empty-but-too-large": (
        "{'descr': '<f4', 'fortran_order': False, 'shape': (0, %d, 4), }" % 2**62, 0),
}


@pytest.mark.parametrize("reader", ["fseq", "checkpoint"])
@pytest.mark.parametrize("header", BAD_NPY_HEADERS)
def test_a_malformed_npy_header_is_one_data_error(tmp_path, valid_checkpoints, reader, header):
    text, payload = BAD_NPY_HEADERS[header]
    text = text.encode("latin1")
    npy = b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(payload)
    if reader == "fseq":
        (tmp_path / "x.fseq").write_bytes(npy)
        read, path = read_fseq, tmp_path / "x.fseq"
    else:
        write_checkpoint(tmp_path / "c.ckpt", checkpoint_members(valid_checkpoints[0])[0], npy)
        read, path = load_checkpoint, tmp_path / "c.ckpt"
    with pytest.raises(DataError) as e:
        read(path)
    assert "\n" not in str(e.value)


@pytest.fixture(scope="module")
def valid_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "v.wav"
    write_wav(path, 0.1 * np.random.default_rng(0).normal(size=40))
    return path.read_bytes()


@FAST
@given(data=st.data())
def test_load_wav_yields_clip_or_data_error(tmp_path, valid_wav, data):
    blob = data.draw(mutations(valid_wav))
    out = parse_or_data_error(load_wav, tmp_path / "w.wav", blob)
    if out is not None:
        assert out.dtype == np.float64 and out.ndim == 1


@pytest.mark.parametrize("field", ["layer-count", "params-shape", "fseq-shape"])
def test_load_checkpoint_rejects_huge_header_values(tmp_path, valid_checkpoints, field):
    """A corrupt layer count must not build a huge shape table, nor a
    corrupt `params.npy` or feature-file shape reach numpy's allocator."""
    if field == "fseq-shape":
        (tmp_path / "x.fseq").write_bytes(npy_header((2**40, 1024)) + bytes(4096))
        with pytest.raises(DataError, match=r"float32 \(1099511627776, 1024\) in 4096 bytes"):
            read_fseq(tmp_path / "x.fseq")
        return
    header, vector = checkpoint_members(valid_checkpoints[1])  # the transformer
    if field == "layer-count":
        header["model"]["layers"] = 2**31
    else:
        head = npy_header((99999999999,))
        vector = head + vector[len(head):]
    write_checkpoint(tmp_path / "c.ckpt", header, vector)
    with pytest.raises(DataError, match="malformed checkpoint"):
        load_checkpoint(tmp_path / "c.ckpt")


def test_load_checkpoint_rejects_a_compressed_member(tmp_path, valid_checkpoints):
    """Members are stored: no decompressor runs on a checkpoint's bytes."""
    header, vector = checkpoint_members(valid_checkpoints[0])
    with zipfile.ZipFile(tmp_path / "c.ckpt", "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("header.json", json.dumps(header))
        z.writestr("params.npy", vector)
    with pytest.raises(DataError, match="a member is compressed"):
        load_checkpoint(tmp_path / "c.ckpt")

"""Property tests for the parsers of outside input: any byte string yields
data or a DataError, never another exception."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynstress.features import read_fseq
from dynstress.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from dynstress.segmentation import (
    AudioClip,
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


fseq_bytes = st.binary(max_size=64) | st.builds(
    lambda head, payload: b"FSEQ" + struct.pack("<III", *head) + payload,
    st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 2**32 - 1)),
    st.binary(max_size=64),
)


@FAST
@given(blob=fseq_bytes)
def test_read_fseq_yields_matrix_or_data_error(tmp_path, blob):
    out = parse_or_data_error(read_fseq, tmp_path / "x.fseq", blob)
    if out is not None:
        assert out.ndim == 2 and out.dtype == np.float64


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


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def valid_checkpoints(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt")
    blobs = []
    for arch in ("lstm", "transformer"):
        cfg = ModelConfig(arch, feature_dim=3, hidden=4, layers=1, heads=2,
                          ffn=4, ctx_layers=1)
        save_checkpoint(d / arch, init_params(cfg, np.random.default_rng(0)), cfg)
        blobs.append((d / arch).read_bytes())
    return blobs


@FAST
@given(data=st.data())
def test_load_checkpoint_yields_params_or_data_error(tmp_path, valid_checkpoints, data):
    valid = data.draw(st.sampled_from(valid_checkpoints))
    blob = data.draw(mutations(valid[:-4]).map(with_crc) | mutations(valid))
    out = parse_or_data_error(load_checkpoint, tmp_path / "c.ckpt", blob)
    if out is not None:
        params, cfg = out
        assert isinstance(cfg, ModelConfig) and params
        assert all(np.isfinite(p.data).all() for p in params.values())


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
        assert isinstance(out, AudioClip) and out.samples.ndim == 1


@pytest.mark.parametrize("field", ["layer-count", "tensor-offset"])
def test_load_checkpoint_rejects_huge_header_values(tmp_path, valid_checkpoints, field):
    """A corrupt layer count must not build a huge shape table, nor a corrupt
    tensor offset reach numpy."""
    body = bytearray(valid_checkpoints[1][:-4])  # the transformer
    if field == "layer-count":
        at, value = 9 + len("transformer") + 8, struct.pack("<I", 2**31)
    else:
        at, value = body.index(b"attn.bq") + 7 + 1 + 4, struct.pack("<Q", 2**63)
    body[at : at + len(value)] = value
    (tmp_path / "c.ckpt").write_bytes(with_crc(bytes(body)))
    with pytest.raises(DataError, match="malformed checkpoint"):
        load_checkpoint(tmp_path / "c.ckpt")

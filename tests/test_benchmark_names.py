import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    """The benchmark's tracer looks up every library function it wraps when
    it is built; a deleted or renamed one would fail every benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracing.Tracer("check")  # AttributeError if a traced name is missing


def test_benchmark_frame_count_reads_library_constants(monkeypatch):
    """The benchmark counts MFCC frames from ``MfccConfig().frame_len_s`` and
    ``.frame_hop_s``; a renamed constant would fail every benchmark set-up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    corpus = importlib.import_module("corpus")
    assert corpus.mfcc_frame_count(160000) == 998

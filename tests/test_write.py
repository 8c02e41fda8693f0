"""Every output goes through flows.write_atomic: whole or not at all."""

import errno
import os

import pytest

from flowcbr.cbr import classify_stream, write_verdicts
from flowcbr.features import extract_matrix, save_matrix_csv
from flowcbr.flows import save_flows_csv, write_atomic
from flowcbr.harness import (PipelineConfig, compute_metrics, new_class_protocol,
                             packet_sweep, run_eval, write_metrics_csv)
from flowcbr.model import fit_model, save_model
from flowcbr.synth import default_templates, synth_generate

EARLIER = b"earlier bytes\n"
CONFIG = PipelineConfig(seed=1, n_trees=3)


@pytest.fixture(scope="module")
def parts():
    flows = synth_generate(default_templates(3), 10, seed=1)
    X = extract_matrix(flows)
    labels = [f.label for f in flows]
    ids = [f.flow_id for f in flows]
    model = fit_model(X, labels, CONFIG)
    verdicts = classify_stream(model.index.clone(), model.registry,
                               model.normalizer.transform(X), model.thresholds)
    return dict(flows=flows, X=X, labels=labels, ids=ids, model=model,
                items=list(zip(ids, verdicts)),
                metrics=compute_metrics(labels, labels, sorted(set(labels))))


# Each writer by the name of one file it writes, and how it writes into d.
WRITERS = {
    "features.csv": lambda p, d: save_matrix_csv(d / "features.csv", p["X"], p["ids"],
                                                 p["labels"]),
    "flows.csv": lambda p, d: save_flows_csv(p["flows"], d / "flows.csv"),
    "verdicts.jsonl": lambda p, d: write_verdicts(d / "verdicts.jsonl", p["items"]),
    "metrics.csv": lambda p, d: write_metrics_csv(d / "metrics.csv", p["metrics"]),
    "summary.json": lambda p, d: run_eval(p["flows"], CONFIG, out_dir=d),
    "sweep.csv": lambda p, d: packet_sweep(p["flows"], [2, 4], CONFIG, out_path=d / "sweep.csv"),
    "new_class.json": lambda p, d: new_class_protocol(p["flows"], p["labels"][0], CONFIG,
                                                      out_dir=d),
    "vectors.npy": lambda p, d: save_model(d, p["model"]),
    "model.json": lambda p, d: save_model(d, p["model"]),
}


@pytest.mark.parametrize("earlier", [False, True], ids=["absent", "present"])
@pytest.mark.parametrize("name", list(WRITERS))
def test_a_failed_replace_leaves_the_output_as_it_was(parts, tmp_path, monkeypatch,
                                                      name, earlier):
    """When moving ``name`` into place fails, ``name`` keeps its earlier
    bytes, or stays absent, and no temporary file is left. Every other
    file of the same writer is moved into place as usual."""
    target = tmp_path / name
    if earlier:
        target.write_bytes(EARLIER)
    real = os.replace

    def replace(src, dst):
        if os.fspath(dst) == os.fspath(target):
            raise OSError("replace failed")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="replace failed"):
        WRITERS[name](parts, tmp_path)
    assert (target.read_bytes() if target.exists() else None) == (EARLIER if earlier else None)
    assert not list(tmp_path.rglob("*.tmp"))


def test_write_atomic_text_bytes_and_directories(tmp_path):
    """Text goes out as given, line ends included; bytes as they are; the
    directories on the way are made."""
    path = tmp_path / "a" / "b" / "out.txt"
    write_atomic(path, "one\r\ntwo\n")
    assert path.read_bytes() == b"one\r\ntwo\n"
    write_atomic(path, b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


def test_write_atomic_removes_the_temporary_of_a_failed_write(tmp_path):
    """A write that fails (here a str that cannot be encoded) leaves the
    output as it was and no .tmp."""
    path = tmp_path / "out.txt"
    path.write_bytes(EARLIER)
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "x" * 100_000 + "\udc80")
    assert path.read_bytes() == EARLIER
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_writes_text_chunks_as_they_come(tmp_path):
    """An iterable of text chunks is written in order; a generator that
    raises part way leaves neither the output nor its .tmp."""
    path = tmp_path / "out.txt"
    write_atomic(path, (f"{i}\r\n" for i in range(3)))
    assert path.read_bytes() == b"0\r\n1\r\n2\r\n"
    path.unlink()

    def chunks():
        yield "x" * 100_000
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        write_atomic(path, chunks())
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_that_names_no_file_names_the_output(tmp_path):
    """An OSError with no file name from the write (a full disk) is raised
    again naming the output, with its errno; no .tmp is left."""
    path = tmp_path / "out.txt"

    def chunks():
        yield "x"
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError) as caught:
        write_atomic(path, chunks())
    assert (caught.value.errno, caught.value.filename) == (errno.ENOSPC, str(path))
    assert str(caught.value) == f"[Errno 28] No space left on device: '{path}'"
    assert list(tmp_path.iterdir()) == []


def test_save_flows_csv_streams(tmp_path, traced_peak):
    """save_flows_csv writes a flow at a time: for 8 x 400 synthetic flows
    (a file of about 12 MB) it holds well under a twentieth of the file's
    text at once."""
    flows = synth_generate(default_templates(8), 400, seed=1)
    path = tmp_path / "flows.csv"
    _, peak = traced_peak(save_flows_csv, flows, path)
    assert peak < path.stat().st_size // 20, (peak, path.stat().st_size)

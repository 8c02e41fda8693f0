"""The retrieval model: one fit, and the only code that knows its layout.

A model is the normalized training rows (row i is index entry i) plus the
min-max normalizer and the five thresholds around them. A model directory
holds exactly ``vectors.npy``, the rows as float64 in ``np.save`` format,
and ``model.json``: the format and schema versions, the normalizer's mins
and maxs, all five thresholds, one label per row, the row count and the
crc32 of ``vectors.npy``. Each file goes out whole or not at all through
``flows.write_atomic``, vectors first; a ``model.json`` left from an
earlier model then fails the crc32 check against the new vectors. The check
is there to catch a torn or mismatched pair of files, not tampering, and a
crc32 catches every burst of up to 32 flipped bits. A loaded model's
vectors are a read-only view of the bytes read from the file.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from tokenize import TokenError
from typing import TYPE_CHECKING

import numpy as np

from .cbr import ClassRegistry, Thresholds, calibrate_thresholds
from .features import SCHEMA_VERSION, WIDTH, Normalizer, fit_normalizer
from .flows import InputError, write_atomic
from .index import NNIndex

if TYPE_CHECKING:
    from .harness import PipelineConfig

FORMAT_VERSION = 3
REBUILD = "rebuild the model with the index command"


@dataclass
class Model:
    """A fitted model. ``index`` starts from the fitted rows, ``registry`` empty;
    both grow as classifying registers classes. Only the fitted rows are saved."""

    normalizer: Normalizer
    thresholds: Thresholds
    vectors: np.ndarray
    labels: list[str]
    index: NNIndex = field(init=False, repr=False)
    registry: ClassRegistry = field(init=False, repr=False, default_factory=ClassRegistry)

    def __post_init__(self) -> None:
        self.index = NNIndex(self.vectors, self.labels)


def fit_model(X: np.ndarray, labels: list[str], config: PipelineConfig) -> Model:
    """Fit the normalizer on X, then index and calibrate the normalized rows.
    Every row needs a label, calibration a class with two rows, and the
    thresholds must come out finite; anything else is an InputError."""
    normalizer = fit_normalizer(X)
    if not all(labels):
        raise InputError("indexing needs a label on every row")
    if len(set(labels)) == len(labels):
        raise InputError("every class has one row to train on; calibrating the thresholds "
                         "needs a class with at least two")
    vectors = normalizer.transform(X)
    try:
        thresholds = calibrate_thresholds(vectors, labels, config)
    except ValueError as exc:
        raise InputError(f"the settings give unusable thresholds: {exc}") from None
    return Model(normalizer, thresholds, vectors, list(labels))


def save_model(directory: str | Path, model: Model) -> None:
    """Write ``vectors.npy``, then ``model.json``. The same model always
    gives the same bytes (``np.save`` stamps no time, unlike ``np.savez``)."""
    buf = io.BytesIO()
    np.save(buf, model.vectors)
    doc = {"format_version": FORMAT_VERSION,
           "schema_version": SCHEMA_VERSION,
           "mins": model.normalizer.mins.tolist(), "maxs": model.normalizer.maxs.tolist(),
           "thresholds": dataclasses.asdict(model.thresholds),
           "labels": model.labels, "rows": len(model.labels),
           "vectors_crc32": _crc32(buf.getvalue())}
    write_atomic(Path(directory) / "vectors.npy", buf.getvalue())
    write_atomic(Path(directory) / "model.json",
                 json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def _crc32(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}"


def load_model(directory: str | Path) -> Model:
    """Read a model directory, checking every part against this format and
    feature layout (``FORMAT_VERSION``, ``SCHEMA_VERSION`` and ``WIDTH``
    slots) before returning; every fault is an ``InputError`` naming the
    file in it. Any other file in the directory is not read."""
    d = Path(directory)
    doc_path, vectors_path = d / "model.json", d / "vectors.npy"
    for part in (doc_path, vectors_path):
        if not part.exists():
            raise InputError(f"missing {part.name}")
    try:
        doc = json.loads(doc_path.read_bytes())
        for key, want in (("format_version", FORMAT_VERSION), ("schema_version", SCHEMA_VERSION)):
            if doc[key] != want:
                raise ValueError(f"{key} {doc[key]!r} is not {want!r}; {REBUILD}")
        raw = [doc["mins"], doc["maxs"]]
        if not all(isinstance(r, list) and all(type(v) in (int, float) for v in r) for r in raw):
            raise ValueError("mins and maxs must be lists of JSON numbers")
        mins, maxs = (np.array(r, dtype=np.float64) for r in raw)
        if not (mins.shape == maxs.shape == (WIDTH,) and np.isfinite(mins).all()
                and np.isfinite(maxs).all()):
            raise ValueError(f"mins and maxs must each hold {WIDTH} finite numbers")
        with np.errstate(over="ignore"):
            if not ((mins <= maxs).all() and np.isfinite(maxs - mins).all()):
                raise ValueError("every min must be <= its max, with a finite max - min")
        given, fields = doc["thresholds"], [f.name for f in dataclasses.fields(Thresholds)]
        if not isinstance(given, dict):
            raise ValueError("thresholds must be an object")
        if lacking := [name for name in fields if name not in given]:
            raise ValueError(f"thresholds lack {', '.join(lacking)}")
        if unknown := sorted(set(given) - set(fields)):
            raise ValueError(f"thresholds hold unknown keys {unknown}")
        thresholds = Thresholds(**given)
        labels, rows, crc32 = doc["labels"], doc["rows"], doc["vectors_crc32"]
        if not (isinstance(labels, list) and labels and len(labels) == rows
                and all(isinstance(lbl, str) and lbl for lbl in labels)):
            raise ValueError(f"labels must be {rows!r} non-empty strings, one per row")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model.json: {exc!r}") from None
    data = vectors_path.read_bytes()
    if _crc32(data) != crc32:
        raise InputError("vectors.npy does not match the crc32 in model.json, "
                         f"as after an interrupted write; {REBUILD}")
    # The header is checked before the array it declares is read. Its
    # parser raises TokenError, not a ValueError, on some broken headers.
    fp = io.BytesIO(data)
    try:
        read_header = (np.lib.format.read_array_header_1_0
                       if np.lib.format.read_magic(fp) == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(fp)
    except (ValueError, TokenError) as exc:
        raise InputError(f"malformed vectors.npy: {exc}") from None
    if dtype != np.float64 or shape != (rows, WIDTH):
        raise InputError(f"vectors.npy holds {dtype} {shape}, "
                         f"expected float64 {(rows, WIDTH)}")
    # The array is a view of the bytes already read, not a second copy.
    count, offset = rows * WIDTH, fp.tell()
    if len(data) - offset < 8 * count:
        raise InputError(f"malformed vectors.npy: EOF: reading array data, "
                         f"expected {8 * count} bytes got {len(data) - offset}")
    vectors = np.frombuffer(data, dtype, count, offset).reshape(
        shape, order="F" if fortran_order else "C")
    if not np.isfinite(vectors).all():
        raise InputError("vectors.npy holds non-finite values")
    return Model(Normalizer(mins, maxs), thresholds, np.ascontiguousarray(vectors), labels)

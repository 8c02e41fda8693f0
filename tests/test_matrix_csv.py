"""Features-CSV tests against the row-by-row writer and reader kept in
``matrix_csv_oracle``.

``save_matrix_csv`` must write the oracle's bytes. ``load_matrix_csv`` must
read any file, as written or mutated into a malformed one, to the oracle's
(matrix bits, flow ids, labels) or fail with the oracle's message, and it
must read every file ``save_matrix_csv`` writes in bulk.
"""

import csv
import io
from unittest import mock

import matrix_csv_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowcbr.features as features_mod
from flowcbr.features import load_matrix_csv, save_matrix_csv

# ±0, subnormals, the extremes of float64 and numbers whose repr is long.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e308, 1e-308, 0.1, 1 / 3, 123456789.12345679]
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.text(st.sampled_from('ab,"\r\n é#'), max_size=6)


@st.composite
def tables(draw, floats=FINITE, min_width=0):
    """A matrix of up to 5 rows and 6 columns, with ids and labels that
    need csv's quoting."""
    n, width = draw(st.integers(0, 5)), draw(st.integers(min_width, 6))
    values = draw(st.lists(floats, min_size=n * width, max_size=n * width))
    matrix = np.array(values, dtype=np.float64).reshape(n, width)
    return matrix, draw(st.lists(TEXT, min_size=n, max_size=n)), draw(
        st.lists(TEXT, min_size=n, max_size=n))


def outcome(load, path):
    """What reading ``path`` gives: the matrix bits, ids and labels, or the
    error text."""
    try:
        matrix, flow_ids, labels = load(path)
    except Exception as exc:  # the oracle raises csv.Error as it is
        return "error", str(exc)
    return matrix.shape, matrix.tobytes(), flow_ids, labels


@settings(deadline=None)
@given(tables(floats=st.one_of(FINITE, st.floats())))
def test_save_writes_the_oracle_bytes(tmp_path_factory, table):
    """Random rows, NaN, infinities, ±0, subnormals and numbers near 1e±308
    among them, and ids and labels holding commas, quotes and line ends."""
    out = tmp_path_factory.mktemp("save")
    oracle.save_matrix_csv(out / "want.csv", *table)
    save_matrix_csv(out / "got.csv", *table)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


# Cells np.loadtxt and float() may read differently, or not at all.
CELLS = ["", " ", "#", "# 1", "1_0", " 1.5", "1.5 ", "\t2", " 3", "oops", "nan",
         "-inf", "1e400", "+", "0x10", "١", '"2.5"', '"1,5"', "2.5\x00", "-0"]


def _line_starts(text):
    return [0] + [i + 1 for i, c in enumerate(text) if c in "\r\n"]


def mutate(text, kind, at, cell):
    """``text`` with one change of the given kind at about position ``at``."""
    if kind == "cr":
        return text.replace("\r\n", "\r")
    if kind == "lf":
        return text.replace("\r\n", "\n")
    if kind == "no-final-end":
        return text.removesuffix("\r\n")
    if kind == "truncate":
        return text[:at % (len(text) + 1)]
    if kind == "insert":  # a stray character anywhere
        at %= len(text) + 1
        return text[:at] + cell[:1] + text[at:]
    if kind in ("blank", "comment", "whitespace"):
        line = {"blank": "\r\n", "comment": "#\r\n", "whitespace": "  \r\n"}[kind]
        starts = _line_starts(text)
        at = starts[at % len(starts)]
        return text[:at] + line + text[at:]
    commas = [i for i, c in enumerate(text) if c == ","]
    if not commas:
        return text
    start = commas[at % len(commas)] + 1
    end = min([i for i in (text.find(",", start), text.find("\r", start),
                           text.find("\n", start)) if i >= 0], default=len(text))
    if kind == "cell":
        return text[:start] + cell + text[end:]
    if kind == "short":
        return text[:start - 1] + text[end:]
    return text[:end] + "," + cell + text[end:]  # "long"


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["cr", "lf", "no-final-end", "truncate", "insert", "blank", "comment",
                     "whitespace", "cell", "short", "long"]),
    st.integers(0, 10 ** 6), st.sampled_from(CELLS)), max_size=3)


@settings(deadline=None)
@given(tables(), MUTATIONS)
# One column whose cell is empty or blank: np.loadtxt would skip that row.
@example((np.ones((2, 1)), ["a", "b"], ["x", "y"]), [("cell", 3, "")])
@example((np.ones((2, 1)), ["a", "b"], ["x", "y"]), [("cell", 3, " ")])
def test_load_matches_the_oracle_on_mutated_files(tmp_path_factory, table, mutations):
    """A file as written, then changed: blank, comment and whitespace lines,
    CR-only or LF endings, truncation, short and long rows, and cells such
    as '#', '1_0', padded numbers, empty, quoted or non-ASCII ones. Each
    reads to the oracle's matrix bits, ids and labels, or fails with the
    oracle's message as a ValueError."""
    path = tmp_path_factory.mktemp("load") / "features.csv"
    oracle.save_matrix_csv(path, *table)
    text = path.read_bytes().decode()
    for mutation in mutations:
        text = mutate(text, *mutation)
    path.write_bytes(text.encode())
    want = outcome(oracle.load_matrix_csv, path)
    assert outcome(load_matrix_csv, path) == want
    if want[0] == "error":
        with pytest.raises(ValueError):
            load_matrix_csv(path)


def written(table, end):
    """The text the oracle writes for ``table``, with ``end`` in place of
    each "\\r\\n" that ends a line; csv quotes every \\r and \\n inside a
    field, so those are left alone."""
    matrix, flow_ids, labels = table
    rows = [["flow_id", "label"] + [f"f{i:03d}" for i in range(matrix.shape[1])]]
    rows += [[fid, label] + [repr(v) for v in row] for fid, label, row in
             zip(flow_ids, labels, matrix.tolist())]
    lines = []
    for row in rows:
        line = io.StringIO()
        csv.writer(line).writerow(row)
        lines.append(line.getvalue().removesuffix("\r\n"))
    return "".join(line + end for line in lines)


@settings(deadline=None)
@given(tables(min_width=1), st.sampled_from(["\r\n", "\n", "\r"]), st.booleans())
def test_load_reads_what_save_writes_in_bulk(tmp_path_factory, table, end, final_end):
    """Files as save_matrix_csv writes them, with any line end and with or
    without the last one, never reach the row-by-row reader."""
    path = tmp_path_factory.mktemp("bulk") / "features.csv"
    save_matrix_csv(path, *table)
    assert path.read_bytes().decode() == written(table, "\r\n")
    text = written(table, end)
    path.write_bytes((text if final_end else text.removesuffix(end)).encode())
    with mock.patch.object(features_mod, "_load_rows", side_effect=AssertionError):
        got = outcome(load_matrix_csv, path)
    assert got == outcome(oracle.load_matrix_csv, path)
    assert got == (table[0].shape, table[0].tobytes(), table[1], table[2])


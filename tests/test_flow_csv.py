"""Flow-CSV reader tests: the bulk reader against the row loop.

``load_flows_csv`` reads a file as ``save_flows_csv`` writes it in bulk
(``flows._load_bulk``) and any other file row by row
(``flows._read_flow_rows`` over ``csv.reader``). The row loop is the
oracle: every file, as written or mutated into a malformed one, must give
its flow ids, labels and column bytes, or its InputError message, and
every file ``save_flows_csv`` writes must be read without it.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcbr.flows as flows_mod
from flowcbr.flows import FLOW_COLUMNS, Flow, InputError, load_flows_csv, save_flows_csv
from flowcbr.synth import default_templates, synth_generate

UINT32 = st.integers(0, 2 ** 32 - 1)
# Subnormals, ±0, negative and huge stamps and ones whose repr is long.
STAMPS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1699999999.123456789, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))
# What save_flows_csv writes without quotes: no comma, quote or line end;
# tabs, spaces, other control characters and characters of two to four
# UTF-8 bytes (café) stay.
NAMES = st.text(st.sampled_from("abz09 -_.|#'\t\x0b\x1f~é€😀"), max_size=5)


@st.composite
def flows(draw):
    """Up to 4 flows of 1-5 packets with unique ids (the empty one among
    them), odd or empty labels, every flag set, UDP rows with no window and
    integers from 0 to 2**32 - 1."""
    ids = draw(st.lists(NAMES, max_size=4, unique=True))
    out = []
    for flow_id in ids:
        n = draw(st.integers(1, 5))
        column = lambda values: np.array(draw(st.lists(values, min_size=n, max_size=n)))
        out.append(Flow(
            None,
            timestamp=column(STAMPS).astype(np.float64),
            fwd=column(st.booleans()).astype(np.bool_),
            total_length=column(UINT32).astype(np.int64),
            payload_length=column(UINT32).astype(np.int64),
            tcp_flags=column(st.integers(0, 31)).astype(np.int64),
            tcp_window=column(st.one_of(st.just(-1), UINT32)).astype(np.int64),
            label=draw(st.one_of(st.none(), NAMES)),
            flow_id=flow_id,
        ))
    return out


def outcome(path):
    """What load_flows_csv gives for ``path``: each flow's id, label and
    column dtypes and bytes, or the InputError message."""
    try:
        loaded = load_flows_csv(path)
    except InputError as exc:
        return "error", str(exc)
    return [(f.flow_id, f.label, [(name, getattr(f, name).dtype.str, getattr(f, name).tobytes())
                                  for name in FLOW_COLUMNS]) for f in loaded]


def row_loop(path):
    """The oracle: load_flows_csv with the bulk reader turned away."""
    with mock.patch.object(flows_mod, "_load_bulk", return_value=None):
        return outcome(path)


def in_bulk(path):
    """load_flows_csv, failing if the row loop is reached."""
    with mock.patch.object(flows_mod, "_read_flow_rows", side_effect=AssertionError):
        return outcome(path)


@settings(deadline=None)
@given(flows())
def test_load_reads_what_save_writes_in_bulk(tmp_path_factory, written):
    """Every file save_flows_csv writes is read without the row loop, to the
    row loop's flows."""
    path = tmp_path_factory.mktemp("bulk") / "flows.csv"
    save_flows_csv(written, path)
    got = in_bulk(path)
    assert got == row_loop(path)
    assert [(flow_id, label) for flow_id, label, _ in got] == [
        (f.flow_id, f.label or None) for f in written]


def test_a_file_of_many_blocks_reads_in_bulk(tmp_path):
    """Flows cut across block boundaries, with ids of growing width."""
    written = synth_generate(default_templates(3), 60, seed=5)
    for i, flow in enumerate(written):
        flow.flow_id = "f" * (i % 7) + str(i)
    path = tmp_path / "flows.csv"
    save_flows_csv(written, path)
    assert path.stat().st_size > 4 * flows_mod._BLOCK_BYTES
    got = in_bulk(path)
    assert got == row_loop(path)
    assert len(got) == len(written)


@pytest.mark.parametrize("width", [0, 1])
def test_fields_at_the_csv_field_limit(tmp_path, width):
    """An id as long as csv.field_size_limit() reads in bulk; one longer
    gives the row loop's csv error."""
    flow = synth_generate(default_templates(2), 1, seed=1)[0]
    path = tmp_path / "flows.csv"
    old = csv.field_size_limit(60)
    try:
        flow.flow_id = "f" * (60 + width)
        save_flows_csv([flow], path)
        if width:
            assert row_loop(path) == outcome(path) == (
                "error", "line 2: field larger than field limit (60)")
        else:
            assert in_bulk(path) == row_loop(path)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("change", [None, "label", "packet_index"])
def test_a_flow_cut_by_a_block_end_keeps_its_rules(tmp_path, change):
    """The line that starts the second block continues the flow of the
    first: it is read in bulk as written, and a label change or a falling
    packet_index there is found as the row loop finds it."""
    n = 5000
    flow = Flow(None, timestamp=np.arange(n) * 0.5, fwd=np.arange(n) % 2 == 0,
                total_length=np.full(n, 60), payload_length=np.zeros(n, dtype=np.int64),
                tcp_flags=np.full(n, 0x10), tcp_window=np.full(n, 512), label="web",
                flow_id="f0")
    path = tmp_path / "flows.csv"
    save_flows_csv([flow], path)
    text = path.read_bytes()
    start = text.rindex(b"\r\n", 0, len(flows_mod._HEADER_LINE) + flows_mod._BLOCK_BYTES) + 2
    line = text[:start].count(b"\r\n")
    if change is None:
        assert in_bulk(path) == row_loop(path)
        return
    if change == "label":  # from that line to the end
        path.write_bytes(text[:start] + text[start:].replace(b",web,", b",other,"))
    else:
        path.write_bytes(set_cell(text, line, 2, b"0"))
    want = row_loop(path)
    assert want[0] == "error" and f"row {line + 1}: {change}" in want[1]
    assert outcome(path) == want


def saved(tmp_path):
    """A small file as save_flows_csv writes it, and its bytes: three flows,
    one unlabeled, with UDP rows that carry no window."""
    written = synth_generate(default_templates(2), 2, seed=3)[:3]
    for flow in written:
        flow.tcp_window = np.where(np.arange(flow.tcp_window.size) % 3 == 1, -1,
                                   flow.tcp_window)
    written[1].label = None
    path = tmp_path / "flows.csv"
    save_flows_csv(written, path)
    return path, path.read_bytes()


def set_cell(text, line, field, value):
    """``text`` with cell ``field`` of line ``line`` (0 is the header) set
    to ``value``, or dropped if ``value`` is None; unchanged if the line
    has no such cell."""
    lines = text.split(b"\r\n")
    cells = lines[line].split(b",")
    if field >= len(cells):
        return text
    if value is None:
        del cells[field]
    else:
        cells[field] = value
    lines[line] = b",".join(cells)
    return b"\r\n".join(lines)


# Named changes to a written file, each of which the bulk reader must hand
# to the row loop (or read to the row loop's flows).
MUTATIONS = {
    "lf line ends": lambda t: t.replace(b"\r\n", b"\n"),
    "cr line ends": lambda t: t.replace(b"\r\n", b"\r"),
    "no final line end": lambda t: t[:-2],
    "header only": lambda t: t[:t.index(b"\r\n") + 2],
    "empty": lambda t: b"",
    "blank line": lambda t: t + b"\r\n",
    "plus sign": lambda t: set_cell(t, 2, 5, b"+5"),
    "leading space": lambda t: set_cell(t, 2, 6, b" 5"),
    "underscore": lambda t: set_cell(t, 3, 2, b"1_0"),
    "exponent": lambda t: set_cell(t, 2, 8, b"1e3"),
    "eleven digits": lambda t: set_cell(t, 2, 5, b"12345678901"),
    "ten digits at 2**32": lambda t: set_cell(t, 2, 8, b"4294967296"),
    "ten digits below 2**32": lambda t: set_cell(t, 2, 8, b"4294967295"),
    "leading zeros": lambda t: set_cell(t, 2, 6, b"0000000007"),
    "empty packet_index": lambda t: set_cell(t, 2, 2, b""),
    "empty total_length": lambda t: set_cell(t, 2, 5, b""),
    "inf timestamp": lambda t: set_cell(t, 2, 4, b"inf"),
    "nan timestamp": lambda t: set_cell(t, 3, 4, b"nan"),
    "1e400 timestamp": lambda t: set_cell(t, 3, 4, b"1e400"),
    "spaced timestamp": lambda t: set_cell(t, 3, 4, b" 1.5 "),
    "empty timestamp": lambda t: set_cell(t, 3, 4, b""),
    "unsorted flags": lambda t: set_cell(t, 2, 7, b"ACK|SYN"),
    "repeated flag": lambda t: set_cell(t, 3, 7, b"SYN|SYN"),
    "unknown flag": lambda t: set_cell(t, 3, 7, b"URG"),
    "direction": lambda t: set_cell(t, 2, 3, b"OUT"),
    "direction prefix": lambda t: set_cell(t, 2, 3, b"ou"),
    "packet_index falls": lambda t: set_cell(t, 3, 2, b"0"),
    "duplicate id": lambda t: set_cell(t, -2, 0, t.split(b"\r\n")[1].split(b",")[0]),
    "label change": lambda t: set_cell(t, 3, 1, b"other"),
    "200 000-char id": lambda t: set_cell(t, 2, 0, b"f" * 200_000),
    "non-ASCII label": lambda t: set_cell(t, 2, 1, "é".encode()),
    "quoted id": lambda t: set_cell(t, 2, 0, b'"f"'),
    "quoted labels": lambda t: t.replace(b",class-a,", b',"class-a",'),
    # The third line end, after the second row, becomes CR 7 LF.
    "byte between CR and LF": lambda t: t.replace(b"\r\n", b"\r7\n", 3).replace(
        b"\r7\n", b"\r\n", 2),
    "NUL": lambda t: t.replace(b",class-a,", b",class-a\x00,"),
    "ten fields": lambda t: set_cell(t, 2, 8, b"1,2"),
    "eight fields": lambda t: set_cell(t, 2, 7, None),
    "bad header": lambda t: t.replace(b"tcp_window", b"tcp_win", 1),
    "not text": lambda t: set_cell(t, 2, 1, b"\xff"),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_files_read_as_the_row_loop_reads_them(tmp_path, name):
    path, text = saved(tmp_path)
    path.write_bytes(MUTATIONS[name](text))
    assert outcome(path) == row_loop(path)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["flip", "cut", "insert", "mutation"]),
                          st.integers(0, 10 ** 6), st.integers(1, 255),
                          st.sampled_from(list(MUTATIONS))), max_size=3))
def test_randomly_mutated_files_read_as_the_row_loop_reads_them(tmp_path_factory, changes):
    """Bytes flipped, cut or inserted anywhere, and the named mutations, in
    any order."""
    path, text = saved(tmp_path_factory.mktemp("mutated"))
    for kind, at, byte, name in changes:
        at %= len(text) + 1
        if kind == "flip" and at < len(text):
            text = text[:at] + bytes([text[at] ^ byte]) + text[at + 1:]
        elif kind == "cut":
            text = text[:at]
        elif kind == "insert":
            text = text[:at] + bytes([byte]) + text[at:]
        elif kind == "mutation" and text.count(b"\r\n") > 4:
            text = MUTATIONS[name](text)
    path.write_bytes(text)
    assert outcome(path) == row_loop(path)


def test_bulk_read_allocates_at_most_two_blocks_more_than_the_row_loop(tmp_path,
                                                                       traced_peak):
    """On a file of about 40 000 rows the bulk reader's peak, the flows it
    returns included, stays within the row loop's peak plus two blocks: its
    columns grow as the row loop's do, and each block's arrays are freed
    before the next block is read."""
    path = tmp_path / "flows.csv"
    save_flows_csv(synth_generate(default_templates(8), 90, seed=3), path)
    with mock.patch.object(flows_mod, "_read_flow_rows", side_effect=AssertionError):
        flows, bulk = traced_peak(load_flows_csv, path)
    assert 39_000 < sum(f.timestamp.size for f in flows) < 41_000
    with mock.patch.object(flows_mod, "_load_bulk", return_value=None):
        _, rows = traced_peak(load_flows_csv, path)
    assert bulk < rows + 2 * flows_mod._BLOCK_BYTES, (bulk, rows)

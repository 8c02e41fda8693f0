"""Statistical feature extraction, batched over flows.

Every flow maps to one fixed vector of ``WIDTH`` (183) slots, in the
layout ``SCHEMA_VERSION`` names. Slot groups, in order, as ``GROUPS`` lists
them with their kernels:

    bits_per_peak        3   top-3 received-burst sizes in bits
    first_packet_sizes  30   signed sizes of the first 30 packets
    beaconing           20   per-window traffic total when the sender dominates
    bandwidth           20   (min, max) TCP window delta per 5 s window
    packet_size_stats    4   min/max/mean/std of packet sizes
    size_delta_stats     2   mean/std of consecutive size differences
    packets_per_second   2   packet rate per direction
    inter_arrival        9   min/max/mean gaps: both, forward, backward
    silence_windows      1   count of gaps of at least one second
    ack_count            1   packets carrying ACK, both directions
    big_requests         1   large outbound payloads with a follow-up
    wavelet             90   spectrum magnitudes of the signed size sequence

Sizes are signed by direction where noted: initiator-to-responder positive,
responder-to-initiator negative.

``extract_matrix`` reads the packets of all its flows once into flat columns,
cut to each flow's first ``n_packets`` by one mask over packet positions,
and computes each group for the whole batch with one kernel. A row does not
depend on the other flows of its batch: each slot has the same bits as
extracting the flow alone. Mins and maxes (``reduceat``) and sums of
integer values below 2**53 (``bincount``) are exact in any order, so they
are taken for every flow at once. The stds and the inter-arrival means
sum floats that round, in an order numpy picks, so they run the per-flow
definition's numpy call on blocks of rows of one length (``_row_blocks``).
``extract_matrix`` is the one way in: a group's slots are its columns, at
the offsets the rows of ``GROUPS`` before it add up to.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flows import Flow, InputError, TcpFlags, write_atomic

SCHEMA_VERSION = "stat183.v1"
WINDOW_SECONDS = 5.0
SILENCE_GAP_SECONDS = 1.0
N_FIRST_SIZES = 30
N_SPECTRUM = 90
BIG_REQUEST_PAYLOAD = 200


@dataclass(frozen=True)
class _Batch:
    """The packets of a batch of flows as flat columns, flow after flow.

    ``window`` is the 5 s window of each packet, counted from the first
    packet of its flow and truncated toward zero, then clipped to [-1, 20]:
    no group reads a window outside [0, 20).
    """

    lengths: np.ndarray     # packets per flow
    flow: np.ndarray        # flow index of each packet
    pos: np.ndarray         # position of each packet in its flow
    ts: np.ndarray          # timestamp
    size: np.ndarray        # total_length
    fwd: np.ndarray         # sent by the initiator
    payload: np.ndarray     # payload_length
    flags: np.ndarray       # tcp_flags
    tcp_window: np.ndarray  # as read: -1 where the packet carries none
    window: np.ndarray

    @property
    def n_flows(self) -> int:
        return self.lengths.size


def _batch(flows: list[Flow], n_packets: int | None = None) -> _Batch:
    """Concatenate the packet columns of ``flows``, each cut to its first
    ``n_packets`` packets (all of them if None); the kept timestamps must
    be finite."""
    lengths = np.array([f.timestamp.size for f in flows], dtype=np.int64)
    n = int(lengths.sum())
    flow = np.repeat(np.arange(lengths.size), lengths)
    pos = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    keep = slice(None)  # a view: no copy when no flow is cut
    if n_packets is not None and n_packets < int(lengths.max()):
        keep = pos < n_packets
        lengths, flow, pos = np.minimum(lengths, n_packets), flow[keep], pos[keep]

    def column(name):
        return np.concatenate([getattr(f, name) for f in flows])[keep]

    ts = column("timestamp")
    with np.errstate(over="ignore"):  # an overflow gives inf, rejected here
        since = (ts - ts[pos == 0][flow]) / WINDOW_SECONDS
    if not np.isfinite(since).all():
        raise InputError("flow timestamps must be finite")
    return _Batch(
        lengths=lengths, flow=flow, pos=pos, ts=ts,
        size=column("total_length"),
        fwd=column("fwd"),
        payload=column("payload_length"),
        flags=column("tcp_flags"),
        tcp_window=column("tcp_window"),
        window=np.clip(since, -1.0, 20.0).astype(np.int64),
    )


def _counts(b: _Batch, mask: np.ndarray) -> np.ndarray:
    """Per-flow number of packets where ``mask`` holds."""
    return np.bincount(b.flow[mask], minlength=b.n_flows)


def _row_blocks(values: np.ndarray, lengths: np.ndarray):
    """Yield (rows, block) for each distinct non-zero row length L.

    ``values`` holds the rows back to back; ``block`` is the (rows, L)
    matrix of the rows of length L. numpy reduces each row of a C-ordered
    block along axis 1 exactly as it reduces that row alone, so an
    order-sensitive float reduction over a block rounds as the per-row call.
    """
    starts = np.cumsum(lengths) - lengths
    for length in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == length)
        yield rows, values[starts[rows, None] + np.arange(length)]


def _gaps(b: _Batch, values: np.ndarray, mask: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences of consecutive masked values within each flow, flow
    after flow, the flow of each, and how many each flow has."""
    v, f = values[mask], b.flow[mask]
    same = f[1:] == f[:-1]
    f = f[1:][same]
    return (v[1:] - v[:-1])[same], f, np.bincount(f, minlength=b.n_flows)


def _min_max(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row (min, max) of the rows held back to back in ``values``, as
    (rows, 2); a row of length 0 gives (0, 0). Each is one of the row's
    values, so it does not depend on the order the row is reduced in."""
    out = np.zeros((lengths.size, 2))
    rows = np.flatnonzero(lengths)
    starts = (np.cumsum(lengths) - lengths)[rows]
    out[rows, 0] = np.minimum.reduceat(values, starts)
    out[rows, 1] = np.maximum.reduceat(values, starts)
    return out


def _bits_per_peak(b: _Batch) -> np.ndarray:
    """Top-3 sizes, in bits, of maximal runs of consecutive received packets."""
    bwd = ~b.fwd
    follows_bwd = np.zeros_like(bwd)
    follows_bwd[1:] = bwd[:-1] & (b.pos[1:] > 0)
    starts = bwd & ~follows_bwd
    run = np.cumsum(starts) - 1
    totals = np.bincount(run[bwd], weights=b.size[bwd], minlength=int(starts.sum()))
    owner = b.flow[starts]
    kept = totals != 0  # a run whose sizes sum to 0 is not a peak
    totals, owner = totals[kept], owner[kept]
    order = np.lexsort((-totals, owner))
    totals, owner = totals[order], owner[order]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    top = rank < 3
    out = np.zeros((b.n_flows, 3))
    out[owner[top], rank[top]] = 8.0 * totals[top]
    return out


def _signed_prefix(b: _Batch, width: int) -> np.ndarray:
    """Signed sizes of the first ``width`` packets of each flow, zero-padded."""
    out = np.zeros((b.n_flows, width))
    first = b.pos < width
    out[b.flow[first], b.pos[first]] = np.where(b.fwd, b.size, -b.size)[first]
    return out


def _first_packet_sizes(b: _Batch) -> np.ndarray:
    """Signed sizes of the first 30 packets, zero-padded."""
    return _signed_prefix(b, N_FIRST_SIZES)


def _beaconing(b: _Batch) -> np.ndarray:
    """Traffic total per 5 s window where the initiator sent strictly more.

    The first 100 seconds are split into 20 windows. A window where forward
    packets outnumber backward ones records the byte sum of every packet in
    it; other windows, and windows past the flow end, stay 0.
    """
    n = b.n_flows * 20
    inside = (b.window >= 0) & (b.window < 20)
    key = b.flow * 20 + b.window
    total = np.bincount(key[inside], weights=b.size[inside], minlength=n)
    n_fwd = np.bincount(key[inside & b.fwd], minlength=n)
    n_bwd = np.bincount(key[inside & ~b.fwd], minlength=n)
    return np.where(n_fwd > n_bwd, total, 0.0).reshape(b.n_flows, 20)


def _bandwidth(b: _Batch) -> np.ndarray:
    """(min, max) TCP window delta per 5 s window, 10 windows, interleaved.

    Deltas are between consecutive packets with a TCP window (>= 0) inside
    the same window, in arrival order, both directions mixed. Windows
    holding fewer than two such packets emit (0, 0).
    """
    inside = (b.tcp_window >= 0) & (b.window >= 0) & (b.window < 10)
    key = (b.flow * 10 + b.window)[inside]
    order = np.argsort(key, kind="stable")
    key = key[order]
    values = b.tcp_window[inside][order].astype(np.float64)
    same = key[1:] == key[:-1]
    deltas, key = (values[1:] - values[:-1])[same], key[1:][same]
    return _min_max(deltas, np.bincount(key, minlength=b.n_flows * 10)).reshape(b.n_flows, 20)


def _packet_size_stats(b: _Batch) -> np.ndarray:
    """(min, max, mean, population std) of sizes over all packets."""
    sizes = b.size.astype(np.float64)
    out = np.zeros((b.n_flows, 4))
    out[:, :2] = _min_max(sizes, b.lengths)
    out[:, 2] = np.bincount(b.flow, weights=sizes) / b.lengths
    for rows, block in _row_blocks(sizes, b.lengths):
        out[rows, 3] = block.std(axis=1)
    return out


def _size_delta_stats(b: _Batch) -> np.ndarray:
    """Mean and population std of consecutive size differences."""
    out = np.zeros((b.n_flows, 2))
    deltas, flow, lengths = _gaps(b, b.size.astype(np.float64), np.ones_like(b.fwd))
    np.divide(np.bincount(flow, weights=deltas, minlength=b.n_flows), lengths,
              out=out[:, 0], where=lengths > 0)
    for rows, block in _row_blocks(deltas, lengths):
        out[rows, 1] = block.std(axis=1)
    return out


def _packets_per_second(b: _Batch) -> np.ndarray:
    """Packet rate per direction. Flows with no finite rate report (0, 0):
    zero-duration flows, and flows so short (a subnormal number of seconds)
    that a rate overflows."""
    last = np.cumsum(b.lengths) - 1
    duration = b.ts[last] - b.ts[last - b.lengths + 1]
    n_fwd = _counts(b, b.fwd)
    out = np.zeros((b.n_flows, 2))
    ok = duration > 0
    with np.errstate(over="ignore"):
        out[ok, 0] = n_fwd[ok] / duration[ok]
        out[ok, 1] = (b.lengths - n_fwd)[ok] / duration[ok]
    out[~np.isfinite(out).all(axis=1)] = 0.0
    return out


def _inter_arrival(b: _Batch) -> np.ndarray:
    """(min, max, mean) of time gaps: both directions, forward, backward.

    A stream with fewer than two packets contributes (0, 0, 0).
    """
    out = np.zeros((b.n_flows, 9))
    for i, mask in enumerate((np.ones_like(b.fwd), b.fwd, ~b.fwd)):
        gaps, _, lengths = _gaps(b, b.ts, mask)
        out[:, 3 * i:3 * i + 2] = _min_max(gaps, lengths)
        for rows, block in _row_blocks(gaps, lengths):
            out[rows, 3 * i + 2] = block.mean(axis=1)
    return out


def _silence_windows(b: _Batch) -> np.ndarray:
    """Count of consecutive-packet gaps of at least one second."""
    follows = b.pos[1:] > 0
    long_gap = np.zeros_like(b.fwd)
    long_gap[1:] = follows & (b.ts[1:] - b.ts[:-1] >= SILENCE_GAP_SECONDS)
    return _counts(b, long_gap).astype(np.float64)[:, None]


def _ack_count(b: _Batch) -> np.ndarray:
    """Packets carrying ACK, both directions."""
    return _counts(b, (b.flags & TcpFlags.ACK) != 0).astype(np.float64)[:, None]


def _big_requests(b: _Batch) -> np.ndarray:
    """Outbound packets with payload above 200 bytes and a later outbound one."""
    fwd_flow, fwd_pos = b.flow[b.fwd], b.pos[b.fwd]
    last = np.ones(fwd_flow.size, dtype=bool)
    last[:-1] = fwd_flow[1:] != fwd_flow[:-1]
    last_fwd = np.full(b.n_flows, -1)
    last_fwd[fwd_flow[last]] = fwd_pos[last]
    big = b.fwd & (b.payload > BIG_REQUEST_PAYLOAD) & (b.pos < last_fwd[b.flow])
    return _counts(b, big).astype(np.float64)[:, None]


def _wavelet(b: _Batch) -> np.ndarray:
    """Magnitudes of the discrete spectrum of the first 90 signed sizes.

    Shorter flows are zero-padded to 90 samples before the transform, so the
    output width is always 90.
    """
    return np.abs(np.fft.fft(_signed_prefix(b, N_SPECTRUM), axis=1))


# The 12 slot groups in slot order: (name, slots, kernel).
GROUPS = (
    ("bits_per_peak", 3, _bits_per_peak),
    ("first_packet_sizes", N_FIRST_SIZES, _first_packet_sizes),
    ("beaconing", 20, _beaconing),
    ("bandwidth", 20, _bandwidth),
    ("packet_size_stats", 4, _packet_size_stats),
    ("size_delta_stats", 2, _size_delta_stats),
    ("packets_per_second", 2, _packets_per_second),
    ("inter_arrival", 9, _inter_arrival),
    ("silence_windows", 1, _silence_windows),
    ("ack_count", 1, _ack_count),
    ("big_requests", 1, _big_requests),
    ("wavelet", N_SPECTRUM, _wavelet),
)
WIDTH = sum(slots for _, slots, _ in GROUPS)


def extract_matrix(flows: list[Flow], n_packets: int | None = None) -> np.ndarray:
    """Feature vectors of a batch of flows, one row per flow, each flow cut
    to its first ``n_packets`` packets (all of them if None; it must be at
    least 1). Flows whose features are not finite (such as kept timestamps
    too far apart to subtract) are an InputError."""
    if n_packets is not None and n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    if not flows:
        return np.zeros((0, WIDTH))
    # Allocated before the group temporaries, so that the result, which
    # outlives them, does not split the free heap they leave behind.
    out = np.empty((len(flows), WIDTH))
    batch = _batch(flows, n_packets)
    start = 0
    # Finite timestamps can still be far enough apart, or close enough, for
    # a rate or a sum to overflow; the check below rejects such rows.
    with np.errstate(over="ignore", invalid="ignore"):
        for _, slots, kernel in GROUPS:
            out[:, start:start + slots] = kernel(batch)
            start += slots
    if not np.isfinite(out).all():
        raise InputError("feature vector contains non-finite values")
    return out


def extract_rows(flows: list[Flow], n_packets: int | None = None
                 ) -> tuple[np.ndarray, list[str], list[str]]:
    """(feature rows, flow ids, labels) of ``flows`` cut to ``n_packets``,
    as load_matrix_csv gives them for a features CSV. A flow with no id is
    named ``f<position:06d>``, as assemble_flows names captured flows, and
    one with no label gets the empty label. When that name is another
    flow's id, two rows would share it: that is an InputError, raised
    before any flow is extracted."""
    ids = [f.flow_id or f"f{i:06d}" for i, f in enumerate(flows)]
    given = {f.flow_id for f in flows}
    for i, f in enumerate(flows):
        if not f.flow_id and ids[i] in given:
            raise InputError(f"the flow at position {i} has no flow_id, and its name by "
                             f"position, {ids[i]!r}, is another flow's flow_id")
    return extract_matrix(flows, n_packets), ids, [f.label or "" for f in flows]


@dataclass
class Normalizer:
    """Per-slot min-max scaler with clamping, fit on training data only."""

    mins: np.ndarray
    maxs: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] != self.mins.size:
            raise InputError(f"has {matrix.shape[1]} feature columns, "
                             f"the model has {self.mins.size}")
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        # A value far beyond a tiny span overflows to inf, which clips to 1.
        with np.errstate(over="ignore"):
            scaled = (matrix - self.mins) / safe
        scaled = np.where(span > 0, scaled, 0.0)
        return np.clip(scaled, 0.0, 1.0)


def fit_normalizer(matrix: np.ndarray) -> Normalizer:
    if matrix.shape[0] == 0:
        raise InputError("no rows to index")
    if matrix.shape[1] != WIDTH:
        raise InputError(f"has {matrix.shape[1]} feature columns, the schema has {WIDTH}")
    mins, maxs = matrix.min(axis=0), matrix.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(maxs - mins))
    if wide.size:  # load_model would refuse such a normalizer
        raise InputError(f"f{wide[0]:03d} spans more than the largest float; "
                         "min-max scaling needs a finite max - min")
    return Normalizer(mins, maxs)


class _Line:
    """A csv.writer target that hands each line back: writerow returns it."""

    write = staticmethod(str)


def save_matrix_csv(path: str | Path, matrix: np.ndarray,
                    flow_ids: list[str], labels: list[str]) -> None:
    """Write a feature matrix with flow_id/label columns and f000.. headers.
    csv quotes the flow_id and label of each row; the numbers are their
    repr; the file is written in one call."""
    if matrix.shape[0] != len(flow_ids) or matrix.shape[0] != len(labels):
        raise ValueError("matrix rows, flow_ids and labels must align")
    quoted = csv.writer(_Line()).writerow
    lines = [",".join(["flow_id", "label"] + [f"f{i:03d}" for i in range(matrix.shape[1])])]
    lines += [",".join([quoted((fid, label))[:-2], *map(repr, row)])
              for fid, label, row in zip(flow_ids, labels, matrix.tolist())]
    lines.append("")  # the last row ends with a line end too
    write_atomic(path, "\r\n".join(lines))


_FIELD = r'("(?:[^"]|"")*"|[^",\r\n]*)'
# A row as save_matrix_csv writes it: flow_id and label, each quoted or not,
# then unquoted cells, up to a line end.
_ROW = re.compile(_FIELD + "," + _FIELD + r",([^\"\r\n]*)(?:\r\n|\n|\r|\Z)")


def _load_bulk(text: str) -> tuple[np.ndarray, list[str], list[str]] | None:
    """A features CSV read in bulk, as csv and float would read it: one
    regex pass finds the rows, ids and labels, and one np.loadtxt parses
    every number. Both np.loadtxt and float() hand a cell to the same
    string-to-double routine, so the bits are equal, but np.loadtxt skips
    blank lines and reads fewer forms (not '1_0'). So only rows of the
    header's width with ids, labels and cells csv reads the same way are
    taken here; for any other text, or a cell np.loadtxt rejects, this
    returns None or raises ValueError."""
    line = re.match(r"([^\r\n]*)(?:\r\n|\n|\r|\Z)", text)
    header = line.group(1).split(",")
    width = len(header) - 2
    # The csv of Python 3.10 rejects NUL, later ones read it.
    if header != ["flow_id", "label"] + [f"f{i:03d}" for i in range(width)] \
            or width < 1 or "\x00" in text:
        return None
    pos, fields, cells = line.end(), [], []
    while pos < len(text):
        row = _ROW.match(text, pos)
        if row is None:
            return None
        pos = row.end()
        fields += row.group(1, 2)
        cells.append(row.group(3))
    limit = csv.field_size_limit()  # csv rejects a longer field
    # A blank cell of a one-column file is a blank line to np.loadtxt, which
    # skips it, and warns when every line is blank; the row loop reports it.
    if any(c.count(",") != width - 1 for c in cells) or "" in cells \
            or any(len(f) > limit for f in fields + cells):
        return None
    fields = [f[1:-1].replace('""', '"') if f.startswith('"') else f for f in fields]
    if not cells:
        return np.zeros((0, width)), [], []
    matrix = np.loadtxt(cells, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    if matrix.shape != (len(cells), width):
        return None
    return matrix, fields[0::2], fields[1::2]


def _load_rows(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    """A features CSV read row by row with csv and float."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["flow_id", "label"]:
            raise InputError("bad feature matrix header")
        width = len(header) - 2
        if [f"f{i:03d}" for i in range(width)] != header[2:]:
            raise InputError("bad feature column names")
        flow_ids, labels, rows = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"row for {row[0] if row else '?'} has wrong width")
            flow_ids.append(row[0])
            labels.append(row[1])
            rows.append([float(v) for v in row[2:]])
    return np.array(rows) if rows else np.zeros((0, width)), flow_ids, labels


def load_matrix_csv(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a feature matrix CSV back as (matrix, flow_ids, labels); a bad
    header, row or cell (not a finite number) is an InputError. A file as
    save_matrix_csv writes it is read in bulk (``_load_bulk``); anything
    else, malformed files included, row by row (``_load_rows``), which
    gives the result or the error of reading any file that way."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            loaded = _load_bulk(fh.read())
    except ValueError:  # an undecodable file too: the row loop says where
        loaded = None
    try:
        matrix, flow_ids, labels = loaded or _load_rows(path)
    except (csv.Error, ValueError) as exc:  # float() and the decoder too
        raise InputError(str(exc)) from None
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise InputError(f"row for {flow_ids[r]} has a non-finite f{c:03d} "
                         f"value {float(matrix[r, c])}")
    return matrix, flow_ids, labels

"""Capture parsing and connection assembly, on packet columns.

Turns classic capture files (or flow CSV exports) into direction-annotated
flows grouped by their connection 5-tuple. Only Ethernet/IPv4 with TCP or UDP
is parsed; everything else is skipped and counted.

Packets stay numpy columns from the capture bytes to the feature matrix:
``parse_pcap`` decodes every frame at once into a ``PacketColumns`` table,
and ``assemble_flows`` groups that table by connection with one sort.
Every packet reader (``assemble_flows`` and both flow CSV readers) builds
file-wide columns that hold each flow's packets together, and ``_flows``
cuts them into flows: each ``Flow`` holds one view per packet field, and
feature extraction concatenates the views again. The synthetic generator
fills the same columns flow by flow. ``Flow.packets`` is a read-only
per-packet view, built on demand.
All functions here are pure and safe to call concurrently.

``load_flows_csv`` reads a file in the form ``save_flows_csv`` writes (the
exact header, CRLF line ends, UTF-8 cells with no quotes, digit-only
integers) in bulk: blocks of whole lines are checked and converted as
arrays (``_load_bulk``). Any other file, malformed ones included, falls
back to the row loop over ``csv.reader`` (``_read_flow_rows``), which gives
the same flows, or the error naming the row.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import os
import struct
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

PCAP_MAGIC_BE = b"\xa1\xb2\xc3\xd4"
PCAP_MAGIC_LE = b"\xd4\xc3\xb2\xa1"
PCAP_MAGIC_NANO = (b"\xa1\xb2\x3c\x4d", b"\x4d\x3c\xb2\xa1")
LINKTYPE_ETHERNET = 1

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

DEFAULT_IDLE_TIMEOUT = 60.0
# Upper bound (exclusive) of the integer fields of a flow CSV row. It holds
# any IPv4 length and any scaled TCP window, and keeps every per-flow sum of
# them exact in float64.
_CSV_FIELD_LIMIT = 2 ** 32

FLOW_CSV_HEADER = [
    "flow_id",
    "label",
    "packet_index",
    "direction",
    "timestamp",
    "total_length",
    "payload_length",
    "tcp_flags",
    "tcp_window",
]


class InputError(ValueError):
    """Outside input that breaks a rule: a malformed capture, flow CSV,
    features CSV, config or model directory, or rows no model can be fitted
    to. The message says what is wrong and where inside the input (``row 4``,
    ``model.json``); the command line puts the file's path in front."""


def write_atomic(path: str | Path, data: str | bytes | Iterable[str]) -> None:
    """The one writer of outputs: ``data``, text, bytes or text chunks
    written as they come, goes into ``<name>.tmp`` beside ``path`` (its
    directory made first), which then replaces ``path``. On any failure the
    temporary file is removed, so ``path`` is whole or as it was; a failed
    write that names no file (a full disk, a file-size limit) is raised
    again naming ``path``. Nothing is fsynced: this guards against a failed
    or killed process, not a power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with (open(tmp, "wb") if isinstance(data, bytes)
                  else open(tmp, "w", newline="", encoding="utf-8")) as fh:
                fh.writelines((data,) if isinstance(data, (str, bytes)) else data)
        except OSError as exc:
            if exc.filename is not None or exc.errno is None:
                raise
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Protocol(enum.IntEnum):
    TCP = 6
    UDP = 17


class TcpFlags(enum.IntFlag):
    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


_FLAG_ORDER = [TcpFlags.FIN, TcpFlags.SYN, TcpFlags.RST, TcpFlags.PSH, TcpFlags.ACK]
_FLAG_NAMES = {f.name: f for f in _FLAG_ORDER}


def flags_to_token(flags: TcpFlags) -> str:
    """Serialize a flag set as e.g. "SYN|ACK" (empty string for no flags)."""
    return "|".join(f.name for f in _FLAG_ORDER if flags & f)


def flags_from_token(token: str) -> TcpFlags:
    flags = TcpFlags.NONE
    if not token:
        return flags
    for part in token.split("|"):
        try:
            flags |= _FLAG_NAMES[part]
        except KeyError:
            raise InputError(f"unknown TCP flag token: {part!r}") from None
    return flags


class Direction(enum.Enum):
    FWD = "fwd"
    BWD = "bwd"


# CSV direction token -> sent by the initiator, and back.
_DIRECTION_TOKENS = {"out": True, "in": False}
_DIRECTION_TO_TOKEN = {True: "out", False: "in"}
_FLAG_TOKENS = [flags_to_token(TcpFlags(bits)) for bits in range(32)]


class FlowKey(NamedTuple):
    """Connection 5-tuple, stored initiator side first."""

    src_ip: str
    dst_ip: str
    protocol: Protocol
    src_port: int
    dst_port: int


@dataclass(frozen=True)
class FlowPacket:
    """One packet of a flow, as the ``Flow.packets`` view shows it."""

    timestamp: float
    direction: Direction
    total_length: int
    payload_length: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    tcp_window: int | None = None


# The per-packet columns of a Flow, and their dtypes.
FLOW_COLUMNS = {
    "timestamp": np.float64,
    "fwd": np.bool_,
    "total_length": np.int64,
    "payload_length": np.int64,
    "tcp_flags": np.int64,
    "tcp_window": np.int64,
}


@dataclass(eq=False)
class Flow:
    """Time-ordered bidirectional packet sequence of one connection, held as
    one array per packet field (``FLOW_COLUMNS``).

    ``key`` is None for flows loaded from CSV exports, which do not carry
    the 5-tuple. ``fwd`` marks the packets sent by the initiator.
    ``tcp_window`` is -1 where a packet carries none (UDP, or an empty CSV
    cell). Columns may be views of arrays shared with other flows, so treat
    them as read-only.
    """

    key: FlowKey | None
    timestamp: np.ndarray
    fwd: np.ndarray
    total_length: np.ndarray
    payload_length: np.ndarray
    tcp_flags: np.ndarray
    tcp_window: np.ndarray
    label: str | None = None
    flow_id: str | None = None

    def __post_init__(self) -> None:
        if self.timestamp.size == 0:
            raise ValueError("a flow needs at least one packet")

    @property
    def packets(self) -> tuple[FlowPacket, ...]:
        """The packets as read-only records, built on each access."""
        rows = zip(*(getattr(self, name).tolist() for name in FLOW_COLUMNS))
        return tuple(
            FlowPacket(ts, Direction.FWD if fwd else Direction.BWD, total, payload,
                       TcpFlags(flags), None if window < 0 else window)
            for ts, fwd, total, payload, flags, window in rows)


@dataclass(frozen=True, eq=False)
class PacketColumns:
    """Parsed TCP/UDP packets, header fields only: one array per field, in
    capture order. Addresses are uint32 (10.0.0.1 is 0x0A000001);
    ``tcp_window`` is -1 for UDP packets."""

    timestamp: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    total_length: np.ndarray
    payload_length: np.ndarray
    tcp_flags: np.ndarray
    tcp_window: np.ndarray

    def __len__(self) -> int:
        return self.timestamp.size


@dataclass
class PcapParseResult:
    records: PacketColumns
    skipped: int = 0
    truncated: int = 0


def parse_pcap(data: bytes) -> PcapParseResult:
    """Parse a classic capture file into packet columns.

    Non-IPv4 and non-TCP/UDP frames, and IPv4 fragments past the first
    (nothing is reassembled), are skipped and counted. A record header
    promising more bytes than remain stops parsing with ``truncated`` set.
    Raises InputError for a bad magic, a nanosecond-resolution capture,
    a short global header, or a non-Ethernet link type.
    """
    magic = bytes(data[:4])
    if magic in PCAP_MAGIC_NANO:
        raise InputError("nanosecond-resolution captures are not supported")
    if magic == PCAP_MAGIC_BE:
        endian = ">"
    elif magic == PCAP_MAGIC_LE:
        endian = "<"
    else:
        raise InputError(f"not a classic capture file (magic {magic.hex() or 'empty'})")
    if len(data) < 24:
        raise InputError("global header truncated")
    (network,) = struct.unpack_from(endian + "I", data, 20)
    if network != LINKTYPE_ETHERNET:
        raise InputError(f"unsupported link type {network} (only Ethernet/1)")

    # Each record starts where the one before ends, so this walk reads only
    # the captured lengths; the frames are decoded all at once below. Only
    # the last record can end past the data or leave a cut header behind
    # it, so where the walk stops decides truncation.
    incl_len = struct.Struct(endian + "I").unpack_from
    ends = array("q")
    append = ends.append
    offset, last = 24, len(data) - 16
    while offset <= last:
        (length,) = incl_len(data, offset + 8)
        offset += 16 + length
        append(offset)
    end = np.frombuffer(ends, dtype=np.int64)
    if offset > len(data):
        end = end[:-1]

    buf = np.frombuffer(data, dtype=np.uint8)
    start = np.empty_like(end)
    start[:1] = 24 + 16
    start[1:] = end[:-1] + 16
    word = _at(buf, endian + "u4")
    # The same float operations as ts_sec + ts_usec * 1e-6 on Python numbers.
    ts = word[start - 16].astype(np.float64) + word[start - 12].astype(np.float64) * 1e-6
    records = _decode_frames(buf, start, end, ts)
    return PcapParseResult(records, skipped=start.size - len(records),
                           truncated=int(offset != len(data)))


def _window(buf: np.ndarray, width: int) -> np.ndarray:
    """Row i is buf[i:i + width], a view: indexing it by offsets gathers
    their bytes in one step, with no (offsets x width) index."""
    return np.lib.stride_tricks.sliding_window_view(buf, width)


def _at(buf: np.ndarray, dtype: str) -> np.ndarray:
    """Item i is the ``dtype`` value held in buf[i:], a 1-D view with a
    stride of one byte: indexing it by offsets gathers their values in one
    step."""
    width = np.dtype(dtype).itemsize
    return np.ndarray((buf.size - width + 1,), dtype, buf, strides=(1,))


def _be(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The big-endian unsigned integers of ``width`` (2 or 4) bytes at
    offsets ``at``."""
    return _at(buf, f">u{width}")[at].astype(np.int64)


def _decode_frames(buf: np.ndarray, start: np.ndarray, end: np.ndarray,
                   ts: np.ndarray) -> PacketColumns:
    """Decode the Ethernet/IPv4/{TCP,UDP} frames at ``buf[start:end]``; drop
    every other frame.

    ``f`` holds the frames still in the running. Each step keeps only those
    whose bytes hold the next header before it reads that header, so no
    read goes past the end of a frame.
    """
    f = np.flatnonzero(end - start >= 14)
    ethertype = np.zeros(start.size, dtype=np.int64)
    ethertype[f] = _be(buf, start[f] + 12, 2)
    ip = start + 14
    # 802.1Q tags sit between the MAC header and the payload ethertype.
    tagged = f[(ethertype[f] == ETHERTYPE_VLAN) & (ip[f] + 4 <= end[f])]
    while tagged.size:
        ethertype[tagged] = _be(buf, ip[tagged] + 2, 2)
        ip[tagged] += 4
        tagged = tagged[(ethertype[tagged] == ETHERTYPE_VLAN) & (ip[tagged] + 4 <= end[tagged])]

    f = f[(ethertype[f] == ETHERTYPE_IPV4) & (ip[f] + 20 <= end[f])]
    first, proto = buf[ip[f]], buf[ip[f] + 9]
    ihl = (first & 0x0F).astype(np.int64) * 4
    # A fragment past the first holds payload bytes where the ports would be.
    keep = ((first >> 4 == 4) & (ihl >= 20) & (ip[f] + ihl <= end[f])
            & (_be(buf, ip[f] + 6, 2) & 0x1FFF == 0)
            & ((proto == Protocol.TCP) | (proto == Protocol.UDP)))
    f, ihl, tcp = f[keep], ihl[keep], proto[keep] == Protocol.TCP
    l4 = ip[f] + ihl
    keep = l4 + np.where(tcp, 20, 8) <= end[f]
    f, ihl, tcp, l4 = f[keep], ihl[keep], tcp[keep], l4[keep]
    # Data offset, flags and window of TCP; a UDP row reads its ports instead
    # and ignores the values.
    th = np.where(tcp, l4 + 12, l4)
    data_offset = (buf[th] >> 4).astype(np.int64) * 4
    keep = ~tcp | (data_offset >= 20)
    f, ihl, tcp, l4, th, data_offset = (
        a[keep] for a in (f, ihl, tcp, l4, th, data_offset))

    ip = ip[f]
    total_length = _be(buf, ip + 2, 2)
    udp_payload = np.minimum(_be(buf, l4 + 4, 2) - 8, total_length - ihl - 8)
    payload = np.maximum(0, np.where(tcp, total_length - ihl - data_offset, udp_payload))
    return PacketColumns(
        timestamp=ts[f],
        src_ip=_be(buf, ip + 12, 4).astype(np.uint32),
        dst_ip=_be(buf, ip + 16, 4).astype(np.uint32),
        src_port=_be(buf, l4, 2),
        dst_port=_be(buf, l4 + 2, 2),
        protocol=np.where(tcp, int(Protocol.TCP), int(Protocol.UDP)),
        total_length=total_length,
        payload_length=payload,
        tcp_flags=np.where(tcp, buf[th + 1] & 0x1F, 0).astype(np.int64),
        tcp_window=np.where(tcp, _be(buf, th + 2, 2), -1),
    )


def _dotted(ips: np.ndarray) -> list[str]:
    """Each IPv4 address of ips in dotted form."""
    return list(map("{}.{}.{}.{}".format, *((ips >> shift & 0xFF).tolist()
                                              for shift in (24, 16, 8, 0))))


_PROTOCOLS = {int(p): p for p in Protocol}


def assemble_flows(records: PacketColumns,
                   idle_timeout: float = DEFAULT_IDLE_TIMEOUT) -> list[Flow]:
    """Group packets into flows by canonical 5-tuple, splitting at idle gaps.

    A gap of at least ``idle_timeout`` seconds between consecutive packets of
    one connection starts a new flow. The initiator is the sender of the
    first packet of each flow; a bare SYN seen anywhere overrides that, since
    its sender opened the connection (the first bare SYN, if several).
    Output is sorted by first timestamp, then by the capture position of
    the first packet.
    """
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be positive")
    r = records
    if len(r) == 0:
        return []
    # An endpoint is ip << 16 | port, 48 bits; a connection is its protocol
    # and its two endpoints, lower first, held as two keys: side, which is
    # proto << 48 | lower, and the higher endpoint.
    src = (r.src_ip.astype(np.int64) << 16) | r.src_port
    dst = (r.dst_ip.astype(np.int64) << 16) | r.dst_port
    side, hi = np.minimum(src, dst), np.maximum(src, dst)
    side |= r.protocol.astype(np.int64, copy=False) << 48
    # lexsort is stable: packets of one connection with equal timestamps
    # keep their capture order.
    order = np.lexsort((r.timestamp, hi, side))
    side, hi, src, ts, flags = (a[order] for a in (side, hi, src, r.timestamp, r.tcp_flags))
    new = np.ones(order.size, dtype=bool)
    new[1:] = ((side[1:] != side[:-1]) | (hi[1:] != hi[:-1])
               | (ts[1:] - ts[:-1] >= idle_timeout))
    seg = np.cumsum(new) - 1
    first = np.flatnonzero(new)

    # The initiator of a segment is the sender of its first bare SYN, else
    # of its first packet.
    initiator = src[first]
    bare_syn = np.flatnonzero((side >> 48 == Protocol.TCP) & (flags & TcpFlags.SYN != 0)
                              & (flags & TcpFlags.ACK == 0))
    with_syn, at = np.unique(seg[bare_syn], return_index=True)
    initiator[with_syn] = src[bare_syn[at]]
    fwd = src == initiator[seg]

    # Flows in order of first timestamp, then capture position; packets
    # regrouped flow after flow.
    by_start = np.lexsort((order[first], ts[first]))
    rank = np.empty_like(by_start)
    rank[by_start] = np.arange(by_start.size)
    in_flow_order = np.argsort(rank[seg], kind="stable")
    take = order[in_flow_order]
    columns = [fwd[in_flow_order] if name == "fwd" else getattr(r, name)[take]
               for name in FLOW_COLUMNS]

    sizes = np.diff(np.append(first, order.size))[by_start]
    first = first[by_start]
    ends, lo = initiator[by_start], side[first] & ((1 << 48) - 1)
    others = np.where(ends == lo, hi[first], lo)
    keys = list(map(FlowKey, _dotted(ends >> 16), _dotted(others >> 16),
                    map(_PROTOCOLS.__getitem__, (side[first] >> 48).tolist()),
                    (ends & 0xFFFF).tolist(), (others & 0xFFFF).tolist()))
    return _flows(columns, np.cumsum(sizes) - sizes, [f"f{i:06d}" for i in range(sizes.size)],
                  repeat(None), keys)


def save_flows_csv(flows: list[Flow], path: str | Path) -> None:
    """Write flows in the one-packet-per-row CSV schema (keys are dropped),
    streamed one flow at a time."""
    write_atomic(path, _flow_csv_text(flows))


def _flow_csv_text(flows: list[Flow]):
    """The text of a flow CSV: the header and the first flow's rows, then
    each further flow's rows."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(FLOW_CSV_HEADER)
    for flow in flows:
        if flow.flow_id is None:
            raise ValueError("flows written to CSV need a flow_id")
        n = flow.timestamp.size
        writer.writerows(zip(
            repeat(flow.flow_id, n),
            repeat(flow.label or "", n),
            range(n),
            [_DIRECTION_TO_TOKEN[fwd] for fwd in flow.fwd.tolist()],
            map(repr, flow.timestamp.tolist()),
            flow.total_length.tolist(),
            flow.payload_length.tolist(),
            [_FLAG_TOKENS[flags & 0x1F] for flags in flow.tcp_flags.tolist()],
            ["" if window < 0 else window for window in flow.tcp_window.tolist()],
        ))
        yield fh.getvalue()
        fh.seek(0)
        fh.truncate()
    yield fh.getvalue()


def load_flows_csv(path: str | Path) -> list[Flow]:
    """Read flows from the one-packet-per-row CSV schema.

    Rows must be grouped by flow_id with ascending packet_index; schema
    violations raise InputError naming the offending row. A file as
    save_flows_csv writes it is read in bulk (``_load_bulk``); any other,
    malformed files included, row by row (``_read_flow_rows``), which gives
    the result or the error of reading any file that way.
    """
    with open(path, "rb") as fh:
        try:
            flows = _load_bulk(fh)
        except ValueError:  # a cell float() or flags_from_token refuses too
            flows = None
    if flows is not None:
        return flows
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _read_flow_rows(reader)
        except csv.Error as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"not a text file: {exc}") from None


def _read_flow_rows(reader) -> list[Flow]:
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty file: missing header") from None
    if header != FLOW_CSV_HEADER:
        raise InputError(f"bad header: expected {FLOW_CSV_HEADER}, got {header}")

    # File-wide columns, appended row by row and converted once at the end.
    ts, fwd = array("d"), bytearray()
    total_length, payload_length, tcp_flags, tcp_window = (array("q") for _ in range(4))
    seen: set[str] = set()
    flow_ids: list[str] = []
    labels: list[str | None] = []
    starts: list[int] = []
    flags_of: dict[str, int] = {}
    current_id: str | None = None
    current_label: str | None = None
    last_index = -1

    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(FLOW_CSV_HEADER):
            raise InputError(f"row {row_no}: expected {len(FLOW_CSV_HEADER)} columns, got {len(row)}")
        (flow_id, label, packet_index, direction, timestamp,
         total, payload, flags_token, window_cell) = row
        if flow_id != current_id:
            if flow_id in seen:
                raise InputError(f"row {row_no}: flow_id {flow_id!r} rows are not contiguous")
            seen.add(flow_id)
            current_id = flow_id
            current_label = label or None
            flow_ids.append(flow_id)
            labels.append(current_label)
            starts.append(len(ts))
            last_index = -1
        elif (label or None) != current_label:
            raise InputError(f"row {row_no}: label changed within flow {flow_id!r}")
        try:
            idx = int(packet_index)
        except ValueError:
            raise InputError(f"row {row_no}: bad packet_index {packet_index!r}") from None
        if idx <= last_index:
            raise InputError(f"row {row_no}: packet_index not increasing in flow {flow_id!r}")
        last_index = idx
        if direction not in _DIRECTION_TOKENS:
            raise InputError(f"row {row_no}: unknown direction token {direction!r}")
        try:
            t = float(timestamp)
            if not math.isfinite(t):
                raise InputError(f"non-finite timestamp {timestamp!r}")
            size, data = int(total), int(payload)
            flags = flags_of.get(flags_token)
            if flags is None:
                flags = flags_of[flags_token] = int(flags_from_token(flags_token))
            window = None if window_cell == "" else int(window_cell)
            if not (0 <= size < _CSV_FIELD_LIMIT and 0 <= data < _CSV_FIELD_LIMIT
                    and (window is None or 0 <= window < _CSV_FIELD_LIMIT)):
                raise InputError("total_length, payload_length and tcp_window must be "
                                 f"in [0, 2**32), got {size}, {data}, {window}")
        except ValueError as exc:
            raise InputError(f"row {row_no}: {exc}") from None
        ts.append(t)
        fwd.append(_DIRECTION_TOKENS[direction])
        total_length.append(size)
        payload_length.append(data)
        tcp_flags.append(flags)
        tcp_window.append(-1 if window is None else window)

    return _flows((ts, fwd, total_length, payload_length, tcp_flags, tcp_window),
                  starts, flow_ids, labels)


# The bulk reader takes the file in blocks of whole lines of about this
# many bytes. A block's arrays take a few times its size, so with blocks
# this small the reader's peak stays within two blocks of the row loop's,
# whose columns it fills the same way.
_BLOCK_BYTES = 1 << 17
_HEADER_LINE = (",".join(FLOW_CSV_HEADER) + "\r\n").encode()
# A line as save_flows_csv writes it with no quoted field: 8 commas, then
# CR and LF.
_LINE_ENDS = np.frombuffer(b",,,,,,,,\r\n", dtype=np.uint8)
# packet_index, total_length, payload_length and tcp_window, read from the
# bytes that end each cell, up to 10; blocks start with 10 bytes of padding
# so the first line's windows stay inside them.
_INT_FIELDS = [2, 5, 6, 8]
_DIGITS = 10
_PAD = b"0" * _DIGITS


def _load_bulk(fh) -> list[Flow] | None:
    """The flows of a flow CSV as save_flows_csv writes it, read from the
    binary file ``fh`` in blocks of whole lines (``_read_block``): the
    same flows as the row loop. For any other file this returns None or
    raises ValueError, and the row loop reads it. Besides each block's
    rules, flows must be contiguous, unique, of one label and with rising
    packet_index; ids and labels are decoded from UTF-8 once per flow."""
    if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    limit = csv.field_size_limit()
    ts, fwd = array("d"), bytearray()
    ints = [array("q") for _ in _INT_FIELDS[1:]]
    tcp_flags = array("q")
    seen: set[str] = set()
    flow_ids: list[str] = []
    labels: list[str | None] = []
    starts: list[int] = []
    last_index = -1
    carry = b""
    while chunk := fh.read(_BLOCK_BYTES):
        data = _PAD + carry + chunk
        del chunk  # so a block's bytes are held once, not twice
        size = data.rfind(b"\n") + 1
        if size == 0:
            return None  # a line longer than a block
        carry = data[size:]
        block = _read_block(np.frombuffer(data, dtype=np.uint8)[:size], limit)
        del data
        if block is None:
            return None
        ids, names, index, stamps, out, values, flags = block
        new = np.ones(index.size, dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        if flow_ids and ids[0].decode() == flow_ids[-1]:
            new[0] = False
            if names[0].decode() != (labels[-1] or "") or index[0] <= last_index:
                return None
        if ((names[1:] != names[:-1]) | (index[1:] <= index[:-1]))[~new[1:]].any():
            return None
        first = np.flatnonzero(new)
        for flow_id, label in zip(ids[first].tolist(), names[first].tolist()):
            flow_id = flow_id.decode()
            if flow_id in seen:
                return None
            seen.add(flow_id)
            flow_ids.append(flow_id)
            labels.append(label.decode() or None)
        starts += (first + len(ts)).tolist()
        last_index = int(index[-1])
        ts.frombytes(stamps.tobytes())
        fwd += out.tobytes()
        for column, value in zip(ints, values):
            column.frombytes(value.tobytes())
        tcp_flags.frombytes(flags.tobytes())
    if carry:
        return None  # the last line has no line end
    total_length, payload_length, tcp_window = ints
    return _flows((ts, fwd, total_length, payload_length, tcp_flags, tcp_window),
                  starts, flow_ids, labels)


def _read_block(buf: np.ndarray, limit: int) -> tuple | None:
    """The cells of the whole lines ``buf`` (after the padding) as arrays:
    flow ids and labels as padded bytes, packet_index, timestamps, the
    direction, the other three integers and the flags; None unless every
    line holds 9 unquoted fields, none longer than ``limit`` bytes, and ends
    in CRLF, its integers are 1-10 digits below 2**32 (tcp_window may be
    empty), its direction is ``out`` or ``in`` and its timestamp, read by
    float() as the row loop reads it, is finite. Each distinct flag token
    goes through flags_from_token once."""
    # Separators, quotes and NUL are all below "-", and every byte of a
    # UTF-8 multi-byte character is above it. A line holding a quote or NUL
    # goes to the row loop.
    at = np.flatnonzero(buf < ord("-")).astype(np.int32)
    below = buf[at]
    if (below == ord('"')).any() or (below == 0).any():
        return None
    at = at[(below == ord(",")) | (below == ord("\r")) | (below == ord("\n"))]
    n, rest = divmod(at.size, _LINE_ENDS.size)
    at = at[:at.size - rest].reshape(n, _LINE_ENDS.size)
    if rest or not (buf[at] == _LINE_ENDS).all() or not (at[:, 9] == at[:, 8] + 1).all():
        return None
    end = at[:, :9]
    start = np.empty_like(end)
    start[:, 1:] = end[:, :8] + 1
    start[0, 0] = len(_PAD)
    start[1:, 0] = at[:-1, 9] + 1
    length = end - start
    if length.max() > limit:
        return None

    values = _integers(buf, end[:, _INT_FIELDS].T, length[:, _INT_FIELDS].T)
    if values is None:
        return None
    direction = _cells(buf, start[:, 3], length[:, 3])
    out = direction == b"out"
    if not (out | (direction == b"in")).all():
        return None
    stamps = np.fromiter(map(float, _cells(buf, start[:, 4], length[:, 4]).tolist()),
                         dtype=np.float64, count=n)
    if not np.isfinite(stamps).all():
        return None
    tokens, which = np.unique(_cells(buf, start[:, 7], length[:, 7]), return_inverse=True)
    flags = np.array([flags_from_token(t.decode()) for t in tokens.tolist()],
                     dtype=np.int64)[which]
    return (_cells(buf, start[:, 0], length[:, 0]), _cells(buf, start[:, 1], length[:, 1]),
            values[0], stamps, out, values[1:], flags)


def _integers(buf: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """packet_index, total_length, payload_length and tcp_window as a
    (field, row) array, from the cells of ``width`` bytes that end at
    ``end``; an empty tcp_window is -1. None unless each cell is 1-10
    digits (tcp_window may be empty) below 2**32. Each cell is read from a
    right-aligned window as wide as the widest cell."""
    wide = int(width.max())
    if wide > _DIGITS or (width[:3] == 0).any():
        return None
    digits = _window(buf, wide)[end - wide] - ord("0")
    outside = np.arange(wide) < wide - width[..., None]
    if ((digits > 9) & ~outside).any():
        return None
    digits[outside] = 0
    values = np.einsum("fri,i->fr", digits, 10 ** np.arange(wide - 1, -1, -1))
    if (values >= _CSV_FIELD_LIMIT).any():
        return None
    values[3][width[3] == 0] = -1
    return values


def _cells(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The cells ``buf[start:start + length]`` as one array of NUL-padded
    bytes (dtype ``S<widest>``). Raises ValueError when that array would
    take more than a block."""
    width = max(int(length.max()), 1)
    if width * length.size > _BLOCK_BYTES:
        raise ValueError("cells too wide to pad")
    if int(start.max()) + width > buf.size:
        buf = np.concatenate([buf, np.zeros(width, dtype=np.uint8)])
    cells = _window(buf, width)[start]
    cells[np.arange(width) >= length[:, None]] = 0
    return cells.view(f"S{width}")[:, 0]


def _flows(columns, starts, flow_ids: list[str], labels: Iterable[str | None],
           keys: list[FlowKey] | None = None) -> list[Flow]:
    """The one cut of file-wide packet columns into flows, which every
    packet reader returns through. ``columns`` are buffers in FLOW_COLUMNS
    order, each holding its column's dtype; flow i is a view of the rows
    from ``starts[i]`` to the next start, with the i-th id, label and key
    (None without ``keys``)."""
    ts, fwd, total, payload, flags, window = (
        np.frombuffer(values, dtype=dtype)
        for dtype, values in zip(FLOW_COLUMNS.values(), columns))
    bounds = np.append(starts, ts.size).tolist()
    return [Flow(key, ts[a:b], fwd[a:b], total[a:b], payload[a:b], flags[a:b], window[a:b],
                 label, flow_id)
            for key, flow_id, label, a, b in zip(keys or repeat(None), flow_ids, labels,
                                                 bounds, bounds[1:])]

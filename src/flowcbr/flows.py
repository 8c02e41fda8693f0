"""Capture parsing and connection assembly.

Turns classic capture files (or flow CSV exports) into direction-annotated
flows grouped by their connection 5-tuple. Only Ethernet/IPv4 with TCP or UDP
is parsed; everything else is skipped and counted. All functions here are
pure and safe to call concurrently.
"""

from __future__ import annotations

import csv
import enum
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

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


class PcapFormatError(ValueError):
    """The capture file cannot be interpreted (bad magic, link type, header)."""


class FlowCsvError(ValueError):
    """A flow CSV file violates the expected schema."""


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
            raise FlowCsvError(f"unknown TCP flag token: {part!r}") from None
    return flags


class Direction(enum.Enum):
    FWD = "fwd"
    BWD = "bwd"


_DIRECTION_TOKENS = {"out": Direction.FWD, "in": Direction.BWD}
_DIRECTION_TO_TOKEN = {Direction.FWD: "out", Direction.BWD: "in"}


@dataclass(frozen=True)
class PacketRecord:
    """One parsed TCP/UDP packet, header fields only."""

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: Protocol
    total_length: int
    payload_length: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    tcp_window: int | None = None


@dataclass(frozen=True, eq=False)
class FlowKey:
    """Connection 5-tuple, stored initiator side first.

    Equality and hashing are symmetric under direction reversal, so the
    forward and reverse packet streams of one connection map to one key.
    """

    src_ip: str
    dst_ip: str
    protocol: Protocol
    src_port: int
    dst_port: int

    def _unordered(self) -> tuple:
        a = (self.src_ip, self.src_port)
        b = (self.dst_ip, self.dst_port)
        return (int(self.protocol), a, b) if a <= b else (int(self.protocol), b, a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._unordered() == other._unordered()

    def __hash__(self) -> int:
        return hash(self._unordered())

    def reversed(self) -> FlowKey:
        return FlowKey(self.dst_ip, self.src_ip, self.protocol, self.dst_port, self.src_port)


@dataclass(frozen=True)
class FlowPacket:
    timestamp: float
    direction: Direction
    total_length: int
    payload_length: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    tcp_window: int | None = None


@dataclass
class Flow:
    """Time-ordered bidirectional packet sequence of one connection.

    ``key`` is None for flows loaded from CSV exports, which do not carry
    the 5-tuple. ``fwd`` is the initiator-to-responder direction.
    """

    key: FlowKey | None
    packets: tuple[FlowPacket, ...]
    label: str | None = None
    flow_id: str | None = None

    def __post_init__(self) -> None:
        if not self.packets:
            raise ValueError("a flow needs at least one packet")
        self.packets = tuple(self.packets)


@dataclass
class PcapParseResult:
    records: list[PacketRecord]
    skipped: int = 0
    truncated: int = 0


def parse_pcap(data: bytes) -> PcapParseResult:
    """Parse a classic capture file into packet records.

    Non-IPv4 and non-TCP/UDP frames are skipped and counted. A record header
    promising more bytes than remain stops parsing with ``truncated`` set.
    Raises PcapFormatError for a bad magic, a nanosecond-resolution capture,
    a short global header, or a non-Ethernet link type.
    """
    magic = bytes(data[:4])
    if magic in PCAP_MAGIC_NANO:
        raise PcapFormatError("nanosecond-resolution captures are not supported")
    if magic == PCAP_MAGIC_BE:
        endian = ">"
    elif magic == PCAP_MAGIC_LE:
        endian = "<"
    else:
        raise PcapFormatError(f"not a classic capture file (magic {magic.hex() or 'empty'})")
    if len(data) < 24:
        raise PcapFormatError("global header truncated")
    _, _, _, _, _, _, network = struct.unpack(endian + "IHHiIII", data[:24])
    if network != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {network} (only Ethernet/1)")

    result = PcapParseResult(records=[])
    offset = 24
    total = len(data)
    while offset < total:
        if total - offset < 16:
            result.truncated += 1
            break
        ts_sec, ts_usec, incl_len, _ = struct.unpack(endian + "IIII", data[offset:offset + 16])
        offset += 16
        if total - offset < incl_len:
            result.truncated += 1
            break
        frame = data[offset:offset + incl_len]
        offset += incl_len
        record = _parse_frame(frame, ts_sec + ts_usec * 1e-6)
        if record is None:
            result.skipped += 1
        else:
            result.records.append(record)
    return result


def _parse_frame(frame: bytes, timestamp: float) -> PacketRecord | None:
    """Decode Ethernet/IPv4/{TCP,UDP}; return None for anything else."""
    if len(frame) < 14:
        return None
    ethertype = int.from_bytes(frame[12:14], "big")
    ip_off = 14
    # 802.1Q tags sit between the MAC header and the payload ethertype.
    while ethertype == ETHERTYPE_VLAN and len(frame) >= ip_off + 4:
        ethertype = int.from_bytes(frame[ip_off + 2:ip_off + 4], "big")
        ip_off += 4
    if ethertype != ETHERTYPE_IPV4:
        return None
    ip = frame[ip_off:]
    if len(ip) < 20:
        return None
    if ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return None
    total_length = int.from_bytes(ip[2:4], "big")
    proto = ip[9]
    if proto not in (Protocol.TCP, Protocol.UDP):
        return None
    src_ip = ".".join(str(b) for b in ip[12:16])
    dst_ip = ".".join(str(b) for b in ip[16:20])
    l4 = ip[ihl:]
    if proto == Protocol.TCP:
        if len(l4) < 20:
            return None
        src_port, dst_port = struct.unpack(">HH", l4[:4])
        data_offset = (l4[12] >> 4) * 4
        if data_offset < 20:
            return None
        flags = TcpFlags(l4[13] & 0x1F)
        window = int.from_bytes(l4[14:16], "big")
        payload_length = max(0, total_length - ihl - data_offset)
        return PacketRecord(timestamp, src_ip, dst_ip, src_port, dst_port,
                            Protocol.TCP, total_length, payload_length, flags, window)
    if len(l4) < 8:
        return None
    src_port, dst_port, udp_len = struct.unpack(">HHH", l4[:6])
    payload_length = max(0, min(udp_len - 8, total_length - ihl - 8))
    return PacketRecord(timestamp, src_ip, dst_ip, src_port, dst_port,
                        Protocol.UDP, total_length, payload_length)


def _endpoint(record: PacketRecord) -> tuple[str, int]:
    return (record.src_ip, record.src_port)


def assemble_flows(packets: list[PacketRecord],
                   idle_timeout: float = DEFAULT_IDLE_TIMEOUT) -> list[Flow]:
    """Group packets into flows by canonical 5-tuple, splitting at idle gaps.

    A gap of at least ``idle_timeout`` seconds between consecutive packets of
    one connection starts a new flow. The initiator is the sender of the
    first packet of each flow; a bare SYN seen anywhere overrides that, since
    its sender opened the connection. Output is sorted by first timestamp.
    """
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be positive")
    groups: dict[tuple, list[tuple[int, PacketRecord]]] = {}
    for pos, rec in enumerate(packets):
        a, b = (rec.src_ip, rec.src_port), (rec.dst_ip, rec.dst_port)
        ukey = (int(rec.protocol), a, b) if a <= b else (int(rec.protocol), b, a)
        groups.setdefault(ukey, []).append((pos, rec))

    flows: list[tuple[float, int, Flow]] = []
    for members in groups.values():
        members.sort(key=lambda item: (item[1].timestamp, item[0]))
        segment: list[tuple[int, PacketRecord]] = []
        for item in members:
            if segment and item[1].timestamp - segment[-1][1].timestamp >= idle_timeout:
                flows.append(_finish_segment(segment))
                segment = []
            segment.append(item)
        if segment:
            flows.append(_finish_segment(segment))

    flows.sort(key=lambda item: (item[0], item[1]))
    out = []
    for i, (_, _, flow) in enumerate(flows):
        flow.flow_id = f"f{i:06d}"
        out.append(flow)
    return out


def _finish_segment(segment: list[tuple[int, PacketRecord]]) -> tuple[float, int, Flow]:
    initiator = _endpoint(segment[0][1])
    for _, rec in segment:
        if rec.protocol == Protocol.TCP and (rec.tcp_flags & TcpFlags.SYN) and not (rec.tcp_flags & TcpFlags.ACK):
            initiator = _endpoint(rec)
            break
    first = segment[0][1]
    if _endpoint(first) == initiator:
        key = FlowKey(first.src_ip, first.dst_ip, first.protocol, first.src_port, first.dst_port)
    else:
        key = FlowKey(first.dst_ip, first.src_ip, first.protocol, first.dst_port, first.src_port)
    pkts = tuple(
        FlowPacket(
            timestamp=rec.timestamp,
            direction=Direction.FWD if _endpoint(rec) == initiator else Direction.BWD,
            total_length=rec.total_length,
            payload_length=rec.payload_length,
            tcp_flags=rec.tcp_flags,
            tcp_window=rec.tcp_window,
        )
        for _, rec in segment
    )
    return (first.timestamp, segment[0][0], Flow(key=key, packets=pkts))


def truncate_flow(flow: Flow, n_packets: int) -> Flow:
    """Return a copy keeping only the first ``n_packets`` packets."""
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    if n_packets >= len(flow.packets):
        return replace(flow)
    return replace(flow, packets=flow.packets[:n_packets])


def save_flows_csv(flows: list[Flow], path: str | Path) -> None:
    """Write flows in the one-packet-per-row CSV schema (keys are dropped)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_CSV_HEADER)
        for flow in flows:
            if flow.flow_id is None:
                raise ValueError("flows written to CSV need a flow_id")
            for i, p in enumerate(flow.packets):
                writer.writerow([
                    flow.flow_id,
                    flow.label or "",
                    i,
                    _DIRECTION_TO_TOKEN[p.direction],
                    repr(p.timestamp),
                    p.total_length,
                    p.payload_length,
                    flags_to_token(p.tcp_flags),
                    "" if p.tcp_window is None else p.tcp_window,
                ])


def load_flows_csv(path: str | Path) -> list[Flow]:
    """Read flows from the one-packet-per-row CSV schema.

    Rows must be grouped by flow_id with ascending packet_index; schema
    violations raise FlowCsvError naming the offending row.
    """
    flows: list[Flow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FlowCsvError("empty file: missing header") from None
        if header != FLOW_CSV_HEADER:
            raise FlowCsvError(f"bad header: expected {FLOW_CSV_HEADER}, got {header}")

        seen: set[str] = set()
        flags_of: dict[str, TcpFlags] = {}
        current_id: str | None = None
        current_label: str | None = None
        current_packets: list[FlowPacket] = []
        last_index = -1

        def finish() -> None:
            if current_id is not None:
                flows.append(Flow(key=None, packets=tuple(current_packets),
                                  label=current_label, flow_id=current_id))

        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(FLOW_CSV_HEADER):
                raise FlowCsvError(f"row {row_no}: expected {len(FLOW_CSV_HEADER)} columns, got {len(row)}")
            (flow_id, label, packet_index, direction, timestamp,
             total_length, payload_length, tcp_flags, tcp_window) = row
            if flow_id != current_id:
                if flow_id in seen:
                    raise FlowCsvError(f"row {row_no}: flow_id {flow_id!r} rows are not contiguous")
                finish()
                seen.add(flow_id)
                current_id = flow_id
                current_label = label or None
                current_packets = []
                last_index = -1
            elif (label or None) != current_label:
                raise FlowCsvError(f"row {row_no}: label changed within flow {flow_id!r}")
            try:
                idx = int(packet_index)
            except ValueError:
                raise FlowCsvError(f"row {row_no}: bad packet_index {packet_index!r}") from None
            if idx <= last_index:
                raise FlowCsvError(f"row {row_no}: packet_index not increasing in flow {flow_id!r}")
            last_index = idx
            if direction not in _DIRECTION_TOKENS:
                raise FlowCsvError(f"row {row_no}: unknown direction token {direction!r}")
            try:
                ts = float(timestamp)
                if not math.isfinite(ts):
                    raise FlowCsvError(f"row {row_no}: non-finite timestamp {timestamp!r}")
                total, payload = int(total_length), int(payload_length)
                flags = flags_of.get(tcp_flags)
                if flags is None:
                    flags = flags_of[tcp_flags] = flags_from_token(tcp_flags)
                window = None if tcp_window == "" else int(tcp_window)
                if not (0 <= total < _CSV_FIELD_LIMIT and 0 <= payload < _CSV_FIELD_LIMIT
                        and (window is None or 0 <= window < _CSV_FIELD_LIMIT)):
                    raise FlowCsvError(
                        f"row {row_no}: total_length, payload_length and tcp_window "
                        f"must be in [0, 2**32), got {total}, {payload}, {window}")
                current_packets.append(FlowPacket(
                    timestamp=ts,
                    direction=_DIRECTION_TOKENS[direction],
                    total_length=total,
                    payload_length=payload,
                    tcp_flags=flags,
                    tcp_window=window,
                ))
            except FlowCsvError:
                raise
            except ValueError as exc:
                raise FlowCsvError(f"row {row_no}: {exc}") from None
        finish()
    return flows

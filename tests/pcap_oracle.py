"""Per-frame capture parser and per-packet flow assembly: the oracle.

``parse_pcap``, ``_parse_frame``, ``assemble_flows`` and ``_finish_segment``
are the definitions ``flowcbr.flows`` used before it decoded every frame
at once and assembled flows from packet columns, kept verbatim: one
``PacketRecord`` per packet, one ``FlowPacket`` per flow packet. The one
changes are the last line of ``_finish_segment``, which builds its Flow with
``flow_from_packets``, and the skip of IPv4 fragments past the first in
``_parse_frame``. The tests compare the columnar code with them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from flowcbr.flows import (
    DEFAULT_IDLE_TIMEOUT,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    FLOW_COLUMNS,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC_BE,
    PCAP_MAGIC_LE,
    PCAP_MAGIC_NANO,
    Direction,
    Flow,
    FlowKey,
    FlowPacket,
    InputError,
    Protocol,
    TcpFlags,
)


def flow_from_packets(packets, key=None, label=None, flow_id=None) -> Flow:
    """A Flow whose columns hold ``packets``, a sequence of FlowPackets."""
    packets = list(packets)
    rows = [(p.timestamp, p.direction == Direction.FWD, p.total_length, p.payload_length,
             int(p.tcp_flags), -1 if p.tcp_window is None else p.tcp_window)
            for p in packets]
    columns = {name: np.array([row[i] for row in rows], dtype=dtype)
               for i, (name, dtype) in enumerate(FLOW_COLUMNS.items())}
    return Flow(key=key, **columns, label=label, flow_id=flow_id)


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


@dataclass
class PcapParseResult:
    records: list[PacketRecord]
    skipped: int = 0
    truncated: int = 0


def parse_pcap(data: bytes) -> PcapParseResult:
    """Parse a classic capture file into packet records.

    Non-IPv4 and non-TCP/UDP frames are skipped and counted. A record header
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
    _, _, _, _, _, _, network = struct.unpack(endian + "IHHiIII", data[:24])
    if network != LINKTYPE_ETHERNET:
        raise InputError(f"unsupported link type {network} (only Ethernet/1)")

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
    if int.from_bytes(ip[6:8], "big") & 0x1FFF:  # a fragment past the first
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
    return (first.timestamp, segment[0][0], flow_from_packets(pkts, key=key))

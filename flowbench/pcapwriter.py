"""Classic-pcap writer for generated flows.

Each flow becomes one TCP connection with its own 5-tuple. Frames are
Ethernet/IPv4/TCP with microsecond stamps, and records of all flows are
merged into one global time order. Frames are snapped after the TCP header,
as a header-only capture would be: the IPv4 total-length field carries the
packet's real size, and the TCP data offset is chosen so that the parser
recovers the flow's payload length exactly (handshake packets get 20 bytes
of TCP options, data packets none).

The first packet of every generated flow is a bare SYN from the initiator,
so flow assembly picks the same initiator the generator used.
"""

from __future__ import annotations

import heapq
import struct

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
SNAPLEN = 128
ETH_HEADER = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
IP_HEADER_LEN = 20
PROTO_TCP = 6


def flow_endpoints(ordinal: int) -> tuple[bytes, bytes, int, int]:
    """(src ip, dst ip, src port, dst port) unique to one flow ordinal."""
    if not 0 <= ordinal < 1 << 22:
        raise ValueError("flow ordinal out of range")
    src = bytes((10, (ordinal >> 14) & 0xFF, (ordinal >> 6) & 0xFF, 1 + (ordinal & 0x3F)))
    dst = bytes((192, 168, ordinal & 0x0F, 1 + ((ordinal >> 4) & 0x0F)))
    return src, dst, 20000 + (ordinal % 40000), 443


def _frame(src: bytes, dst: bytes, sport: int, dport: int, total_length: int,
           payload_length: int, flags: int, window: int) -> bytes:
    tcp_len = total_length - IP_HEADER_LEN - payload_length
    if tcp_len < 20 or tcp_len > 60 or tcp_len % 4:
        raise ValueError(f"cannot encode total_length={total_length} "
                         f"payload_length={payload_length} as IPv4/TCP")
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total_length, 0, 0x4000, 64,
                     PROTO_TCP, 0, src, dst)
    tcp = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, (tcp_len // 4) << 4,
                      flags & 0x3F, window & 0xFFFF, 0, 0)
    options = b"\x01" * (tcp_len - 20)
    return ETH_HEADER + ip + tcp + options


def write_pcap(path, flows, starts) -> int:
    """Write ``flows`` (flowcbr Flow objects) starting at ``starts`` seconds.

    Packet timestamps are the flow's own (relative to its first packet)
    plus its start, rounded to microseconds. Returns the number of packet
    records written.
    """
    if len(flows) != len(starts):
        raise ValueError("one start time per flow")
    streams = []
    for ordinal, (flow, start) in enumerate(zip(flows, starts)):
        t0 = flow.packets[0].timestamp
        streams.append([(round((start + p.timestamp - t0) * 1e6), ordinal, i, p)
                        for i, p in enumerate(flow.packets)])
    n = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, SNAPLEN,
                             LINKTYPE_ETHERNET))
        for usec, ordinal, _, p in heapq.merge(*streams):
            src, dst, sport, dport = flow_endpoints(ordinal)
            if p.direction.value != "fwd":
                src, dst, sport, dport = dst, src, dport, sport
            window = 0 if p.tcp_window is None else p.tcp_window
            frame = _frame(src, dst, sport, dport, p.total_length,
                           p.payload_length, int(p.tcp_flags), window)
            fh.write(struct.pack("<IIII", usec // 1_000_000, usec % 1_000_000,
                                 len(frame), len(ETH_HEADER) + p.total_length))
            fh.write(frame)
            n += 1
    return n

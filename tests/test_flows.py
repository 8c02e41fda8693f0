"""Capture parsing and flow assembly tests.

The pcap bytes used here are built by hand with struct.pack, so every field
the parser reports can be checked against values worked out by hand. A
property test also compares the columnar parser and assembly with the
per-frame definitions kept verbatim in ``pcap_oracle``, on generated
captures full of the frames they must skip.
"""

import struct

import numpy as np
import pcap_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pcap_oracle import flow_from_packets

from flowcbr.features import extract_matrix
from flowcbr.flows import (
    DEFAULT_IDLE_TIMEOUT,
    FLOW_COLUMNS,
    Direction,
    Flow,
    FlowPacket,
    PacketColumns,
    InputError,
    Protocol,
    TcpFlags,
    assemble_flows,
    flags_from_token,
    flags_to_token,
    load_flows_csv,
    parse_pcap,
    save_flows_csv,
)


def ip_value(dotted):
    """An IPv4 address as the parser stores it: 10.0.0.1 is 0x0A000001."""
    return int.from_bytes(bytes(int(x) for x in dotted.split(".")), "big")


def ipv4_header(src, dst, proto, total_length, ihl_words=5, version=4, fragment=0):
    """``fragment`` is IP bytes 6-7: the flags and the offset in 8-byte units."""
    header = struct.pack(
        ">BBHHHBBH4s4s",
        (version << 4) | ihl_words,
        0,
        total_length,
        0x1234,
        fragment,
        64,
        proto,
        0,
        bytes(int(x) for x in src.split(".")),
        bytes(int(x) for x in dst.split(".")),
    )
    return header + b"\x00" * (ihl_words * 4 - 20)


def tcp_header(sport, dport, flags, window, offset_words=5):
    header = struct.pack(">HHIIBBHHH", sport, dport, 1, 0,
                         offset_words << 4, int(flags), window, 0, 0)
    return header + b"\x00" * (offset_words * 4 - 20)


def udp_header(sport, dport, udp_len):
    return struct.pack(">HHHH", sport, dport, udp_len, 0)


def ether(payload, ethertype=0x0800, tags=0):
    frame = b"\xaa" * 6 + b"\xbb" * 6
    for _ in range(tags):
        frame += struct.pack(">HH", 0x8100, 0x0064)
    return frame + struct.pack(">H", ethertype) + payload


def pcap(frames, little=True, network=1):
    endian = "<" if little else ">"
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, network)
    for ts_sec, ts_usec, frame in frames:
        out += struct.pack(endian + "IIII", ts_sec, ts_usec, len(frame), len(frame))
        out += frame
    return out


def tcp_frame(src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=443,
              flags=TcpFlags.ACK, window=8192, payload=b"", ihl_words=5,
              offset_words=5, tags=0):
    total = ihl_words * 4 + offset_words * 4 + len(payload)
    ip = ipv4_header(src, dst, 6, total, ihl_words)
    tcp = tcp_header(sport, dport, flags, window, offset_words)
    return ether(ip + tcp + payload, tags=tags)


def udp_frame(src="10.0.0.1", dst="10.0.0.2", sport=5000, dport=53,
              payload=b"", udp_len=None):
    if udp_len is None:
        udp_len = 8 + len(payload)
    total = 20 + 8 + len(payload)
    ip = ipv4_header(src, dst, 17, total)
    return ether(ip + udp_header(sport, dport, udp_len) + payload)


def test_parse_single_tcp_packet_every_field():
    data = pcap([(1000, 250000, tcp_frame(payload=b"hello", window=4096,
                                          flags=TcpFlags.PSH | TcpFlags.ACK))])
    result = parse_pcap(data)
    assert result.skipped == 0 and result.truncated == 0
    rec = result.records
    assert len(rec) == 1
    assert rec.timestamp[0] == pytest.approx(1000.25)
    assert rec.src_ip[0] == ip_value("10.0.0.1") and rec.dst_ip[0] == ip_value("10.0.0.2")
    assert rec.src_port[0] == 1234 and rec.dst_port[0] == 443
    assert rec.protocol[0] == Protocol.TCP
    # IP total: 20 + 20 + 5 payload bytes
    assert rec.total_length[0] == 45
    assert rec.payload_length[0] == 5
    assert rec.tcp_flags[0] == TcpFlags.PSH | TcpFlags.ACK
    assert rec.tcp_window[0] == 4096


def same_columns(a, b, names):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


RECORD_COLUMNS = ("timestamp", "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
                  "total_length", "payload_length", "tcp_flags", "tcp_window")


def test_parse_big_endian_equals_little_endian():
    frames = [(7, 0, tcp_frame()), (8, 0, udp_frame(payload=b"x" * 9))]
    le = parse_pcap(pcap(frames, little=True))
    be = parse_pcap(pcap(frames, little=False))
    assert len(le.records) == 2
    assert same_columns(le.records, be.records, RECORD_COLUMNS)


def test_parse_udp_packet():
    data = pcap([(5, 0, udp_frame(payload=b"q" * 30))])
    rec = parse_pcap(data).records
    assert len(rec) == 1
    assert rec.protocol[0] == Protocol.UDP
    assert rec.src_port[0] == 5000 and rec.dst_port[0] == 53
    assert rec.payload_length[0] == 30
    assert rec.tcp_window[0] == -1  # UDP carries no window
    assert rec.tcp_flags[0] == TcpFlags.NONE


def test_udp_payload_clamped_by_ip_length():
    # udp_len promises 100 payload bytes but IP total only covers 30
    data = pcap([(5, 0, udp_frame(payload=b"q" * 30, udp_len=108))])
    rec = parse_pcap(data).records
    assert len(rec) == 1
    assert rec.payload_length[0] == 30


def test_tcp_payload_accounts_for_options():
    # ihl 6 words (24 bytes) and data offset 8 words (32 bytes)
    frame = tcp_frame(payload=b"abc", ihl_words=6, offset_words=8)
    rec = parse_pcap(pcap([(1, 0, frame)])).records
    assert len(rec) == 1
    assert rec.total_length[0] == 24 + 32 + 3
    assert rec.payload_length[0] == 3


def test_vlan_tags_are_skipped():
    for tags in (1, 2):
        data = pcap([(1, 0, tcp_frame(tags=tags))])
        result = parse_pcap(data)
        assert len(result.records) == 1, f"tags={tags}"
        assert result.records.dst_port[0] == 443


def test_non_ipv4_frames_are_counted_not_raised():
    arp = ether(b"\x00" * 28, ethertype=0x0806)
    data = pcap([(1, 0, arp), (2, 0, tcp_frame())])
    result = parse_pcap(data)
    assert result.skipped == 1
    assert len(result.records) == 1


def test_fragments_past_the_first_are_skipped():
    """One TCP segment in two IPv4 fragments. The first (MF set, offset 0)
    holds the TCP header and is kept; the second (offset 6, 48 bytes on)
    holds payload bytes only, so it is counted as skipped and makes no
    flow of its own, although its first bytes would decode as ports."""
    more_fragments = 0x2000
    tcp = tcp_header(1234, 80, TcpFlags.PSH | TcpFlags.ACK, 8192) + b"x" * 28
    rest = b"\xde\xad\xbe\xef" + b"\x50" * 8 + b"\x50\x10\x50\x50" + b"\x00" * 4
    first = ether(ipv4_header("10.0.0.1", "10.0.0.2", 6, 20 + len(tcp),
                              fragment=more_fragments) + tcp)
    second = ether(ipv4_header("10.0.0.1", "10.0.0.2", 6, 20 + len(rest), fragment=6) + rest)
    result = parse_pcap(pcap([(1, 0, first), (1, 10, second)]))
    assert (len(result.records), result.skipped, result.truncated) == (1, 1, 0)
    flows = assemble_flows(result.records)
    assert len(flows) == 1
    assert (flows[0].key.src_port, flows[0].key.dst_port) == (1234, 80)


def test_icmp_is_skipped():
    ip = ipv4_header("10.0.0.1", "10.0.0.2", 1, 28) + b"\x00" * 8
    result = parse_pcap(pcap([(1, 0, ether(ip))]))
    assert result.skipped == 1 and len(result.records) == 0


def test_truncated_record_stops_parsing():
    good = pcap([(1, 0, tcp_frame())])
    bad = good + struct.pack("<IIII", 2, 0, 500, 500) + b"\x00" * 10
    result = parse_pcap(bad)
    assert len(result.records) == 1
    assert result.truncated == 1


def test_bad_magic_rejected():
    with pytest.raises(InputError):
        parse_pcap(b"\x00\x01\x02\x03" + b"\x00" * 40)


def test_nanosecond_magic_rejected():
    for magic in (b"\xa1\xb2\x3c\x4d", b"\x4d\x3c\xb2\xa1"):
        with pytest.raises(InputError):
            parse_pcap(magic + b"\x00" * 40)


def test_short_global_header_rejected():
    with pytest.raises(InputError):
        parse_pcap(b"\xd4\xc3\xb2\xa1\x00\x00")


def test_non_ethernet_link_type_rejected():
    with pytest.raises(InputError):
        parse_pcap(pcap([], network=101))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048))
def test_parser_total_on_arbitrary_bytes(blob):
    """Garbage in, InputError or a result out. Never anything else."""
    try:
        result = parse_pcap(blob)
    except InputError:
        return
    assert result.skipped >= 0 and result.truncated >= 0


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_parser_total_on_corrupted_valid_prefix(tail):
    blob = pcap([(1, 0, tcp_frame())]) + tail
    try:
        parse_pcap(blob)
    except InputError:
        pass


CONNECTIONS = [(("10.0.0.1", 1234), ("10.0.0.2", 443)),
               (("10.0.0.2", 443), ("10.0.0.10", 443)),
               (("192.168.7.9", 5000), ("192.168.7.9", 5000))]
FLAG_CHOICES = [TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.ACK,
                TcpFlags.PSH | TcpFlags.ACK, TcpFlags.FIN | TcpFlags.ACK, TcpFlags.RST,
                TcpFlags.NONE]
# Most frames are valid TCP or UDP; the rest break one rule each.
FAULTS = [None] * 10 + ["short", "bytes", "ethertype", "version", "ihl", "ip-options",
                        "protocol", "tcp-offset", "tcp-options", "udp-length", "total",
                        "cut", "cut-tag", "fragment"]


@st.composite
def capture_frame(draw):
    """One frame of any kind the parser must decode or skip.

    Endpoints come from three connections, one of them talking to itself,
    in either direction. A fault, if drawn, sets a header field past its
    valid range, cuts the frame anywhere (inside a VLAN tag too), replaces
    the frame with bytes that are no Ethernet frame at all, or sets the IP
    fragment flags and offset to any value (offset 0 is a first fragment).
    """
    fault = draw(st.sampled_from(FAULTS))
    if fault == "short":
        return draw(st.binary(max_size=13))
    if fault == "bytes":
        return draw(st.binary(max_size=80))
    (src, sport), (dst, dport) = draw(st.sampled_from(CONNECTIONS))
    if draw(st.booleans()):
        (src, sport), (dst, dport) = (dst, dport), (src, sport)
    payload = draw(st.binary(max_size=24))
    if draw(st.integers(0, 3)) > 0:
        flags = draw(st.sampled_from(FLAG_CHOICES) | st.integers(0, 255))
        offset_words = {"tcp-offset": draw(st.integers(0, 4)),
                        "tcp-options": draw(st.integers(6, 15))}.get(fault, 5)
        window = draw(st.integers(0, 0xFFFF))
        l4, proto = tcp_header(sport, dport, flags, window, offset_words) + payload, 6
    else:
        udp_len = draw(st.integers(0, 7)) if fault == "udp-length" else 8 + len(payload)
        l4, proto = udp_header(sport, dport, udp_len) + payload, 17
    if fault == "protocol":
        proto = draw(st.sampled_from([0, 1, 47, 58, 132]))
    ihl_words = {"ihl": draw(st.integers(0, 4)), "ip-options": draw(st.integers(6, 15))}.get(
        fault, 5)
    version = draw(st.sampled_from([0, 6, 15])) if fault == "version" else 4
    total = max(20, ihl_words * 4) + len(l4)
    if fault == "total":
        total = draw(st.integers(0, 0xFFFF))
    ethertype = draw(st.sampled_from([0x86DD, 0x0806, 0x8100])) if fault == "ethertype" else 0x0800
    tags = draw(st.sampled_from([0, 0, 1, 2, 3]))
    fragment = draw(st.integers(0, 0xFFFF)) if fault == "fragment" else 0
    frame = ether(ipv4_header(src, dst, proto, total, ihl_words, version, fragment) + l4,
                  ethertype, tags)
    if fault == "cut":
        frame = frame[:draw(st.integers(0, len(frame)))]
    elif fault == "cut-tag":
        frame = frame[:12 + 4 * draw(st.integers(0, tags)) + draw(st.integers(0, 5))]
    return frame


@st.composite
def capture(draw):
    """(pcap bytes, idle timeout): frames on a half-second grid, so gaps of
    exactly the timeout occur, and an optional cut record at the end."""
    little = draw(st.booleans())
    endian = "<" if little else ">"
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for _ in range(draw(st.integers(0, 25))):
        frame = draw(capture_frame())
        ts_sec = draw(st.integers(0, 2))
        ts_usec = draw(st.sampled_from([0, 0, 500000, 250000, 999999, None]))
        if ts_usec is None:
            ts_usec = draw(st.integers(0, 2 ** 32 - 1))
        out += struct.pack(endian + "IIII", ts_sec, ts_usec, len(frame), len(frame)) + frame
    tail = draw(st.sampled_from(["none", "header", "frame"]))
    if tail == "header":
        out += draw(st.binary(min_size=1, max_size=15))
    elif tail == "frame":
        body = draw(st.binary(max_size=30))
        out += struct.pack(endian + "IIII", 9, 0, len(body) + 1, 60) + body
    return out, draw(st.sampled_from([0.5, 1.0, DEFAULT_IDLE_TIMEOUT]))


def dotted(value):
    return ".".join(str(b) for b in int(value).to_bytes(4, "big"))


def walk_edges():
    """Captures whose record walk ends at each of its edges, in both byte
    orders: exactly at a record end, after a zero-length last record,
    inside a record header cut after 1-15 bytes, inside a frame one byte
    short, and at a record whose incl_len is 2**32 - 1."""
    for little in (True, False):
        endian = "<" if little else ">"
        whole = pcap([(1, 0, tcp_frame()), (2, 500000, udp_frame())], little)
        frame = tcp_frame(sport=4321)
        header = struct.pack(endian + "IIII", 3, 0, len(frame), len(frame))
        yield whole
        yield whole + struct.pack(endian + "IIII", 3, 0, 0, 0)
        for cut in range(1, 16):
            yield whole + header[:cut]
        yield whole + header + frame[:-1]
        yield whole + struct.pack(endian + "IIII", 3, 0, 2 ** 32 - 1, len(frame)) + frame


def with_walk_edges(test):
    """``test`` with every capture of ``walk_edges`` as an explicit example."""
    for data in walk_edges():
        test = example((data, DEFAULT_IDLE_TIMEOUT))(test)
    return test


@settings(deadline=None)
@given(capture())
@with_walk_edges
def test_columns_match_per_frame_oracle(case):
    """Parsing and assembly agree with the per-frame oracle on every field,
    count, flow id, key, packet column and direction, on generated
    captures and on every edge of the record walk."""
    data, idle_timeout = case
    want = pcap_oracle.parse_pcap(data)
    got = parse_pcap(data)
    assert (got.skipped, got.truncated) == (want.skipped, want.truncated)
    assert len(got.records) == len(want.records)
    r = got.records
    for i, w in enumerate(want.records):
        assert (r.timestamp[i], dotted(r.src_ip[i]), dotted(r.dst_ip[i]), r.src_port[i],
                r.dst_port[i], r.protocol[i], r.total_length[i], r.payload_length[i],
                r.tcp_flags[i], r.tcp_window[i]) == (
            w.timestamp, w.src_ip, w.dst_ip, w.src_port, w.dst_port, w.protocol,
            w.total_length, w.payload_length, w.tcp_flags,
            -1 if w.tcp_window is None else w.tcp_window)

    want_flows = pcap_oracle.assemble_flows(want.records, idle_timeout)
    got_flows = assemble_flows(got.records, idle_timeout)
    assert [f.flow_id for f in got_flows] == [f.flow_id for f in want_flows]
    for g, w in zip(got_flows, want_flows):
        assert g.key == w.key
        assert same_columns(g, w, FLOW_COLUMNS)
        assert g.packets == w.packets


def test_tcp_and_udp_on_the_same_ports_are_two_flows():
    """A TCP and a UDP connection between the same two endpoints, their
    packets interleaved at equal timestamps, the UDP one first in the
    capture, and one packet of each captured after later ones: the sort on
    (protocol and lower endpoint, higher endpoint, timestamp) gives two
    flows, in the order and with the ids, keys and packet order of the
    per-frame oracle."""
    a, b = ("10.0.0.9", 5000), ("10.0.0.2", 443)

    def frame(proto, src, dst, flags=TcpFlags.ACK, payload=b""):
        if proto is Protocol.UDP:
            return udp_frame(src[0], dst[0], src[1], dst[1], payload=payload)
        return tcp_frame(src[0], dst[0], src[1], dst[1], flags=flags, payload=payload)

    frames = [(1, 0, frame(Protocol.UDP, a, b, payload=b"u1")),
              (1, 0, frame(Protocol.TCP, a, b, flags=TcpFlags.SYN)),
              (1, 0, frame(Protocol.UDP, b, a, payload=b"u22")),
              (1, 0, frame(Protocol.TCP, b, a, flags=TcpFlags.SYN | TcpFlags.ACK)),
              (1, 0, frame(Protocol.UDP, a, b, payload=b"u333")),
              (1, 500_000, frame(Protocol.TCP, a, b, payload=b"t1")),
              (1, 500_000, frame(Protocol.UDP, b, a)),
              (1, 200_000, frame(Protocol.TCP, a, b, payload=b"t22")),
              (0, 900_000, frame(Protocol.UDP, a, b, payload=b"u55555"))]
    data = pcap(frames)
    got = assemble_flows(parse_pcap(data).records)
    want = pcap_oracle.assemble_flows(pcap_oracle.parse_pcap(data).records)
    assert [f.flow_id for f in got] == [f.flow_id for f in want] == ["f000000", "f000001"]
    assert [g.key for g in got] == [w.key for w in want] == [
        ("10.0.0.9", "10.0.0.2", Protocol.UDP, 5000, 443),
        ("10.0.0.9", "10.0.0.2", Protocol.TCP, 5000, 443)]
    assert all(g.key.protocol is w.key.protocol for g, w in zip(got, want))
    for g, w in zip(got, want):
        assert same_columns(g, w, FLOW_COLUMNS)
        assert g.packets == w.packets
    assert [p.payload_length for p in got[0].packets] == [6, 2, 3, 4, 0]
    assert [p.direction for p in got[0].packets] == [
        Direction.FWD, Direction.FWD, Direction.BWD, Direction.FWD, Direction.BWD]
    assert [p.payload_length for p in got[1].packets] == [0, 0, 3, 2]
    assert [p.tcp_flags for p in got[1].packets] == [
        TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.ACK, TcpFlags.ACK]
    assert [p.timestamp for p in got[1].packets] == [1.0, 1.0, 1.2, 1.5]


def rec(ts, src, dst, sport, dport, flags=TcpFlags.ACK, proto=Protocol.TCP):
    """One packet as a tuple of RECORD_COLUMNS values."""
    return (ts, ip_value(src), ip_value(dst), sport, dport, proto, 60, 0, flags, 1024)


def records(packets):
    """PacketColumns holding ``packets``, tuples from ``rec``."""
    values = list(zip(*packets)) or [()] * len(RECORD_COLUMNS)
    dtypes = [np.float64, np.uint32, np.uint32] + [np.int64] * 7
    return PacketColumns(*(np.array(v, dtype=d) for v, d in zip(values, dtypes)))


def test_assemble_groups_both_directions():
    packets = [
        rec(1.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(1.1, "10.0.0.2", "10.0.0.1", 443, 1234),
        rec(1.2, "10.0.0.1", "10.0.0.2", 1234, 443),
    ]
    (flow,) = assemble_flows(records(packets))
    assert [p.direction for p in flow.packets] == [Direction.FWD, Direction.BWD, Direction.FWD]
    assert flow.key.src_ip == "10.0.0.1"
    assert flow.flow_id == "f000000"


def test_assemble_syn_overrides_first_sender():
    """A reordered capture may show the server's reply first; the bare SYN
    still identifies the client as initiator."""
    packets = [
        rec(1.0, "10.0.0.2", "10.0.0.1", 443, 1234, flags=TcpFlags.SYN | TcpFlags.ACK),
        rec(1.01, "10.0.0.1", "10.0.0.2", 1234, 443, flags=TcpFlags.SYN),
        rec(1.02, "10.0.0.1", "10.0.0.2", 1234, 443),
    ]
    (flow,) = assemble_flows(records(packets))
    assert flow.key.src_ip == "10.0.0.1" and flow.key.src_port == 1234
    assert [p.direction for p in flow.packets] == [Direction.BWD, Direction.FWD, Direction.FWD]


def test_assemble_udp_initiator_is_first_sender():
    packets = [
        rec(2.0, "10.0.0.9", "10.0.0.8", 5000, 53, proto=Protocol.UDP),
        rec(2.1, "10.0.0.8", "10.0.0.9", 53, 5000, proto=Protocol.UDP),
    ]
    (flow,) = assemble_flows(records(packets))
    assert flow.key.src_ip == "10.0.0.9"
    assert flow.packets[1].direction == Direction.BWD


def test_assemble_idle_timeout_splits():
    packets = [
        rec(0.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(10.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(10.0 + DEFAULT_IDLE_TIMEOUT, "10.0.0.1", "10.0.0.2", 1234, 443),
    ]
    flows = assemble_flows(records(packets))
    assert [len(f.packets) for f in flows] == [2, 1]
    # a gap just under the timeout keeps one flow
    flows = assemble_flows(records(packets), idle_timeout=DEFAULT_IDLE_TIMEOUT + 0.001)
    assert len(flows) == 1


def test_assemble_sorts_flows_by_first_timestamp():
    packets = [
        rec(5.0, "10.0.0.3", "10.0.0.4", 1111, 80),
        rec(1.0, "10.0.0.1", "10.0.0.2", 2222, 80),
    ]
    flows = assemble_flows(records(packets))
    assert [f.packets[0].timestamp for f in flows] == [1.0, 5.0]
    assert [f.flow_id for f in flows] == ["f000000", "f000001"]


def test_assemble_rejects_bad_timeout():
    with pytest.raises(ValueError):
        assemble_flows(records([]), idle_timeout=0.0)


def test_flow_requires_packets():
    with pytest.raises(ValueError):
        Flow(key=None, **{name: np.zeros(0, dtype=d) for name, d in FLOW_COLUMNS.items()})


def make_flow(n, label=None, flow_id="f0"):
    pkts = tuple(
        FlowPacket(float(i), Direction.FWD if i % 2 == 0 else Direction.BWD,
                   60 + i, i, TcpFlags.ACK, 1000 + i)
        for i in range(n)
    )
    return flow_from_packets(pkts, label=label, flow_id=flow_id)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_truncate_is_prefix(n, keep):
    """A flow cut to ``keep`` packets extracts as the flow of its first
    ``keep`` packets, and the cut leaves the flow itself whole."""
    flow = make_flow(n, label="web")
    prefix = flow_from_packets(flow.packets[:keep], label=flow.label, flow_id=flow.flow_id)
    got = extract_matrix([flow], keep)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  extract_matrix([prefix]).view(np.uint64))
    assert flow.timestamp.size == n


def test_truncate_rejects_zero():
    with pytest.raises(ValueError):
        extract_matrix([make_flow(3)], 0)


def test_flags_token_round_trip():
    for flags in (TcpFlags.NONE, TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK,
                  TcpFlags.FIN | TcpFlags.PSH | TcpFlags.ACK):
        assert flags_from_token(flags_to_token(flags)) == flags
    with pytest.raises(InputError):
        flags_from_token("SYN|WAT")


def test_flow_csv_round_trip(tmp_path):
    flows = [make_flow(4, label="web", flow_id="f000000"),
             make_flow(2, label=None, flow_id="f000001")]
    path = tmp_path / "flows.csv"
    save_flows_csv(flows, path)
    loaded = load_flows_csv(path)
    assert len(loaded) == 2
    for orig, back in zip(flows, loaded):
        assert back.key is None
        assert back.flow_id == orig.flow_id
        assert back.label == orig.label
        assert back.packets == orig.packets


def test_flow_csv_timestamps_survive_exactly(tmp_path):
    pkts = (FlowPacket(1699999999.123456789, Direction.FWD, 60, 0),)
    path = tmp_path / "one.csv"
    save_flows_csv([flow_from_packets(pkts, flow_id="f0")], path)
    (back,) = load_flows_csv(path)
    assert back.packets[0].timestamp == pkts[0].timestamp


def write_rows(path, rows, header=None):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header or ["flow_id", "label", "packet_index", "direction",
                              "timestamp", "total_length", "payload_length",
                              "tcp_flags", "tcp_window"])
        w.writerows(rows)


def test_flow_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, [], header=["a", "b"])
    with pytest.raises(InputError, match="header"):
        load_flows_csv(path)


def test_flow_csv_rejects_split_flow_groups(tmp_path):
    path = tmp_path / "split.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f1", "", 0, "out", "2.0", 60, 0, "", ""],
        ["f0", "", 1, "out", "3.0", 60, 0, "", ""],
    ])
    with pytest.raises(InputError, match="contiguous"):
        load_flows_csv(path)


def test_flow_csv_rejects_label_change(tmp_path):
    path = tmp_path / "label.csv"
    write_rows(path, [
        ["f0", "a", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "b", 1, "out", "2.0", 60, 0, "", ""],
    ])
    with pytest.raises(InputError, match="label"):
        load_flows_csv(path)


def test_flow_csv_rejects_non_increasing_index(tmp_path):
    path = tmp_path / "idx.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 0, "in", "2.0", 60, 0, "", ""],
    ])
    with pytest.raises(InputError, match="increasing"):
        load_flows_csv(path)


def test_flow_csv_rejects_unknown_direction(tmp_path):
    path = tmp_path / "dir.csv"
    write_rows(path, [["f0", "", 0, "sideways", "1.0", 60, 0, "", ""]])
    with pytest.raises(InputError, match="direction"):
        load_flows_csv(path)


def test_flow_csv_reports_row_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 1, "out", "not-a-float", 60, 0, "", ""],
    ])
    with pytest.raises(InputError, match="row 3"):
        load_flows_csv(path)


@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e400"])
def test_flow_csv_rejects_non_finite_timestamps(tmp_path, stamp):
    path = tmp_path / "ts.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 1, "out", stamp, 60, 0, "", ""],
    ])
    with pytest.raises(InputError, match=f"row 3: non-finite timestamp '{stamp}'"):
        load_flows_csv(path)


def test_flow_csv_flag_tokens_parse_per_row(tmp_path):
    """Repeated flag tokens map to the same flags; an unknown one still fails."""
    path = tmp_path / "flags.csv"
    rows = [["f0", "", i, "out", f"{i}.0", 60, 0, token, ""]
            for i, token in enumerate(["SYN", "ACK", "SYN", "", "PSH|ACK", "ACK"])]
    write_rows(path, rows)
    flags = [p.tcp_flags for p in load_flows_csv(path)[0].packets]
    assert flags == [TcpFlags.SYN, TcpFlags.ACK, TcpFlags.SYN, TcpFlags.NONE,
                     TcpFlags.PSH | TcpFlags.ACK, TcpFlags.ACK]
    write_rows(path, rows + [["f0", "", 9, "out", "9.0", 60, 0, "ACK|URG", ""]])
    with pytest.raises(InputError, match="row 8: unknown TCP flag token: 'URG'"):
        load_flows_csv(path)


def test_flow_csv_reader_errors_are_flow_csv_errors(tmp_path):
    """A field the csv module refuses (longer than its field size limit) or
    bytes that are not text are schema errors, not crashes."""
    path = tmp_path / "long.csv"
    write_rows(path, [["f" * 200_000, "", 0, "out", "1.0", 60, 0, "", ""]])
    with pytest.raises(InputError, match="line 2: field larger than field limit"):
        load_flows_csv(path)
    write_rows(path, [])
    path.write_bytes(path.read_bytes() + b"f0,,0,out,1.0,60,0,,\xff\n")
    with pytest.raises(InputError, match="not a text file"):
        load_flows_csv(path)


@pytest.mark.parametrize("field,value", [(5, "-1"), (6, "-3"), (8, "-5"),
                                         (5, str(2 ** 32)), (8, "99999999999999999999")])
def test_flow_csv_rejects_out_of_range_integers(tmp_path, field, value):
    row = ["f0", "", 1, "out", "1.0", 60, 0, "", 1024]
    row[field] = value
    path = tmp_path / "range.csv"
    write_rows(path, [["f0", "", 0, "out", "0.5", 60, 0, "", ""], row])
    with pytest.raises(InputError, match=r"row 3: .* must be in \[0, 2\*\*32\)"):
        load_flows_csv(path)


def test_parse_pcap_allocates_under_220_bytes_a_record(traced_peak):
    """A capture of 32 725 TCP, UDP and VLAN-tagged records parses with
    under 220 bytes a record allocated at the peak, the output columns
    included: record headers and header fields are gathered from windows
    of the capture's bytes, with no (records x 16) index and no
    temporaries per byte."""
    frames = [tcp_frame(), udp_frame(), tcp_frame(tags=1),
              tcp_frame(payload=b"x" * 40, offset_words=6)]
    n = 32_725
    data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1) + b"".join(
        struct.pack("<IIII", i // 1000, i % 1000, len(f), len(f)) + f
        for i, f in ((i, frames[i % len(frames)]) for i in range(n)))
    result, peak = traced_peak(parse_pcap, data)
    assert len(result.records) == n and result.skipped == 0
    assert result.records.payload_length[3::4].tolist() == [40] * (n // 4)
    assert peak < 220 * n, peak / n

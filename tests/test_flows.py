"""Capture parsing and flow assembly tests.

The pcap bytes used here are built by hand with struct.pack, so every field
the parser reports can be checked against values worked out by hand.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcbr.flows import (
    DEFAULT_IDLE_TIMEOUT,
    Direction,
    Flow,
    FlowCsvError,
    FlowKey,
    FlowPacket,
    PacketRecord,
    PcapFormatError,
    Protocol,
    TcpFlags,
    assemble_flows,
    flags_from_token,
    flags_to_token,
    load_flows_csv,
    parse_pcap,
    save_flows_csv,
    truncate_flow,
)


def ipv4_header(src, dst, proto, total_length, ihl_words=5):
    header = struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | ihl_words,
        0,
        total_length,
        0x1234,
        0,
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
    (rec,) = result.records
    assert rec.timestamp == pytest.approx(1000.25)
    assert rec.src_ip == "10.0.0.1" and rec.dst_ip == "10.0.0.2"
    assert rec.src_port == 1234 and rec.dst_port == 443
    assert rec.protocol == Protocol.TCP
    # IP total: 20 + 20 + 5 payload bytes
    assert rec.total_length == 45
    assert rec.payload_length == 5
    assert rec.tcp_flags == TcpFlags.PSH | TcpFlags.ACK
    assert rec.tcp_window == 4096


def test_parse_big_endian_equals_little_endian():
    frames = [(7, 0, tcp_frame()), (8, 0, udp_frame(payload=b"x" * 9))]
    le = parse_pcap(pcap(frames, little=True))
    be = parse_pcap(pcap(frames, little=False))
    assert le.records == be.records


def test_parse_udp_packet():
    data = pcap([(5, 0, udp_frame(payload=b"q" * 30))])
    (rec,) = parse_pcap(data).records
    assert rec.protocol == Protocol.UDP
    assert rec.src_port == 5000 and rec.dst_port == 53
    assert rec.payload_length == 30
    assert rec.tcp_window is None
    assert rec.tcp_flags == TcpFlags.NONE


def test_udp_payload_clamped_by_ip_length():
    # udp_len promises 100 payload bytes but IP total only covers 30
    data = pcap([(5, 0, udp_frame(payload=b"q" * 30, udp_len=108))])
    (rec,) = parse_pcap(data).records
    assert rec.payload_length == 30


def test_tcp_payload_accounts_for_options():
    # ihl 6 words (24 bytes) and data offset 8 words (32 bytes)
    frame = tcp_frame(payload=b"abc", ihl_words=6, offset_words=8)
    (rec,) = parse_pcap(pcap([(1, 0, frame)])).records
    assert rec.total_length == 24 + 32 + 3
    assert rec.payload_length == 3


def test_vlan_tags_are_skipped():
    for tags in (1, 2):
        data = pcap([(1, 0, tcp_frame(tags=tags))])
        result = parse_pcap(data)
        assert len(result.records) == 1, f"tags={tags}"
        assert result.records[0].dst_port == 443


def test_non_ipv4_frames_are_counted_not_raised():
    arp = ether(b"\x00" * 28, ethertype=0x0806)
    data = pcap([(1, 0, arp), (2, 0, tcp_frame())])
    result = parse_pcap(data)
    assert result.skipped == 1
    assert len(result.records) == 1


def test_icmp_is_skipped():
    ip = ipv4_header("10.0.0.1", "10.0.0.2", 1, 28) + b"\x00" * 8
    result = parse_pcap(pcap([(1, 0, ether(ip))]))
    assert result.skipped == 1 and not result.records


def test_truncated_record_stops_parsing():
    good = pcap([(1, 0, tcp_frame())])
    bad = good + struct.pack("<IIII", 2, 0, 500, 500) + b"\x00" * 10
    result = parse_pcap(bad)
    assert len(result.records) == 1
    assert result.truncated == 1


def test_bad_magic_rejected():
    with pytest.raises(PcapFormatError):
        parse_pcap(b"\x00\x01\x02\x03" + b"\x00" * 40)


def test_nanosecond_magic_rejected():
    for magic in (b"\xa1\xb2\x3c\x4d", b"\x4d\x3c\xb2\xa1"):
        with pytest.raises(PcapFormatError):
            parse_pcap(magic + b"\x00" * 40)


def test_short_global_header_rejected():
    with pytest.raises(PcapFormatError):
        parse_pcap(b"\xd4\xc3\xb2\xa1\x00\x00")


def test_non_ethernet_link_type_rejected():
    with pytest.raises(PcapFormatError):
        parse_pcap(pcap([], network=101))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048))
def test_parser_total_on_arbitrary_bytes(blob):
    """Garbage in, PcapFormatError or a result out. Never anything else."""
    try:
        result = parse_pcap(blob)
    except PcapFormatError:
        return
    assert result.skipped >= 0 and result.truncated >= 0


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=512))
def test_parser_total_on_corrupted_valid_prefix(tail):
    blob = pcap([(1, 0, tcp_frame())]) + tail
    try:
        parse_pcap(blob)
    except PcapFormatError:
        pass


def test_flow_key_symmetric():
    k1 = FlowKey("10.0.0.1", "10.0.0.2", Protocol.TCP, 1234, 443)
    k2 = k1.reversed()
    assert k1 == k2
    assert hash(k1) == hash(k2)
    assert k1 != FlowKey("10.0.0.1", "10.0.0.2", Protocol.UDP, 1234, 443)
    assert k1 != FlowKey("10.0.0.1", "10.0.0.2", Protocol.TCP, 1234, 444)


def rec(ts, src, dst, sport, dport, flags=TcpFlags.ACK, proto=Protocol.TCP):
    return PacketRecord(ts, src, dst, sport, dport, proto, 60, 0, flags, 1024)


def test_assemble_groups_both_directions():
    packets = [
        rec(1.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(1.1, "10.0.0.2", "10.0.0.1", 443, 1234),
        rec(1.2, "10.0.0.1", "10.0.0.2", 1234, 443),
    ]
    (flow,) = assemble_flows(packets)
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
    (flow,) = assemble_flows(packets)
    assert flow.key.src_ip == "10.0.0.1" and flow.key.src_port == 1234
    assert [p.direction for p in flow.packets] == [Direction.BWD, Direction.FWD, Direction.FWD]


def test_assemble_udp_initiator_is_first_sender():
    packets = [
        rec(2.0, "10.0.0.9", "10.0.0.8", 5000, 53, proto=Protocol.UDP),
        rec(2.1, "10.0.0.8", "10.0.0.9", 53, 5000, proto=Protocol.UDP),
    ]
    (flow,) = assemble_flows(packets)
    assert flow.key.src_ip == "10.0.0.9"
    assert flow.packets[1].direction == Direction.BWD


def test_assemble_idle_timeout_splits():
    packets = [
        rec(0.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(10.0, "10.0.0.1", "10.0.0.2", 1234, 443),
        rec(10.0 + DEFAULT_IDLE_TIMEOUT, "10.0.0.1", "10.0.0.2", 1234, 443),
    ]
    flows = assemble_flows(packets)
    assert [len(f.packets) for f in flows] == [2, 1]
    # a gap just under the timeout keeps one flow
    flows = assemble_flows(packets, idle_timeout=DEFAULT_IDLE_TIMEOUT + 0.001)
    assert len(flows) == 1


def test_assemble_sorts_flows_by_first_timestamp():
    packets = [
        rec(5.0, "10.0.0.3", "10.0.0.4", 1111, 80),
        rec(1.0, "10.0.0.1", "10.0.0.2", 2222, 80),
    ]
    flows = assemble_flows(packets)
    assert [f.packets[0].timestamp for f in flows] == [1.0, 5.0]
    assert [f.flow_id for f in flows] == ["f000000", "f000001"]


def test_assemble_rejects_bad_timeout():
    with pytest.raises(ValueError):
        assemble_flows([], idle_timeout=0.0)


def test_flow_requires_packets():
    with pytest.raises(ValueError):
        Flow(key=None, packets=())


def make_flow(n, label=None, flow_id="f0"):
    pkts = tuple(
        FlowPacket(float(i), Direction.FWD if i % 2 == 0 else Direction.BWD,
                   60 + i, i, TcpFlags.ACK, 1000 + i)
        for i in range(n)
    )
    return Flow(key=None, packets=pkts, label=label, flow_id=flow_id)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_truncate_is_prefix(n, keep):
    flow = make_flow(n)
    cut = truncate_flow(flow, keep)
    assert cut.packets == flow.packets[:keep]
    assert cut.label == flow.label and cut.flow_id == flow.flow_id


def test_truncate_rejects_zero():
    with pytest.raises(ValueError):
        truncate_flow(make_flow(3), 0)


def test_flags_token_round_trip():
    for flags in (TcpFlags.NONE, TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK,
                  TcpFlags.FIN | TcpFlags.PSH | TcpFlags.ACK):
        assert flags_from_token(flags_to_token(flags)) == flags
    with pytest.raises(FlowCsvError):
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
    save_flows_csv([Flow(key=None, packets=pkts, flow_id="f0")], path)
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
    with pytest.raises(FlowCsvError, match="header"):
        load_flows_csv(path)


def test_flow_csv_rejects_split_flow_groups(tmp_path):
    path = tmp_path / "split.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f1", "", 0, "out", "2.0", 60, 0, "", ""],
        ["f0", "", 1, "out", "3.0", 60, 0, "", ""],
    ])
    with pytest.raises(FlowCsvError, match="contiguous"):
        load_flows_csv(path)


def test_flow_csv_rejects_label_change(tmp_path):
    path = tmp_path / "label.csv"
    write_rows(path, [
        ["f0", "a", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "b", 1, "out", "2.0", 60, 0, "", ""],
    ])
    with pytest.raises(FlowCsvError, match="label"):
        load_flows_csv(path)


def test_flow_csv_rejects_non_increasing_index(tmp_path):
    path = tmp_path / "idx.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 0, "in", "2.0", 60, 0, "", ""],
    ])
    with pytest.raises(FlowCsvError, match="increasing"):
        load_flows_csv(path)


def test_flow_csv_rejects_unknown_direction(tmp_path):
    path = tmp_path / "dir.csv"
    write_rows(path, [["f0", "", 0, "sideways", "1.0", 60, 0, "", ""]])
    with pytest.raises(FlowCsvError, match="direction"):
        load_flows_csv(path)


def test_flow_csv_reports_row_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 1, "out", "not-a-float", 60, 0, "", ""],
    ])
    with pytest.raises(FlowCsvError, match="row 3"):
        load_flows_csv(path)


@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e400"])
def test_flow_csv_rejects_non_finite_timestamps(tmp_path, stamp):
    path = tmp_path / "ts.csv"
    write_rows(path, [
        ["f0", "", 0, "out", "1.0", 60, 0, "", ""],
        ["f0", "", 1, "out", stamp, 60, 0, "", ""],
    ])
    with pytest.raises(FlowCsvError, match=f"row 3: non-finite timestamp '{stamp}'"):
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
    with pytest.raises(FlowCsvError, match="unknown TCP flag token: 'URG'"):
        load_flows_csv(path)


@pytest.mark.parametrize("field,value", [(5, "-1"), (6, "-3"), (8, "-5"),
                                         (5, str(2 ** 32)), (8, "99999999999999999999")])
def test_flow_csv_rejects_out_of_range_integers(tmp_path, field, value):
    row = ["f0", "", 1, "out", "1.0", 60, 0, "", 1024]
    row[field] = value
    path = tmp_path / "range.csv"
    write_rows(path, [["f0", "", 0, "out", "0.5", 60, 0, "", ""], row])
    with pytest.raises(FlowCsvError, match=r"row 3: .* must be in \[0, 2\*\*32\)"):
        load_flows_csv(path)

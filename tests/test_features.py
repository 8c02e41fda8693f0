"""Feature extraction tests.

Each group's slots of an ``extract_matrix`` row are checked against values
computed by hand on tiny flows, the spectrum slots against a naive O(n^2)
DFT written independently of numpy's FFT, and whole batches bit for bit
against the per-flow extractors kept in ``feature_oracle``.
"""

import itertools
import json

import feature_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pcap_oracle import flow_from_packets

from flowcbr.features import (
    GROUPS,
    N_SPECTRUM,
    WIDTH,
    Normalizer,
    extract_matrix,
    fit_normalizer,
    load_matrix_csv,
    save_matrix_csv,
)
from flowcbr.flows import (FLOW_COLUMNS, Direction, Flow, FlowPacket, InputError, TcpFlags,
                           load_flows_csv, save_flows_csv)
from flowcbr.harness import PipelineConfig
from flowcbr.model import fit_model, load_model, save_model

F = Direction.FWD
B = Direction.BWD


def flow(spec, flow_id="f0", label=None):
    """Build a flow from (timestamp, direction, total, payload, flags, window)
    tuples; trailing tuple items may be omitted."""
    pkts = []
    for item in spec:
        ts, d, total = item[:3]
        payload = item[3] if len(item) > 3 else 0
        flags = item[4] if len(item) > 4 else TcpFlags.NONE
        window = item[5] if len(item) > 5 else None
        pkts.append(FlowPacket(float(ts), d, total, payload, flags, window))
    return flow_from_packets(pkts, label=label, flow_id=flow_id)


def slots(group, f):
    """The slots of ``group`` in f's feature vector, at its GROUPS offset."""
    start = 0
    for name, width, _ in GROUPS:
        if name == group:
            return extract_matrix([f])[0][start:start + width]
        start += width
    raise KeyError(group)


def test_schema_widths():
    widths = tuple(w for _, w, _ in GROUPS)
    assert widths == (3, 30, 20, 20, 4, 2, 2, 9, 1, 1, 1, 90)
    assert WIDTH == 183


def test_bits_per_peak_hand_case():
    # backward runs: 200+300 = 500 bytes, then 400 bytes
    f = flow([(0, F, 100), (1, B, 200), (2, B, 300), (3, F, 150), (4, B, 400)])
    assert slots("bits_per_peak", f).tolist() == [500 * 8.0, 400 * 8.0, 0.0]


def test_bits_per_peak_no_backward_traffic():
    f = flow([(0, F, 100), (1, F, 200)])
    assert slots("bits_per_peak", f).tolist() == [0.0, 0.0, 0.0]


def test_first_packet_sizes_signed_and_padded():
    f = flow([(0, F, 100), (1, B, 200), (2, F, 50)])
    vec = slots("first_packet_sizes", f)
    assert vec.shape == (30,)
    assert vec[:3].tolist() == [100.0, -200.0, 50.0]
    assert not vec[3:].any()


def test_first_packet_sizes_truncates_at_30():
    f = flow([(i, F, 60 + i) for i in range(40)])
    vec = slots("first_packet_sizes", f)
    assert vec[-1] == 60.0 + 29


def test_beaconing_windows_hand_case():
    # window 0 (0-5s): 2 fwd vs 1 bwd -> sum 100+200+300 = 600
    # window 1 (5-10s): 1 fwd vs 1 bwd -> 0 (tie is not strict)
    # window 3 (15-20s): 0 fwd vs 1 bwd -> 0
    f = flow([
        (0.0, F, 100), (1.0, B, 200), (2.0, F, 300),
        (5.0, F, 400), (6.0, B, 500),
        (15.1, B, 600),
    ])
    vec = slots("beaconing", f)
    assert vec[0] == 600.0
    assert vec[1] == 0.0
    assert vec[3] == 0.0
    assert vec.sum() == 600.0


def test_beaconing_windows_anchored_at_first_packet():
    shifted = flow([(1000.0, F, 100), (1001.0, F, 80)])
    assert slots("beaconing", shifted)[0] == 180.0


def test_bandwidth_windows_hand_case():
    # window 0 tcp windows: 1000, 1400, 1100 -> deltas +400, -300
    # window 1 holds a single tcp packet -> (0, 0)
    f = flow([
        (0.0, F, 60, 0, TcpFlags.ACK, 1000),
        (1.0, B, 60, 0, TcpFlags.ACK, 1400),
        (2.0, F, 60, 0, TcpFlags.ACK, 1100),
        (6.0, F, 60, 0, TcpFlags.ACK, 9999),
    ])
    vec = slots("bandwidth", f)
    assert (vec[0], vec[1]) == (-300.0, 400.0)
    assert (vec[2], vec[3]) == (0.0, 0.0)


def test_bandwidth_ignores_packets_without_tcp_window():
    f = flow([
        (0.0, F, 60, 0, TcpFlags.ACK, 2000),
        (0.5, F, 60),
        (1.0, F, 60, 0, TcpFlags.ACK, 2600),
    ])
    vec = slots("bandwidth", f)
    assert (vec[0], vec[1]) == (600.0, 600.0)


def test_bandwidth_counts_a_zero_tcp_window():
    # a window of 0 is a TCP window (a full receive buffer), not a missing one
    f = flow([
        (0.0, F, 60, 0, TcpFlags.ACK, 2000),
        (0.5, B, 60, 0, TcpFlags.ACK, 0),
        (1.0, F, 60, 0, TcpFlags.ACK, 2600),
    ])
    vec = slots("bandwidth", f)
    assert (vec[0], vec[1]) == (-2000.0, 2600.0)


def test_bandwidth_deltas_do_not_cross_window_edges():
    # consecutive tcp packets land in different 5 s windows: no deltas at all
    f = flow([
        (0.0, F, 60, 0, TcpFlags.ACK, 1000),
        (6.0, F, 60, 0, TcpFlags.ACK, 5000),
        (12.0, F, 60, 0, TcpFlags.ACK, 9000),
    ])
    assert not slots("bandwidth", f).any()


def test_packet_size_stats_hand_case():
    f = flow([(0, F, 100), (1, B, 200), (2, F, 300)])
    expect = [100.0, 300.0, 200.0, np.std([100, 200, 300])]
    assert slots("packet_size_stats", f).tolist() == pytest.approx(expect)


def test_size_delta_stats_hand_case():
    f = flow([(0, F, 100), (1, B, 250), (2, F, 150)])
    # deltas: +150, -100 -> mean 25, population std 125
    assert slots("size_delta_stats", f).tolist() == pytest.approx([25.0, 125.0])
    assert slots("size_delta_stats", flow([(0, F, 100)])).tolist() == [0.0, 0.0]


def test_packets_per_second_hand_case():
    f = flow([(0.0, F, 60), (1.0, F, 60), (2.0, B, 60)])
    assert slots("packets_per_second", f).tolist() == [1.0, 0.5]
    assert slots("packets_per_second", flow([(5.0, F, 60)])).tolist() == [0.0, 0.0]


def test_packets_per_second_without_a_finite_rate():
    """A flow lasting a subnormal number of seconds reports (0, 0), as a
    zero-duration flow does, instead of an infinite rate."""
    f = flow([(0.0, F, 60), (5e-324, B, 60)])
    assert slots("packets_per_second", f).tolist() == [0.0, 0.0]
    assert np.isfinite(extract_matrix([f])[0]).all()


def test_inter_arrival_hand_case():
    f = flow([(0.0, F, 60), (1.0, B, 60), (3.0, F, 60), (4.0, F, 60)])
    vec = slots("inter_arrival", f)
    assert vec[0:3].tolist() == pytest.approx([1.0, 2.0, 4.0 / 3.0])  # both
    assert vec[3:6].tolist() == pytest.approx([1.0, 3.0, 2.0])        # fwd gaps 3, 1
    assert vec[6:9].tolist() == [0.0, 0.0, 0.0]                       # single bwd


def test_silence_windows_counts_long_gaps():
    f = flow([(0.0, F, 60), (0.5, F, 60), (1.5, F, 60), (4.0, F, 60)])
    # gaps 0.5, 1.0, 2.5 -> two at or above one second
    assert slots("silence_windows", f).tolist() == [2.0]


def test_ack_count_hand_case():
    f = flow([
        (0, F, 60, 0, TcpFlags.SYN),
        (1, B, 60, 0, TcpFlags.SYN | TcpFlags.ACK),
        (2, F, 60, 0, TcpFlags.ACK),
    ])
    assert slots("ack_count", f).tolist() == [2.0]


def test_big_requests_needs_payload_and_follow_up():
    f = flow([
        (0, F, 300, 250),   # big, has later fwd -> counts
        (1, B, 300, 250),   # backward, ignored
        (2, F, 300, 201),   # big, has later fwd -> counts
        (3, F, 300, 200),   # not above threshold
        (4, F, 400, 350),   # big but nothing follows
    ])
    assert slots("big_requests", f).tolist() == [2.0]
    assert slots("big_requests", flow([(0, B, 300, 250)])).tolist() == [0.0]


def naive_dft_magnitudes(signal):
    n = len(signal)
    out = []
    for k in range(n):
        re = sum(signal[t] * np.cos(-2.0 * np.pi * k * t / n) for t in range(n))
        im = sum(signal[t] * np.sin(-2.0 * np.pi * k * t / n) for t in range(n))
        out.append((re * re + im * im) ** 0.5)
    return np.array(out)


def test_wavelet_matches_naive_dft():
    rng = np.random.default_rng(3)
    sizes = rng.integers(60, 1500, size=90)
    dirs = rng.integers(0, 2, size=90)
    f = flow([(i * 0.01, F if d else B, int(s)) for i, (s, d) in enumerate(zip(sizes, dirs))])
    signal = np.where(dirs, sizes, -sizes).astype(float)
    got = slots("wavelet", f)
    want = naive_dft_magnitudes(signal)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-6)


def test_wavelet_pads_short_flows():
    f = flow([(0, F, 100), (1, B, 200)])
    vec = slots("wavelet", f)
    assert vec.shape == (N_SPECTRUM,)
    padded = np.zeros(90)
    padded[:2] = [100.0, -200.0]
    np.testing.assert_allclose(vec, naive_dft_magnitudes(padded), rtol=1e-9, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-1500, max_value=1500), min_size=1, max_size=90))
def test_wavelet_parseval(values):
    """Total spectral energy equals 90x the signal energy."""
    f = flow([(i * 0.01, F if v >= 0 else B, abs(v) or 1)
              for i, v in enumerate(values)])
    spec = slots("wavelet", f)
    signal = np.array([p.total_length if p.direction == F else -p.total_length
                       for p in f.packets], dtype=float)
    lhs = np.sum(spec ** 2)
    rhs = 90.0 * np.sum(signal ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


def test_extract_single_packet_flow_is_finite():
    vec = extract_matrix([flow([(0.0, F, 60)])])[0]
    assert vec.shape == (183,)
    assert np.all(np.isfinite(vec))


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
              st.booleans(),
              st.integers(min_value=60, max_value=1500)),
    min_size=1, max_size=60,
))
def test_extract_always_183_finite_slots(raw):
    raw.sort(key=lambda t: t[0])
    f = flow([(ts, F if d else B, size) for ts, d, size in raw])
    vec = extract_matrix([f])[0]
    assert vec.shape == (183,)
    assert np.all(np.isfinite(vec))


def test_extract_matrix_stacks_and_handles_empty():
    flows = [flow([(0, F, 100)]), flow([(0, B, 200), (1, F, 300)])]
    m = extract_matrix(flows)
    assert m.shape == (2, 183)
    np.testing.assert_array_equal(m[0], extract_matrix([flows[0]])[0])
    assert extract_matrix([]).shape == (0, 183)


LENGTHS = (1, 2, 3, 7, 8, 9, 17, 64, 129, 200)


@st.composite
def random_flow(draw, lengths=st.sampled_from(LENGTHS)):
    """A flow of ``lengths`` packets, one of LENGTHS by default. The drawn modes cover sorted, tied
    and unsorted timestamps; gaps from milliseconds to past the 100 s the
    window groups read; all-forward and all-backward flows; TCP windows
    absent, present or mixed; and payloads either side of 200 bytes."""
    n = draw(lengths)
    order = draw(st.sampled_from(("sorted", "tied", "unsorted")))
    mean_gap = draw(st.sampled_from((0.001, 0.4, 3.0, 40.0)))
    start = draw(st.sampled_from((0.0, 1.7e9 + 0.123456)))
    directions = draw(st.sampled_from(("mixed", "fwd", "bwd")))
    windows = draw(st.sampled_from(("none", "all", "mixed")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    ts = start + np.cumsum(rng.exponential(mean_gap, n))
    if order == "tied":
        ts = ts[np.sort(rng.integers(0, n, n))]
    elif order == "unsorted":
        ts = ts[rng.permutation(n)]
    fwd = {"mixed": rng.integers(0, 2, n) == 1, "fwd": np.ones(n, bool),
           "bwd": np.zeros(n, bool)}[directions]
    sizes = rng.integers(40, 1501, n)
    payloads = np.where(rng.random(n) < 0.5, rng.choice([0, 200, 201], n),
                        rng.integers(0, 1461, n))
    flags = rng.integers(0, 32, n)
    has_window = {"none": np.zeros(n, bool), "all": np.ones(n, bool),
                  "mixed": rng.random(n) < 0.7}[windows]
    tcp_windows = rng.integers(0, 65536, n)
    return flow_from_packets((
        FlowPacket(float(ts[i]), F if fwd[i] else B, int(sizes[i]), int(payloads[i]),
                   TcpFlags(int(flags[i])), int(tcp_windows[i]) if has_window[i] else None)
        for i in range(n)), flow_id="r")


flow_batches = st.lists(random_flow(), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(flow_batches)
def test_extract_matrix_is_bit_identical_to_per_flow_oracle(flows):
    want = np.stack([feature_oracle.extract(f) for f in flows])
    got = extract_matrix(flows)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_signed_zero_gaps_match_the_per_flow_oracle(tmp_path):
    """A flow CSV whose timestamps are -0.0 and 0.0 in every order of two
    to five packets, in both directions, so that the gaps hold zeros of
    both signs (-0.0 - 0.0 is -0.0): every slot of every row has the
    oracle's bits, its sign bit included, whatever order the min, max and
    mean of a row's gaps are reduced in."""
    specs = [[(ts, d, 60 + 10 * i) for i, (ts, d) in enumerate(zip(stamps, dirs))]
             for n in range(2, 6)
             for stamps in itertools.product((0.0, -0.0), repeat=n)
             for dirs in ([F] * n, [F, B] * 3, [B, B, F, F, B])]
    path = tmp_path / "zeros.csv"
    save_flows_csv([flow(spec, flow_id=f"z{i}") for i, spec in enumerate(specs)], path)
    flows = load_flows_csv(path)
    gaps = np.concatenate([np.diff(f.timestamp) for f in flows])
    assert (np.signbit(gaps) & (gaps == 0)).any() and (~np.signbit(gaps) & (gaps == 0)).any()
    want = np.stack([feature_oracle.extract(f) for f in flows])
    got = extract_matrix(flows)
    assert ((want == 0) & np.signbit(want)).any()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(flow_batches)
def test_rows_do_not_depend_on_the_rest_of_the_batch(flows):
    m = extract_matrix(flows)
    for i, f in enumerate(flows):
        np.testing.assert_array_equal(m[i].view(np.uint64),
                                      extract_matrix([f])[0].view(np.uint64))


def sliced(f, n):
    """``f`` with every column cut to its first ``n`` packets by hand."""
    return Flow(f.key, **{name: getattr(f, name)[:n] for name in FLOW_COLUMNS},
                label=f.label, flow_id=f.flow_id)


@settings(deadline=None)
@given(st.lists(random_flow(st.integers(1, 60)), min_size=1, max_size=8), st.data())
def test_the_cut_extracts_the_flows_sliced_by_hand(flows, data):
    """extract_matrix(flows, n) is extract_matrix of the flows sliced to n
    packets, bit for bit, for every n up to two past the longest flow. A
    flow whose cut-off tail lies too far from its first packet to subtract
    extracts once cut; n = 0 is refused."""
    n = data.draw(st.integers(1, max(f.timestamp.size for f in flows) + 2), label="n")
    far = flow([(-1e308, F, 60)] * n + [(1.7e308, B, 60)], flow_id="far")
    with pytest.raises(InputError, match="finite"):
        extract_matrix([far])
    at = data.draw(st.integers(0, len(flows)), label="at")
    flows = flows[:at] + [far] + flows[at:]
    want = extract_matrix([sliced(f, n) for f in flows])
    got = extract_matrix(flows, n)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError):
        extract_matrix(flows, 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_extract_rejects_non_finite_timestamps(bad):
    with pytest.raises(ValueError, match="finite"):
        extract_matrix([flow([(0.0, F, 60)]), flow([(0.0, F, 60), (bad, B, 60)])])


def test_normalizer_scales_clamps_and_zeroes_constants():
    train = np.array([[0.0, 10.0, 7.0], [10.0, 20.0, 7.0]])
    norm = Normalizer(train.min(axis=0), train.max(axis=0))
    out = norm.transform(np.array([[5.0, 25.0, 7.0], [-5.0, 10.0, 9.0]]))
    np.testing.assert_array_equal(out, [[0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_normalizer_output_always_in_unit_box(rows, cols, seed):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(rows, cols)) * 100
    other = rng.normal(size=(7, cols)) * 200
    norm = Normalizer(train.min(axis=0), train.max(axis=0))
    out = norm.transform(other)
    assert out.min() >= 0.0 and out.max() <= 1.0
    fitted = norm.transform(train)
    assert fitted.min() >= 0.0 and fitted.max() <= 1.0


def test_fit_normalizer_round_trips_through_json(tmp_path):
    """The normalizer a model fits comes back from model.json bit for bit."""
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 183)) * 37.5
    model = fit_model(m, ["a", "a", "b", "b", "c", "c"], PipelineConfig())
    save_model(tmp_path, model)
    norm, back = model.normalizer, load_model(tmp_path).normalizer
    np.testing.assert_array_equal(back.mins, norm.mins)
    np.testing.assert_array_equal(back.maxs, norm.maxs)
    q = rng.normal(size=(4, 183))
    np.testing.assert_array_equal(back.transform(q), norm.transform(q))


def test_normalizer_load_rejects_wrong_version(tmp_path):
    """A model.json of another feature layout does not load."""
    save_model(tmp_path, fit_model(np.zeros((2, WIDTH)), ["a", "a"], PipelineConfig()))
    doc = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**doc, "schema_version": "someone.else"}))
    with pytest.raises(InputError, match="schema_version 'someone.else' is not 'stat183.v1'"):
        load_model(tmp_path)


def test_fit_normalizer_rejects_empty_or_misshaped():
    with pytest.raises(InputError, match="no rows to index"):
        fit_normalizer(np.zeros((0, 183)))
    with pytest.raises(InputError, match="has 10 feature columns, the schema has 183"):
        fit_normalizer(np.zeros((3, 10)))


def test_transform_rejects_a_matrix_of_another_width():
    norm = fit_normalizer(np.arange(2 * 183, dtype=np.float64).reshape(2, 183))
    with pytest.raises(InputError, match="has 178 feature columns, the model has 183"):
        norm.transform(np.zeros((2, 178)))


def test_fit_model_rejects_an_unlabeled_row():
    """The rule load_model holds a saved model to: every row has a label."""
    X = np.arange(4 * 183, dtype=np.float64).reshape(4, 183)
    with pytest.raises(InputError, match="indexing needs a label on every row"):
        fit_model(X, ["a", "a", "", ""], PipelineConfig())


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 183)) * 1234.5678
    ids = ["f0", "f1", "f2"]
    labels = ["a", "b", "a"]
    path = tmp_path / "features.csv"
    save_matrix_csv(path, m, ids, labels)
    back, back_ids, back_labels = load_matrix_csv(path)
    np.testing.assert_array_equal(back, m)
    assert back_ids == ids and back_labels == labels

"""The per-flow feature extractors as first written, kept as a test oracle.

Each group is computed one flow at a time with plain Python loops and
per-flow numpy calls. ``extract`` concatenates them in schema order. The
batched kernels in ``flowcbr.features`` must reproduce these bits exactly.
The one edit: ``packets_per_second`` spells out the flow duration inline.
"""

import numpy as np

from flowcbr.flows import Direction, Flow, TcpFlags

WINDOW_SECONDS = 5.0
SILENCE_GAP_SECONDS = 1.0
N_FIRST_SIZES = 30
N_SPECTRUM = 90
BIG_REQUEST_PAYLOAD = 200


def _signed_sizes(flow: Flow) -> np.ndarray:
    return np.array(
        [p.total_length if p.direction == Direction.FWD else -p.total_length
         for p in flow.packets],
        dtype=np.float64,
    )


def _window_index(flow: Flow) -> np.ndarray:
    """5-second window index of each packet, anchored at the first packet."""
    t0 = flow.packets[0].timestamp
    return np.array(
        [int((p.timestamp - t0) / WINDOW_SECONDS) for p in flow.packets],
        dtype=np.int64,
    )


def bits_per_peak(flow: Flow) -> np.ndarray:
    """Top-3 sizes, in bits, of maximal runs of consecutive received packets."""
    peaks = []
    run = 0
    for p in flow.packets:
        if p.direction == Direction.BWD:
            run += p.total_length
        elif run:
            peaks.append(run)
            run = 0
    if run:
        peaks.append(run)
    peaks.sort(reverse=True)
    out = np.zeros(3)
    for i, v in enumerate(peaks[:3]):
        out[i] = 8.0 * v
    return out


def first_packet_sizes(flow: Flow) -> np.ndarray:
    sizes = _signed_sizes(flow)[:N_FIRST_SIZES]
    return np.pad(sizes, (0, N_FIRST_SIZES - sizes.size))


def beaconing_windows(flow: Flow) -> np.ndarray:
    """Traffic total per 5 s window where the initiator sent strictly more.

    The first 100 seconds are split into 20 windows. A window where forward
    packets outnumber backward ones records the byte sum of every packet in
    it; other windows, and windows past the flow end, stay 0.
    """
    out = np.zeros(20)
    win = _window_index(flow)
    for w in range(20):
        fwd = bwd = total = 0
        for p, pw in zip(flow.packets, win):
            if pw != w:
                continue
            total += p.total_length
            if p.direction == Direction.FWD:
                fwd += 1
            else:
                bwd += 1
        if fwd > bwd:
            out[w] = float(total)
    return out


def bandwidth_windows(flow: Flow) -> np.ndarray:
    """(min, max) TCP window delta per 5 s window, 10 windows, interleaved.

    Deltas are between consecutive TCP packets that fall inside the same
    window, in arrival order, both directions mixed. Windows holding fewer
    than two TCP packets emit (0, 0).
    """
    out = np.zeros(20)
    win = _window_index(flow)
    for w in range(10):
        values = [p.tcp_window for p, pw in zip(flow.packets, win)
                  if pw == w and p.tcp_window is not None]
        if len(values) < 2:
            continue
        deltas = np.diff(np.array(values, dtype=np.float64))
        out[2 * w] = deltas.min()
        out[2 * w + 1] = deltas.max()
    return out


def packet_size_stats(flow: Flow) -> np.ndarray:
    """(min, max, mean, population std) of sizes over all packets."""
    sizes = np.array([p.total_length for p in flow.packets], dtype=np.float64)
    return np.array([sizes.min(), sizes.max(), sizes.mean(), sizes.std()])


def size_delta_stats(flow: Flow) -> np.ndarray:
    """Mean and population std of consecutive size differences."""
    sizes = np.array([p.total_length for p in flow.packets], dtype=np.float64)
    if sizes.size < 2:
        return np.zeros(2)
    deltas = np.diff(sizes)
    return np.array([deltas.mean(), deltas.std()])


def packets_per_second(flow: Flow) -> np.ndarray:
    """Packet rate per direction; zero-duration flows report (0, 0)."""
    d = flow.packets[-1].timestamp - flow.packets[0].timestamp
    if d <= 0:
        return np.zeros(2)
    n_fwd = sum(1 for p in flow.packets if p.direction == Direction.FWD)
    return np.array([n_fwd / d, (len(flow.packets) - n_fwd) / d])


def inter_arrival_stats(flow: Flow) -> np.ndarray:
    """(min, max, mean) of time gaps: both directions, forward, backward.

    A stream with fewer than two packets contributes (0, 0, 0).
    """
    out = np.zeros(9)
    times = np.array([p.timestamp for p in flow.packets])
    fwd = np.array([p.timestamp for p in flow.packets if p.direction == Direction.FWD])
    bwd = np.array([p.timestamp for p in flow.packets if p.direction == Direction.BWD])
    for i, series in enumerate((times, fwd, bwd)):
        if series.size < 2:
            continue
        gaps = np.diff(series)
        out[3 * i:3 * i + 3] = (gaps.min(), gaps.max(), gaps.mean())
    return out


def silence_windows(flow: Flow) -> np.ndarray:
    """Count of consecutive-packet gaps of at least one second."""
    times = np.array([p.timestamp for p in flow.packets])
    if times.size < 2:
        return np.zeros(1)
    return np.array([float(np.sum(np.diff(times) >= SILENCE_GAP_SECONDS))])


def ack_count(flow: Flow) -> np.ndarray:
    n = sum(1 for p in flow.packets if p.tcp_flags & TcpFlags.ACK)
    return np.array([float(n)])


def big_requests(flow: Flow) -> np.ndarray:
    """Outbound packets with payload above 200 bytes and a later outbound one."""
    fwd_positions = [i for i, p in enumerate(flow.packets) if p.direction == Direction.FWD]
    if not fwd_positions:
        return np.zeros(1)
    last_fwd = fwd_positions[-1]
    n = sum(
        1 for i in fwd_positions
        if i < last_fwd and flow.packets[i].payload_length > BIG_REQUEST_PAYLOAD
    )
    return np.array([float(n)])


def wavelet_coeffs(flow: Flow) -> np.ndarray:
    """Magnitudes of the discrete spectrum of the first 90 signed sizes.

    Shorter flows are zero-padded to 90 samples before the transform, so the
    output width is always 90.
    """
    sizes = _signed_sizes(flow)[:N_SPECTRUM]
    padded = np.pad(sizes, (0, N_SPECTRUM - sizes.size))
    return np.abs(np.fft.fft(padded))


_EXTRACTORS = (
    ("bits_per_peak", bits_per_peak),
    ("first_packet_sizes", first_packet_sizes),
    ("beaconing", beaconing_windows),
    ("bandwidth", bandwidth_windows),
    ("packet_size_stats", packet_size_stats),
    ("size_delta_stats", size_delta_stats),
    ("packets_per_second", packets_per_second),
    ("inter_arrival", inter_arrival_stats),
    ("silence_windows", silence_windows),
    ("ack_count", ack_count),
    ("big_requests", big_requests),
    ("wavelet", wavelet_coeffs),
)


def extract(flow: Flow) -> np.ndarray:
    return np.concatenate([fn(flow) for _, fn in _EXTRACTORS])

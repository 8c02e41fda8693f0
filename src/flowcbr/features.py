"""Per-flow statistical feature extraction.

Every flow maps to one fixed 183-slot vector laid out by ``FeatureSchema``.
Slot groups, in order:

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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flows import Direction, Flow, TcpFlags

SCHEMA_VERSION = "stat183.v1"
WINDOW_SECONDS = 5.0
SILENCE_GAP_SECONDS = 1.0
N_FIRST_SIZES = 30
N_SPECTRUM = 90
BIG_REQUEST_PAYLOAD = 200


@dataclass(frozen=True)
class FeatureSchema:
    """Slot layout of the feature vector: ordered (group, width) pairs."""

    version: str
    groups: tuple[tuple[str, int], ...]

    @property
    def width(self) -> int:
        return sum(w for _, w in self.groups)

    def slot_range(self, group: str) -> tuple[int, int]:
        """Half-open [start, stop) slot range of a group."""
        start = 0
        for name, width in self.groups:
            if name == group:
                return (start, start + width)
            start += width
        raise KeyError(f"unknown feature group: {group}")

    def slot_names(self) -> list[str]:
        names = []
        for group, width in self.groups:
            names.extend(f"{group}[{i}]" for i in range(width))
        return names


SCHEMA = FeatureSchema(
    version=SCHEMA_VERSION,
    groups=(
        ("bits_per_peak", 3),
        ("first_packet_sizes", N_FIRST_SIZES),
        ("beaconing", 20),
        ("bandwidth", 20),
        ("packet_size_stats", 4),
        ("size_delta_stats", 2),
        ("packets_per_second", 2),
        ("inter_arrival", 9),
        ("silence_windows", 1),
        ("ack_count", 1),
        ("big_requests", 1),
        ("wavelet", N_SPECTRUM),
    ),
)


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
    d = flow.duration
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


def extract_features(flow: Flow, schema: FeatureSchema = SCHEMA) -> np.ndarray:
    """Extract the full feature vector for one flow."""
    parts = []
    for (group, width), (name, fn) in zip(schema.groups, _EXTRACTORS):
        if group != name:
            raise ValueError(f"schema group {group!r} does not match extractor {name!r}")
        vec = fn(flow)
        if vec.shape != (width,):
            raise ValueError(f"extractor {name!r} produced shape {vec.shape}, wanted ({width},)")
        parts.append(vec)
    out = np.concatenate(parts)
    if not np.all(np.isfinite(out)):
        raise ValueError("feature vector contains non-finite values")
    return out


def extract_matrix(flows: list[Flow], schema: FeatureSchema = SCHEMA) -> np.ndarray:
    if not flows:
        return np.zeros((0, schema.width))
    return np.stack([extract_features(f, schema) for f in flows])


@dataclass
class Normalizer:
    """Per-slot min-max scaler with clamping, fit on training data only."""

    schema_version: str
    mins: np.ndarray
    maxs: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] != self.mins.size:
            raise ValueError(f"matrix has {matrix.shape[1]} slots, normalizer has {self.mins.size}")
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        scaled = (matrix - self.mins) / safe
        scaled = np.where(span > 0, scaled, 0.0)
        return np.clip(scaled, 0.0, 1.0)

    def save(self, path: str | Path) -> None:
        doc = {
            "schema_version": self.schema_version,
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path, schema: FeatureSchema = SCHEMA) -> Normalizer:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema_version") != schema.version:
            raise ValueError(
                f"normalizer schema {doc.get('schema_version')!r} does not match {schema.version!r}")
        mins = np.array([float(v) for v in doc["mins"]])
        maxs = np.array([float(v) for v in doc["maxs"]])
        if mins.size != schema.width or maxs.size != schema.width:
            raise ValueError("normalizer parameter width does not match schema")
        return cls(doc["schema_version"], mins, maxs)


def fit_normalizer(matrix: np.ndarray, schema: FeatureSchema = SCHEMA) -> Normalizer:
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix to fit a normalizer")
    if matrix.shape[1] != schema.width:
        raise ValueError(f"matrix has {matrix.shape[1]} slots, schema has {schema.width}")
    return Normalizer(schema.version, matrix.min(axis=0), matrix.max(axis=0))


def save_matrix_csv(path: str | Path, matrix: np.ndarray,
                    flow_ids: list[str], labels: list[str]) -> None:
    """Write a feature matrix with flow_id/label columns and f000.. headers."""
    if matrix.shape[0] != len(flow_ids) or matrix.shape[0] != len(labels):
        raise ValueError("matrix rows, flow_ids and labels must align")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow_id", "label"] + [f"f{i:03d}" for i in range(matrix.shape[1])])
        for fid, label, row in zip(flow_ids, labels, matrix):
            writer.writerow([fid, label] + [repr(v) for v in row.tolist()])


def load_matrix_csv(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a feature matrix CSV back as (matrix, flow_ids, labels)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["flow_id", "label"]:
            raise ValueError("bad feature matrix header")
        width = len(header) - 2
        if [f"f{i:03d}" for i in range(width)] != header[2:]:
            raise ValueError("bad feature column names")
        flow_ids, labels, rows = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row for {row[0] if row else '?'} has wrong width")
            flow_ids.append(row[0])
            labels.append(row[1])
            rows.append([float(v) for v in row[2:]])
    matrix = np.array(rows) if rows else np.zeros((0, width))
    return matrix, flow_ids, labels

"""Seeded synthetic flow generation for evaluation.

Each class template describes packet-size distributions per direction,
lognormal inter-arrival gaps, a burst pattern of directions, a flow-length
range, and a TCP window random walk. Flows open with a fixed two-packet
handshake so the very start of every flow looks alike. Templates can confine
their class signal to a prefix of the flow: past ``signal_packets`` packets
are drawn from shared tail parameters common to all templates, which makes
accuracy as a function of packet count flatten once the prefix is covered.

Generation is reproducible per flow: the random stream depends only on
(seed, class index, flow index), never on generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import FLOW_COLUMNS, Flow, TcpFlags

MIN_PACKET = 60
MAX_PACKET = 1500
HEADER_BYTES = 40
TAIL_SIZE_MEAN = 700.0
TAIL_SIZE_STD = 280.0
SWEEP_SIGNAL_PACKETS = 10


@dataclass(frozen=True)
class ClassTemplate:
    """Traffic-class recipe.

    Directions follow ``burst_pattern`` = (requests, responses): that many
    consecutive forward packets, then that many backward, repeating.
    """

    name: str
    fwd_size_mean: float
    fwd_size_std: float
    bwd_size_mean: float
    bwd_size_std: float
    gap_median: float
    gap_sigma: float
    min_packets: int
    max_packets: int
    burst_pattern: tuple[int, int]
    window_base: int = 16384
    window_step_std: float = 400.0
    signal_packets: int | None = None

    def __post_init__(self) -> None:
        if self.min_packets < 2 or self.max_packets < self.min_packets:
            raise ValueError("need max_packets >= min_packets >= 2")
        if self.gap_median <= 0:
            raise ValueError("gap_median must be positive")
        if min(self.burst_pattern) < 1:
            raise ValueError("burst_pattern counts must be >= 1")


def _draw_size(rng: np.random.Generator, mean: float, std: float) -> int:
    v = rng.normal(mean, std)
    return int(round(min(max(v, MIN_PACKET), MAX_PACKET)))


def _synth_flow(template: ClassTemplate, seed: int, class_idx: int,
                flow_idx: int) -> Flow:
    rng = np.random.default_rng([seed, class_idx, flow_idx])
    n = int(rng.integers(template.min_packets, template.max_packets + 1))
    mu = math.log(template.gap_median)
    req, resp = template.burst_pattern

    def gap() -> float:
        return float(min(max(rng.lognormal(mu, template.gap_sigma), 1e-4), 30.0))

    window = float(template.window_base)
    # One (timestamp, fwd, total_length, payload_length, tcp_flags,
    # tcp_window) tuple per packet, in FLOW_COLUMNS order.
    rows = [(0.0, True, MIN_PACKET, 0, TcpFlags.SYN, int(window))]
    t = gap()
    rows.append((t, False, MIN_PACKET, 0, TcpFlags.SYN | TcpFlags.ACK, int(window)))
    for i in range(2, n):
        t += gap()
        window = float(min(max(window + rng.normal(0.0, template.window_step_std), 1024), 65535))
        in_signal = template.signal_packets is None or i < template.signal_packets
        if in_signal:
            fwd = (i - 2) % (req + resp) < req
            size = _draw_size(rng,
                              template.fwd_size_mean if fwd else template.bwd_size_mean,
                              template.fwd_size_std if fwd else template.bwd_size_std)
        else:
            # Past the signal prefix: strict alternation and shared sizes,
            # identical for every template.
            fwd = (i - 2) % 2 == 0
            size = _draw_size(rng, TAIL_SIZE_MEAN, TAIL_SIZE_STD)
        payload = max(0, size - HEADER_BYTES)
        flags = TcpFlags.ACK | (TcpFlags.PSH if payload > 0 else TcpFlags.NONE)
        rows.append((t, fwd, size, payload, flags, int(window)))
    columns = {name: np.array(values, dtype=dtype)
               for (name, dtype), values in zip(FLOW_COLUMNS.items(), zip(*rows))}
    return Flow(key=None, **columns, label=template.name,
                flow_id=f"{template.name}-{flow_idx:04d}")


def synth_generate(templates: list[ClassTemplate], n_per_class: int,
                   seed: int = 0) -> list[Flow]:
    """Generate n_per_class labeled flows per template, reproducibly."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    names = [t.name for t in templates]
    if len(set(names)) != len(names):
        raise ValueError("template names must be unique")
    flows = []
    for class_idx, template in enumerate(templates):
        for flow_idx in range(n_per_class):
            flows.append(_synth_flow(template, seed, class_idx, flow_idx))
    return flows


_BURSTS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4)]


def default_templates(n_classes: int = 5) -> list[ClassTemplate]:
    """Distinguishable but overlapping traffic classes for evaluation runs."""
    if not 2 <= n_classes <= 8:
        raise ValueError("n_classes must be in [2, 8]")
    out = []
    for i in range(n_classes):
        req, resp = _BURSTS[i]
        out.append(ClassTemplate(
            name=f"class-{chr(ord('a') + i)}",
            fwd_size_mean=130.0 + 95.0 * i,
            fwd_size_std=35.0,
            bwd_size_mean=1350.0 - 110.0 * i,
            bwd_size_std=70.0,
            gap_median=0.02 * (1.6 ** i),
            gap_sigma=0.5,
            min_packets=40,
            max_packets=70,
            window_base=12288 + 4096 * i,
            window_step_std=400.0,
            burst_pattern=(req, resp),
        ))
    return out


def sweep_templates(n_classes: int = 5) -> list[ClassTemplate]:
    """Templates whose class signal lives only in the first packets.

    Everything outside the signal prefix (lengths, gaps, windows, tail sizes)
    is identical across classes, so packets past the prefix carry no label
    information at all.
    """
    if not 2 <= n_classes <= 8:
        raise ValueError("n_classes must be in [2, 8]")
    out = []
    for i in range(n_classes):
        out.append(ClassTemplate(
            name=f"sweep-{chr(ord('a') + i)}",
            fwd_size_mean=100.0 + 160.0 * i,
            fwd_size_std=20.0,
            bwd_size_mean=1400.0 - 160.0 * i,
            bwd_size_std=20.0,
            gap_median=0.05,
            gap_sigma=0.3,
            min_packets=45,
            max_packets=60,
            window_base=16384,
            window_step_std=300.0,
            burst_pattern=_BURSTS[i],
            signal_packets=SWEEP_SIGNAL_PACKETS,
        ))
    return out

"""Synthetic flow generator tests."""

import numpy as np
import pytest

from flowcbr.flows import Direction, TcpFlags
from flowcbr.synth import (
    ClassTemplate,
    default_templates,
    sweep_templates,
    synth_generate,
)
from registration_fixtures import fewshot_templates


def small_template(**kw):
    base = dict(name="t", fwd_size_mean=200.0, fwd_size_std=20.0,
                bwd_size_mean=900.0, bwd_size_std=40.0, gap_median=0.05,
                gap_sigma=0.4, min_packets=10, max_packets=20,
                burst_pattern=(1, 1))
    base.update(kw)
    return ClassTemplate(**base)


def test_same_seed_same_flows():
    templates = default_templates(3)
    a = synth_generate(templates, 5, seed=13)
    b = synth_generate(templates, 5, seed=13)
    assert len(a) == 15
    for fa, fb in zip(a, b):
        assert fa.flow_id == fb.flow_id
        assert fa.label == fb.label
        assert fa.packets == fb.packets


def test_different_seeds_differ():
    templates = default_templates(2)
    a = synth_generate(templates, 3, seed=0)
    b = synth_generate(templates, 3, seed=1)
    assert any(fa.packets != fb.packets for fa, fb in zip(a, b))


def test_flows_are_independent_of_generation_order():
    """Flow j of class c is a pure function of (seed, c, j)."""
    templates = default_templates(2)
    few = synth_generate(templates, 2, seed=5)
    many = synth_generate(templates, 8, seed=5)
    assert few[0].packets == many[0].packets
    assert few[1].packets == many[1].packets   # class 0, flow 1
    assert few[2].packets == many[8].packets   # class 1, flow 0


def test_one_flow_per_class_and_labels():
    templates = default_templates(4)
    flows = synth_generate(templates, 1, seed=0)
    assert [f.label for f in flows] == [t.name for t in templates]
    assert flows[0].flow_id == f"{templates[0].name}-0000"


def test_handshake_opens_every_flow():
    flows = synth_generate(default_templates(3), 4, seed=2)
    for f in flows:
        first, second = f.packets[0], f.packets[1]
        assert (first.direction, first.total_length, first.tcp_flags) == \
            (Direction.FWD, 60, TcpFlags.SYN)
        assert (second.direction, second.total_length, second.tcp_flags) == \
            (Direction.BWD, 60, TcpFlags.SYN | TcpFlags.ACK)
        assert first.timestamp == 0.0 and second.timestamp > 0.0


def test_timestamps_strictly_increase():
    for f in synth_generate(default_templates(2), 5, seed=3):
        times = [p.timestamp for p in f.packets]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_burst_pattern_fixes_direction_cycle():
    t = small_template(burst_pattern=(2, 1), min_packets=14, max_packets=14)
    (f,) = synth_generate([t], 1, seed=9)
    dirs = [p.direction for p in f.packets[2:]]
    want = [Direction.FWD if (i % 3) < 2 else Direction.BWD
            for i in range(len(dirs))]
    assert dirs == want


def test_packet_count_respects_template_range():
    t = small_template(min_packets=12, max_packets=15)
    for f in synth_generate([t], 30, seed=4):
        assert 12 <= len(f.packets) <= 15


def test_sizes_stay_in_ethernet_bounds():
    t = small_template(fwd_size_mean=10.0, bwd_size_mean=9000.0,
                       fwd_size_std=5.0, bwd_size_std=100.0)
    for f in synth_generate([t], 10, seed=6):
        assert f.packets[0].payload_length == 0
        assert f.packets[1].payload_length == 0
        for p in f.packets:
            assert 60 <= p.total_length <= 1500
        for p in f.packets[2:]:
            assert p.payload_length == max(0, p.total_length - 40)


def test_template_mean_recovered_within_three_standard_errors():
    t = small_template(fwd_size_mean=400.0, fwd_size_std=30.0,
                       burst_pattern=(1, 1), min_packets=40, max_packets=40)
    flows = synth_generate([t], 200, seed=7)
    sizes = np.array([p.total_length for f in flows for p in f.packets[2:]
                      if p.direction == Direction.FWD])
    se = 30.0 / np.sqrt(sizes.size)
    assert abs(sizes.mean() - 400.0) <= 3.0 * se


def test_signal_packets_confines_class_differences():
    """Past the prefix every template draws from the same tail distribution,
    so tail sizes pooled per class look alike (and directions alternate)."""
    templates = sweep_templates(3)
    assert {t.signal_packets for t in templates} == {10}
    flows = synth_generate(templates, 40, seed=8)
    tail_means = []
    for t in templates:
        sizes = [p.total_length
                 for f in flows if f.label == t.name
                 for p in f.packets[10:]]
        tail_means.append(np.mean(sizes))
    assert max(tail_means) - min(tail_means) < 30.0

    for f in flows[:5]:
        tail_dirs = [p.direction for p in f.packets[10:]]
        want = [Direction.FWD if (i - 2) % 2 == 0 else Direction.BWD
                for i in range(10, len(f.packets))]
        assert tail_dirs == want


def test_template_validation():
    with pytest.raises(ValueError):
        small_template(min_packets=1)
    with pytest.raises(ValueError):
        small_template(max_packets=5)
    with pytest.raises(ValueError):
        small_template(gap_median=0.0)
    with pytest.raises(ValueError):
        small_template(burst_pattern=(0, 2))


def test_generate_validation():
    with pytest.raises(ValueError):
        synth_generate(default_templates(2), 0)
    dup = [small_template(), small_template()]
    with pytest.raises(ValueError, match="unique"):
        synth_generate(dup, 1)


def test_template_families():
    assert len(default_templates(5)) == 5
    assert len(sweep_templates(4)) == 4
    assert len(fewshot_templates(5)) == 6
    assert fewshot_templates(5)[-1].name == "class-x"
    with pytest.raises(ValueError):
        default_templates(1)
    with pytest.raises(ValueError):
        sweep_templates(9)

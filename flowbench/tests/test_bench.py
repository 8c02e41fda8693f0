"""Tests of the benchmark's own parts: pcap writer, generator, tracer.

Run from the repository root with ``python3 -m pytest flowbench/tests``.
"""

import json
from pathlib import Path

import pytest

import workloads
from pcapwriter import write_pcap
from probes import PER_LAYER, Probe
from run import END_TO_END
from tracer import Span, Tracer, outermost, self_times

from flowcbr.flows import assemble_flows, parse_pcap
from flowcbr.synth import default_templates, synth_generate


def test_pcap_round_trip(tmp_path):
    flows = synth_generate(default_templates(3), 4, seed=5)
    starts = [1_700_000_000.0 + 0.05 * i for i in range(len(flows))]
    n = write_pcap(tmp_path / "t.pcap", flows, starts)

    parsed = parse_pcap((tmp_path / "t.pcap").read_bytes())
    assert (parsed.skipped, parsed.truncated) == (0, 0)
    assert len(parsed.records) == n == sum(len(f.packets) for f in flows)
    back = assemble_flows(parsed.records)
    assert len(back) == len(flows)
    for got, want, start in zip(back, flows, starts):
        assert len(got.packets) == len(want.packets)
        for p, q in zip(got.packets, want.packets):
            assert (p.direction, p.total_length, p.payload_length, p.tcp_flags,
                    p.tcp_window) == (q.direction, q.total_length, q.payload_length,
                                      q.tcp_flags, q.tcp_window)
            assert p.timestamp == pytest.approx(start + q.timestamp, abs=1e-6)


@pytest.mark.parametrize("workload", ["serve_novel", "eval"])
def test_generator_is_deterministic_under_seed(tmp_path, workload):
    def files(d: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    a = workloads.generate(workload, 3, tmp_path / "a")
    b = workloads.generate(workload, 3, tmp_path / "b")
    c = workloads.generate(workload, 4, tmp_path / "c")
    assert a == b
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    if workload in workloads.SERVE:
        assert workloads.check_pcap_round_trip(tmp_path / "a", a) == []


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, "r")


def test_self_time_subtracts_child_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 4.0, 8.0, parent=0),
        _span(3, 5.0, 6.0, parent=2),
        _span(4, 9.5, 11.0, parent=0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 4.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_outermost_skips_recursive_calls():
    spans = [_span(0, 0, 4, name="a"), _span(1, 1, 3, 0, name="b"),
             _span(2, 1.5, 2, 1, name="a"), _span(3, 5, 6, name="a")]
    assert [s.id for s in outermost(spans, "a")] == [0, 3]


def test_tracer_wraps_every_binding_and_restores_it():
    import flowcbr
    import flowcbr.cbr as cbr

    original = cbr.vote
    tracer = Tracer()
    tracer.install([Probe("cbr.vote", "flowcbr.cbr:vote"),
                    Probe("gone", "flowcbr.cbr:no_such_function"),
                    Probe("gone.module", "flowcbr.no_such_module:f")])
    try:
        assert cbr.vote is not original and flowcbr.vote is cbr.vote
        tracer.start_run("t")
        flowcbr.harness.vote([cbr.Neighbor(0, "a", 1.0)])
    finally:
        tracer.uninstall()
    assert cbr.vote is original and flowcbr.vote is original
    assert [s.name for s in tracer.spans] == ["cbr.vote"]
    assert [m.split(" ")[0] for m in tracer.missing] == ["gone", "gone.module"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)

"""Test fixtures for the few-shot registration runs.

``fewshot_templates`` builds the synthetic classes that the registration
tests hold out and stream back, and ``f1_drops`` reads what registering
cost the classes that were there before.
"""

from __future__ import annotations

from flowcbr.harness import NewClassReport
from flowcbr.synth import ClassTemplate, default_templates


def fewshot_templates(n_base: int = 5) -> list[ClassTemplate]:
    """Base classes plus one tight satellite class for registration runs.

    The extra class ("class-x") reuses the first base class's direction
    pattern and timing but shifts both size means, which places it past the
    new-class distance threshold of every base class while staying well
    under the rejection threshold. Its spreads are kept small and its length
    fixed so a handful of founding samples covers the whole class.
    """
    out = default_templates(n_base)
    a = out[0]
    out.append(ClassTemplate(
        name="class-x",
        fwd_size_mean=a.fwd_size_mean + 180.0,
        fwd_size_std=6.0,
        bwd_size_mean=a.bwd_size_mean - 200.0,
        bwd_size_std=10.0,
        gap_median=a.gap_median,
        gap_sigma=0.10,
        min_packets=52,
        max_packets=52,
        window_base=a.window_base,
        window_step_std=100.0,
        burst_pattern=a.burst_pattern,
    ))
    return out


def f1_drops(report: NewClassReport) -> dict[str, float]:
    """Per pre-existing class: F1 before minus F1 after (positive = worse)."""
    return {lbl: report.metrics_before.per_class[lbl].f1 - m.f1
            for lbl, m in report.metrics_after.per_class.items()
            if lbl in report.metrics_before.per_class}

"""One fresh process of a benchmark run; started by run.py, never by hand.

    worker.py gen WORKLOAD SEED DIR      write the inputs and manifest.json
    worker.py setup WORKLOAD DIR         run the set-up commands once
    worker.py measure WORKLOAD SEED DIR SECONDS TRACE SPANS [--write-reference]

Every mode runs with DIR as its working directory and prints one JSON
object as the last line of its standard output. The program is called
in-process through ``flowcbr.cli.main``, one command after another, from
this single thread.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from checks import OutputCheck, REFERENCE_DIR
from hostspeed import kernel_seconds
from probes import CLI_COMMANDS

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
KERNEL_PASSES = 3  # host-speed samples after each timed repeat


def _subcommand(argv: list[str]) -> str:
    return next(a for a in argv if a in CLI_COMMANDS)


def _run_cli(argv: list[str], tracer=None) -> tuple[int, float]:
    """Exit code and wall seconds of one command; its printout is dropped.

    With a tracer, the command is recorded as the root span ``cli.<command>``.
    """
    from flowcbr import cli

    scope = (tracer.span(f"cli.{_subcommand(argv)}") if tracer is not None
             else contextlib.nullcontext())
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), scope:
        rc = cli.main(argv)
    return rc, time.perf_counter() - start


def _fresh(path: str) -> None:
    """Remove a command's previous outputs, then collect garbage, untimed."""
    shutil.rmtree(path, ignore_errors=True)
    gc.collect()


def gen(workload: str, seed: int, work: Path) -> dict:
    manifest = workloads.generate(workload, seed, work)
    problems = []
    if workload in workloads.SERVE:
        problems = workloads.check_pcap_round_trip(work, manifest)
    (work / "manifest.json").write_text(json.dumps(manifest))
    return {"problems": problems}


def setup(workload: str) -> dict:
    import flowcbr.cli  # noqa: F401  (importing is part of set-up)

    codes = [_run_cli(argv)[0] for argv in workloads.setup_commands(workload)]
    return {"codes": codes}


def measure(workload: str, seed: int, work: Path, seconds: float, trace: bool,
            spans_path: str, write_reference: bool) -> dict:
    import numpy

    manifest = json.loads((work / "manifest.json").read_text())
    check = OutputCheck(workload, manifest, seed)
    argv = workloads.main_command(workload)
    result = {"python": platform.python_version(), "numpy": numpy.__version__}
    attempted = failed = 0

    def repeat(tracer=None) -> float:
        nonlocal attempted, failed
        _fresh("out")
        rc, wall = _run_cli(argv, tracer)
        attempted += check.n_flows
        failed += check.check(Path("out"), rc)
        return wall

    if write_reference:
        check.reference = None
        repeat()
        if check.problems:
            raise SystemExit(f"not writing a reference: {check.problems}")
        check.reference = check.reference_doc(Path("out"))
        (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(check.reference) + "\n")

    if trace:
        result.update(_traced(workload, manifest, check, repeat, seconds, spans_path))
    else:
        repeat()  # warm-up: checked, not timed
        # Read before the host-speed kernel first runs, so its arrays do not count.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls, kernels = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            walls.append(repeat())
            kernels += [kernel_seconds() for _ in range(KERNEL_PASSES)]
        result.update(walls=walls, kernels=kernels)
    result.update(attempted=attempted, failed=failed, problems=check.problems,
                  mix=check.mix)
    return result


def _traced(workload, manifest, check, repeat, seconds, spans_path) -> dict:
    """Traced set-up, then untraced and traced repeats of the timed command."""
    import flowcbr.cli  # noqa: F401  (bind every name before wrapping it)
    from probes import GROUPS, PROBES, layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    problems = []

    def traced(run: str, fn):
        tracer.install(PROBES)
        tracer.start_run(run)
        try:
            return fn()
        finally:
            tracer.uninstall()

    setup_runs = set()
    for argv in workloads.setup_commands(workload):
        run = f"setup.{_subcommand(argv)}"
        setup_runs.add(run)
        rc = traced(run, lambda argv=argv: _run_cli(argv, tracer)[0])
        if rc != 0:
            problems.append(f"set-up command {argv} exited with {rc}")

    plain, timed = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain.append(repeat())
        timed.append(traced(f"main.{k}", lambda: repeat(tracer)))
        k += 1
    metrics = layer_metrics(tracer, setup_runs, f"main.{k - 1}")
    metrics["trace_overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1.0
    metrics.update(_group_times(workload, GROUPS, tracer.missing))
    problems += _cross_checks(workload, manifest, check, metrics, tracer.missing)
    tracer.write(spans_path)
    return {"layers": metrics, "missing": tracer.missing, "trace_problems": problems,
            "walls": plain, "traced_walls": timed}


def _group_times(workload: str, groups, missing: list[str]) -> dict[str, float]:
    """Seconds each public extractor takes over the timed command's flows."""
    from flowcbr import features, flows as flows_mod

    if workload in workloads.SERVE:
        parsed = flows_mod.parse_pcap(Path("test.pcap").read_bytes())
        flows = flows_mod.assemble_flows(parsed.records)
    else:
        flows = flows_mod.load_flows_csv("flows.csv")
    out = {}
    for group, fn_name in groups:
        fn = getattr(features, fn_name, None)
        if fn is None:
            missing.append(f"features.group.{group} (flowcbr.features:{fn_name})")
            out[f"features.group.{group}.s"] = 0.0
            continue
        start = time.perf_counter()
        for flow in flows:
            fn(flow)
        out[f"features.group.{group}.s"] = time.perf_counter() - start
    return out


def _cross_checks(workload, manifest, check, m, missing) -> list[str]:
    """Compare traced counts with counts known from the generated inputs."""
    absent = {entry.split(" ")[0] for entry in missing}
    n = manifest["n_flows"]
    if workload in workloads.SERVE:
        expected = {
            ("cbr.classify", "cbr.classify.calls"): n,
            ("flows.parse_pcap", "flows.parse_pcap.packets"): manifest["n_packets"],
            ("flows.assemble_flows", "flows.assemble_flows.flows"): n,
            ("features.extract_matrix", "features.extract_matrix.flows"): n,
            ("flows.load_flows_csv", "setup.flows.load_flows_csv.flows"): manifest["n_train"],
            ("features.extract_matrix", "setup.features.extract_matrix.flows"):
                manifest["n_train"],
        }
    else:
        expected = {
            ("flows.load_flows_csv", "flows.load_flows_csv.flows"): n,
            ("features.extract_matrix", "features.extract_matrix.flows"): n,
        }
    problems = []
    for (probe, key), want in expected.items():
        if probe not in absent and m[key] != want:
            problems.append(f"{key} is {m[key]}, expected {want}")
    n_test = (check.mix or {}).get("n_test", 0) if workload == "eval" else 0
    if "cbr.classify" not in absent and m["cbr.classify.calls"] < n_test:
        problems.append(f"cbr.classify.calls is {m['cbr.classify.calls']}, "
                        f"fewer than the {n_test} test flows")
    return problems


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "gen":
        out = gen(argv[1], int(argv[2]), Path.cwd())
    elif mode == "setup":
        out = setup(argv[1])
    elif mode == "measure":
        out = measure(argv[1], int(argv[2]), Path.cwd(), float(argv[3]),
                      argv[4] == "1", argv[5], "--write-reference" in argv[6:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

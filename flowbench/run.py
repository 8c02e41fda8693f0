"""flowcbr benchmark: one seeded run of one workload.

    python3 flowbench/run.py --workload serve_known --seed 1 --seconds 15 --trace 0

Run from the repository root. Inputs are generated from the seed in a
separate process, then each measurement starts a fresh single-threaded
Python process (PYTHONPATH=src, BLAS threads pinned to 1) that calls
``flowcbr.cli.main`` in-process, one command after another: a closed loop
with one caller.

``--trace 0`` reports the end-to-end metrics:

    setup_s      wall time of a fresh process that imports flowcbr and runs
                 the set-up commands (serve workloads: extract and index,
                 labeled CSV in, model directory ready; eval has no set-up
                 command, so this is process start and import)
    flows_per_s  flows handled per second of the timed command's wall time
                 (classify on the serve workloads, eval on eval)
    peak_rss_mb  peak resident memory of the process running the timed command,
                 read after its first run
    model_mb     bytes on disk of the model directory ``index`` wrote; for
                 eval, which keeps its model in memory, of the report it wrote

Set-up runs SETUP_REPS times and the timed command repeats for --seconds
after one untimed warm-up; each timing is the median of its repeats. A
shared host's speed swings by 1.5 to 3 times for tens of seconds, so the
benchmark runs a fixed kernel that does not call flowcbr (hostspeed.py)
between repeats and reports both timings at the kernel's reference speed:
setup_s and the wall time behind flows_per_s are scaled by
REFERENCE_S / (median kernel time). The unscaled values and the kernel
times are listed in the run information.

``--trace 1`` runs set-up and the timed command again with spans around the
calls into each layer (see probes.py) and reports the per-layer metrics.
The spans are written to .flowbench/traces/. All scratch files live under
.flowbench/ in the checkout and are removed at exit.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it holds run information (versions, cores, commit, verdict mix).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import at_reference, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".flowbench"
TIME_LIMIT_S = 170.0
SETUP_REPS = 3

END_TO_END = (("setup_s", "s"), ("flows_per_s", "flows/s"),
              ("peak_rss_mb", "MB"), ("model_mb", "MB"))


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_info() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": commit, "src_lines": src_lines}


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, *args: str) -> dict:
        """Run one worker process to completion and return its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                                  cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} passed the time limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
        return json.loads(lines[-1])


def bench(args: argparse.Namespace) -> tuple[dict, dict]:
    import workloads
    from probes import PER_LAYER

    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH))
    try:
        runner = Runner(work)
        gen = runner.worker("gen", args.workload, str(args.seed))
        problems = list(gen["problems"])
        if problems:
            raise BenchError(f"generated inputs are inconsistent: {problems}")
        manifest = json.loads((work / "manifest.json").read_text())
        serve = args.workload in workloads.SERVE

        setup_walls, setup_kernels, digests = [], [], set()
        for _ in range(1 if args.trace else SETUP_REPS):
            setup_kernels += [kernel_seconds(), kernel_seconds()]
            start = time.perf_counter()
            codes = runner.worker("setup", args.workload)["codes"]
            setup_walls.append(time.perf_counter() - start)
            if any(codes):
                problems.append(f"set-up commands exited with {codes}")
            if serve:
                digests.add(dir_digest(work / "model"))
        setup_kernels += [kernel_seconds(), kernel_seconds()]
        if len(digests) > 1:
            problems.append("repeated set-up wrote different model directories")
        model_bytes = dir_bytes(work / "model") if serve else 0

        spans = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        extra = ["--write-reference"] if args.write_reference else []
        res = runner.worker("measure", args.workload, str(args.seed), str(args.seconds),
                            str(args.trace), str(spans), *extra)
        problems += res["problems"] + res.get("trace_problems", [])
        if not serve:
            model_bytes = dir_bytes(work / "out")

        info = dict(run_info(), workload=args.workload, seed=args.seed,
                    python=res["python"], numpy=res["numpy"], mix=res["mix"],
                    reps=len(res["walls"]), walls=res["walls"],
                    setup_walls=setup_walls, problems=problems,
                    missing_probes=res.get("missing", []))
        if args.trace:
            metrics = {name: {"value": res["layers"][name], "unit": unit}
                       for name, unit in PER_LAYER}
            info["spans"] = str(spans.relative_to(ROOT))
        else:
            wall, setup_wall = statistics.median(res["walls"]), statistics.median(setup_walls)
            kernel, setup_kernel = statistics.median(res["kernels"]), statistics.median(setup_kernels)
            values = {
                "setup_s": at_reference(setup_wall, setup_kernel),
                "flows_per_s": manifest["n_flows"] / at_reference(wall, kernel),
                "peak_rss_mb": res["peak_rss_mb"],
                "model_mb": model_bytes / 1e6,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            info.update(unscaled_setup_s=setup_wall,
                        unscaled_flows_per_s=manifest["n_flows"] / wall,
                        kernels=res["kernels"], setup_kernels=setup_kernels)
        result = {"correct": not problems and res["failed"] == 0,
                  "attempted": res["attempted"], "failed": res["failed"],
                  "metrics": metrics}
        return info, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS
    from checks import REFERENCE_SEED

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"rewrite reference/<workload>.json (seed {REFERENCE_SEED} only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if args.write_reference and args.seed != REFERENCE_SEED:
        p.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flowcbr" / "cli.py").is_file():
        print(f"error: no flowcbr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        info, result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Checks on what each timed command wrote.

A flow fails when its verdict is missing, malformed, or wrong. Wrong means:
for the reference seed, different ``(flow_id, kind, label)`` from the
committed reference (extra verdict fields are ignored); for any other seed,
a label not drawn from the trained or already registered classes; on every
seed, a verdict that differs between repeats of the same command. A command
that exits non-zero fails all of its flows.

Each workload also has a band on its verdict mix, set from runs of the
commit that introduced the benchmark. A workload that stops exercising its
layer is reported as a problem, which makes the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
KINDS = ("Known", "OOD", "NewClassPending", "NewClassRegistered")
SUMMARY_KEYS = ("accuracy_cbr", "accuracy_ensemble", "accuracy_forest",
                "macro_f1_cbr", "macro_f1_ensemble", "macro_f1_forest")

# Lower bounds on the verdict mix of the timed command: shares of its flows
# (of its Known verdicts for known_correct), a count of registrations, and
# eval accuracies.
BANDS = {
    "serve_known": {"Known": 0.95, "known_correct": 0.95},
    "serve_novel": {"NewClassPending": 0.50, "registrations": 3},
    "eval": {"accuracy_cbr": 0.90, "accuracy_forest": 0.90},
}


def _read_verdicts(path: Path) -> tuple[list[tuple], int]:
    """(flow_id, kind, label) per well-formed line, and the malformed count."""
    rows, bad = [], 0
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return [], 0
    for line in lines:
        try:
            doc = json.loads(line)
            rows.append((str(doc["flow_id"]), str(doc["kind"]), doc.get("label")))
        except (ValueError, KeyError, TypeError):
            bad += 1
    return rows, bad


class OutputCheck:
    """Counts failed flows in each repeat of one workload's timed command."""

    def __init__(self, workload: str, manifest: dict, seed: int) -> None:
        self.workload = workload
        self.manifest = manifest
        self.n_flows = manifest["n_flows"]
        self.first: object = None
        self.mix: dict | None = None
        self.problems: list[str] = []
        self.reference = None
        path = REFERENCE_DIR / f"{workload}.json"
        if seed == REFERENCE_SEED and path.exists():
            self.reference = json.loads(path.read_text())

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def check(self, out: Path, rc: int) -> int:
        """Failed flows in this repeat, whose outputs are in ``out``."""
        if rc != 0:
            self.problem(f"{self.workload} command exited with {rc}")
            return self.n_flows
        if self.workload == "eval":
            return min(self.n_flows, self._check_eval(out))
        return min(self.n_flows, self._check_serve(out))

    # -- serve workloads ---------------------------------------------------

    def _check_serve(self, out: Path) -> int:
        rows, bad = _read_verdicts(out / "verdicts.jsonl")
        truth = self.manifest["truth"]
        by_id: dict[str, tuple] = {}
        wrong: set[str] = set()
        for row in rows:
            if row[0] not in truth or row[0] in by_id:
                bad += 1
            by_id.setdefault(row[0], row)
        missing = [fid for fid in truth if fid not in by_id]
        if missing or bad:
            self.problem(f"{len(missing)} flows without a verdict, {bad} malformed, "
                         f"duplicate or unknown verdict lines")
        ordered = [by_id[fid] for fid in sorted(truth) if fid in by_id]
        if self.reference is not None:
            expected = {r[0]: tuple(r) for r in self.reference["verdicts"]}
            diff = {r[0] for r in ordered if expected.get(r[0]) != r}
            if diff:
                self.problem(f"{len(diff)} verdicts differ from the reference")
            wrong |= diff
        else:
            wrong |= self._invalid_labels(ordered)
        wrong |= self._repeat_diff(ordered)
        if self.first is None:
            self.first = ordered
            self._serve_band(ordered)
        return len(missing) + len(wrong) + bad

    def _invalid_labels(self, ordered: list[tuple]) -> set[str]:
        """Flows whose verdict breaks the verdict model's invariants."""
        known = set(self.manifest["classes"])
        wrong = set()
        for fid, kind, label in ordered:  # in stream order
            if kind not in KINDS:
                wrong.add(fid)
            elif kind in ("OOD", "NewClassPending"):
                if label is not None:
                    wrong.add(fid)
            elif kind == "NewClassRegistered":
                if not label or label in known:
                    wrong.add(fid)
                known.add(label)
            elif label not in known:
                wrong.add(fid)
        if wrong:
            self.problem(f"{len(wrong)} verdicts break the verdict invariants")
        return wrong

    def _repeat_diff(self, ordered: list[tuple]) -> set[str]:
        if self.first is None:
            return set()
        first = {r[0]: r for r in self.first}
        diff = {r[0] for r in ordered if first.get(r[0]) != r}
        if diff:
            self.problem(f"{len(diff)} verdicts changed between repeats")
        return diff

    def _serve_band(self, ordered: list[tuple]) -> None:
        n = self.n_flows
        mix = {k: sum(1 for r in ordered if r[1] == k) for k in KINDS}
        band = BANDS[self.workload]
        if self.workload == "serve_known":
            truth = self.manifest["truth"]
            correct = sum(1 for fid, kind, label in ordered
                          if kind == "Known" and label == truth[fid])
            if mix["Known"] < band["Known"] * n:
                self.problem(f"only {mix['Known']}/{n} verdicts are Known")
            if correct < band["known_correct"] * mix["Known"]:
                self.problem(f"only {correct}/{mix['Known']} Known labels are right")
            mix["known_correct"] = correct
        else:
            if mix["NewClassPending"] < band["NewClassPending"] * n:
                self.problem(f"only {mix['NewClassPending']}/{n} verdicts are Pending")
            if mix["NewClassRegistered"] < band["registrations"]:
                self.problem(f"only {mix['NewClassRegistered']} registrations")
        self.mix = mix

    # -- eval --------------------------------------------------------------

    def _check_eval(self, out: Path) -> int:
        try:
            summary = json.loads((out / "summary.json").read_text())
            values = {k: summary[k] for k in SUMMARY_KEYS}
            n_test, n_train = int(summary["n_test"]), int(summary["n_train"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problem(f"eval summary unreadable: {exc}")
            return self.n_flows
        if n_test + n_train != self.n_flows:
            self.problem(f"eval split {n_train}+{n_test} does not cover {self.n_flows} flows")
            return self.n_flows
        failed = 0
        if self.reference is not None and values != self.reference["summary"]:
            self.problem("eval summary differs from the reference")
            failed = self.n_flows
        if self.first is not None and values != self.first:
            self.problem("eval summary changed between repeats")
            failed = self.n_flows
        rows, bad = _read_verdicts(out / "verdicts.jsonl")
        ids = [r[0] for r in rows]
        bad += len(ids) - len(set(ids)) + len(set(ids) - set(self.manifest["input_ids"]))
        bad += abs(n_test - len(rows)) + len(self._invalid_labels(rows))
        if bad:
            self.problem(f"{bad} eval verdicts missing, duplicated or invalid")
        if self.first is None:
            self.first = values
            self.mix = dict(values, n_test=n_test)
            band = BANDS["eval"]
            for key in ("accuracy_cbr", "accuracy_forest"):
                if values[key] < band[key]:
                    self.problem(f"eval {key} {values[key]:.3f} below {band[key]}")
        return max(failed, bad)

    # -- reference -----------------------------------------------------------

    def reference_doc(self, out: Path) -> dict:
        """The reference for this seed, from outputs that passed the checks."""
        if self.workload == "eval":
            summary = json.loads((out / "summary.json").read_text())
            return {"seed": self.manifest["seed"],
                    "summary": {k: summary[k] for k in SUMMARY_KEYS}}
        rows, _ = _read_verdicts(out / "verdicts.jsonl")
        return {"seed": self.manifest["seed"], "verdicts": sorted(rows)}

#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the repository root::

    python3 benchmarks/selftest.py

1. Runs every workload at the tiny scale, untraced and traced, on the default
   seed and on another seed, and checks that the result line is well formed,
   correct, and carries exactly the metrics and units ``BENCHMARK.json``
   declares, each also printed as a text line with its unit.
2. Checks that a traced pass's spans account for its wall time.
3. Perturbs one reference value per workload and checks that the pass then
   counts as failed, so ``error_ratio`` is non-zero.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import benchenv

benchenv.cap_threads()  # before the first numpy import
benchenv.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def fail(message: str) -> None:
    sys.exit(f"selftest: FAIL: {message}")


def run_tiny(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                          check=False, cwd=benchenv.ROOT)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(label: str, text: list[str], result: dict, declared: list[dict]) -> None:
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, unit in want.items():
        if not any(line.split()[:1] == [name] and f" {unit}" in line for line in text):
            fail(f"{label}: no text line prints {name} with unit {unit}")
    if not any(line.startswith("error_ratio ") for line in text):
        fail(f"{label}: error_ratio not printed")


def check_accounting(label: str, result: dict) -> None:
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    unaccounted = metrics["trace.unaccounted_s"]
    spanned = sum(v for name, v in metrics.items()
                  if name.endswith("_s") and name not in (
                      "experiments.sweep_s", "proc.cpu_s", "trace.overhead_s",
                      "trace.unaccounted_s"))
    if unaccounted > 0.01 * spanned + 0.002:
        fail(f"{label}: spans leave {unaccounted:.6f} s of {spanned:.6f} s unaccounted")


def perturb(name: str, ref: dict) -> dict:
    """A copy of ``ref`` with one number changed by one part in a million."""
    ref = copy.deepcopy(ref)
    if name == "figures":
        point = next(p for pts in ref["points"].values() for p in pts
                     if p["score"] is not None)
        point["score"] *= 1 + 1e-6
    elif name == "mc_ensemble":
        header, first, *rest = ref["texts"]["ensemble.csv"].split("\n")
        cells = first.split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6))
        ref["texts"]["ensemble.csv"] = "\n".join([header, ",".join(cells), *rest])
    else:
        ref["score"] *= 1 + 1e-6
    return ref


def check_perturbed() -> None:
    seed = workloads.DEFAULT_SEED
    for name, cls in workloads.WORKLOADS.items():
        ref = workloads.load_reference(cls.reference_key(seed, "tiny"))
        for reference, want_failed in ((ref, False), (perturb(name, ref), True)):
            workload = cls(seed, "tiny", reference)
            workdir = Path(tempfile.mkdtemp(dir=benchenv.ROOT))
            try:
                verdict = workload.check(workload.run_pass(spans.NULL, workdir), workdir)
            finally:
                shutil.rmtree(workdir)
            if (verdict.failed > 0) != want_failed:
                fail(f"{name}: {verdict.failed} of {verdict.attempted} failed "
                     f"with {'a perturbed' if want_failed else 'the recorded'} reference")
        print(f"ok  {name}: a perturbed reference value fails the check")


def main() -> int:
    declared = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in declared["workloads"]):
        for seed in (7, 8):
            for trace in (0, 1):
                label = f"{name} seed={seed} trace={trace}"
                text, result = run_tiny(name, seed, trace)
                check_result(label, text, result,
                             declared["per_layer" if trace else "end_to_end"])
                if trace:
                    check_accounting(label, result)
                print(f"ok  {label}")
    check_perturbed()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""netspread benchmark: one workload, closed loop, checked outputs.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload figures --seed 7 --seconds 30 --trace 0

Runs passes of the workload one after another until ``--seconds`` have
passed, checks every pass against the reference, and prints one line per
metric with its unit followed, as the last line, by a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones.  ``wall_s`` and ``setup_s`` are scaled
to a reference machine speed with the probes in ``speed.py``.  See
``benchmarks/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import benchenv

THREADS = benchenv.cap_threads()  # before the first numpy import
benchenv.import_program()

import numpy as np  # noqa: E402
import netspread  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the harness self-test")
    ap.add_argument("--setup-probe", type=float, default=None,
                    help=argparse.SUPPRESS)  # launch time; set up, print elapsed, exit
    return ap.parse_args(argv)


def measure_setup(args) -> list[tuple[float, float]]:
    """Seconds from process launch to ready-to-run, for fresh processes,
    each with the launch time (:func:`speed.launch`) to scale it by.

    Each sample is this script in a new interpreter: it imports netspread,
    builds the workload's inputs, warms up and reports the time since its
    launch.  A launch probe runs before the first sample and after every
    sample; a sample is scaled by the mean of the two around it.
    """
    samples = []
    before = speed.launch()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale,
               "--setup-probe", repr(time.time())]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"benchmark: set-up probe exited with {done.returncode}")
        after = speed.launch()
        samples.append((float(done.stdout.strip().splitlines()[-1]), (before + after) / 2))
        before = after
    return samples


def git_rev() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = benchenv.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted(benchenv.SRC.rglob("*.py")):
        digest.update(path.relative_to(benchenv.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "netspread": netspread.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": benchenv.nproc(),
        "threads": THREADS,
    }


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if above p50."""
    n = len(samples)
    if n < 21:
        return f"no tail percentile: {n} passes, 21 needed for one above p50"
    ordered = sorted(samples)
    index = n - 11
    return f"p{100 * (index + 1) // n}={ordered[index]:.6f} s over {n} passes"


def run_passes(workload, seconds: float, trace: bool, scratch: Path):
    """Closed loop: pass, check, repeat until ``seconds`` have passed.

    With tracing, untraced and traced passes alternate (at least one each).
    Untraced passes run on a :class:`speed.PassClock`, which the workload
    may split with ``lap`` calls; each is kept as ``(raw wall, wall at
    reference speed, cpu)``.  Traced passes get a ``lap`` that does nothing,
    so their spans hold no probe time.
    """
    tracer = spans.Tracer() if trace else None
    untraced, traced, layer = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    kernel = workload.kernel
    probe_s = speed.probe(kernel)
    i = 0
    while True:
        traced_pass = trace and i % 2 == 1
        tr = tracer if traced_pass else spans.NULL
        if traced_pass:
            tracer.begin_pass(i)
        workdir = Path(tempfile.mkdtemp(prefix=f"pass{i}-", dir=scratch))
        clock = None if traced_pass else speed.PassClock(kernel, probe_s)
        t0 = time.perf_counter()
        try:
            with tr.span("pass"):
                out = workload.run_pass(tr, workdir, clock.lap if clock else workloads.no_lap)
            error = None
        except Exception as exc:  # noqa: BLE001 - the pass counts as failed
            traceback.print_exc(file=sys.stderr)
            error = exc
        wall = time.perf_counter() - t0
        if clock:
            clock.lap()
            probe_s = clock.probe_s
        else:
            probe_s = speed.probe(kernel)
        if error is None:
            verdict = workload.check(out, workdir)
        else:
            verdict = workloads.Verdict(workload.ops, workload.ops)
        attempted += verdict.attempted
        failed += verdict.failed
        if traced_pass:
            traced.append(wall)
            metrics = spans.pass_metrics(tracer, i)
            metrics.update(verdict.counts)
            layer.append(metrics)
        else:
            untraced.append((clock.raw, clock.scaled, clock.cpu))
        shutil.rmtree(workdir)
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    return tracer, untraced, traced, layer, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        workloads.setup(args.workload, args.seed, args.scale)
        print(f"{time.time() - args.setup_probe:.9f}")
        return 0

    setup_samples = measure_setup(args)
    workload = workloads.setup(args.workload, args.seed, args.scale)
    meta = metadata()
    scratch_root = benchenv.ROOT / ".bench_tmp"
    scratch = scratch_root / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        tracer, untraced, traced, layer, attempted, failed = run_passes(
            workload, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    head = (f"{args.workload} seed={args.seed} scale={args.scale} "
            f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# netspread benchmark: {head}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    walls = [scaled for _, scaled, _ in untraced]
    wall = statistics.median(walls)
    wall_raw = statistics.median(raw for raw, _, _ in untraced)
    setup = statistics.median(raw * speed.LAUNCH_REFERENCE_S / launch
                           for raw, launch in setup_samples)
    setup_raw = statistics.median(raw for raw, _ in setup_samples)
    kernel_ratio = statistics.median(raw / scaled for raw, scaled, _ in untraced)
    launch_ratio = statistics.median(
        launch / speed.LAUNCH_REFERENCE_S for _, launch in setup_samples)
    print(f"wall_s       {wall:.6f} s   median of {len(untraced)} passes at reference "
          f"speed; {tail_percentile(walls)}")
    print(f"setup_s      {setup:.6f} s   median of {len(setup_samples)} fresh processes "
          f"at reference speed")
    print(f"# as timed: wall {wall_raw:.6f} s with {workload.kernel} at "
          f"{kernel_ratio:.3f} x its reference time; setup {setup_raw:.6f} s with "
          f"launch at {launch_ratio:.3f} x its reference time (medians)")
    print(f"peak_rss_mb  {peak_rss_mb:.3f} MB")
    print(f"error_ratio  {failed / attempted:.6f} ratio   "
          f"{failed} failed of {attempted} operations")

    if args.trace:
        per_layer = {
            name: statistics.median(m.get(name, 0.0) for m in layer)
            for name, _ in spans.PER_LAYER
            if name not in ("proc.cpu_s", "trace.overhead_s")
        }
        per_layer["proc.cpu_s"] = statistics.median(cpu for _, _, cpu in untraced)
        per_layer["trace.overhead_s"] = statistics.median(traced) - wall_raw
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
        for name, unit in spans.PER_LAYER:
            print(f"{name:32s} {per_layer[name]:.6f} {unit}")
        print(f"# {len(traced)} traced passes, median {statistics.median(traced):.6f} s")
    else:
        values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "args": vars(args), "meta": meta, "metrics": metrics,
        "untraced_walls": [raw for raw, _, _ in untraced],
        "untraced_scaled_walls": walls,
        "traced_walls": traced,
        "setup_samples": [raw for raw, _ in setup_samples],
        "setup_launch_probes": [launch for _, launch in setup_samples],
        "kernel": workload.kernel,
        "attempted": attempted, "failed": failed,
        "spans": [sp.to_dict() for sp in tracer.spans] if tracer else [],
        "counts": {str(k): dict(v) for k, v in tracer.counts.items()} if tracer else {},
    }
    out_dir = benchenv.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"# record written to {out_file.relative_to(benchenv.ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the benchmark's reference outputs for the default seed.

Run from the repository root at the commit whose outputs are the reference::

    python3 benchmarks/make_reference.py

Writes ``benchmarks/reference/<key>.json.gz`` for every workload at both
scales.  A pass's outputs are checked against these files; do not regenerate
them to make a failing check pass.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import benchenv

benchenv.cap_threads()  # before the first numpy import
benchenv.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    done = set()
    for cls in workloads.WORKLOADS.values():
        for scale in ("full", "tiny"):
            key = cls.reference_key(seed, scale)
            if key in done:
                continue
            done.add(key)
            workload = cls(seed, scale, None)
            workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=benchenv.ROOT))
            try:
                out = workload.run_pass(spans.NULL, workdir)
                path = workloads.save_reference(key, workload.snapshot(out, workdir))
            finally:
                shutil.rmtree(workdir)
            print(f"{key}: {path.relative_to(benchenv.ROOT)} "
                  f"({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests: the example scripts run end to end on small inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


@pytest.mark.parametrize("script,args", [
    ("isolation_demo.py", ("--n", "200", "--k", "3")),
    ("threshold_scan.py", ("--points", "2", "--steps", "50")),
    ("threshold_scan.py", ("--family", "powerlaw", "--n", "200", "--points", "2",
                           "--steps", "50")),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("graph: ")

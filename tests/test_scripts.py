"""Smoke tests: the example scripts run end to end on small inputs."""
import json
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
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("graph: ")


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300, env=env)


def test_threshold_scan_reports_a_bad_graph_as_the_cli_does():
    # lattice4 reads rows and cols, not n: exit 2, the error JSON on stderr.
    proc = run_script("threshold_scan.py", "--family", "lattice4", "--n", "5")
    assert proc.returncode == 2 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["type"] == "ConfigError" and payload["field"] == "graph.n"
    assert "does not read this field" in payload["error"]

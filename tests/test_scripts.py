"""Smoke tests: the example scripts run end to end on small inputs."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


@pytest.mark.parametrize("script,args", [
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


def test_code_lines_counts_code_outside_comments_and_docstrings():
    code_lines = runpy.run_path(str(SCRIPTS / "code_lines.py"))["code_lines"]
    assert code_lines(
        '"""Module docstring,\ntwo lines."""\n# a comment\n\nimport os  # trailing\n\n\n'
        'def f(x):\n    """Docstring."""\n    y = (x +\n         1)\n    return y\n\n\n'
        'TEXT = """a string,\nnot a docstring"""\n') == 7
    assert code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_of_the_package_sum_to_its_total():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    assert [line.split(" ")[0] for line in modules] == [
        f"src/netspread/{path.name}" for path in sorted(SRC.glob("netspread/*.py"))]
    assert total.startswith("src/netspread/*.py code lines (no blank, comment or docstring")
    assert int(total.rsplit(" ", 1)[1]) == sum(int(line.rsplit(" ", 1)[1]) for line in modules)

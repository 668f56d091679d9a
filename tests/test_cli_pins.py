"""Every CLI subcommand, pinned byte for byte: exit code, stdout, the stderr
error JSON and the SHA-256 of every file written.

Each case runs in a fresh directory with relative output names, so stdout
does not depend on where the test runs.  ``EXPECTED`` was recorded before
the subcommands were routed through the sweep's runner.  Changed since: the
wording of the ``sis`` warning-state error (``meanfield_sis_w0``), and six
invalid inputs, re-recorded when ``ode``, ``meanfield`` and ``mc`` came to
run a checked one-point config and ``spectral`` to check its parameters
with a network model's ranges.  Each now exits 2 with a ``ConfigError``
whose ``field`` is the option: ``beta_above_one``, ``mc_negative_steps``,
``meanfield_tol_nan``, ``ode_dt_nan``, ``ode_t_end_inf`` (each a library
``ValueError`` before) and ``meanfield_zero_steps`` (a 0-step run that
exited 0 before).  ``ode_t_end_inf``, ``ode_dt_nan`` and ``mc_decided``
were added later than the first recording.  ``mc_decided`` leaves r, nu and chi at
their defaults (1, 1 and 0), so every step skips the uniforms of three
decided phases; its digest was recorded while every step still drew them.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LATTICE = ("--family", "lattice4", "--rows", "3", "--cols", "3")
POWERLAW = ("--family", "powerlaw", "--n", "50", "--m", "2", "--seed", "1")
RATES = ("--beta", "0.1", "--delta", "0.1", "--gamma", "0.1")
HOT = ("--beta", "1.0", "--delta", "0.9", "--gamma", "0.0", "--p0", "0.99")
ISOLATE = ("--beta", "0.4", "--delta", "0.65", "--gamma", "0.3",
           "--output-graph", "after.edges", "--output-report", "report.json")

CASES = {
    "generate": ("generate", "--family", "powerlaw", "--n", "60", "--m", "2",
                 "--seed", "3", "--output", "g.edges"),
    "ode_sir_epidemic": ("ode", "--model", "sir_epidemic", "--beta", "0.8",
                         "--gamma", "0.1", "--i0", "0.001", "--t-end", "5",
                         "--output", "o.csv"),
    "ode_sir_endemic": ("ode", "--model", "sir_endemic", "--beta", "0.5",
                        "--gamma", "0.1", "--mu", "0.05", "--s0", "0.9",
                        "--i0", "0.05", "--dt", "0.05", "--t-end", "10",
                        "--output", "o.csv"),
    "ode_sis": ("ode", "--model", "sis", "--beta", "1.0", "--gamma", "0.1",
                "--dt", "0.05", "--t-end", "5", "--output", "o.csv"),
    "ode_instability": ("ode", "--model", "sis", "--beta", "9", "--gamma", "0",
                        "--i0", "0.5", "--dt", "5", "--t-end", "50",
                        "--output", "o.csv"),
    "ode_t_end_inf": ("ode", "--model", "sis", "--beta", "1", "--gamma", "0.1",
                      "--t-end", "inf", "--output", "o.csv"),
    "ode_dt_nan": ("ode", "--model", "sis", "--beta", "1", "--gamma", "0.1",
                   "--dt", "nan", "--output", "o.csv"),
    "meanfield_sis": ("meanfield", *POWERLAW, *RATES, "--steps", "50",
                      "--output", "mf.csv"),
    "meanfield_sirs": ("meanfield", "--model", "sirs", "--family", "lattice4",
                       "--rows", "4", "--cols", "5", "--beta", "0.3",
                       "--delta", "0.2", "--gamma", "0.1", "--r", "0.9",
                       "--nu", "0.6", "--chi", "0.3", "--p0", "0.2",
                       "--w0", "0.05", "--steps", "40", "--tol", "0",
                       "--output", "mf.csv"),
    "meanfield_allow_negative": ("meanfield", *LATTICE, *HOT, "--steps", "20",
                                 "--allow-negative-coefficients",
                                 "--output", "mf.csv"),
    "meanfield_bounds": ("meanfield", *LATTICE, *HOT, "--output", "mf.csv"),
    "meanfield_tol_nan": ("meanfield", *POWERLAW, *RATES, "--tol", "nan",
                          "--output", "mf.csv"),
    "meanfield_zero_steps": ("meanfield", *POWERLAW, *RATES, "--steps", "0",
                             "--output", "mf.csv"),
    "meanfield_sis_w0": ("meanfield", *POWERLAW, *RATES, "--w0", "0.1",
                         "--output", "mf.csv"),
    "mc": ("mc", "--family", "binomial", "--n", "50", "--p", "0.1", "--seed", "2",
           "--beta", "0.2", "--delta", "0.2", "--gamma", "0.1", "--nu", "0.7",
           "--chi", "0.2", "--init", "0.2", "--steps", "10", "--runs", "5",
           "--master-seed", "11", "--output", "mc.csv"),
    "mc_decided": ("mc", "--family", "powerlaw", "--n", "300", "--m", "3",
                   "--seed", "4", "--beta", "0.15", "--delta", "0.1",
                   "--gamma", "0.2", "--init", "0.1", "--steps", "30",
                   "--runs", "6", "--master-seed", "3", "--output", "mc.csv"),
    "mc_negative_steps": ("mc", *POWERLAW, *RATES, "--steps", "-1", "--runs", "2",
                          "--output", "mc.csv"),
    "spectral_eigenvector": ("spectral", *POWERLAW, *RATES,
                             "--eigenvector-csv", "vec.csv"),
    "spectral_zero_delta": ("spectral", *LATTICE, "--beta", "0.1",
                            "--delta", "0", "--gamma", "0.1"),
    "isolate_greedy": ("isolate", "--family", "powerlaw", "--n", "100", "--m", "2",
                       "--seed", "4", "--strategy", "greedy", "--k", "3", *ISOLATE),
    "isolate_cycle_failure": ("isolate", *POWERLAW, "--strategy", "cycle",
                              *ISOLATE),
    "isolate_lattice": ("isolate", "--family", "powerlaw", "--n", "100",
                        "--m", "2", "--seed", "4", "--strategy", "lattice",
                        *ISOLATE),
    "beta_above_one": ("spectral", *LATTICE, "--beta", "1.5", "--delta", "0.1",
                       "--gamma", "0.1"),
}


def run_case(args: tuple[str, ...], cwd: Path) -> tuple:
    """``(exit code, stdout, stderr JSON or None, {file: SHA-256})``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "netspread", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    files = {
        p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cwd.rglob("*")) if p.is_file()
    }
    return (proc.returncode, proc.stdout,
            json.loads(proc.stderr) if proc.stderr else None, files)


EXPECTED = {
    "beta_above_one": (
        2,
        "",
        {
            "error": "--beta: must be in [0, 1], got 1.5",
            "type": "ConfigError",
            "field": "--beta",
        },
        {},
    ),
    "generate": (
        0,
        "nodes=60 edges=117 output=g.edges\n",
        None,
        {
            "g.edges":
                "88274914204b45ce4ea690236b7314c841082e39e464a52931340233319c033c",
        },
    ),
    "isolate_cycle_failure": (
        0,
        ("strategy=cycle success=false reason='stuck at node 47 after "
         "visiting 13 of 50 nodes: no unvisited neighbour'\n"),
        None,
        {
            "report.json":
                "8821ea8030f75ca057e2243e85787272c10d459d2b2618f73fd34b5a15fff320",
        },
    ),
    "isolate_greedy": (
        0,
        ("strategy=greedy lambda1_before=7.52156 lambda1_after=6.82855 "
         "score_before=1.30009 score_after=1.21255 "
         "threshold_crossed=False\n"),
        None,
        {
            "after.edges":
                "07b276de7d41e499301232e4efbde327ebcb2ec9041cf2dd2a0c4f54d0e46d5a",
            "report.json":
                "2735bba7f75f428c83415c14d93c173b06d1fb4b6fb8536011cff9c0ac60e718",
        },
    ),
    "isolate_lattice": (
        0,
        ("strategy=lattice lambda1_before=7.52156 lambda1_after=4 "
         "score_before=1.30009 score_after=0.855263 "
         "threshold_crossed=True\n"),
        None,
        {
            "after.edges":
                "6b5fdfc9def24ace56959c0a3a46c3b561c39a3f9f3edf35d8ca6a0b31677e91",
            "report.json":
                "0a35a138860b063b11742109016990d3a13df9455f45f637d8b8d1a8636aaf32",
        },
    ),
    "mc": (
        0,
        "runs=5 steps=10 final_hasinfo_mean=0.108 output=mc.csv\n",
        None,
        {
            "mc.csv":
                "08ee8909c04684f577f0c5860530052389efde129534daf8dfafff6adb3c6197",
        },
    ),
    "mc_decided": (
        0,
        "runs=6 steps=30 final_hasinfo_mean=0.468333 output=mc.csv\n",
        None,
        {
            "mc.csv":
                "37934d048946b8131e72bf85a9ee09263004fe46f0f9a6411b41c7d4f9259822",
        },
    ),
    "mc_negative_steps": (
        2,
        "",
        {
            "error": "--steps: must be >= 1, got -1",
            "type": "ConfigError",
            "field": "--steps",
        },
        {},
    ),
    "meanfield_allow_negative": (
        0,
        ("model=sis steps=10 converged=True carriers_final=7.52558e-10 "
         "violations=9 output=mf.csv\n"),
        None,
        {
            "mf.csv":
                "f9164bb340d264e77239c03d2991406906bf26f8728bb50160dd3835ba9e60a1",
        },
    ),
    "meanfield_bounds": (
        1,
        "",
        {
            "error":
                ("mean-field step 1 produced q[0]=-0.009, outside [0, 1] beyond "
                 "tolerance 1e-12; values are not clamped. Parameter regime "
                 "note: delta_i exceeds zeta_i(t) for 9 node(s) (first: node 0, "
                 "delta=0.9, zeta=1e-08), so the susceptible update coefficient "
                 "is negative."),
            "type": "MeanFieldBoundsError",
        },
        {},
    ),
    "meanfield_sirs": (
        0,
        ("model=sirs steps=40 converged=False carriers_final=0.7827 "
         "violations=0 output=mf.csv\n"),
        None,
        {
            "mf.csv":
                "f6ef6d0f9673ebc91677de413259e257d3464d2463df08b05f33bbca958a86ba",
        },
    ),
    "meanfield_sis": (
        0,
        ("model=sis steps=50 converged=False carriers_final=11.6068 "
         "violations=0 output=mf.csv\n"),
        None,
        {
            "mf.csv":
                "7df79f41156e387bccb5cdafc06ca7c8d99e4a8f62e806a30b90d2bc69d932be",
        },
    ),
    "meanfield_sis_w0": (
        2,
        "",
        {
            "error":
                "the sis model requires an empty warning state (w == 0)",
            "type": "ValueError",
        },
        {},
    ),
    "meanfield_tol_nan": (
        2,
        "",
        {
            "error": "--tol: must be finite and >= 0, got nan",
            "type": "ConfigError",
            "field": "--tol",
        },
        {},
    ),
    "meanfield_zero_steps": (
        2,
        "",
        {
            "error": "--steps: must be >= 1, got 0",
            "type": "ConfigError",
            "field": "--steps",
        },
        {},
    ),
    "ode_instability": (
        1,
        "",
        {
            "error":
                ("integration blew up: s=3779338398639807.5 at step 1 (t=5); "
                 "reduce dt or check parameters"),
            "type": "IntegrationInstabilityError",
        },
        {},
    ),
    "ode_dt_nan": (
        2,
        "",
        {
            "error": "--dt: must be positive and finite, got nan",
            "type": "ConfigError",
            "field": "--dt",
        },
        {},
    ),
    "ode_t_end_inf": (
        2,
        "",
        {
            "error": "--t-end: must be positive and finite, got inf",
            "type": "ConfigError",
            "field": "--t-end",
        },
        {},
    ),
    "ode_sir_endemic": (
        0,
        "model=sir_endemic t_end=10 s=0.42943 i=0.373323 output=o.csv\n",
        None,
        {
            "o.csv":
                "b93f8ed7710c93c5a048f62c9593e8e785913e8ae6322423892d1076cf230efd",
        },
    ),
    "ode_sir_epidemic": (
        0,
        "model=sir_epidemic t_end=5 s=0.963706 i=0.0317982 output=o.csv\n",
        None,
        {
            "o.csv":
                "0871637b4d695461d23883a8aa45fe78e8fa5b8106af18670eef3174ea1cbbb5",
        },
    ),
    "ode_sis": (
        0,
        "model=sis t_end=5 s=0.547443 i=0.452557 output=o.csv\n",
        None,
        {
            "o.csv":
                "072ad22f3001f198b486e59d56d409ea1144d735a7623ddd556857b692fa22e2",
        },
    ),
    "spectral_eigenvector": (
        0,
        "s=1.18607663994 fast_extinction=false\n",
        None,
        {
            "vec.csv":
                "88ffb8f319a68dfc2433fe80b9c7f82fdc28002329e6fea5ce43a8952db0f10c",
        },
    ),
    "spectral_zero_delta": (
        2,
        "",
        {
            "error":
                "system matrix requires delta > 0 for every node; node 0 has delta = 0",
            "type": "ValueError",
        },
        {},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_subcommand_bytes_are_pinned(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == EXPECTED[case]

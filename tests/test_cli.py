"""Command-line interface: exit codes, output formats, error envelopes."""
import json
import subprocess
import sys

import pytest


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "netspread", *args],
        capture_output=True, text=True, timeout=300,
    )


def stderr_error(proc: subprocess.CompletedProcess) -> dict:
    payload = json.loads(proc.stderr)
    assert "error" in payload and "type" in payload
    return payload


class TestTopLevel:
    def test_no_arguments_prints_usage(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    def test_unknown_subcommand_rejected(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2


class TestGenerate:
    def test_writes_edge_list_and_reports_counts(self, tmp_path):
        out = tmp_path / "g.edges"
        proc = run_cli("generate", "--family", "powerlaw", "--n", "50",
                       "--m", "2", "--seed", "7", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == f"nodes=50 edges=97 output={out}\n"
        from netspread.graphs import load_edge_list
        g = load_edge_list(out)
        assert g.n == 50 and g.num_edges == 97

    def test_two_invocations_are_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        args = ("generate", "--family", "binomial", "--n", "60", "--p", "0.1",
                "--seed", "3")
        pa = run_cli(*args, "--output", str(a))
        pb = run_cli(*args, "--output", str(b))
        assert pa.returncode == pb.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_flag_is_a_validation_error(self, tmp_path):
        proc = run_cli("generate", "--graph", "x.edges",
                       "--output", str(tmp_path / "y.edges"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ValueError"

    def test_bad_family_parameter(self, tmp_path):
        proc = run_cli("generate", "--family", "binomial", "--n", "10",
                       "--p", "1.5", "--output", str(tmp_path / "g.edges"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == "graph"


class TestOde:
    def test_endemic_run_writes_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_cli("ode", "--model", "sis", "--beta", "1.0",
                       "--gamma", "0.1", "--i0", "0.01", "--dt", "0.05",
                       "--t-end", "5", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout.startswith("model=sis t_end=5 ")
        lines = out.read_text().splitlines()
        assert lines[0] == "t,s,i,r"
        assert len(lines) == 102  # header + 101 sample points

    def test_unknown_model_rejected_by_parser(self, tmp_path):
        proc = run_cli("ode", "--model", "seir", "--beta", "1", "--gamma", "1",
                       "--output", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_instability_is_a_runtime_error(self, tmp_path):
        proc = run_cli("ode", "--model", "sis", "--beta", "9", "--gamma", "0",
                       "--i0", "0.5", "--dt", "5", "--t-end", "50",
                       "--output", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        payload = stderr_error(proc)
        assert payload["type"] == "IntegrationInstabilityError"
        assert "blew up" in payload["error"]


class TestMeanfield:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_tol_outside_finite_non_negative_is_a_validation_error(self, tmp_path, tol):
        out = tmp_path / "mf.csv"
        proc = run_cli("meanfield", "--family", "powerlaw", "--n", "50", "--m", "2",
                       "--seed", "1", "--beta", "0.1", "--delta", "0.1",
                       "--gamma", "0.1", "--steps", "20", f"--tol={tol}",
                       "--output", str(out))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ValueError" and "tol" in payload["error"]
        assert not out.exists()

    def test_lattice_run(self, tmp_path):
        out = tmp_path / "mf.csv"
        proc = run_cli("meanfield", "--model", "sis", "--family", "lattice4",
                       "--rows", "8", "--cols", "8", "--beta", "0.4",
                       "--delta", "0.65", "--gamma", "0.3", "--p0", "0.1",
                       "--steps", "2000", "--output", str(out))
        assert proc.returncode == 0
        assert "converged=True" in proc.stdout
        assert "violations=0" in proc.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mean_p,mean_q,mean_w,dead,carriers"

    def test_negative_coefficient_regime_exits_one(self, tmp_path):
        proc = run_cli("meanfield", "--model", "sis", "--family", "lattice4",
                       "--rows", "3", "--cols", "3", "--beta", "1.0",
                       "--delta", "0.9", "--gamma", "0.0", "--p0", "0.99",
                       "--output", str(tmp_path / "mf.csv"))
        assert proc.returncode == 1
        payload = stderr_error(proc)
        assert payload["type"] == "MeanFieldBoundsError"
        assert "not clamped" in payload["error"]

    def test_allow_flag_downgrades_to_reporting(self, tmp_path):
        out = tmp_path / "mf.csv"
        proc = run_cli("meanfield", "--model", "sis", "--family", "lattice4",
                       "--rows", "3", "--cols", "3", "--beta", "1.0",
                       "--delta", "0.9", "--gamma", "0.0", "--p0", "0.99",
                       "--steps", "20", "--allow-negative-coefficients",
                       "--output", str(out))
        assert proc.returncode == 0
        violations = int(proc.stdout.split("violations=")[1].split()[0])
        assert violations > 0
        assert out.is_file()

    def test_warned_retention_overflow_is_validation(self, tmp_path):
        proc = run_cli("meanfield", "--model", "sirs", "--family", "lattice4",
                       "--rows", "3", "--cols", "3", "--beta", "0.3",
                       "--delta", "0.6", "--gamma", "0.6", "--nu", "1.0",
                       "--chi", "1.0", "--p0", "0.1",
                       "--output", str(tmp_path / "mf.csv"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ParamRegimeError"
        assert "chi + delta" in payload["error"]


class TestMc:
    def test_master_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("mc", "--family", "binomial", "--n", "50", "--p", "0.1",
                "--seed", "2", "--beta", "0.2", "--delta", "0.2",
                "--gamma", "0.1", "--init", "0.2", "--steps", "30",
                "--runs", "20", "--master-seed", "11")
        pa = run_cli(*args, "--output", str(a))
        pb = run_cli(*args, "--output", str(b))
        assert pa.returncode == pb.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert pa.stdout.startswith("runs=20 steps=30 ")
        lines = a.read_text().splitlines()
        assert lines[0] == ("t,frac_noinfo_mean,frac_hasinfo_mean,"
                            "frac_warned_mean,frac_dead_mean,frac_hasinfo_std")
        assert len(lines) == 32

    def test_different_master_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("mc", "--family", "binomial", "--n", "50", "--p", "0.1",
                "--seed", "2", "--beta", "0.2", "--delta", "0.2",
                "--gamma", "0.1", "--init", "0.2", "--steps", "30",
                "--runs", "20")
        run_cli(*args, "--master-seed", "11", "--output", str(a))
        run_cli(*args, "--master-seed", "12", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_negative_steps_is_a_validation_error(self, tmp_path):
        proc = run_cli("mc", "--family", "binomial", "--n", "50", "--p", "0.1",
                       "--seed", "2", "--beta", "0.2", "--delta", "0.2",
                       "--gamma", "0.1", "--steps", "-1", "--runs", "2",
                       "--output", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ValueError"
        assert "steps" in payload["error"]
        assert not (tmp_path / "x.csv").exists()


class TestSpectral:
    def test_frozen_subcritical_line(self):
        proc = run_cli("spectral", "--family", "lattice4", "--rows", "25",
                       "--cols", "40", "--beta", "0.4", "--delta", "0.65",
                       "--gamma", "0.3")
        assert proc.returncode == 0
        assert proc.stdout == "s=0.855263157895 fast_extinction=true\n"

    def test_supercritical_line(self):
        proc = run_cli("spectral", "--family", "powerlaw", "--n", "1000",
                       "--m", "2", "--seed", "42", "--beta", "0.4",
                       "--delta", "0.65", "--gamma", "0.3")
        assert proc.returncode == 0
        assert proc.stdout == "s=1.68001194377 fast_extinction=false\n"

    def test_critical_band_line(self):
        proc = run_cli("spectral", "--family", "lattice4", "--rows", "4",
                       "--cols", "4", "--beta", "0.25", "--delta", "0.5",
                       "--gamma", "0.5")
        assert proc.returncode == 0
        assert proc.stdout == "s=1 fast_extinction=critical\n"

    def test_eigenvector_export(self, tmp_path):
        vec = tmp_path / "vec.csv"
        proc = run_cli("spectral", "--family", "lattice4", "--rows", "5",
                       "--cols", "5", "--beta", "0.4", "--delta", "0.65",
                       "--gamma", "0.3", "--eigenvector-csv", str(vec))
        assert proc.returncode == 0
        lines = vec.read_text().splitlines()
        assert lines[0] == "node,value"
        assert len(lines) == 26
        values = [float(line.split(",")[1]) for line in lines[1:]]
        # vertex-transitive graph: dominant eigenvector is uniform
        assert max(values) - min(values) < 1e-8

    @pytest.mark.parametrize("command", [
        "spectral",
        "isolate --strategy greedy --output-graph {tmp}/out.edges "
        "--output-report {tmp}/report.json",
    ], ids=["spectral", "isolate_greedy"])
    def test_stalled_power_iteration_is_a_runtime_error(self, tmp_path, command):
        # delta = 1 zeroes the diagonal of S; on a star (bipartite, not
        # regular) the +/- lambda pair stalls power iteration.
        star = tmp_path / "star.edges"
        star.write_text("4\n0 1\n0 2\n0 3\n")
        proc = run_cli(*command.format(tmp=tmp_path).split(), "--graph", str(star),
                       "--beta", "0.3", "--delta", "1.0", "--gamma", "0.5")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert stderr_error(proc)["type"] == "PowerIterationError"

    def test_missing_edge_list_file(self):
        proc = run_cli("spectral", "--graph", "/nonexistent/g.edges",
                       "--beta", "0.4", "--delta", "0.65", "--gamma", "0.3")
        assert proc.returncode == 2
        assert stderr_error(proc)["type"] == "FileNotFoundError"


class TestIsolate:
    COMMON = ("--beta", "0.4", "--delta", "0.65", "--gamma", "0.3")

    def test_cycle_failure_still_writes_report(self, tmp_path):
        rep = tmp_path / "rep.json"
        proc = run_cli("isolate", "--family", "powerlaw", "--n", "1000",
                       "--m", "2", "--seed", "42", "--strategy", "cycle",
                       *self.COMMON, "--output-graph", str(tmp_path / "a.edges"),
                       "--output-report", str(rep))
        assert proc.returncode == 0
        assert proc.stdout.startswith("strategy=cycle success=false reason=")
        payload = json.loads(rep.read_text())
        assert payload == {
            "strategy": "cycle",
            "success": False,
            "reason": ("stuck at node 538 after visiting 44 of 1000 nodes: "
                       "no unvisited neighbour"),
            "partial_path_length": 44,
        }
        assert not (tmp_path / "a.edges").exists()

    def test_cycle_success_prunes_to_ring(self, tmp_path):
        rep = tmp_path / "rep.json"
        after = tmp_path / "after.edges"
        proc = run_cli("isolate", "--family", "powerlaw", "--n", "12",
                       "--m", "2", "--seed", "0", "--strategy", "cycle",
                       *self.COMMON, "--output-graph", str(after),
                       "--output-report", str(rep))
        assert proc.returncode == 0
        payload = json.loads(rep.read_text())
        assert payload["success"] is True
        assert payload["edges_removed"] == 9
        from netspread.graphs import load_edge_list
        g = load_edge_list(after)
        assert g.num_edges == 12
        assert all(g.degree(i) == 2 for i in range(12))

    def test_lattice_rewiring_crosses_threshold(self, tmp_path):
        rep = tmp_path / "rep.json"
        proc = run_cli("isolate", "--family", "powerlaw", "--n", "100",
                       "--m", "2", "--seed", "4", "--strategy", "lattice",
                       *self.COMMON, "--output-graph", str(tmp_path / "l.edges"),
                       "--output-report", str(rep))
        assert proc.returncode == 0
        assert "threshold_crossed=True" in proc.stdout
        payload = json.loads(rep.read_text())
        assert payload["lambda1_after"] == pytest.approx(4.0, abs=1e-8)
        assert payload["score_before"] == pytest.approx(1.3000922248814233,
                                                        abs=1e-9)
        assert payload["score_after"] == pytest.approx(0.855263157894737,
                                                       abs=1e-9)
        assert payload["threshold_crossed"] is True

    def test_greedy_budget(self, tmp_path):
        rep = tmp_path / "rep.json"
        proc = run_cli("isolate", "--family", "powerlaw", "--n", "100",
                       "--m", "2", "--seed", "4", "--strategy", "greedy",
                       "--k", "5", *self.COMMON,
                       "--output-graph", str(tmp_path / "g.edges"),
                       "--output-report", str(rep))
        assert proc.returncode == 0
        payload = json.loads(rep.read_text())
        assert payload["edges_removed"] == 5
        assert len(payload["lambda1_steps"]) == 6


class TestSweepAndFigures:
    def test_sweep_runs_config_file(self, tmp_path):
        config = {
            "model": "sis_meanfield",
            "params": {"beta": 0.2, "delta": 0.3, "gamma": 0.1, "r": 1.0,
                       "p0": 0.1},
            "run": {"steps": 50},
            "graph": {"family": "binomial", "n": 30, "p": 0.2, "seed": 4},
            "sweep": {"parameter": "beta", "base": 0.2, "increment": 0.1,
                      "count": 2},
            "seed": 5,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = run_cli("sweep", "--config", str(cfg_path),
                       "--output-dir", str(out_dir))
        assert proc.returncode == 0
        assert proc.stdout.startswith("points=2 errors=0 manifest=")
        assert (out_dir / "manifest.json").is_file()

    def test_sweep_config_error_names_field(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"model": "bogus", "params": {}}),
                            encoding="utf-8")
        proc = run_cli("sweep", "--config", str(cfg_path),
                       "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError"
        assert payload["field"] == "model"

    @pytest.mark.parametrize("change,field", [
        ({"params": {"beta": None, "gamma": 0.1, "delta": 0.3}}, "params.beta"),
        ({"params": [1]}, "params"),
        ({"sweep": {"parameter": "beta", "increment": 0.1, "count": 2}}, "sweep"),
        ({"params": {"beta": "abc", "gamma": 0.1, "delta": 0.3}}, "params.beta"),
        ({"params": {"beta": "0.5", "gamma": 0.1, "delta": 0.3}}, "params.beta"),
        ({"allow_negative_coefficients": "false"}, "allow_negative_coefficients"),
        ({"seed": "7"}, "seed"),
        ({"model": ["sis_meanfield"]}, "model"),
        ({"params": {"beta": float("nan"), "gamma": 0.1, "delta": 0.3}}, "params.beta"),
        ({"params": {"beta": 0.2, "gamma": float("inf"), "delta": 0.3}}, "params.gamma"),
        ({"model": "sir_endemic_ode", "params": {"beta": 0.2, "gamma": 0.1,
                                                  "mu": float("nan")}}, "params.mu"),
    ], ids=["null", "list", "no_base", "word", "numeric_string", "bool_string",
            "seed_string", "model_list", "nan_beta", "infinite_gamma", "nan_mu"])
    def test_malformed_config_value_names_field(self, tmp_path, change, field):
        config = {
            "model": "sis_meanfield",
            "params": {"beta": 0.2, "gamma": 0.1, "delta": 0.3},
            "graph": {"family": "binomial", "n": 30, "p": 0.2},
            **change,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        proc = run_cli("sweep", "--config", str(cfg_path),
                       "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError"
        assert payload["field"] == field

    def test_sweep_missing_config_file(self, tmp_path):
        proc = run_cli("sweep", "--config", str(tmp_path / "nope.json"),
                       "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert stderr_error(proc)["type"] == "FileNotFoundError"

    def test_reproduce_figures_end_to_end(self, tmp_path):
        out_dir = tmp_path / "figs"
        proc = run_cli("reproduce-figures", "--output-dir", str(out_dir))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 9
        assert lines[-1] == f"summary={out_dir}/summary.csv"
        assert "sis_powerlaw_death_sweep: points=5 errors=5" in lines
        assert "sis_lattice_death_sweep: points=5 errors=0" in lines
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 33


class TestSharedGraphArguments:
    """The CLI builds graphs through the sweep config's GraphSpec."""

    COMMON = ("--beta", "0.1", "--delta", "0.3", "--gamma", "0.3")

    def test_graph_and_family_together_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        assert run_cli("generate", "--family", "lattice4", "--rows", "3",
                       "--cols", "3", "--output", str(path)).returncode == 0
        proc = run_cli("spectral", "--graph", str(path), "--family", "lattice4",
                       "--rows", "3", "--cols", "3", *self.COMMON)
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == "graph"

    @pytest.mark.parametrize("family,given", [
        ("binomial", ("--n", "10")),
        ("powerlaw", ("--n", "10")),
        ("exponential", ("--lam", "0.5")),
        ("lattice4", ("--rows", "4")),
    ])
    def test_missing_family_parameter_names_graph_field(self, tmp_path, family, given):
        proc = run_cli("generate", "--family", family, *given,
                       "--output", str(tmp_path / "g.edges"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == "graph"
        assert family in payload["error"]
        assert not (tmp_path / "g.edges").exists()

    @pytest.mark.parametrize("given", [
        ("--family", "binomial", "--n", "0", "--p", "0.2"),
        ("--family", "binomial", "--n", "10", "--p", "1.5"),
        ("--family", "lattice4", "--rows", "2", "--cols", "5"),
        ("--family", "exponential", "--n", "30", "--lam", "nan"),
    ], ids=["zero_n", "p_above_one", "small_lattice", "nan_lam"])
    def test_out_of_range_family_parameter_names_graph_field(self, tmp_path, given):
        proc = run_cli("generate", *given, "--output", str(tmp_path / "g.edges"))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == "graph"
        assert not (tmp_path / "g.edges").exists()

    def test_negative_meanfield_steps_is_a_validation_error(self, tmp_path):
        out = tmp_path / "mf.csv"
        proc = run_cli("meanfield", "--family", "powerlaw", "--n", "50", "--m", "2",
                       "--seed", "1", *self.COMMON, "--steps", "-5",
                       "--output", str(out))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ValueError" and "max_steps" in payload["error"]
        assert not out.exists()


class TestPinnedIsolateReports:
    # SHA-256 of the report JSON, recorded from the tuple-set Graph before
    # the isolation strategies moved to edge arrays.
    REPORT_SHA256 = {
        "greedy": "03ca4ac501b4c2aed0f333697d4a2e3c1690323d9d793541fe7c00243bc4195d",
        "lattice": "de67ff6bc4814d965555b57c99fd406c7443cf939cef540972e7a628d4885a7e",
    }

    @pytest.mark.parametrize("strategy,extra", [("greedy", ("--k", "5")), ("lattice", ())])
    def test_report_bytes(self, tmp_path, strategy, extra):
        import hashlib

        from netspread.graphs import gen_powerlaw, save_edge_list

        graph = tmp_path / "g.edges"
        save_edge_list(gen_powerlaw(200, 2, 3), graph)
        report = tmp_path / "report.json"
        proc = run_cli("isolate", "--graph", str(graph), "--beta", "0.1",
                       "--gamma", "0.3", "--delta", "0.3", "--strategy", strategy,
                       *extra, "--output-graph", str(tmp_path / "after.edges"),
                       "--output-report", str(report))
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.REPORT_SHA256[strategy]


@pytest.mark.parametrize("change,field", [
    ({"run": {"steps": 5.5}}, "run.steps"),
    ({"sweep": {"parameter": "beta", "base": 0.2, "increment": 0.1, "count": 2.7}},
     "sweep.count"),
    ({"sweep": {"parameter": "beta", "base": "0.5", "increment": 0.1, "count": 2}},
     "sweep.base"),
    ({"graph": {"family": "binomial", "n": "30", "p": 0.2}}, "graph.n"),
    ({"graph": {"family": "binomial", "n": 0, "p": 0.2}}, "graph"),
    ({"graph": {"family": "binomial", "n": 30, "p": 1.5}}, "graph"),
    ({"graph": {"family": "lattice4", "rows": 2, "cols": 5}}, "graph"),
], ids=["float_steps", "float_count", "string_base", "string_n", "zero_n",
        "p_above_one", "small_lattice"])
def test_sweep_rejects_mistyped_fields(tmp_path, change, field):
    config = {
        "model": "sis_meanfield",
        "params": {"beta": 0.2, "gamma": 0.1, "delta": 0.3},
        "graph": {"family": "binomial", "n": 30, "p": 0.2},
        **change,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    proc = run_cli("sweep", "--config", str(cfg_path), "--output-dir", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    payload = stderr_error(proc)
    assert payload["type"] == "ConfigError" and payload["field"] == field
    assert not out_dir.exists()


LATTICE5 = ("--family", "lattice4", "--rows", "5", "--cols", "5", "--beta", "0.2",
            "--delta", "0.1", "--gamma", "0.1")


@pytest.mark.parametrize("args,option", [
    (("ode", "--model", "sis", "--beta", "1", "--gamma", "0.1", "--mu", "0.7"), "--mu"),
    (("ode", "--model", "sir_epidemic", "--beta", "1", "--gamma", "0.1", "--mu", "0"),
     "--mu"),
    (("meanfield", "--model", "sis", *LATTICE5, "--nu", "0.3"), "--nu"),
    (("meanfield", "--model", "sis", *LATTICE5, "--chi", "0.5"), "--chi"),
    (("meanfield", *LATTICE5, "--nu", "1", "--chi", "0"), "--nu"),
], ids=["sis_ode_mu", "sir_epidemic_mu", "sis_meanfield_nu", "sis_meanfield_chi",
        "default_model_nu_chi"])
def test_options_the_model_does_not_read_are_rejected(tmp_path, args, option):
    # The options a config's params block may not hold for the same model.
    out = tmp_path / "out.csv"
    proc = run_cli(*args, "--output", str(out))
    assert proc.returncode == 2, proc.stderr
    payload = stderr_error(proc)
    assert payload["type"] == "ConfigError" and payload["field"] == option
    assert "does not read this option" in payload["error"]
    assert not out.exists()

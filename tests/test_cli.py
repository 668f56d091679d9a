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

    @pytest.mark.parametrize("command", [
        "generate --family lattice4 --rows 3 --cols 3 --output {dir}",
        "spectral --graph {dir} --beta 0.4 --delta 0.65 --gamma 0.3",
        "sweep --config {dir} --output-dir {dir}/out",
    ], ids=["generate_output", "spectral_graph", "sweep_config"])
    def test_a_directory_given_for_a_file_is_invalid_input(self, tmp_path, command):
        proc = run_cli(*command.format(dir=tmp_path).split())
        assert proc.returncode == 2, proc.stderr
        assert stderr_error(proc)["type"] == "IsADirectoryError"


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

    def test_unallocatable_output_is_a_runtime_error(self, tmp_path):
        # 10^18 + 1 rows: numpy refuses the 6.94 EiB at once, so no memory is
        # touched.
        out = tmp_path / "x.csv"
        proc = run_cli("ode", "--model", "sis", "--beta", "1", "--gamma", "0.1",
                       "--dt", "1e-12", "--t-end", "1e6", "--output", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Unable to allocate" in stderr_error(proc)["error"]
        assert not out.exists()


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
        assert payload["type"] == "ConfigError" and payload["field"] == "--tol"
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
        assert payload["type"] == "ConfigError" and payload["field"] == "--steps"
        assert not (tmp_path / "x.csv").exists()



LATTICE_3X3 = ("--family", "lattice4", "--rows", "3", "--cols", "3")


@pytest.mark.parametrize("command,model,options", [
    ("mc", "sirs_mc", (*LATTICE_3X3, "--master-seed", "5")),
    ("meanfield", "sis_meanfield", LATTICE_3X3),
    ("ode", "sis_ode", ("--model", "sis")),
])
def test_run_defaults_are_the_configs(tmp_path, command, model, options):
    # A subcommand with its run options left out writes the CSV of a config
    # with its run block left out: both take RunSpec's defaults.
    from netspread.experiments import RunSpec
    params = {"beta": 0.3, "gamma": 0.1, **({} if command == "ode" else {"delta": 0.2})}
    config = {"model": model, "params": params, "seed": 5}
    if command != "ode":
        config["graph"] = {"family": "lattice4", "rows": 3, "cols": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", "--config", str(cfg_path),
                   "--output-dir", str(tmp_path / "sweep")).returncode == 0
    rates = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    proc = run_cli(command, *options, *rates, "--output", str(tmp_path / "cli.csv"))
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "cli.csv").read_bytes()
    assert written == (tmp_path / "sweep" / "point_000.csv").read_bytes()
    if command == "mc":
        assert proc.stdout.startswith(f"runs={RunSpec.runs} steps={RunSpec.steps} ")
        assert len(written.splitlines()) == RunSpec.steps + 2


@pytest.mark.parametrize("command,options,model,change,field,option", [
    ("ode", ("--i0", "1.5"), "sis_ode", {"params": {"i0": 1.5}}, "params.i0", "--i0"),
    ("meanfield", ("--steps", "0"), "sis_meanfield", {"run": {"steps": 0}},
     "run.steps", "--steps"),
    ("mc", ("--steps", "0"), "sirs_mc", {"run": {"steps": 0}}, "run.steps", "--steps"),
    ("mc", ("--init", "1.5"), "sirs_mc", {"params": {"p0": 1.5}}, "params.p0", "--init"),
    ("meanfield", ("--tol", "nan"), "sis_meanfield", {"run": {"tol": float("nan")}},
     "run.tol", "--tol"),
    ("ode", ("--t-end", "inf"), "sis_ode", {"run": {"t_end": float("inf")}},
     "run.t_end", "--t-end"),
    ("meanfield", ("--model", "sis", "--nu", "0.3"), "sis_meanfield",
     {"params": {"nu": 0.3}}, "params.nu", "--nu"),
    ("meanfield", ("--model", "sirs", "--p0", "0.9", "--w0", "0.5"), "sirs_meanfield",
     {"params": {"p0": 0.9, "w0": 0.5}}, "params.w0", "--w0"),
    ("ode", ("--s0", "0.9", "--i0", "0.5"), "sis_ode", {"params": {"s0": 0.9, "i0": 0.5}},
     "params.i0", "--i0"),
], ids=["ode_i0", "meanfield_zero_steps", "mc_zero_steps", "mc_init", "meanfield_tol_nan",
        "ode_t_end_inf", "sis_meanfield_nu", "meanfield_p0_w0", "ode_s0_i0"])
def test_cli_rejects_what_a_config_rejects(tmp_path, command, options, model, change,
                                           field, option):
    # A subcommand checks its options as the equivalent one-point config is
    # checked, and names the option where the config names its field.
    params = {"beta": 0.3, "gamma": 0.1, **({} if command == "ode" else {"delta": 0.2})}
    config = {"model": model, "params": {**params, **change.get("params", {})},
              "run": change.get("run", {})}
    base = ("--model", "sis") if command == "ode" else LATTICE_3X3
    if command != "ode":
        config["graph"] = {"family": "lattice4", "rows": 3, "cols": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    swept = run_cli("sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path / "sweep"))
    rates = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    out = tmp_path / "cli.csv"
    proc = run_cli(command, *base, *rates, *options, "--output", str(out))
    assert swept.returncode == proc.returncode == 2, proc.stderr
    payloads = stderr_error(swept), stderr_error(proc)
    assert [p["type"] for p in payloads] == ["ConfigError", "ConfigError"]
    assert [p["field"] for p in payloads] == [field, option]
    assert payloads[1]["error"] == payloads[0]["error"].replace(field, option, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    def test_huge_node_count_is_invalid_input(self, tmp_path):
        # Rejected from the first line, before an array of n values is
        # made: the run is held to 4 GiB of address space, against the 74.5
        # GiB that a graph of 10^10 nodes would ask for.
        resource = pytest.importorskip("resource")
        huge = tmp_path / "huge.edges"
        huge.write_text("10000000000\n0 1\n")
        limit = 4 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "netspread", "spectral", "--graph", str(huge),
             "--beta", "0.4", "--delta", "0.65", "--gamma", "0.3"],
            capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        assert stderr_error(proc) == {
            "error": "line 1: node count must be at most 2**31, got 10000000000",
            "type": "EdgeListFormatError"}

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
        assert (g.degrees == 2).all()

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

    @pytest.mark.parametrize("command,given,field", [
        ("generate", ("--family", "lattice4", "--rows", "4", "--cols", "4", "--n", "999",
                      "--p", "0.5"), "graph.n"),
        ("generate", ("--family", "powerlaw", "--n", "30", "--m", "2", "--lam", "0.5"),
         "graph.lam"),
        ("spectral", ("--graph", "g.edges", "--n", "50", *COMMON), "graph.n"),
        # A point command passes the config check's graph.* field through.
        ("meanfield", ("--family", "lattice4", "--rows", "3", "--cols", "3", "--n", "5",
                       *COMMON), "graph.n"),
    ], ids=["lattice_n_p", "powerlaw_lam", "path_n", "meanfield_lattice_n"])
    def test_graph_options_the_family_does_not_read_are_rejected(
            self, tmp_path, command, given, field):
        out = tmp_path / "g.edges"
        proc = run_cli(command, *given, *(("--output", str(out)) if command != "spectral"
                                          else ()))
        assert proc.returncode == 2, proc.stderr
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == field
        assert "does not read this field" in payload["error"]
        assert not out.exists()

    def test_negative_meanfield_steps_is_a_validation_error(self, tmp_path):
        out = tmp_path / "mf.csv"
        proc = run_cli("meanfield", "--family", "powerlaw", "--n", "50", "--m", "2",
                       "--seed", "1", *self.COMMON, "--steps", "-5",
                       "--output", str(out))
        assert proc.returncode == 2
        payload = stderr_error(proc)
        assert payload["type"] == "ConfigError" and payload["field"] == "--steps"
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
    ({"params": {"beta": 0.2, "gamma": 0.1}}, "params.delta"),
    ({"params": {"gamma": 0.1, "delta": 0.3}}, "params.beta"),
    ({"model": "sis_ode", "params": {"beta": 1.0}, "graph": None}, "params.gamma"),
    ({"model": "sis_mc", "run": {"tol": 0.3}}, "run.tol"),
    ({"model": "sis_ode", "params": {"beta": 1.0, "gamma": 0.1},
      "graph": {"family": "powerlaw", "n": 10, "m": 99}}, "graph"),
    ({"graph": {"family": "binomial", "n": 30, "p": 0.2, "rows": 4}}, "graph.rows"),
], ids=["float_steps", "float_count", "string_base", "string_n", "zero_n",
        "p_above_one", "small_lattice", "no_delta", "no_beta", "ode_no_gamma",
        "mc_tol", "ode_graph", "unread_rows"])
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
    assert "does not read this parameter" in payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectral", "isolate"])
@pytest.mark.parametrize("option,value", [("--nu", "0.3"), ("--chi", "0.5"), ("--nu", "1")])
def test_score_commands_reject_acceptance_options(tmp_path, command, option, value):
    # The survivability score reads beta, gamma, delta and r only.
    outputs = {
        "spectral": ("--eigenvector-csv", str(tmp_path / "v.csv")),
        "isolate": ("--strategy", "greedy", "--output-graph", str(tmp_path / "g.txt"),
                    "--output-report", str(tmp_path / "report.json")),
    }[command]
    proc = run_cli(command, *LATTICE5, option, value, *outputs)
    assert proc.returncode == 2, proc.stderr
    payload = stderr_error(proc)
    assert payload["type"] == "ConfigError" and payload["field"] == option
    assert payload["error"].startswith(f"{option}: {command} does not read this option; "
                                       f"it reads --beta, --delta, --gamma, --r")
    assert list(tmp_path.iterdir()) == []


# Each subcommand's options and whether each is required, as recorded before
# the parser was built from the config tables.
GRAPH_OPTIONS = {"--graph": False, "--family": False, "--n": False, "--p": False,
                 "--m": False, "--lam": False, "--rows": False, "--cols": False,
                 "--seed": False}
RATE_OPTIONS = {"--beta": True, "--gamma": True, "--delta": True, "--r": False,
                "--nu": False, "--chi": False}
PARSER_OPTIONS = {
    "generate": {**GRAPH_OPTIONS, "--output": True},
    "ode": {"--model": True, "--beta": True, "--gamma": True, "--mu": False, "--s0": False,
            "--i0": False, "--dt": False, "--t-end": False, "--output": True},
    "meanfield": {"--model": False, **GRAPH_OPTIONS, **RATE_OPTIONS, "--p0": False,
                  "--w0": False, "--steps": False, "--tol": False,
                  "--allow-negative-coefficients": False, "--output": True},
    "mc": {**GRAPH_OPTIONS, **RATE_OPTIONS, "--init": False, "--steps": False,
           "--runs": False, "--master-seed": False, "--output": True},
    "spectral": {**GRAPH_OPTIONS, **RATE_OPTIONS, "--eigenvector-csv": False},
    "isolate": {**GRAPH_OPTIONS, **RATE_OPTIONS, "--strategy": True, "--k": False,
                "--start": False, "--output-graph": True, "--output-report": True},
    "sweep": {"--config": True, "--output-dir": True},
    "reproduce-figures": {"--output-dir": True},
}


def test_each_subcommand_takes_the_recorded_options():
    import argparse

    from netspread.cli import build_parser
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    taken = {command: {action.option_strings[0]: action.required
                       for action in parser._actions if action.dest != "help"}
             for command, parser in commands.choices.items()}
    assert taken == PARSER_OPTIONS
    # Outside the graph options the order holds too: a point's params are
    # checked in option order, so of two bad rates the first is named.
    for command, options in PARSER_OPTIONS.items():
        assert ([option for option in taken[command] if option not in GRAPH_OPTIONS]
                == [option for option in options if option not in GRAPH_OPTIONS])


@pytest.mark.parametrize("args,missing", [
    (("ode", "--model", "sis", "--beta", "1", "--output", "{tmp}/o.csv"), "--gamma"),
    (("meanfield", *LATTICE_3X3, "--beta", "0.2", "--gamma", "0.1",
      "--output", "{tmp}/mf.csv"), "--delta"),
    (("mc", *LATTICE_3X3, "--delta", "0.2", "--gamma", "0.1", "--steps", "5",
      "--runs", "2", "--output", "{tmp}/mc.csv"), "--beta"),
    (("spectral", *LATTICE_3X3, "--beta", "0.1", "--gamma", "0.1",
      "--eigenvector-csv", "{tmp}/v.csv"), "--delta"),
    (("isolate", *LATTICE_3X3, "--beta", "0.1", "--delta", "0.1", "--strategy", "greedy",
      "--output-graph", "{tmp}/g.edges", "--output-report", "{tmp}/report.json"),
     "--gamma"),
], ids=["ode", "meanfield", "mc", "spectral", "isolate"])
def test_a_missing_required_rate_is_a_usage_error(tmp_path, args, missing):
    # beta, gamma and delta have no default a point could take.
    proc = run_cli(*(arg.format(tmp=tmp_path) for arg in args))
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"the following arguments are required: {missing}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []

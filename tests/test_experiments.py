"""Config parsing, sweep execution, manifests, bundled figure set."""
import json
from collections import Counter
from pathlib import Path

import pytest

from netspread import experiments
from netspread.experiments import (
    ConfigError,
    ExperimentConfig,
    GraphSpec,
    SweepSpec,
    _MODELS,
    _figure_configs,
    reproduce_figures,
    run_experiment,
)

from oracles import edge_set


def meanfield_config(**overrides) -> dict:
    cfg = {
        "model": "sis_meanfield",
        "params": {"beta": 0.2, "delta": 0.3, "gamma": 0.1, "r": 1.0, "p0": 0.1},
        "run": {"steps": 50, "tol": 1e-9},
        "graph": {"family": "binomial", "n": 30, "p": 0.2, "seed": 4},
        "sweep": {"parameters": [{"name": "beta", "base": 0.2}],
                  "increment": 0.1, "count": 2},
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# Configuration parsing and hashing
# ---------------------------------------------------------------------------

class TestConfigParsing:
    def test_round_trip_through_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(meanfield_config()), encoding="utf-8")
        cfg = ExperimentConfig.from_json(path)
        assert cfg.model == "sis_meanfield"
        assert cfg.sweep.parameters == (("beta", 0.2),)
        assert cfg.run.steps == 50
        assert cfg.graph.family == "binomial"

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_json(path)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model") as exc:
            ExperimentConfig.from_dict(meanfield_config(model="seir_meanfield"))
        assert exc.value.field == "model"

    def test_graph_required_for_network_models(self):
        with pytest.raises(ConfigError, match="requires a graph"):
            ExperimentConfig.from_dict(meanfield_config(graph=None))

    def test_ode_models_need_no_graph(self):
        cfg = ExperimentConfig.from_dict({
            "model": "sis_ode",
            "params": {"beta": 1.0, "gamma": 0.1, "s0": 0.99, "i0": 0.01},
        })
        assert cfg.graph is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(meanfield_config(extra=1))

    def test_probability_params_validated(self):
        bad = meanfield_config()
        bad["params"]["p0"] = 1.5
        with pytest.raises(ConfigError, match=r"\[0, 1\]") as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == "params.p0"

    @pytest.mark.parametrize("model", ["sis_meanfield", "sirs_mc"])
    @pytest.mark.parametrize("key,value", [("beta", 1.5), ("gamma", 2.0)])
    def test_network_beta_and_gamma_are_probabilities(self, model, key, value):
        # The per-link transmission and per-node resurrection probabilities.
        bad = meanfield_config(model=model, sweep=None, run={})
        bad["params"][key] = value
        with pytest.raises(ConfigError, match=r"\[0, 1\]") as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == f"params.{key}"

    def test_a_beta_sweep_that_crosses_one_is_rejected(self):
        bad = meanfield_config(sweep={"parameters": [{"name": "beta", "base": 0.9}],
                                      "increment": 0.1, "count": 3})
        with pytest.raises(ConfigError, match=r"point 2: params.beta: must be in \[0, 1\]") as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == "sweep"

    @pytest.mark.parametrize("model,params,field,message", [
        ("sirs_meanfield", {"p0": 0.9, "w0": 0.5}, "params.w0",
         "invalid initial fractions p0=0.9 w0=0.5"),
        ("sis_ode", {"s0": 0.9, "i0": 0.5}, "params.i0", "SIS requires s + i = 1, got 1.4"),
        ("sis_ode", {"s0": 0.5}, "params.i0", "SIS requires s + i = 1, got 0.51"),
        ("sir_ode", {"s0": 0.9, "i0": 0.5}, "params.i0", "fraction r=-0.4"),
    ], ids=["sirs_p0_w0", "sis_ode", "sis_ode_default_i0", "sir_ode"])
    def test_start_fractions_are_checked_together_at_load(self, model, params, field,
                                                          message):
        # The predicates of MfState.uniform and integrate, which rejected
        # these starts only when a point ran.
        rates = {"beta": 0.3, "gamma": 0.1, **({} if model.endswith("_ode") else
                                               {"delta": 0.2})}
        cfg = {"model": model, "params": {**rates, **params}}
        if not model.endswith("_ode"):
            cfg["graph"] = {"family": "lattice4", "rows": 3, "cols": 3}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(cfg)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}: {message}")

    @pytest.mark.parametrize("sweep,message", [
        ({"parameter": "w0", "base": 0.5, "increment": 0.25, "count": 3}, "p0=0.1 w0=1.0"),
        ({"parameter": "p0", "base": 0.9, "increment": -0.4, "count": 2}, "p0=0.9 w0=0.4"),
        ({"parameters": [{"name": "p0", "base": 0.3}, {"name": "w0", "base": 0.3}],
          "increment": 0.1, "count": 4}, "p0=0.6000000000000001 w0=0.6000000000000001"),
    ])
    def test_start_fractions_are_checked_at_the_end_points_of_a_sweep(self, sweep, message):
        cfg = meanfield_config(model="sirs_meanfield", sweep=sweep)
        cfg["params"]["w0"] = 0.4
        with pytest.raises(ConfigError, match=f"params.w0: invalid initial fractions "
                                              f"{message}") as exc:
            ExperimentConfig.from_dict(cfg)
        assert exc.value.field == "params.w0"

    def test_a_sweep_of_the_start_fractions_replaces_their_params(self, tmp_path):
        cfg = meanfield_config(model="sirs_meanfield",
                               sweep={"parameter": "p0", "base": 0.1, "increment": 0.2,
                                      "count": 2})
        cfg["params"].update(p0=0.9, w0=0.5)  # never a point's start
        res = run_experiment(ExperimentConfig.from_dict(cfg), tmp_path)
        assert [p.error for p in res.points] == [None, None]

    def test_an_ode_beta_is_a_rate(self):
        cfg = ExperimentConfig.from_dict(
            {"model": "sis_ode", "params": {"beta": 1.5, "gamma": 0.1}})
        assert cfg.params["beta"] == 1.5

    @pytest.mark.parametrize("key", ["init", "detla", "n"])
    def test_params_no_model_reads_are_rejected(self, key):
        bad = meanfield_config()
        bad["params"][key] = 0.5
        with pytest.raises(ConfigError, match="does not read") as exc:
            ExperimentConfig.from_dict(bad)
        assert exc.value.field == f"params.{key}"

    # The params keys each model reads, and so takes.
    MODEL_KEYS = {
        "sir_ode": "beta gamma s0 i0",
        "sis_ode": "beta gamma s0 i0",
        "sir_endemic_ode": "beta gamma s0 i0 mu",
        "sis_meanfield": "beta gamma delta r p0",
        "sirs_meanfield": "beta gamma delta r p0 w0 nu chi",
        "sis_mc": "beta gamma delta r p0",
        "sirs_mc": "beta gamma delta r p0 nu chi",
    }

    @staticmethod
    def model_config(model, keys) -> dict:
        # s0 + i0 = 1, which an sis_ode start must meet.
        cfg = {"model": model, "params": {key: 0.9 if key == "s0" else 0.1 for key in keys}}
        if not model.endswith("_ode"):
            cfg["graph"] = {"family": "binomial", "n": 30, "p": 0.2}
        return cfg

    @pytest.mark.parametrize("model", sorted(MODEL_KEYS))
    def test_each_model_takes_the_keys_it_reads(self, model):
        keys = self.MODEL_KEYS[model].split()
        cfg = ExperimentConfig.from_dict(self.model_config(model, keys))
        assert sorted(cfg.params) == sorted(keys)

    # sis_meanfield rejects w0 even at 0, the one value it could run.
    @pytest.mark.parametrize("model,key,value", [*(
        (model, key, 0.1) for model, key in [
            ("sis_meanfield", "i0"), ("sis_meanfield", "mu"), ("sis_meanfield", "nu"),
            ("sis_meanfield", "w0"), ("sis_mc", "nu"), ("sis_mc", "chi"),
            ("sirs_mc", "w0"), ("sir_ode", "delta"), ("sir_ode", "mu")]),
        ("sis_meanfield", "w0", 0.0),
    ])
    def test_keys_the_model_does_not_read_are_rejected(self, model, key, value):
        keys = self.MODEL_KEYS[model].split()
        cfg = self.model_config(model, keys)
        cfg["params"][key] = value
        with pytest.raises(ConfigError, match="does not read") as exc:
            ExperimentConfig.from_dict(cfg)
        assert exc.value.field == f"params.{key}"
        swept = {**self.model_config(model, keys),
                 "sweep": {"parameter": key, "base": 0.1, "increment": 0.1, "count": 2}}
        with pytest.raises(ConfigError, match="cannot sweep") as exc:
            ExperimentConfig.from_dict(swept)
        assert exc.value.field == "sweep.parameters"

    @pytest.mark.parametrize("model,key", [
        ("sis_meanfield", "delta"), ("sirs_mc", "delta"), ("sir_ode", "beta"),
        ("sir_endemic_ode", "gamma"), ("sis_mc", "beta"),
    ])
    def test_missing_required_key_is_rejected_at_load(self, model, key):
        keys = [k for k in self.MODEL_KEYS[model].split() if k != key]
        with pytest.raises(ConfigError, match="requires this parameter") as exc:
            ExperimentConfig.from_dict(self.model_config(model, keys))
        assert exc.value.field == f"params.{key}"

    def test_a_swept_key_counts_as_given(self, tmp_path):
        cfg = meanfield_config()
        del cfg["params"]["beta"]
        res = run_experiment(ExperimentConfig.from_dict(cfg), tmp_path)
        assert [p.error for p in res.points] == [None, None]
        del cfg["sweep"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(cfg)
        assert exc.value.field == "params.beta"

    @pytest.mark.parametrize("model,change,field", [
        ("sis_ode", {"graph": {"family": "powerlaw", "n": 10, "m": 99},
                     "allow_negative_coefficients": True}, "graph"),
        ("sis_ode", {"allow_negative_coefficients": True}, "allow_negative_coefficients"),
        ("sir_endemic_ode", {"allow_negative_coefficients": True},
         "allow_negative_coefficients"),
        ("sis_mc", {"allow_negative_coefficients": True}, "allow_negative_coefficients"),
        ("sirs_mc", {"allow_negative_coefficients": True}, "allow_negative_coefficients"),
        ("sis_mc", {"run": {"tol": 0.3, "dt": 5}}, "run.dt"),
        ("sis_mc", {"run": {"tol": 0.3}}, "run.tol"),
        ("sirs_mc", {"run": {"t_end": 5.0}}, "run.t_end"),
        ("sis_ode", {"run": {"steps": 10}}, "run.steps"),
        ("sir_ode", {"run": {"runs": 3}}, "run.runs"),
        ("sis_meanfield", {"run": {"runs": 3}}, "run.runs"),
        ("sirs_meanfield", {"run": {"dt": 0.5}}, "run.dt"),
    ])
    def test_settings_the_model_does_not_read_are_rejected(self, model, change, field):
        cfg = self.model_config(model, self.MODEL_KEYS[model].split())
        with pytest.raises(ConfigError, match="does not read this setting") as exc:
            ExperimentConfig.from_dict({**cfg, **change})
        assert exc.value.field == field

    @pytest.mark.parametrize("graph,field", [
        ({"path": "g.edges", "n": 50, "m": 3}, "graph.n"),
        ({"family": "lattice4", "rows": 4, "cols": 4, "n": 999, "p": 0.5}, "graph.n"),
        ({"family": "binomial", "n": 30, "p": 0.2, "m": 2}, "graph.m"),
        ({"family": "powerlaw", "n": 30, "m": 2, "lam": 0.5}, "graph.lam"),
        ({"family": "exponential", "n": 30, "lam": 0.5, "rows": 3}, "graph.rows"),
    ])
    def test_graph_fields_the_family_does_not_read_are_rejected(self, graph, field):
        with pytest.raises(ConfigError, match="does not read this field") as exc:
            ExperimentConfig.from_dict(meanfield_config(graph=graph))
        assert exc.value.field == field

    @pytest.mark.parametrize("config,field,message", [
        ([meanfield_config()], "config", "top level must be a JSON object"),
        ({k: v for k, v in meanfield_config().items() if k != "model"}, "model", "missing"),
        (meanfield_config(graph={"family": "smallworld", "n": 30}), "graph.family",
         "unknown family 'smallworld'"),
        (meanfield_config(graph={"family": "binomial", "n": 30, "p": 0.2, "k": 4}), "graph",
         "unexpected keyword argument 'k'"),
    ], ids=["not_an_object", "no_model", "unknown_family", "unknown_graph_key"])
    def test_malformed_configs_name_their_field(self, config, field, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(config)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field}: ") and str(exc.value).endswith(message)

    def test_unsweepable_name_rejected(self):
        bad = meanfield_config()
        bad["sweep"] = {"parameters": [{"name": "n", "base": 10}],
                        "increment": 1, "count": 2}
        with pytest.raises(ConfigError, match="cannot sweep"):
            ExperimentConfig.from_dict(bad)

    def test_sweep_count_must_be_positive(self):
        bad = meanfield_config()
        bad["sweep"]["count"] = 0
        with pytest.raises(ConfigError, match="must be >= 1"):
            ExperimentConfig.from_dict(bad)

    def test_singular_sweep_form_is_equivalent(self):
        plural = ExperimentConfig.from_dict(meanfield_config())
        singular = ExperimentConfig.from_dict(meanfield_config(
            sweep={"parameter": "beta", "base": 0.2, "increment": 0.1, "count": 2}))
        assert singular.sweep == plural.sweep
        assert singular.config_hash() == plural.config_hash()

    def test_hash_ignores_param_insertion_order(self):
        a = meanfield_config()
        b = meanfield_config()
        b["params"] = dict(reversed(list(a["params"].items())))
        ha = ExperimentConfig.from_dict(a).config_hash()
        hb = ExperimentConfig.from_dict(b).config_hash()
        assert ha == hb
        assert len(ha) == 64 and set(ha) <= set("0123456789abcdef")

    def test_hash_sensitive_to_every_field(self):
        base = ExperimentConfig.from_dict(meanfield_config()).config_hash()
        assert ExperimentConfig.from_dict(
            meanfield_config(seed=6)).config_hash() != base
        changed = meanfield_config()
        changed["params"]["beta"] = 0.25
        assert ExperimentConfig.from_dict(changed).config_hash() != base

    def test_sweep_point_values(self):
        sweep = SweepSpec(parameters=(("gamma", 0.1), ("beta", 0.2)),
                          increment=0.05, count=4)
        assert sweep.point_values(0) == {"gamma": 0.1, "beta": 0.2}
        p3 = sweep.point_values(3)
        assert p3["gamma"] == pytest.approx(0.25)
        assert p3["beta"] == pytest.approx(0.35)

    def test_graph_spec_family_xor_path(self):
        with pytest.raises(ConfigError):
            GraphSpec(family="binomial", path="foo.edges", n=10, p=0.5)
        with pytest.raises(ConfigError):
            GraphSpec()

    def test_graph_spec_builds_each_family(self):
        built = GraphSpec(family="binomial", n=20, p=0.2, seed=1).build(0)
        assert built.n == 20
        built = GraphSpec(family="powerlaw", n=20, m=2, seed=1).build(0)
        assert built.n == 20
        built = GraphSpec(family="exponential", n=20, lam=0.5, seed=1).build(0)
        assert built.n == 20
        built = GraphSpec(family="lattice4", rows=4, cols=5).build(0)
        assert built.n == 20

    def test_graph_spec_from_edge_list(self, tmp_path):
        from netspread.graphs import gen_binomial, save_edge_list
        g = gen_binomial(15, 0.3, 2)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        loaded = GraphSpec(path=str(path)).build(0)
        assert edge_set(loaded) == edge_set(g)


# ---------------------------------------------------------------------------
# Sweep execution and manifests
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_meanfield_sweep_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(meanfield_config())
        res = run_experiment(cfg, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["graph.edges", "manifest.json", "point_000.csv",
                         "point_001.csv"]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(man) == ["config_hash", "errors", "files", "scores",
                               "seed", "swept_values", "version"]
        assert man["config_hash"] == cfg.config_hash() == res.config_hash
        assert man["seed"] == 5
        assert man["files"] == ["graph.edges", "point_000.csv", "point_001.csv"]
        assert man["errors"] == [None, None]
        assert man["swept_values"][0] == {"beta": 0.2}
        assert man["swept_values"][1]["beta"] == pytest.approx(0.3)
        assert len(man["scores"]) == 2
        header = (tmp_path / "point_000.csv").read_text().splitlines()[0]
        assert header == "t,mean_p,mean_q,mean_w,dead,carriers"

    def test_manifest_is_pretty_printed_with_trailing_newline(self, tmp_path):
        cfg = ExperimentConfig.from_dict(meanfield_config())
        run_experiment(cfg, tmp_path)
        raw = (tmp_path / "manifest.json").read_text()
        assert raw.endswith("\n")
        assert raw.splitlines()[1].startswith('  "')

    def test_ode_run_has_no_graph_file(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": "sis_ode",
            "params": {"beta": 1.0, "gamma": 0.1, "s0": 0.99, "i0": 0.01},
            "run": {"dt": 0.05, "t_end": 5.0},
        })
        run_experiment(cfg, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["manifest.json", "point_000.csv"]
        header = (tmp_path / "point_000.csv").read_text().splitlines()[0]
        assert header == "t,s,i,r"
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["scores"] == [None]

    def test_failing_points_are_recorded_not_raised(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": "sis_meanfield",
            "params": {"beta": 0.9, "delta": 0.2, "gamma": 0.05, "r": 1.0,
                       "p0": 0.3},
            "run": {"steps": 60},
            "graph": {"family": "binomial", "n": 30, "p": 0.3, "seed": 4},
            "sweep": {"parameters": [{"name": "delta", "base": 0.2}],
                      "increment": 0.35, "count": 3},
            "seed": 5,
        })
        res = run_experiment(cfg, tmp_path)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["files"] == ["graph.edges"]  # no point CSVs were produced
        assert all(err is not None and "not clamped" in err
                   for err in man["errors"])
        assert all(p.file is None for p in res.points)

    def test_mc_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": "sis_mc",
            "params": {"beta": 0.05, "delta": 0.1, "gamma": 0.1, "r": 1.0,
                       "p0": 0.1},
            "run": {"steps": 40, "runs": 25},
            "graph": {"family": "binomial", "n": 80, "p": 0.06, "seed": 3},
            "sweep": {"parameters": [{"name": "beta", "base": 0.05}],
                      "increment": 0.05, "count": 3},
            "seed": 99,
        })
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, dir_a)
        run_experiment(cfg, dir_b)
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        assert "point_002.csv" in files_a
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        header = (dir_a / "point_000.csv").read_text().splitlines()[0]
        assert header == ("t,frac_noinfo_mean,frac_hasinfo_mean,"
                          "frac_warned_mean,frac_dead_mean,frac_hasinfo_std")

    def test_output_directory_is_created(self, tmp_path):
        cfg = ExperimentConfig.from_dict(meanfield_config())
        nested = tmp_path / "a" / "b"
        res = run_experiment(cfg, nested)
        assert nested.is_dir()
        assert Path(res.manifest_path).is_file()


# ---------------------------------------------------------------------------
# Bundled figure set
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    return out, reproduce_figures(out)


class TestFigures:
    FIGURES = [
        "sir_phase",
        "sis_phase",
        "sis_powerlaw_coupled_sweep",
        "sis_lattice_coupled_sweep",
        "sis_powerlaw_death_sweep",
        "sis_lattice_death_sweep",
        "sirs_powerlaw_sweep",
        "sirs_lattice_sweep",
    ]

    def test_a_pass_builds_each_graph_once(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("gen_powerlaw", "gen_lattice4", "run_experiment"):
            def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        reproduce_figures(tmp_path / "figures")
        assert calls == {"gen_powerlaw": 1, "gen_lattice4": 1,
                         "run_experiment": len(self.FIGURES)}
        # Called alone, as the CLI's sweep calls it, a run builds its graph.
        calls.clear()
        cfg = meanfield_config(graph={"family": "lattice4", "rows": 4, "cols": 4})
        experiments.run_experiment(ExperimentConfig.from_dict(cfg), tmp_path / "alone")
        assert calls == {"gen_lattice4": 1, "run_experiment": 1}

    def test_bundled_config_names(self):
        assert sorted(_figure_configs()) == sorted(self.FIGURES)
        for cfg in _figure_configs().values():
            assert cfg.seed == 42

    def test_every_figure_gets_a_directory(self, figure_run):
        out, results = figure_run
        assert sorted(results) == sorted(self.FIGURES)
        for name in self.FIGURES:
            assert (out / name / "manifest.json").is_file()

    def test_summary_layout(self, figure_run):
        out, _ = figure_run
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "figure,point,swept,score,terminal"
        # 2 single-point runs + 6 five-point sweeps
        assert len(lines) == 1 + 2 + 6 * 5
        for line in lines[1:]:
            figure, point, swept, score, terminal = line.split(",", 4)
            assert figure in self.FIGURES
            assert point.isdigit()
            assert terminal

    def test_epidemic_phase_run_has_single_peak(self, figure_run):
        out, _ = figure_run
        rows = (out / "sir_phase" / "point_000.csv").read_text().splitlines()[1:]
        i = [float(r.split(",")[2]) for r in rows]
        peaks = sum(
            1 for k in range(1, len(i) - 1) if i[k - 1] < i[k] >= i[k + 1])
        assert peaks == 1

    def test_endemic_phase_run_levels_off(self, figure_run):
        out, _ = figure_run
        rows = (out / "sis_phase" / "point_000.csv").read_text().splitlines()[1:]
        i = [float(r.split(",")[2]) for r in rows]
        assert i[-1] == pytest.approx(0.9, abs=1e-6)
        assert all(b >= a - 1e-12 for a, b in zip(i, i[1:]))

    def test_hub_graph_scores_dominate_lattice_scores(self, figure_run):
        _, results = figure_run
        pl = [p.score for p in results["sis_powerlaw_coupled_sweep"].points]
        lat = [p.score for p in results["sis_lattice_coupled_sweep"].points]
        assert len(pl) == len(lat) == 5
        # torus scores follow the closed form with spectral radius 4
        for k, score in enumerate(lat):
            rate = 0.1 + 0.05 * k
            want = (1 - 0.1) + rate * (rate / (rate + 0.1)) * 4.0
            assert score == pytest.approx(want, abs=1e-9)
        for a, b in zip(pl, lat):
            assert a > b

    def test_coupled_sweep_carriers_dominate_susceptibles(self, figure_run):
        # At the base point the endemic state still has mean_p < mean_q; from
        # the second point on the carriers take over.
        out, results = figure_run
        terminal = []
        for p in results["sis_powerlaw_coupled_sweep"].points:
            text = (out / "sis_powerlaw_coupled_sweep" / p.file).read_text()
            last = text.strip().rsplit("\n", 1)[-1].split(",")
            terminal.append((float(last[1]), float(last[2])))  # mean_p, mean_q
        assert terminal[0][0] < terminal[0][1]
        for mean_p, mean_q in terminal[1:]:
            assert mean_p > mean_q

    def test_hub_graph_death_sweep_hits_negative_coefficients(self, figure_run):
        out, results = figure_run
        points = results["sis_powerlaw_death_sweep"].points
        assert all(p.error is not None for p in points)
        man = json.loads(
            (out / "sis_powerlaw_death_sweep" / "manifest.json").read_text())
        assert man["files"] == ["graph.edges"]

    def test_lattice_death_sweep_extinction_beyond_threshold(self, figure_run):
        out, results = figure_run
        points = results["sis_lattice_death_sweep"].points
        assert all(p.error is None for p in points)
        carriers = []
        for p in points:
            last = (out / "sis_lattice_death_sweep" / p.file).read_text()
            carriers.append(float(last.strip().rsplit("\n", 1)[-1].rsplit(",", 1)[-1]))
        # the first two points sit at or above the threshold; the rest are
        # comfortably below it and the expected carrier count collapses
        assert carriers[0] > 1.0
        for value in carriers[2:]:
            assert value < 1e-4

    def test_warned_model_sweeps_run_clean(self, figure_run):
        _, results = figure_run
        for name in ("sirs_powerlaw_sweep", "sirs_lattice_sweep"):
            assert all(p.error is None for p in results[name].points)
            assert all(p.file is not None for p in results[name].points)


# ---------------------------------------------------------------------------
# Typed config fields
# ---------------------------------------------------------------------------

class TestConfigFieldTypes:
    FIGURE_HASHES = {
        "sir_phase": "a79e7c05d817d24724475dc780fff3b4a149ac93e7b690aefa67c347d0bf58e7",
        "sis_phase": "f04b558ac95da8587fba3b611bccb5a5b57afe31f2e9cd7cf7af1c5fd0de2ec6",
        "sis_powerlaw_coupled_sweep":
            "1326cd1b9bc4369df4b105c1df7e10c9c0df512454d56fc61a167a9bf45b6474",
        "sis_lattice_coupled_sweep":
            "bf8d987c9db386bec90283e163e16c20a98f6df8a0c8c97a1514ae6106fe2abc",
        "sis_powerlaw_death_sweep":
            "b790aa1ddb0766626c0f3a25e4be292f92ec2fbd3c5547ac7df2bec2d591a757",
        "sis_lattice_death_sweep":
            "c79aaff5f2d48917b3d780696fbd0639e621f16ea5bdbd1aa460f29bfa6b61ce",
        "sirs_powerlaw_sweep": "b4104a3da81d0471f03bbede5fad26045ae054587972289a8b61e663e1913a94",
        "sirs_lattice_sweep": "360c2d337176547776885e8eeaf223b7e886f72b906815c08d2d9372cc5a29bd",
    }

    def test_figure_config_hashes_are_pinned(self):
        hashes = {name: cfg.config_hash() for name, cfg in _figure_configs().items()}
        assert hashes == self.FIGURE_HASHES

    @pytest.mark.parametrize("run,field", [
        ({"steps": 5.5}, "run.steps"),
        ({"steps": 5.0}, "run.steps"),
        ({"steps": True}, "run.steps"),
        ({"steps": "50"}, "run.steps"),
        ({"runs": 2.5}, "run.runs"),
        ({"runs": False}, "run.runs"),
        ({"dt": "0.1"}, "run.dt"),
        ({"t_end": None}, "run.t_end"),
        ({"tol": True}, "run.tol"),
        ({"dt": float("nan")}, "run.dt"),
        ({"t_end": float("nan")}, "run.t_end"),
        ({"t_end": float("inf")}, "run.t_end"),
        ({"dt": 0.0}, "run.dt"),
        ({"runs": 0}, "run.runs"),
        ({"stepz": 3}, "run"),
    ])
    def test_run_fields_are_validated(self, run, field):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(meanfield_config(run=run))
        assert exc.value.field == field

    @pytest.mark.parametrize("sweep,field", [
        ({"parameter": "beta", "base": 0.2, "increment": 0.1, "count": 2.7}, "sweep.count"),
        ({"parameter": "beta", "base": 0.2, "increment": 0.1, "count": True}, "sweep.count"),
        ({"parameter": "beta", "base": 0.2, "increment": 0.1, "count": "2"}, "sweep.count"),
        ({"parameter": "beta", "base": "0.5", "increment": 0.1, "count": 2}, "sweep.base"),
        ({"parameters": [{"name": "beta", "base": None}], "increment": 0.1, "count": 2},
         "sweep.base"),
        ({"parameter": "beta", "base": 0.2, "increment": "0.1", "count": 2}, "sweep.increment"),
        ({"parameters": [{"name": 3, "base": 0.2}], "increment": 0.1, "count": 2},
         "sweep.parameters"),
        ({"parameter": "beta", "base": float("nan"), "increment": 0.1, "count": 2},
         "sweep.base"),
        ({"parameter": "beta", "base": 0.2, "increment": float("inf"), "count": 2},
         "sweep.increment"),
        ({"parameters": [], "increment": 0.1, "count": 2}, "sweep.parameters"),
    ])
    def test_sweep_fields_are_not_coerced(self, sweep, field):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(meanfield_config(sweep=sweep))
        assert exc.value.field == field

    def test_nan_tolerance_is_rejected(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(meanfield_config(run={"tol": float("nan")}))
        assert exc.value.field == "run.tol"

    @pytest.mark.parametrize("sweep", [
        {"parameter": "beta", "base": 0.2, "increment": -0.3, "count": 2},
        {"parameter": "delta", "base": 0.5, "increment": 0.3, "count": 3},
        {"parameters": [{"name": "beta", "base": 0.5}, {"name": "p0", "base": 0.9}],
         "increment": 0.1, "count": 3},
        {"parameter": "beta", "base": 0.0, "increment": 1e308, "count": 3},
    ])
    def test_swept_values_are_range_checked_before_any_point_runs(self, sweep):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(meanfield_config(sweep=sweep))
        assert exc.value.field == "sweep"

    def test_every_bundled_figure_config_loads(self):
        """The config checks accept every bundled config as it stands, and
        its canonical dict, which lists every run key and graph field, loads
        to the same hash."""
        configs = _figure_configs()
        assert len(configs) == 8
        for cfg in configs.values():
            again = ExperimentConfig.from_dict(cfg.canonical_dict())
            assert again.config_hash() == cfg.config_hash()

    def test_integer_sweep_values_hash_as_floats(self):
        ints = meanfield_config(sweep={"parameter": "r", "base": 1, "increment": 0,
                                       "count": 1})
        floats = meanfield_config(sweep={"parameter": "r", "base": 1.0, "increment": 0.0,
                                         "count": 1})
        assert (ExperimentConfig.from_dict(ints).config_hash()
                == ExperimentConfig.from_dict(floats).config_hash())

    @pytest.mark.parametrize("graph,field", [
        ({"family": "binomial", "n": "30", "p": 0.2}, "graph.n"),
        ({"family": "binomial", "n": 30.0, "p": 0.2}, "graph.n"),
        ({"family": "binomial", "n": 30, "p": "0.2"}, "graph.p"),
        ({"family": "powerlaw", "n": 30, "m": True}, "graph.m"),
        ({"family": "exponential", "n": 30, "lam": [0.5]}, "graph.lam"),
        ({"family": "lattice4", "rows": 4, "cols": 4.5}, "graph.cols"),
        ({"family": "lattice4", "rows": "4", "cols": 4}, "graph.rows"),
        ({"family": "binomial", "n": 30, "p": 0.2, "seed": 1.5}, "graph.seed"),
        ({"path": 7}, "graph.path"),
    ])
    def test_graph_fields_are_typed(self, graph, field):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(meanfield_config(graph=graph))
        assert exc.value.field == field


def test_sis_mc_points_run_without_warning(tmp_path):
    # sis_mc reads neither nu nor chi (a config that names them fails at
    # load), so it runs at their defaults, 1 and 0: the sirs_mc run at those
    # values, in which no node is ever warned.  sirs_mc reads both.
    def point_csv(name, model, **acceptance):
        cfg = ExperimentConfig.from_dict({
            "model": model,
            "params": {"beta": 0.2, "delta": 0.1, "gamma": 0.1, "r": 1.0, "p0": 0.1,
                       **acceptance},
            "run": {"steps": 30, "runs": 4},
            "graph": {"family": "powerlaw", "n": 300, "m": 2, "seed": 1},
            "seed": 7,
        })
        assert run_experiment(cfg, tmp_path / name).points[0].error is None
        return (tmp_path / name / "point_000.csv").read_text()

    plain = point_csv("sis", "sis_mc")
    rows = [line.split(",") for line in plain.splitlines()]
    column = rows[0].index("frac_warned_mean")
    assert all(float(row[column]) == 0.0 for row in rows[1:])
    assert point_csv("sirs_defaults", "sirs_mc", nu=1.0, chi=0.0) == plain
    assert point_csv("sirs", "sirs_mc", nu=0.5, chi=0.3) != plain


# A value of each params key in a regime where every model runs clean, and a
# second value to tell whether the run read it.  s0 + i0 = 1, which an
# sis_ode start must meet, so a second value of one moves the other too.
SAFE_PARAMS = {"beta": (0.2, 0.3), "gamma": (0.1, 0.2), "delta": (0.1, 0.2),
               "r": (0.9, 0.8), "p0": (0.1, 0.2), "w0": (0.05, 0.1), "nu": (0.7, 0.6),
               "chi": (0.2, 0.3), "mu": (0.05, 0.1), "s0": (0.9, 0.8), "i0": (0.1, 0.2)}


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_every_key_a_model_reads_reaches_a_run(tmp_path, model):
    # The model table says which keys a config may set; each of them, set,
    # must give a point that runs, and whose CSV changes with the key.
    kind, _, reads = _MODELS[model]
    run = {"ode": {"t_end": 2.0}, "meanfield": {"steps": 20},
           "mc": {"steps": 20, "runs": 3}}[kind]

    def point_csv(name, **change):
        params = {key: SAFE_PARAMS[key][0] for key in reads}
        params.update(change)
        for key, other in (("s0", "i0"), ("i0", "s0")):
            if key in change:
                params[other] = 1.0 - change[key]
        cfg = {"model": model, "params": params, "run": run, "seed": 3}
        if kind != "ode":
            cfg["graph"] = {"family": "powerlaw", "n": 60, "m": 2, "seed": 2}
        res = run_experiment(ExperimentConfig.from_dict(cfg), tmp_path / name)
        assert [p.error for p in res.points] == [None], (model, change)
        return (tmp_path / name / "point_000.csv").read_text()

    base = point_csv("base")
    for key in reads:
        assert point_csv(key, **{key: SAFE_PARAMS[key][1]}) != base, (model, key)


def test_mc_points_start_from_p0(tmp_path):
    # A 200-node sis_mc point seeds round(p0 * n) carriers; p0 defaults to 0.1.
    def first_row(name, **start):
        cfg = ExperimentConfig.from_dict({
            "model": "sis_mc",
            "params": {"beta": 0.2, "delta": 0.1, "gamma": 0.1, **start},
            "run": {"steps": 3, "runs": 2},
            "graph": {"family": "powerlaw", "n": 200, "m": 2, "seed": 1},
        })
        run_experiment(cfg, tmp_path / name)
        rows = (tmp_path / name / "point_000.csv").read_text().splitlines()
        return dict(zip(rows[0].split(","), map(float, rows[1].split(","))))

    assert first_row("default")["frac_hasinfo_mean"] == 0.1
    assert first_row("p0", p0=0.9)["frac_hasinfo_mean"] == 0.9

"""Config-driven experiment harness with parameter sweeps.

An :class:`ExperimentConfig` (usually loaded from a JSON file) names a model,
a graph source, a parameter block, an optional sweep and run settings.  The
harness materialises one trajectory CSV per sweep point plus a manifest JSON
recording the canonical config hash, seed, output files, swept values and
(for graph-based models) survivability scores.  Per-point runtime failures
are recorded in the manifest without aborting the remaining points.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .graphs import (
    Graph,
    gen_binomial,
    gen_exponential,
    gen_lattice4,
    gen_powerlaw,
    load_edge_list,
    save_edge_list,
)
from .meanfield import LinkProbs, MfState, NodeParams
from .meanfield import run as meanfield_run
from .montecarlo import mc_ensemble
from .ode import OdeParams, OdeState, integrate
from .spectral import survivability_score
from .trajectory import _write_text

__all__ = [
    "ConfigError",
    "GraphSpec",
    "SweepSpec",
    "RunSpec",
    "ExperimentConfig",
    "PointResult",
    "SweepResult",
    "run_experiment",
    "reproduce_figures",
    "FIGURE_BUILDERS",
]

ODE_MODELS = {"sir_ode": "sir_epidemic", "sir_endemic_ode": "sir_endemic", "sis_ode": "sis"}
MEANFIELD_MODELS = {"sis_meanfield": "sis", "sirs_meanfield": "sirs"}
MC_MODELS = {"sis_mc", "sirs_mc"}
ALL_MODELS = set(ODE_MODELS) | set(MEANFIELD_MODELS) | MC_MODELS

_PROB_PARAMS = ("delta", "r", "nu", "chi", "p0", "w0", "init", "s0", "i0")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


# Config values are JSON values: bool is not a number here.
def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string(value) -> bool:
    return isinstance(value, str)


def _require(check, field_name: str, value, kind: str) -> None:
    """Raise a :class:`ConfigError` for ``field_name`` unless ``check(value)``."""
    if not check(value):
        raise ConfigError(field_name, f"must be {kind}, got {value!r}")


@dataclass(frozen=True)
class GraphSpec:
    """Graph source: a generator family with parameters, or an edge-list path."""

    family: str | None = None
    path: str | None = None
    n: int | None = None
    m: int | None = None
    p: float | None = None
    lam: float | None = None
    rows: int | None = None
    cols: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if (self.family is None) == (self.path is None):
            raise ConfigError("graph", "provide exactly one of 'family' or 'path'")
        if self.family is not None and self.family not in (
            "binomial",
            "powerlaw",
            "exponential",
            "lattice4",
        ):
            raise ConfigError("graph.family", f"unknown family {self.family!r}")
        for name, check, kind in (
            ("path", _is_string, "a string"),
            ("n", _is_integer, "an integer"), ("m", _is_integer, "an integer"),
            ("p", _is_number, "numeric"), ("lam", _is_number, "numeric"),
            ("rows", _is_integer, "an integer"), ("cols", _is_integer, "an integer"),
            ("seed", _is_integer, "an integer"),
        ):
            value = getattr(self, name)
            if value is not None:
                _require(check, f"graph.{name}", value, kind)

    def build(self, default_seed: int) -> Graph:
        seed = self.seed if self.seed is not None else default_seed
        if self.path is not None:
            return load_edge_list(self.path)
        if self.family == "binomial":
            if self.n is None or self.p is None:
                raise ConfigError("graph", "binomial needs 'n' and 'p'")
            return gen_binomial(self.n, self.p, seed)
        if self.family == "powerlaw":
            if self.n is None or self.m is None:
                raise ConfigError("graph", "powerlaw needs 'n' and 'm'")
            return gen_powerlaw(self.n, self.m, seed)
        if self.family == "exponential":
            if self.n is None or self.lam is None:
                raise ConfigError("graph", "exponential needs 'n' and 'lam'")
            return gen_exponential(self.n, self.lam, seed)
        if self.rows is None or self.cols is None:
            raise ConfigError("graph", "lattice4 needs 'rows' and 'cols'")
        return gen_lattice4(self.rows, self.cols)


@dataclass(frozen=True)
class SweepSpec:
    """One or more parameters advanced together: value = base + k * increment."""

    parameters: tuple[tuple[str, float], ...]
    increment: float
    count: int

    def __post_init__(self) -> None:
        for name, base in self.parameters:
            _require(_is_string, "sweep.parameters", name, "a parameter name")
            _require(_is_number, "sweep.base", base, f"numeric for {name!r}")
        _require(_is_number, "sweep.increment", self.increment, "numeric")
        _require(_is_integer, "sweep.count", self.count, "an integer")
        if self.count < 1:
            raise ConfigError("sweep.count", f"must be >= 1, got {self.count}")
        if not self.parameters:
            raise ConfigError("sweep.parameters", "must name at least one parameter")
        # Stored as floats so that 1 and 1.0 give the same config hash.
        object.__setattr__(self, "parameters", tuple(
            (name, float(base)) for name, base in self.parameters))
        object.__setattr__(self, "increment", float(self.increment))

    def point_values(self, k: int) -> dict[str, float]:
        return {name: base + k * self.increment for name, base in self.parameters}


@dataclass(frozen=True)
class RunSpec:
    """Run settings; which fields apply depends on the model family."""

    steps: int = 500
    dt: float = 0.01
    t_end: float = 100.0
    tol: float = 1e-9
    runs: int = 100

    def __post_init__(self) -> None:
        for name in ("steps", "runs"):
            _require(_is_integer, f"run.{name}", getattr(self, name), "an integer")
        for name in ("dt", "t_end", "tol"):
            _require(_is_number, f"run.{name}", getattr(self, name), "numeric")
        if self.steps < 1:
            raise ConfigError("run.steps", f"must be >= 1, got {self.steps}")
        # "not > 0" rejects NaN as well.
        if not self.dt > 0:
            raise ConfigError("run.dt", f"must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ConfigError("run.t_end", f"must be positive, got {self.t_end}")
        if self.runs < 1:
            raise ConfigError("run.runs", f"must be >= 1, got {self.runs}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one (optionally swept) experiment."""

    model: str
    params: dict[str, float]
    run: RunSpec = field(default_factory=RunSpec)
    graph: GraphSpec | None = None
    sweep: SweepSpec | None = None
    seed: int = 0
    allow_negative_coefficients: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or self.model not in ALL_MODELS:
            raise ConfigError("model", f"unknown model {self.model!r}")
        if self.model not in ODE_MODELS and self.graph is None:
            raise ConfigError("graph", f"model {self.model!r} requires a graph")
        if not isinstance(self.params, dict):
            raise ConfigError("params", f"must be an object, got {self.params!r}")
        _require(_is_integer, "seed", self.seed, "an integer")
        if not isinstance(self.allow_negative_coefficients, bool):
            raise ConfigError(
                "allow_negative_coefficients",
                f"must be true or false, got {self.allow_negative_coefficients!r}",
            )
        for key, value in self.params.items():
            _require(_is_number, f"params.{key}", value, "numeric")
            if key in _PROB_PARAMS and not (0.0 <= value <= 1.0):
                raise ConfigError(f"params.{key}", f"must lie in [0, 1], got {value}")
            if key in ("beta", "gamma", "mu") and value < 0:
                raise ConfigError(f"params.{key}", f"must be >= 0, got {value}")
        if self.sweep is not None:
            for name, _ in self.sweep.parameters:
                if name not in (
                    "beta", "gamma", "delta", "r", "nu", "chi", "mu", "p0", "w0"
                ):
                    raise ConfigError("sweep.parameters", f"cannot sweep {name!r}")
        # Stored as floats so that 1 and 1.0 give the same config hash.
        object.__setattr__(
            self, "params", {str(k): float(v) for k, v in self.params.items()}
        )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config", "top level must be a JSON object")
        unknown = set(d) - {
            "model", "params", "run", "graph", "sweep", "seed",
            "allow_negative_coefficients",
        }
        if unknown:
            raise ConfigError("config", f"unknown keys: {sorted(unknown)}")
        if "model" not in d:
            raise ConfigError("model", "missing")
        graph = None
        if d.get("graph") is not None:
            try:
                graph = GraphSpec(**d["graph"])
            except TypeError as exc:
                raise ConfigError("graph", str(exc)) from None
        sweep = None
        if d.get("sweep") is not None:
            try:
                s = dict(d["sweep"])
                if "parameter" in s:
                    s["parameters"] = [
                        {"name": s.pop("parameter"), "base": s.pop("base")}
                    ]
                parameters = tuple(
                    (entry["name"], entry["base"]) for entry in s["parameters"]
                )
                increment, count = s["increment"], s["count"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("sweep", f"malformed sweep block: {exc}") from None
            sweep = SweepSpec(parameters=parameters, increment=increment, count=count)
        try:
            run_spec = RunSpec(**d.get("run", {}))
        except TypeError as exc:
            raise ConfigError("run", str(exc)) from None
        return cls(
            model=d["model"],
            params=d.get("params", {}),
            run=run_spec,
            graph=graph,
            sweep=sweep,
            seed=d.get("seed", 0),
            allow_negative_coefficients=d.get("allow_negative_coefficients", False),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
        return cls.from_dict(data)

    def canonical_dict(self) -> dict:
        d = {
            "model": self.model,
            "params": dict(sorted(self.params.items())),
            "run": asdict(self.run),
            "graph": asdict(self.graph) if self.graph else None,
            "sweep": (
                {
                    "parameters": [
                        {"name": n, "base": b} for n, b in self.sweep.parameters
                    ],
                    "increment": self.sweep.increment,
                    "count": self.sweep.count,
                }
                if self.sweep
                else None
            ),
            "seed": self.seed,
            "allow_negative_coefficients": self.allow_negative_coefficients,
        }
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class PointResult:
    """One sweep point: parameter values, output file, score, error."""

    values: dict[str, float]
    file: str | None
    score: float | None
    error: str | None


@dataclass
class SweepResult:
    """All sweep points plus the manifest location."""

    config_hash: str
    seed: int
    points: list[PointResult]
    manifest_path: Path
    output_dir: Path


def _required(params: dict[str, float], keys: list[str], model: str) -> None:
    missing = [k for k in keys if k not in params]
    if missing:
        raise ConfigError("params", f"model {model!r} requires {missing}")


def _node_params(n: int, params: dict[str, float]) -> NodeParams:
    return NodeParams.homogeneous(
        n,
        r=params.get("r", 1.0),
        delta=params["delta"],
        gamma=params["gamma"],
        nu=params.get("nu", 1.0),
        chi=params.get("chi", 0.0),
    )


def _run_point(
    config: ExperimentConfig,
    point_params: dict[str, float],
    graph: Graph | None,
    out_path: Path,
) -> float | None:
    """Run one sweep point, write its CSV, return the survivability score."""
    model = config.model
    if model in ODE_MODELS:
        _required(point_params, ["beta", "gamma"], model)
        ode_params = OdeParams(
            beta=point_params["beta"],
            gamma=point_params["gamma"],
            mu=point_params.get("mu", 0.0),
        )
        i0 = point_params.get("i0", 0.01)
        s0 = point_params.get("s0", 1.0 - i0)
        traj = integrate(
            ODE_MODELS[model],
            OdeState(s=s0, i=i0),
            ode_params,
            dt=config.run.dt,
            t_end=config.run.t_end,
        )
        traj.write_csv(out_path)
        return None

    assert graph is not None
    _required(point_params, ["beta", "gamma", "delta"], model)
    node_params = _node_params(graph.n, point_params)
    links = LinkProbs.homogeneous(graph, point_params["beta"])
    score: float | None = None
    if np.all(node_params.delta > 0.0):
        score = survivability_score(graph, links, node_params).score

    if model in MEANFIELD_MODELS:
        state0 = MfState.uniform(
            graph.n, p0=point_params.get("p0", 0.1), w0=point_params.get("w0", 0.0)
        )
        result = meanfield_run(
            MEANFIELD_MODELS[model],
            state0,
            links,
            node_params,
            max_steps=config.run.steps,
            tol=config.run.tol,
            allow_negative_coefficients=config.allow_negative_coefficients,
        )
        result.trajectory.write_csv(out_path)
        return score

    ensemble = mc_ensemble(
        graph,
        links,
        node_params,
        init=point_params.get("p0", 0.1),
        steps=config.run.steps,
        runs=config.run.runs,
        seed=config.seed,
    )
    ensemble.write_csv(out_path)
    return score


def run_experiment(config: ExperimentConfig, output_dir: str | Path) -> SweepResult:
    """Run every sweep point of ``config``, writing CSVs and a manifest.

    Returns the sweep result; per-point runtime errors are captured in the
    manifest (and in the returned points) without aborting remaining points.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    graph: Graph | None = None
    files: list[str] = []
    if config.model not in ODE_MODELS:
        assert config.graph is not None
        graph = config.graph.build(config.seed)
        graph_file = "graph.edges"
        save_edge_list(graph, out / graph_file)
        files.append(graph_file)

    count = config.sweep.count if config.sweep else 1
    points: list[PointResult] = []
    for k in range(count):
        point_params = dict(config.params)
        swept = config.sweep.point_values(k) if config.sweep else {}
        point_params.update(swept)
        fname = f"point_{k:03d}.csv"
        try:
            score = _run_point(config, point_params, graph, out / fname)
            points.append(PointResult(values=swept, file=fname, score=score, error=None))
            files.append(fname)
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed silently
            points.append(
                PointResult(values=swept, file=None, score=None, error=str(exc))
            )

    manifest = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "version": __version__,
        "files": files,
        "swept_values": [p.values for p in points],
        "scores": [p.score for p in points],
        "errors": [p.error for p in points],
    }
    manifest_path = out / "manifest.json"
    _write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return SweepResult(
        config_hash=manifest["config_hash"],
        seed=config.seed,
        points=points,
        manifest_path=manifest_path,
        output_dir=out,
    )


# ---------------------------------------------------------------------------
# Bundled figure-style experiments
# ---------------------------------------------------------------------------

_POWERLAW = {"family": "powerlaw", "n": 1000, "m": 2, "seed": 42}
_LATTICE = {"family": "lattice4", "rows": 32, "cols": 32}


def _figure_configs() -> dict[str, ExperimentConfig]:
    """The bundled experiment set: phase-plane ODE runs plus mean-field
    sweeps contrasting a power-law network with a torus lattice."""
    coupled_sweep = {
        "parameters": [{"name": "gamma", "base": 0.1}, {"name": "beta", "base": 0.1}],
        "increment": 0.05,
        "count": 5,
    }
    death_sweep = {
        "parameters": [{"name": "delta", "base": 0.5}],
        "increment": 0.05,
        "count": 5,
    }
    warn_sweep = {
        "parameters": [{"name": "gamma", "base": 0.6}],
        "increment": 0.05,
        "count": 5,
    }
    specs: dict[str, dict] = {
        "sir_phase": {
            "model": "sir_ode",
            "params": {"beta": 0.8, "gamma": 0.1, "s0": 0.999, "i0": 0.001},
            "run": {"dt": 0.01, "t_end": 100.0},
        },
        "sis_phase": {
            "model": "sis_ode",
            "params": {"beta": 1.0, "gamma": 0.1, "s0": 0.99, "i0": 0.01},
            "run": {"dt": 0.01, "t_end": 200.0},
        },
    }
    # Each mean-field study runs on the power-law graph, then on the torus.
    studies: dict[str, dict] = {
        "sis_{}_coupled_sweep": {
            "model": "sis_meanfield",
            "params": {"beta": 0.1, "gamma": 0.1, "delta": 0.1, "r": 1.0, "p0": 0.1},
            "sweep": coupled_sweep,
        },
        "sis_{}_death_sweep": {
            "model": "sis_meanfield",
            "params": {"beta": 0.4, "gamma": 0.3, "delta": 0.5, "r": 1.0, "p0": 0.1},
            "sweep": death_sweep,
        },
        "sirs_{}_sweep": {
            "model": "sirs_meanfield",
            "params": {
                "beta": 0.3, "gamma": 0.6, "delta": 0.6, "r": 1.0,
                "nu": 1.0, "chi": 1.0, "p0": 0.1, "w0": 0.0,
            },
            "sweep": warn_sweep,
            "allow_negative_coefficients": True,
        },
    }
    for name, study in studies.items():
        for label, graph in (("powerlaw", _POWERLAW), ("lattice", _LATTICE)):
            specs[name.format(label)] = {**study, "graph": graph, "run": {"steps": 500}}
    return {
        name: ExperimentConfig.from_dict({"seed": 42, **spec})
        for name, spec in specs.items()
    }


FIGURE_BUILDERS = _figure_configs


def reproduce_figures(output_dir: str | Path) -> dict[str, SweepResult]:
    """Run the bundled experiment set into per-figure subdirectories.

    Also writes ``summary.csv`` with the terminal row of every trajectory and
    the survivability score of every graph-based point.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, SweepResult] = {}
    summary_lines = ["figure,point,swept,score,terminal"]
    for name, config in _figure_configs().items():
        res = run_experiment(config, out / name)
        results[name] = res
        for k, point in enumerate(res.points):
            swept = ";".join(f"{n}={v:.6g}" for n, v in point.values.items()) or "-"
            score = f"{point.score:.6g}" if point.score is not None else "-"
            if point.file is not None:
                last = (out / name / point.file).read_text(encoding="utf-8").strip()
                terminal = last.rsplit("\n", 1)[-1]
            else:
                terminal = f"error: {point.error}"
            summary_lines.append(f"{name},{k},{swept},{score},{terminal}")
    _write_text(out / "summary.csv", "\n".join(summary_lines) + "\n")
    return results

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
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .graphs import (  # the generators are called through _FAMILIES
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
from .ode import IntegrationInstabilityError, OdeParams, OdeState, _check_start, integrate
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
]

class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


# The check each declared field type gets.  Config values are JSON values:
# bool is not a number here.
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
              "numeric"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}

_FINITE = sys.float_info.max
_PROB = (0.0, 1.0, "in [0, 1]")
_RATE = (0.0, _FINITE, "finite and >= 0")
# Every key a params block may hold: its range in a network model and whether
# a sweep may advance it.  There beta and gamma are the per-link transmission
# and per-node resurrection probabilities; an ODE model reads them as rates.
_PARAMS = {
    "beta": (_PROB, True), "gamma": (_PROB, True), "mu": (_RATE, True),
    "delta": (_PROB, True), "r": (_PROB, True), "nu": (_PROB, True),
    "chi": (_PROB, True), "p0": (_PROB, True), "w0": (_PROB, True),
    "s0": (_PROB, False), "i0": (_PROB, False),
}
# The value a point takes for each key it leaves out.  A model requires the
# keys it reads that have none here (beta, gamma, delta); s0 left out (None)
# is 1 - i0, so that no one starts recovered.
_DEFAULTS = {"mu": 0.0, "r": 1.0, "nu": 1.0, "chi": 0.0, "p0": 0.1, "w0": 0.0,
             "i0": 0.01, "s0": None}
# Each sweep model: the kind of runner it takes, the library model that
# runner runs and the keys of _PARAMS it reads; a params block holds no
# others.  A sis model reads neither nu nor chi, so it runs at their
# defaults, 1 and 0, and starts from no warned fraction; only sirs_meanfield
# reads w0.
_ODE_KEYS = ("beta", "gamma", "s0", "i0")
_NETWORK_KEYS = ("beta", "gamma", "delta", "r", "p0")
_MODELS = {
    "sir_ode": ("ode", "sir_epidemic", _ODE_KEYS),
    "sir_endemic_ode": ("ode", "sir_endemic", (*_ODE_KEYS, "mu")),
    "sis_ode": ("ode", "sis", _ODE_KEYS),
    "sis_meanfield": ("meanfield", "sis", _NETWORK_KEYS),
    "sirs_meanfield": ("meanfield", "sirs", (*_NETWORK_KEYS, "w0", "nu", "chi")),
    "sis_mc": ("mc", "sis", _NETWORK_KEYS),
    "sirs_mc": ("mc", "sirs", (*_NETWORK_KEYS, "nu", "chi")),
}
# What each kind of runner reads besides params: its run keys, a graph and
# allow_negative_coefficients.  A config leaves every other setting at its
# default.
_KINDS = {
    "ode": ("dt", "t_end"),
    "meanfield": ("graph", "steps", "tol", "allow_negative_coefficients"),
    "mc": ("graph", "steps", "runs"),
}
# Inclusive range (low, high, wording) of each bounded numeric value, checked
# as "not low <= value <= high" so that NaN fails as well.  The least positive
# float as the low end makes a range "> 0".
_RANGES = {
    "sweep.base": (-_FINITE, _FINITE, "finite"),
    "sweep.increment": (-_FINITE, _FINITE, "finite"),
    "sweep.count": (1, math.inf, ">= 1"),
    "run.steps": (1, math.inf, ">= 1"),
    "run.runs": (1, math.inf, ">= 1"),
    "run.dt": (math.ulp(0.0), _FINITE, "positive and finite"),
    "run.t_end": (math.ulp(0.0), _FINITE, "positive and finite"),
    "run.tol": (0.0, _FINITE, "finite and >= 0"),
}


def _check_value(name: str, value, type_name: str, bounds: tuple | None = None) -> None:
    """Raise a :class:`ConfigError` for ``name`` unless ``value`` has the
    type ``type_name`` and lies in ``bounds``, by default its ``_RANGES``
    entry if it has one."""
    check, kind = _TYPE_CHECKS[type_name]
    if not check(value):
        raise ConfigError(name, f"must be {kind}, got {value!r}")
    bounds = bounds or _RANGES.get(name)
    if bounds and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(name, f"must be {bounds[2]}, got {value!r}")


def _check_fields(spec, block: str) -> None:
    """Check every field of the config dataclass ``spec`` declared as int,
    float, str or bool (``| None`` when optional) against its type and range;
    errors name the field ``block.name``, or ``name`` when ``block`` is empty.
    Fields of other types are checked by their own dataclass or caller."""
    for f in fields(spec):
        type_name, _, optional = f.type.partition(" | ")
        value = getattr(spec, f.name)
        if type_name in _TYPE_CHECKS and not (optional and value is None):
            _check_value(f"{block}.{f.name}" if block else f.name, value, type_name)


def _ode_start(params: dict[str, float]) -> tuple[float, float]:
    """``(s0, i0)`` of a point whose flat ``params`` hold every key: ``s0``
    left out (None) is ``1 - i0``."""
    return 1.0 - params["i0"] if params["s0"] is None else params["s0"], params["i0"]


# Each graph family's generator, by name so that it is looked up at call
# time, and the GraphSpec fields it takes in call order ("seed" is the seed
# resolved by GraphSpec.build); a block holds no others.  The generators
# alone check value ranges.
_FAMILIES = {
    "binomial": ("gen_binomial", ("n", "p", "seed")),
    "powerlaw": ("gen_powerlaw", ("n", "m", "seed")),
    "exponential": ("gen_exponential", ("n", "lam", "seed")),
    "lattice4": ("gen_lattice4", ("rows", "cols")),
}


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
        _check_fields(self, "graph")
        if self.family is not None and self.family not in _FAMILIES:
            raise ConfigError("graph.family", f"unknown family {self.family!r}")
        # Every block may hold a seed, which the CLI always passes.
        reads = _FAMILIES[self.family][1] if self.family else ("path",)
        for f in fields(self):
            if f.name not in ("family", "seed", *reads) and getattr(self, f.name) is not None:
                source = f"family {self.family!r}" if self.family else "an edge-list path"
                raise ConfigError(f"graph.{f.name}", f"{source} does not read this field")

    def build(self, default_seed: int) -> Graph:
        """The graph of this spec; a generator's ``ValueError`` for an
        out-of-range value becomes a :class:`ConfigError` for ``graph``."""
        if self.path is not None:
            return load_edge_list(self.path)
        generator, names = _FAMILIES[self.family]
        needed = [name for name in names if name != "seed"]
        if any(getattr(self, name) is None for name in needed):
            raise ConfigError(
                "graph", f"{self.family} needs " + " and ".join(map(repr, needed)))
        seed = self.seed if self.seed is not None else default_seed
        args = [seed if name == "seed" else getattr(self, name) for name in names]
        try:
            return globals()[generator](*args)
        except ValueError as exc:
            raise ConfigError("graph", str(exc)) from None


@dataclass(frozen=True)
class SweepSpec:
    """One or more parameters advanced together: value = base + k * increment."""

    parameters: tuple[tuple[str, float], ...]
    increment: float
    count: int

    def __post_init__(self) -> None:
        _check_fields(self, "sweep")
        for name, base in self.parameters:
            _check_value("sweep.parameters", name, "str")
            _check_value("sweep.base", base, "float")
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
        _check_fields(self, "run")


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
        _check_fields(self, "")
        if self.model not in _MODELS:
            raise ConfigError("model", f"unknown model {self.model!r}")
        kind, library, reads = _MODELS[self.model]
        if "graph" in _KINDS[kind] and self.graph is None:
            raise ConfigError("graph", f"model {self.model!r} requires a graph")
        if not isinstance(self.params, dict):
            raise ConfigError("params", f"must be an object, got {self.params!r}")
        bounds = {k: _RATE if kind == "ode" and k in ("beta", "gamma") else _PARAMS[k][0]
                  for k in reads}
        for key, value in self.params.items():
            if key not in reads:
                raise ConfigError(f"params.{key}", f"model {self.model!r} does not read "
                                  f"this parameter; expected one of {sorted(reads)}")
            _check_value(f"params.{key}", value, "float", bounds[key])
        if self.sweep is not None:
            for name, _ in self.sweep.parameters:
                if name not in reads or not _PARAMS[name][1]:
                    raise ConfigError("sweep.parameters",
                                      f"model {self.model!r} cannot sweep {name!r}")
            # A swept value is monotone in k, so when the first and the last
            # point lie in a parameter's range, every point does.
            for k in (0, self.sweep.count - 1):
                for name, value in self.sweep.point_values(k).items():
                    try:
                        _check_value(f"params.{name}", value, "float", bounds[name])
                    except ConfigError as exc:
                        raise ConfigError("sweep", f"point {k}: {exc}") from None
        given = {**_DEFAULTS, **self.params, **(self.sweep.point_values(0) if self.sweep else {})}
        for key in reads:
            if key not in given:
                raise ConfigError(f"params.{key}", f"model {self.model!r} requires this "
                                  "parameter, in params or swept")
        # The start fractions of the first and the last point, by the
        # library's own checks (p0 + w0 is monotone in k too): MfState.uniform
        # on no nodes, and the start check of integrate.
        for k in (0, self.sweep.count - 1) if self.sweep else (0,):
            point = {**given, **(self.sweep.point_values(k) if self.sweep else {})}
            try:
                if kind == "meanfield":
                    MfState.uniform(0, point["p0"], point["w0"])
                elif kind == "ode":
                    _check_start(library, *_ode_start(point))
            except (ValueError, IntegrationInstabilityError) as exc:
                raise ConfigError("params.w0" if kind == "meanfield" else "params.i0",
                                  str(exc)) from None
        # A setting the model's kind does not read keeps its default.
        changed = [(f"run.{f.name}", getattr(self.run, f.name) != f.default)
                   for f in fields(self.run)]
        changed += [("graph", self.graph is not None),
                    ("allow_negative_coefficients", self.allow_negative_coefficients)]
        for name, is_set in changed:
            if is_set and name.removeprefix("run.") not in _KINDS[kind]:
                raise ConfigError(name, f"model {self.model!r} does not read this setting")
        # Stored as floats so that 1 and 1.0 give the same config hash.
        object.__setattr__(
            self, "params", {str(k): float(v) for k, v in self.params.items()}
        )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config", "top level must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
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
        return cls(**{"params": {}, **d, "run": run_spec, "graph": graph, "sweep": sweep})

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
        return cls.from_dict(data)

    def canonical_dict(self) -> dict:
        d = asdict(self)
        if self.sweep:  # as the {"name", "base"} objects of a config file
            d["sweep"]["parameters"] = [{"name": n, "base": b} for n, b in self.sweep.parameters]
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
    # The last row of the point's CSV, for the summary of reproduce_figures.
    _terminal: str | None = field(default=None, repr=False, compare=False)


@dataclass
class SweepResult:
    """All sweep points plus the manifest location."""

    config_hash: str
    seed: int
    points: list[PointResult]
    manifest_path: Path
    output_dir: Path


def _point_inputs(graph: Graph, params: dict[str, float]) -> tuple[Graph, LinkProbs, NodeParams]:
    """A network model's inputs at a point with flat ``params``, each key left
    out at its ``_DEFAULTS`` value: ``graph``, links of rate ``beta`` and
    homogeneous node parameters, in the order the library functions take."""
    params = {**_DEFAULTS, **params}
    node_params = NodeParams.homogeneous(
        graph.n, **{key: params[key] for key in ("r", "delta", "gamma", "nu", "chi")})
    return graph, LinkProbs.homogeneous(graph, params["beta"]), node_params


def _run_model(config: ExperimentConfig, params: dict[str, float],
               inputs: tuple[Graph, LinkProbs, NodeParams] | None):
    """Run ``config``'s model at a point with flat ``params``, each key left
    out at its ``_DEFAULTS`` value; a network model runs on ``inputs`` from
    :func:`_point_inputs`.

    The run settings, the Monte Carlo seed and
    ``allow_negative_coefficients`` are ``config``'s, so a sweep point and a
    CLI point run, once their config is checked, the same calls.  Returns the
    ODE's :class:`Trajectory`, the :class:`MeanFieldRun` or the
    :class:`EnsembleResult`.
    """
    kind, library, _ = _MODELS[config.model]
    params, run = {**_DEFAULTS, **params}, config.run
    if kind == "ode":
        return integrate(
            library,
            OdeState(*_ode_start(params)),
            OdeParams(beta=params["beta"], gamma=params["gamma"], mu=params["mu"]),
            dt=run.dt,
            t_end=run.t_end,
        )
    graph, links, node_params = inputs
    if kind == "meanfield":
        return meanfield_run(
            library,
            MfState.uniform(graph.n, p0=params["p0"], w0=params["w0"]),
            links,
            node_params,
            max_steps=run.steps,
            tol=run.tol,
            allow_negative_coefficients=config.allow_negative_coefficients,
        )
    return mc_ensemble(
        graph,
        links,
        node_params,
        init=params["p0"],
        steps=run.steps,
        runs=run.runs,
        seed=config.seed,
    )


def _run_point(
    config: ExperimentConfig,
    point_params: dict[str, float],
    graph: Graph | None,
    out_path: Path,
) -> tuple[float | None, str]:
    """Run one sweep point and write its CSV; return the survivability score
    and the CSV's last row."""
    inputs = score = None
    if graph is not None:
        inputs = _point_inputs(graph, point_params)
        _, links, node_params = inputs
        if np.all(node_params.delta > 0.0):
            score = survivability_score(graph, links, node_params).score
    result = _run_model(config, point_params, inputs)
    if _MODELS[config.model][0] == "meanfield":
        result = result.trajectory
    return score, result.write_csv(out_path).strip().rsplit("\n", 1)[-1]


def run_experiment(config: ExperimentConfig, output_dir: str | Path, *,
                   _graph: Graph | None = None) -> SweepResult:
    """Run every sweep point of ``config``, writing CSVs and a manifest.

    Returns the sweep result; per-point runtime errors are captured in the
    manifest (and in the returned points) without aborting remaining points.
    ``_graph``, when given, is the graph ``config.graph`` builds, already
    built; without it the run builds its own.
    """
    graph = _graph
    if graph is None and config.graph is not None:
        graph = config.graph.build(config.seed)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    if graph is not None:
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
            score, terminal = _run_point(config, point_params, graph, out / fname)
            points.append(PointResult(swept, fname, score, None, terminal))
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


def reproduce_figures(output_dir: str | Path) -> dict[str, SweepResult]:
    """Run the bundled experiment set into per-figure subdirectories.

    Also writes ``summary.csv`` with the terminal row of every trajectory,
    taken from the text its point wrote rather than read back from its file,
    and the survivability score of every graph-based point.  Each distinct
    graph of the set is built once per call, on its first use, and handed
    to every :func:`run_experiment` that runs on it.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, SweepResult] = {}
    graphs: dict[tuple[GraphSpec | None, int], Graph] = {}
    summary_lines = ["figure,point,swept,score,terminal"]
    for name, config in _figure_configs().items():
        key = (config.graph, config.seed)
        if config.graph is not None and key not in graphs:
            graphs[key] = config.graph.build(config.seed)
        res = run_experiment(config, out / name, _graph=graphs.get(key))
        results[name] = res
        for k, point in enumerate(res.points):
            swept = ";".join(f"{n}={v:.6g}" for n, v in point.values.items()) or "-"
            score = f"{point.score:.6g}" if point.score is not None else "-"
            summary_lines.append(
                f"{name},{k},{swept},{score},{point._terminal or f'error: {point.error}'}")
    _write_text(out / "summary.csv", "\n".join(summary_lines) + "\n")
    return results

"""Command-line interface.

Subcommands: generate, ode, meanfield, mc, spectral, isolate, sweep,
reproduce-figures.  On validation failure the process exits nonzero after
printing a machine-readable error JSON to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .experiments import (
    ConfigError,
    ExperimentConfig,
    GraphSpec,
    RunSpec,
    _DEFAULTS,
    _FAMILIES,
    _KINDS,
    _MODELS,
    _PARAMS,
    _check_value,
    _point_inputs,
    _run_model,
    reproduce_figures,
    run_experiment,
)
from .graphs import save_edge_list
from .isolation import (
    greedy_edge_removal,
    nn_hamiltonian_cycle,
    prune_to_cycle,
    rewire_to_lattice,
)
from .meanfield import MeanFieldBoundsError
from .ode import IntegrationInstabilityError
from .spectral import PowerIterationError, survivability_score
from .trajectory import _write_csv, _write_text

# ConfigError, EdgeListFormatError and ParamRegimeError are ValueErrors; an
# OSError is a path that cannot be read or written.
_VALIDATION_ERRORS = (ValueError, OSError)
# A MemoryError is an output too large to allocate, such as an ODE run of
# 10^18 steps.
_RUNTIME_ERRORS = (MeanFieldBoundsError, IntegrationInstabilityError, PowerIterationError,
                   MemoryError)


# The Python type of each field type the config declares.
_TYPES = {"int": int, "float": float, "str": str}


def _graph_arguments(parser: argparse.ArgumentParser) -> None:
    # One option for each GraphSpec field, typed as _check_fields reads its
    # annotation, with the field as its dest; --graph is the path field.
    for f in fields(GraphSpec):
        families = [family for family, (_, reads) in _FAMILIES.items() if f.name in reads]
        parser.add_argument(
            "--graph" if f.name == "path" else f"--{f.name}", dest=f.name,
            type=_TYPES[f.type.partition(" | ")[0]],
            choices=list(_FAMILIES) if f.name == "family" else None,
            default=0 if f.name == "seed" else None,
            help=f"read by {', '.join(families)}" if families else None)


def _graph_spec(args: argparse.Namespace) -> GraphSpec:
    """The shared graph arguments as a sweep config's graph block."""
    return GraphSpec(**{f.name: getattr(args, f.name) for f in fields(GraphSpec)})


def _given(args: argparse.Namespace, names) -> dict:
    """The options among the config keys ``names`` that were set; an option
    left unset (None) is left out, so the config's default applies: a
    point's ``_DEFAULTS`` value for a params key, RunSpec's for a run setting."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


# The sweep model each command that runs a point runs, by its --model name;
# a command is named after its model's kind, and mc runs sirs_mc alone.
_COMMAND_MODELS = {kind: {lib: model for model, (k, lib, _) in _MODELS.items() if k == kind}
                   for kind in ("ode", "meanfield")} | {"mc": {"sirs": "sirs_mc"}}
# The options named otherwise than the params key or run setting they set.
_RENAMED = {("mc", "p0"): "init"}


def _option(command: str, key: str) -> str:
    """The option of ``command`` that sets the params key or run setting ``key``."""
    return "--" + _RENAMED.get((command, key), key).replace("_", "-")


def _run_options(args: argparse.Namespace):
    """Run the command's model at the one-point config of the options,
    checked as a config file is; a :class:`ConfigError` names the option of
    its params key or run setting."""
    run = _given(args, [f.name for f in fields(RunSpec)])
    try:
        config = ExperimentConfig(
            _COMMAND_MODELS[args.command][args.model], _given(args, _PARAMS), RunSpec(**run),
            None if args.command == "ode" else _graph_spec(args),
            seed=getattr(args, "master_seed", 0),
            allow_negative_coefficients=getattr(args, "allow_negative_coefficients", False))
    except ConfigError as exc:
        key = exc.field.removeprefix("params.").removeprefix("run.")
        if key == exc.field:
            raise
        raise ConfigError(_option(args.command, key),
                          str(exc).removeprefix(f"{exc.field}: ")) from None
    inputs = config.graph and _point_inputs(config.graph.build(config.seed), config.params)
    return _run_model(config, config.params, inputs)


# The parameters of the survivability score, which spectral and isolate compute.
_SCORE_PARAMS = ("beta", "delta", "gamma", "r")


def _score_inputs(args: argparse.Namespace):
    """The score's graph, links and node parameters, each in a network
    model's range."""
    params = _given(args, _SCORE_PARAMS)
    for key, value in params.items():
        _check_value(f"--{key}", value, "float", _PARAMS[key][0])
    return _point_inputs(_graph_spec(args).build(args.seed), params)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.path:
        raise ValueError("generate takes --family, not --graph")
    g = _graph_spec(args).build(args.seed)
    save_edge_list(g, args.output)
    print(f"nodes={g.n} edges={g.num_edges} output={args.output}")
    return 0


def _cmd_ode(args: argparse.Namespace) -> int:
    traj = _run_options(args)
    traj.write_csv(args.output)
    last = len(traj) - 1
    print(
        f"model={args.model} t_end={traj.times[last]:.6g} "
        f"s={traj.columns['s'][last]:.6g} i={traj.columns['i'][last]:.6g} "
        f"output={args.output}"
    )
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    result = _run_options(args)
    result.trajectory.write_csv(args.output)
    carriers = result.trajectory.columns["carriers"][-1]
    print(
        f"model={args.model} steps={result.steps} converged={result.converged} "
        f"carriers_final={carriers:.6g} violations={len(result.violations)} "
        f"output={args.output}"
    )
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    ensemble = _run_options(args)
    ensemble.write_csv(args.output)
    print(
        f"runs={ensemble.runs} steps={len(ensemble.mean) - 1} "
        f"final_hasinfo_mean={ensemble.mean[-1, 1]:.6g} output={args.output}"
    )
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    g, links, params = _score_inputs(args)
    result = survivability_score(g, links, params)
    print(f"s={result.score:.12g} fast_extinction={result.status}")
    if args.eigenvector_csv:
        _write_csv(args.eigenvector_csv, ["node", "value"], [np.arange(g.n), result.vector])
    return 0


def _cmd_isolate(args: argparse.Namespace) -> int:
    g, _, params = _score_inputs(args)
    template = {"beta_template": args.beta, "params": params}
    if args.strategy == "greedy":
        modified, report = greedy_edge_removal(g, args.k, **template)
    elif args.strategy == "cycle":
        search = nn_hamiltonian_cycle(g, start=args.start)
        if not search.success:
            _write_json(args.output_report, {
                "strategy": "cycle",
                "success": False,
                "reason": search.reason,
                "partial_path_length": len(search.path),
            })
            print(f"strategy=cycle success=false reason={search.reason!r}")
            return 0
        modified, report = prune_to_cycle(g, search.cycle, **template)
    else:
        modified, report = rewire_to_lattice(g, **template)
    save_edge_list(modified, args.output_graph)
    _write_json(args.output_report, {"success": True, **report.to_dict()})
    print(
        f"strategy={args.strategy} lambda1_before={report.lambda1_before:.6g} "
        f"lambda1_after={report.lambda1_after:.6g} "
        f"score_before={report.score_before:.6g} score_after={report.score_after:.6g} "
        f"threshold_crossed={report.threshold_crossed}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    result = run_experiment(config, args.output_dir)
    errors = sum(1 for p in result.points if p.error is not None)
    print(
        f"points={len(result.points)} errors={errors} "
        f"manifest={result.manifest_path}"
    )
    return 0


def _cmd_reproduce_figures(args: argparse.Namespace) -> int:
    results = reproduce_figures(args.output_dir)
    for name, res in sorted(results.items()):
        errors = sum(1 for p in res.points if p.error is not None)
        print(f"{name}: points={len(res.points)} errors={errors}")
    print(f"summary={args.output_dir}/summary.csv")
    return 0


def _config_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the options of the config inputs ``command`` reads, each typed and
    required as the config tables declare it: the graph options when it reads
    a graph; one option for each params key its models read, in _PARAMS order,
    required when the key has no default; then its kind's run settings, unset
    so that RunSpec holds their defaults.  spectral and isolate read the
    score's keys alone."""
    models = _COMMAND_MODELS.get(command, {})
    readers = ({name: _MODELS[model][2] for name, model in models.items()}
               or {"the score": _SCORE_PARAMS})
    settings = _KINDS.get(command, ("graph",))
    if "graph" in settings:
        _graph_arguments(parser)
    for key in _PARAMS:
        names = [name for name, reads in readers.items() if key in reads]
        if names:
            parser.add_argument(_option(command, key), dest=key, type=float,
                                required=key not in _DEFAULTS, help=f"read by {', '.join(names)}")
    for f in fields(RunSpec):
        if f.name in settings:
            parser.add_argument(_option(command, f.name), dest=f.name, type=_TYPES[f.type],
                                help=f"default {f.default}")
    if "allow_negative_coefficients" in settings:
        parser.add_argument("--allow-negative-coefficients", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netspread",
                                     description="Propagation dynamics on networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph and save its edge list")
    _graph_arguments(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ode", help="integrate a continuous compartment model")
    p.add_argument("--model", choices=list(_COMMAND_MODELS["ode"]), required=True)
    _config_arguments(p, "ode")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("meanfield", help="run the discrete mean-field dynamics")
    p.add_argument("--model", choices=list(_COMMAND_MODELS["meanfield"]), default="sis")
    _config_arguments(p, "meanfield")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("mc", help="run a Monte Carlo ensemble")
    _config_arguments(p, "mc")
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mc, model="sirs")

    p = sub.add_parser("spectral", help="survivability score of a network")
    _config_arguments(p, "spectral")
    p.add_argument("--eigenvector-csv", default=None)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("isolate", help="apply an edge-isolation strategy")
    _config_arguments(p, "isolate")
    p.add_argument("--strategy", choices=["greedy", "cycle", "lattice"], required=True)
    p.add_argument("--k", type=int, default=1,
                   help="edges to remove (greedy strategy)")
    p.add_argument("--start", type=int, default=0,
                   help="start node for the cycle search")
    p.add_argument("--output-graph", required=True)
    p.add_argument("--output-report", required=True)
    p.set_defaults(func=_cmd_isolate)

    p = sub.add_parser("sweep", help="run a config-driven experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce-figures",
                       help="run the bundled figure-style experiment set")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_reproduce_figures)

    return parser


def _run_reported(func, args: argparse.Namespace) -> int:
    """``func(args)``, its failure printed to stderr as the error JSON: exit
    code 1 for a runtime error, 2 for a validation error."""
    try:
        return func(args)
    except (*_RUNTIME_ERRORS, *_VALIDATION_ERRORS) as exc:
        payload = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, ConfigError):
            payload["field"] = exc.field
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
        return 1 if isinstance(exc, _RUNTIME_ERRORS) else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run_reported(args.func, args)


if __name__ == "__main__":
    sys.exit(main())

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
    _FAMILIES,
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


def _graph_arguments(parser: argparse.ArgumentParser) -> None:
    # Each dest is the name of a GraphSpec field.
    parser.add_argument("--graph", dest="path", metavar="GRAPH", help="path to an edge-list file")
    parser.add_argument("--family", choices=list(_FAMILIES))
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=float, help="edge probability (binomial)")
    parser.add_argument("--m", type=int, help="attachment count (powerlaw)")
    parser.add_argument("--lam", type=float, help="degree rate (exponential)")
    parser.add_argument("--rows", type=int, help="torus rows (lattice4)")
    parser.add_argument("--cols", type=int, help="torus cols (lattice4)")
    parser.add_argument("--seed", type=int, default=0)


def _graph_spec(args: argparse.Namespace) -> GraphSpec:
    """The shared graph arguments as a sweep config's graph block."""
    return GraphSpec(**{f.name: getattr(args, f.name) for f in fields(GraphSpec)})


def _params(args: argparse.Namespace) -> dict:
    """The parameter options that were set, as a point's flat params; an
    option left unset (None) is left out, so the point's default
    (``_DEFAULTS``) applies."""
    return {k: v for k, v in vars(args).items() if k in _PARAMS and v is not None}


def _sweep_models(kind: str) -> dict[str, str]:
    """The sweep model of each library model that ``kind`` runs, by the
    library model's name."""
    return {library: model for model, (k, library, _) in _MODELS.items() if k == kind}


def _run_options(args: argparse.Namespace, model: str):
    """Run ``model`` at the one-point config of the options, checked as a
    config file is; a :class:`ConfigError` names the option of its params key
    or run setting (mc's ``--init`` is the point's p0)."""
    options = vars(args)
    run = {f.name: options[f.name] for f in fields(RunSpec) if f.name in options}
    try:
        config = ExperimentConfig(
            model, _params(args), RunSpec(**run),
            None if _MODELS[model][0] == "ode" else _graph_spec(args),
            seed=options.get("master_seed", 0),
            allow_negative_coefficients=options.get("allow_negative_coefficients", False))
    except ConfigError as exc:
        key = exc.field.removeprefix("params.").removeprefix("run.")
        if key == exc.field:
            raise
        option = "init" if (args.command, key) == ("mc", "p0") else key.replace("_", "-")
        raise ConfigError(f"--{option}", str(exc).removeprefix(f"{exc.field}: ")) from None
    inputs = config.graph and _point_inputs(config.graph.build(config.seed), config.params)
    return _run_model(config, config.params, inputs)


# The parameters of the survivability score, which spectral and isolate compute.
_SCORE_PARAMS = ("beta", "delta", "gamma", "r")


def _score_inputs(args: argparse.Namespace):
    """The score's graph, links and node parameters, each in a network
    model's range; an option the score does not read is a :class:`ConfigError`."""
    params = _params(args)
    for key, value in params.items():
        if key not in _SCORE_PARAMS:
            raise ConfigError(f"--{key}", f"{args.command} does not read this option; it "
                              "reads " + ", ".join(f"--{k}" for k in _SCORE_PARAMS))
        _check_value(f"--{key}", value, "float", _PARAMS[key][0])
    return _point_inputs(_graph_spec(args).build(args.seed), params)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _node_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    # Unset by default, so that a model can reject what it does not read and
    # the point's defaults apply.
    parser.add_argument("--r", type=float)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--chi", type=float)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.path:
        raise ValueError("generate takes --family, not --graph")
    g = _graph_spec(args).build(args.seed)
    save_edge_list(g, args.output)
    print(f"nodes={g.n} edges={g.num_edges} output={args.output}")
    return 0


def _cmd_ode(args: argparse.Namespace) -> int:
    traj = _run_options(args, _sweep_models("ode")[args.model])
    traj.write_csv(args.output)
    last = len(traj) - 1
    print(
        f"model={args.model} t_end={traj.times[last]:.6g} "
        f"s={traj.columns['s'][last]:.6g} i={traj.columns['i'][last]:.6g} "
        f"output={args.output}"
    )
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    result = _run_options(args, _sweep_models("meanfield")[args.model])
    result.trajectory.write_csv(args.output)
    carriers = result.trajectory.columns["carriers"][-1]
    print(
        f"model={args.model} steps={result.steps} converged={result.converged} "
        f"carriers_final={carriers:.6g} violations={len(result.violations)} "
        f"output={args.output}"
    )
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    ensemble = _run_options(args, "sirs_mc")
    ensemble.write_csv(args.output)
    print(
        f"runs={args.runs} steps={args.steps} "
        f"final_hasinfo_mean={ensemble.mean[-1, 1]:.6g} output={args.output}"
    )
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    g, links, params = _score_inputs(args)
    result = survivability_score(g, links, params)
    print(f"s={result.score:.12g} fast_extinction={result.status}")
    if args.eigenvector_csv:
        _write_csv(
            args.eigenvector_csv, ["node", "value"], [np.arange(g.n), result.vector]
        )
    return 0


def _cmd_isolate(args: argparse.Namespace) -> int:
    g, _, params = _score_inputs(args)
    if args.strategy == "greedy":
        modified, report = greedy_edge_removal(
            g, args.k, beta_template=args.beta, params=params
        )
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
        modified, report = prune_to_cycle(
            g, search.cycle, beta_template=args.beta, params=params
        )
    else:
        modified, report = rewire_to_lattice(
            g, beta_template=args.beta, params=params
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netspread",
        description="Propagation dynamics on networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph and save its edge list")
    _graph_arguments(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ode", help="integrate a continuous compartment model")
    p.add_argument("--model", choices=list(_sweep_models("ode")), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, help="birth/death rate (sir_endemic)")
    p.add_argument("--s0", type=float)
    p.add_argument("--i0", type=float)
    p.add_argument("--dt", type=float, default=RunSpec.dt)
    p.add_argument("--t-end", type=float, default=RunSpec.t_end)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("meanfield", help="run the discrete mean-field dynamics")
    p.add_argument("--model", choices=list(_sweep_models("meanfield")), default="sis")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--p0", type=float)
    p.add_argument("--w0", type=float)
    p.add_argument("--steps", type=int, default=RunSpec.steps)
    p.add_argument("--tol", type=float, default=RunSpec.tol)
    p.add_argument("--allow-negative-coefficients", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("mc", help="run a Monte Carlo ensemble")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--init", dest="p0", type=float,
                   help="initial carrier fraction (the point's p0)")
    p.add_argument("--steps", type=int, default=RunSpec.steps)
    p.add_argument("--runs", type=int, default=RunSpec.runs)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("spectral", help="survivability score of a network")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--eigenvector-csv", default=None)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("isolate", help="apply an edge-isolation strategy")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--strategy", choices=["greedy", "cycle", "lattice"],
                   required=True)
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

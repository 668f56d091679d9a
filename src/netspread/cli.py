"""Command-line interface.

Subcommands: generate, ode, meanfield, mc, spectral, isolate, sweep,
reproduce-figures.  On validation failure the process exits nonzero after
printing a machine-readable error JSON to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import (
    MEANFIELD_MODELS,
    ODE_MODELS,
    ConfigError,
    ExperimentConfig,
    GraphSpec,
    _FAMILIES,
    _MODEL_PARAMS,
    _PARAMS,
    _point_inputs,
    _run_model,
    reproduce_figures,
    run_experiment,
)
from .graphs import Graph, save_edge_list
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

# ConfigError, EdgeListFormatError and ParamRegimeError are ValueErrors.
_VALIDATION_ERRORS = (ValueError, FileNotFoundError)
_RUNTIME_ERRORS = (MeanFieldBoundsError, IntegrationInstabilityError, PowerIterationError)


def _graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="path to an edge-list file")
    parser.add_argument("--family", choices=list(_FAMILIES))
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=float, help="edge probability (binomial)")
    parser.add_argument("--m", type=int, help="attachment count (powerlaw)")
    parser.add_argument("--lam", type=float, help="degree rate (exponential)")
    parser.add_argument("--rows", type=int, help="torus rows (lattice4)")
    parser.add_argument("--cols", type=int, help="torus cols (lattice4)")
    parser.add_argument("--seed", type=int, default=0)


def _graph(args: argparse.Namespace) -> Graph:
    """The graph of the shared graph arguments, built as a sweep config's
    graph block is."""
    return GraphSpec(
        family=args.family, path=args.graph, n=args.n, m=args.m, p=args.p,
        lam=args.lam, rows=args.rows, cols=args.cols, seed=args.seed,
    ).build(args.seed)


def _params(args: argparse.Namespace, model: str | None = None) -> dict:
    """The parsed arguments as a sweep point's flat params; an option left
    unset (None) is left out, so the point's default applies.  With the
    sweep ``model``, an option of a parameter that model does not read is a
    :class:`ConfigError` naming the option, as the key is in a config."""
    params = {k: v for k, v in vars(args).items() if v is not None}
    if model is not None:
        reads = _MODEL_PARAMS[model]
        for key in _PARAMS:
            if key in params and key not in reads:
                options = ", ".join(f"--{k}" for k in sorted(reads))
                raise ConfigError(f"--{key}", f"model {args.model!r} does not read this "
                                  f"option; it reads {options}")
    return params


def _sweep_model(table: dict[str, str], name: str) -> str:
    """The sweep model that ``table`` runs as the library model ``name``."""
    return next(model for model, library in table.items() if library == name)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _node_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    # Unset by default, so that a model can reject what it does not read;
    # the point's defaults are r = 1, nu = 1 and chi = 0.
    parser.add_argument("--r", type=float)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--chi", type=float)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.graph:
        raise ValueError("generate takes --family, not --graph")
    g = _graph(args)
    save_edge_list(g, args.output)
    print(f"nodes={g.n} edges={g.num_edges} output={args.output}")
    return 0


def _cmd_ode(args: argparse.Namespace) -> int:
    model = _sweep_model(ODE_MODELS, args.model)
    traj = _run_model(model, _params(args, model), None, dt=args.dt, t_end=args.t_end)
    traj.write_csv(args.output)
    last = len(traj) - 1
    print(
        f"model={args.model} t_end={traj.times[last]:.6g} "
        f"s={traj.columns['s'][last]:.6g} i={traj.columns['i'][last]:.6g} "
        f"output={args.output}"
    )
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    model = _sweep_model(MEANFIELD_MODELS, args.model)
    params = _params(args, model)
    result = _run_model(
        model, params, _point_inputs(_graph(args), params), steps=args.steps, tol=args.tol,
        allow_negative_coefficients=args.allow_negative_coefficients,
    )
    result.trajectory.write_csv(args.output)
    carriers = result.trajectory.columns["carriers"][-1]
    print(
        f"model={args.model} steps={result.steps} converged={result.converged} "
        f"carriers_final={carriers:.6g} violations={len(result.violations)} "
        f"output={args.output}"
    )
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    params = _params(args)
    ensemble = _run_model(
        "sirs_mc", {**params, "p0": args.init}, _point_inputs(_graph(args), params),
        steps=args.steps, runs=args.runs, seed=args.master_seed,
    )
    ensemble.write_csv(args.output)
    print(
        f"runs={args.runs} steps={args.steps} "
        f"final_hasinfo_mean={ensemble.mean[-1, 1]:.6g} output={args.output}"
    )
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    g, links, params = _point_inputs(_graph(args), _params(args))
    result = survivability_score(g, links, params)
    print(f"s={result.score:.12g} fast_extinction={result.status}")
    if args.eigenvector_csv:
        _write_csv(
            args.eigenvector_csv, ["node", "value"], [np.arange(g.n), result.vector]
        )
    return 0


def _cmd_isolate(args: argparse.Namespace) -> int:
    g, _, params = _point_inputs(_graph(args), _params(args))
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
    p.add_argument("--model", choices=list(ODE_MODELS.values()), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, help="birth/death rate (sir_endemic; default 0)")
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--i0", type=float, default=0.01)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("meanfield", help="run the discrete mean-field dynamics")
    p.add_argument("--model", choices=list(MEANFIELD_MODELS.values()), default="sis")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--p0", type=float, default=0.1)
    p.add_argument("--w0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--allow-negative-coefficients", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("mc", help="run a Monte Carlo ensemble")
    _graph_arguments(p)
    _node_param_arguments(p)
    p.add_argument("--init", type=float, default=0.1,
                   help="initial carrier fraction")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--runs", type=int, default=100)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except _VALIDATION_ERRORS as exc:
        payload = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, ConfigError):
            payload["field"] = exc.field
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Scan the link probability across the survivability threshold.

For each beta in a range, prints the survivability score and the expected
carrier count after a long mean-field run, showing extinction for scores
below 1 and persistence above it.

Usage:
    python3 scripts/threshold_scan.py --family lattice4 --rows 20 --cols 20
    python3 scripts/threshold_scan.py --family powerlaw --n 400 --seed 11
"""
import argparse
import sys

from netspread.cli import _run_reported
from netspread.experiments import GraphSpec
from netspread.meanfield import LinkProbs, MeanFieldBoundsError, MfState, NodeParams, run
from netspread.spectral import survivability_score

# The graph of each family when no size option is given.
_GRAPHS = {
    "lattice4": {"rows": 20, "cols": 20},
    "powerlaw": {"n": 400, "m": 2},
    "binomial": {"n": 400, "p": 0.02},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="lattice4", choices=tuple(_GRAPHS))
    parser.add_argument("--rows", type=int, help="torus rows (lattice4, default 20)")
    parser.add_argument("--cols", type=int, help="torus cols (lattice4, default 20)")
    parser.add_argument("--n", type=int, help="nodes (powerlaw, binomial; default 400)")
    parser.add_argument("--m", type=int, help="attachment count (powerlaw, default 2)")
    parser.add_argument("--p", type=float, help="edge probability (binomial, default 0.02)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--gamma", type=float, default=0.3)
    parser.add_argument("--beta-start", type=float, default=0.05)
    parser.add_argument("--beta-step", type=float, default=0.05)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--steps", type=int, default=2000)
    # A bad argument exits 2 with the error JSON on stderr, as netspread does.
    return _run_reported(scan, parser.parse_args())


def scan(args: argparse.Namespace) -> int:
    """Print the graph line and one row per beta for the parsed ``args``."""
    # A graph field the family does not read is an error, as in a config.
    given = {name: getattr(args, name) for name in ("rows", "cols", "n", "m", "p")
             if getattr(args, name) is not None}
    g = GraphSpec(family=args.family, **{**_GRAPHS[args.family], **given}).build(args.seed)
    params = NodeParams.homogeneous(
        g.n, r=1.0, delta=args.delta, gamma=args.gamma)
    print(f"graph: family={args.family} n={g.n} edges={g.num_edges}")
    print(f"{'beta':>8} {'score':>10} {'verdict':>10} {'carriers_final':>16}")
    for k in range(args.points):
        beta = args.beta_start + k * args.beta_step
        links = LinkProbs.homogeneous(g, beta)
        verdict = survivability_score(g, links, params)
        try:
            res = run("sis", MfState.uniform(g.n, p0=0.1), links, params,
                      max_steps=args.steps, tol=0.0)
            carriers = f"{res.trajectory.columns['carriers'][-1]:16.6g}"
        except MeanFieldBoundsError as exc:
            carriers = f"bounds error: {exc.violations[0].kind}"
        print(f"{beta:8.3f} {verdict.score:10.5f} {verdict.status:>10} "
              f"{carriers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

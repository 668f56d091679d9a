"""Agent-based Monte Carlo simulation of the propagation process.

Each node is in one of four states: ``NO_INFO`` (susceptible), ``HAS_INFO``
(carrier), ``WARNED`` (received but refused; only reachable when acceptance
``nu < 1``) or ``DEAD``.  One step updates all nodes synchronously from the
previous step's snapshot:

1. broadcast: every carrier broadcasts with probability ``r_i``; a broadcast
   reaches neighbour ``j`` independently with probability ``beta_ij``;
2. receipt: a susceptible node that received at least one transmission
   accepts it (becomes a carrier) with probability ``nu_j``, otherwise it is
   warned;
3. death: every node alive in the snapshot dies with probability ``delta_i``;
   the death draw is independent and overrides receipt;
4. resurrection: every node dead in the snapshot comes back susceptible with
   probability ``gamma_i``;
5. reversion: every node warned in the snapshot (and not killed in phase 3)
   reverts to susceptible with probability ``chi_i``.

Random draw order is fixed and documented: each phase consumes one uniform
per node in node-index order (whether or not the draw ends up used), except
the per-edge transmission draws, which are consumed only for nodes that
actually broadcast, in node-index order and sorted-neighbour order within a
node.  Runs are reproducible bit-for-bit given a seed.

Each step makes a single transmission draw, ``rng.random(total)``, over the
concatenated CSR rows of the broadcasting nodes in node order (no draw when
no broadcaster has a neighbour).  The rows are gathered by one array
expression; the stream of uniforms, and so every seeded result, is the same
as drawing the rows one broadcaster at a time.

Ensemble runs derive per-run seeds from a master seed: run ``k`` uses
``splitmix64(master XOR k)`` where ``splitmix64`` is the finaliser

    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    z = z ^ (z >> 31)
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .graphs import Graph, _as_rng, _check_int
from .meanfield import LinkProbs, NodeParams, _check_inputs
from .trajectory import Trajectory

__all__ = [
    "NO_INFO",
    "HAS_INFO",
    "WARNED",
    "DEAD",
    "STATE_NAMES",
    "EnsembleResult",
    "mix_seed",
    "initial_states",
    "mc_step",
    "mc_run",
    "mc_ensemble",
]

NO_INFO, HAS_INFO, WARNED, DEAD = 0, 1, 2, 3
STATE_NAMES = ("no_info", "has_info", "warned", "dead")
_MEAN_COLUMNS = (
    "frac_noinfo_mean", "frac_hasinfo_mean", "frac_warned_mean", "frac_dead_mean"
)

_MASK64 = (1 << 64) - 1


def mix_seed(master: int, run_index: int) -> int:
    """Per-run seed: one splitmix64 finaliser round of ``master XOR run``."""
    z = (master ^ run_index) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def initial_states(n: int, init: float, rng: np.random.Generator) -> np.ndarray:
    """States with ``round(init * n)`` carriers chosen uniformly at random."""
    if not (0.0 <= init <= 1.0):
        raise ValueError(f"initial carrier fraction must lie in [0, 1], got {init!r}")
    states = np.full(n, NO_INFO, dtype=np.int8)
    k = int(round(init * n))
    if k > 0:
        chosen = rng.choice(n, size=k, replace=False)
        states[chosen] = HAS_INFO
    return states


def mc_step(
    states: np.ndarray,
    graph: Graph,
    links: LinkProbs,
    params: NodeParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One synchronous update; see the module docstring for phase order."""
    n = graph.n
    indptr, indices = graph.csr
    snapshot = states

    # Phase 1: broadcast. One uniform per node; per-edge uniforms only for
    # nodes that broadcast, in node order / sorted-neighbour order.
    u_broadcast = rng.random(n)
    broadcasting = np.flatnonzero((snapshot == HAS_INFO) & (u_broadcast < params.r))
    received = np.zeros(n, dtype=bool)
    starts = indptr[broadcasting]
    counts = indptr[broadcasting + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total:
        # Edge positions of the broadcasters' rows, concatenated in node order.
        flat = np.arange(total) + np.repeat(starts - (ends - counts), counts)
        up = rng.random(total) < links.out_values[flat]
        received[indices[flat[up]]] = True

    # Phase 2: receipt by susceptible nodes.
    u_accept = rng.random(n)
    new_states = snapshot.copy()
    receiving = (snapshot == NO_INFO) & received
    accepted = receiving & (u_accept < params.nu)
    new_states[accepted] = HAS_INFO
    new_states[receiving & ~accepted] = WARNED

    # Phase 3: death (independent draw, overrides receipt).
    u_death = rng.random(n)
    died = (snapshot != DEAD) & (u_death < params.delta)

    # Phase 4: resurrection of snapshot-dead nodes.
    u_res = rng.random(n)
    revived = (snapshot == DEAD) & (u_res < params.gamma)
    new_states[revived] = NO_INFO

    # Phase 5: reversion of snapshot-warned nodes that survived phase 3.
    u_rev = rng.random(n)
    reverting = (snapshot == WARNED) & ~died & (u_rev < params.chi)
    new_states[reverting] = NO_INFO

    new_states[died] = DEAD
    return new_states


def mc_run(
    graph: Graph,
    links: LinkProbs,
    params: NodeParams,
    init: float,
    steps: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Single run; returns fractions per state, shape ``(steps + 1, 4)``."""
    _check_int("steps", steps, 0, "non-negative")
    _check_inputs(graph, links, params)
    rng = _as_rng(seed)
    states = initial_states(graph.n, init, rng)
    fractions = np.empty((steps + 1, 4))
    fractions[0] = np.bincount(states, minlength=4) / graph.n
    for k in range(1, steps + 1):
        states = mc_step(states, graph, links, params, rng)
        fractions[k] = np.bincount(states, minlength=4) / graph.n
    return fractions


@dataclass
class EnsembleResult:
    """Per-step mean and standard deviation of state fractions across runs.

    ``mean`` and ``std`` have shape ``(steps + 1, 4)`` with columns ordered
    as :data:`STATE_NAMES`; ``std`` is the population standard deviation.
    """

    mean: np.ndarray
    std: np.ndarray
    runs: int
    seed: int

    def write_csv(self, destination: str | Path | IO[str]) -> None:
        """Write ``t``, the four mean state fractions and the carrier
        fraction's standard deviation, one row per step."""
        columns = dict(zip(_MEAN_COLUMNS, self.mean.T))
        columns["frac_hasinfo_std"] = self.std[:, HAS_INFO]
        Trajectory(times=np.arange(len(self.mean)), columns=columns).write_csv(
            destination
        )


def mc_ensemble(
    graph: Graph,
    links: LinkProbs,
    params: NodeParams,
    init: float,
    steps: int,
    runs: int,
    seed: int,
) -> EnsembleResult:
    """Independent runs with per-run seeds derived via :func:`mix_seed`."""
    _check_int("runs", runs, 1, "positive")
    # Each mc_run validates its inputs before anything is allocated.
    trajectories = np.stack([
        mc_run(graph, links, params, init, steps,
               np.random.default_rng(mix_seed(seed, k)))
        for k in range(runs)
    ])
    return EnsembleResult(
        mean=trajectories.mean(axis=0),
        std=trajectories.std(axis=0),
        runs=runs,
        seed=seed,
    )

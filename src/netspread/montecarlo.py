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

Random draw order is fixed and documented: each phase takes one uniform per
node from the stream in node-index order (whether or not the draw ends up
used), except the per-edge transmission draws, which are taken only for
nodes that actually broadcast, in node-index order and sorted-neighbour
order within a node.  A run draws from a PCG64 generator of its own, seeded
by an integer, so runs are reproducible bit-for-bit given a seed.

Each step makes a single transmission draw, ``rng.random(total)``, over the
concatenated CSR rows of the broadcasting nodes in node order (no draw when
no broadcaster has a neighbour).  The rows are gathered by one array
expression; the stream of uniforms, and so every seeded result, is the same
as drawing the rows one broadcaster at a time.

A phase whose parameter is 1 at every node (or link, for the transmission
draws), or 0 at every one, is decided: ``u < 1`` holds for every uniform
``u`` in [0, 1), and ``u < 0`` for none.  The defaults r = 1, nu = 1 and
chi = 0 decide three of the five per-node phases.  A step skips a decided
phase's uniforms with ``bit_generator.advance(k)``, which moves PCG64 past
the ``k`` 64-bit outputs that ``k`` doubles take, so the stream keeps its
positions and every later draw its value.  (``advance`` also drops the
buffered 32-bit half, which no double draw reads.)

A run is prepared once and then stepped; :class:`_Step` says what the
preparation keeps and how a step packs its draws into one table lookup.

Ensemble runs derive per-run seeds from a master seed: run ``k`` uses
``splitmix64(master XOR k)`` where ``splitmix64`` is the finaliser

    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
    z = z ^ (z >> 31)
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .graphs import Graph, _check_int
from .meanfield import LinkProbs, NodeParams, _check_inputs
from .rowops import _coefficient
from .trajectory import Trajectory

__all__ = [
    "NO_INFO",
    "HAS_INFO",
    "WARNED",
    "DEAD",
    "EnsembleResult",
    "mix_seed",
    "initial_states",
    "mc_run",
    "mc_ensemble",
]

NO_INFO, HAS_INFO, WARNED, DEAD = 0, 1, 2, 3
_MEAN_COLUMNS = (
    "frac_noinfo_mean", "frac_hasinfo_mean", "frac_warned_mean", "frac_dead_mean"
)

_MASK64 = (1 << 64) - 1


def mix_seed(master: int, run_index: int) -> int:
    """Per-run seed: one splitmix64 finaliser round of ``master XOR run``.
    Any integer, numpy's included, is taken as a Python int."""
    z = (operator.index(master) ^ operator.index(run_index)) & _MASK64
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


# Bits of a packed code above the snapshot state (bits 0-1): a transmission
# was received, then the four per-node draws of phases 2-5, in draw order.
_RECEIVED = 4
_PHASE_BITS = np.array([8, 16, 32, 64], dtype=np.int8)


def _next_state(code: int) -> int:
    """The state after one step of a node whose step packs into ``code``:
    phases 2-5 of the module docstring, death first since it overrides."""
    state = code & 3
    received, accept, die, revive, revert = ((code >> bit) & 1 for bit in range(2, 7))
    if die and state != DEAD:
        return DEAD
    if received and state == NO_INFO:
        return HAS_INFO if accept else WARNED
    if (revive and state == DEAD) or (revert and state == WARNED):
        return NO_INFO
    return state


_TRANSITIONS = np.array([_next_state(code) for code in range(128)], dtype=np.int8)
_TRANSITIONS.flags.writeable = False


def _decided(threshold: np.ndarray | np.floating) -> bool | None:
    """What ``u < threshold`` gives for every uniform ``u`` in [0, 1): True
    when every entry is 1, False when every entry is 0, None when it
    depends on the draw."""
    if np.all(threshold == 1.0):
        return True
    if np.all(threshold == 0.0):
        return False
    return None


class _Step:
    """The step of the module docstring, prepared for one graph, link table
    and parameter set; calling it replaces ``states`` (``int8`` codes 0..3)
    in place by the states one step later, drawing from ``rng``, a PCG64
    generator.

    The preparation checks the inputs, keeps what does not change between
    steps and allocates one row ``u`` of ``n`` draws, which every per-node
    phase fills in turn, and one boolean and one ``int8`` row for packing
    their comparisons.  When every link's probability has the same bits
    (see :func:`~netspread.rowops._coefficient`), ``beta`` is that one 0-d
    value: ``u < beta`` gives the same bits as comparing with an equal
    entry.  It also sorts the broadcast and the transmission into decided
    (:func:`_decided`) and drawn, and lists phases 2-5 in ``phases``:
    ``None`` for a decided phase, ``(threshold, bit)`` for a drawn one.

    A step packs each node's snapshot state and what its draws decided
    (received, accept, die, revive, revert) into a 7-bit code in ``states``
    itself, and ``_TRANSITIONS``, built at import from the rules of phases
    2-5, maps every code to the node's next state; the bits of the phases
    decided true are ORed in as one constant.  It skips the uniforms of
    each decided phase with ``advance``.
    """

    def __init__(self, graph: Graph, links: LinkProbs, params: NodeParams) -> None:
        _check_inputs(graph, links, params)
        self.n = n = graph.n
        self.indptr, self.indices = graph.csr
        self.degrees = graph.degrees
        self.r = params.r
        beta = _coefficient(links.in_values)  # a permutation of out_values
        self.beta = beta if beta.ndim == 0 else links.out_values
        self.broadcast = _decided(self.r)
        self.transmit = _decided(self.beta)
        thresholds = (params.nu, params.delta, params.gamma, params.chi)
        decided = [_decided(t) for t in thresholds]
        self.phases = [(t, bit) if d is None else None
                       for t, d, bit in zip(thresholds, decided, _PHASE_BITS)]
        self.constant = np.int8(sum(int(bit) for d, bit in zip(decided, _PHASE_BITS) if d))
        self.u = np.empty(n)
        self.hit = np.empty(n, dtype=bool)
        self.bits = np.empty(n, dtype=np.int8)

    def __call__(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u, hit, bits, n = self.u, self.hit, self.bits, self.n
        advance = rng.bit_generator.advance

        # Phase 1: one uniform per node, then one per edge of each
        # broadcaster's row, rows concatenated in node order.
        if self.broadcast is None:
            rng.random(out=u)
            np.less(u, self.r, out=hit)
            hit &= states == HAS_INFO
        else:
            advance(n)
            np.equal(states, HAS_INFO, out=hit)
            hit &= self.broadcast
        broadcasting = np.flatnonzero(hit)
        counts = self.degrees[broadcasting]
        ends = np.cumsum(counts)
        total = int(ends[-1]) if ends.size else 0
        # From here on ``states`` holds the packed codes.
        if total and self.transmit is None:
            u_edges = rng.random(total)
        elif total:
            advance(total)
        if total and self.transmit is not False:
            starts = self.indptr[broadcasting]
            starts -= ends
            starts += counts
            flat = np.repeat(starts, counts)
            flat += np.arange(total)
            if self.transmit is None:
                beta = self.beta if self.beta.ndim == 0 else self.beta[flat]
                # np.compress takes about half the time of flat[up] here.
                flat = np.compress(u_edges < beta, flat)
            states[self.indices[flat]] |= _RECEIVED

        # Phases 2-5 in order: a decided phase skips its uniforms, a drawn
        # one compares its row with its parameter and packs it into its bit;
        # the bits of the phases decided true are ORed in at once.
        for phase in self.phases:
            if phase is None:
                advance(n)
                continue
            threshold, bit = phase
            rng.random(out=u)
            np.less(u, threshold, out=hit)
            np.multiply(hit, bit, out=bits)
            np.bitwise_or(states, bits, out=states)
        if self.constant:
            np.bitwise_or(states, self.constant, out=states)
        # take() buffers its output (mode "raise"), so it may be its index.
        return np.take(_TRANSITIONS, states, out=states)


def mc_run(
    graph: Graph,
    links: LinkProbs,
    params: NodeParams,
    init: float,
    steps: int,
    seed: int,
) -> np.ndarray:
    """Single run from its own PCG64 generator, seeded by the non-negative
    integer ``seed``; returns fractions per state, shape ``(steps + 1, 4)``:
    the state counts of each step, divided by ``n`` once at the end."""
    _check_int("steps", steps, 0, "non-negative")
    _check_int("seed", seed, 0)
    step = _Step(graph, links, params)
    rng = np.random.Generator(np.random.PCG64(seed))
    states = initial_states(graph.n, init, rng)
    counts = np.empty((steps + 1, 4), dtype=np.int64)
    for k in range(steps + 1):
        if k:
            step(states, rng)
        for code in (HAS_INFO, WARNED, DEAD):
            counts[k, code] = np.count_nonzero(states == code)
    counts[:, NO_INFO] = graph.n - counts[:, 1:].sum(axis=1)
    return counts / graph.n


@dataclass
class EnsembleResult:
    """Per-step mean and standard deviation of state fractions across runs.

    ``mean`` and ``std`` have shape ``(steps + 1, 4)``, one column per state
    code in code order; ``std`` is the population standard deviation.
    """

    mean: np.ndarray
    std: np.ndarray
    runs: int
    seed: int

    def write_csv(self, destination: str | Path | IO[str]) -> str:
        """Write ``t``, the four mean state fractions and the carrier
        fraction's standard deviation, one row per step; return the text
        written."""
        columns = dict(zip(_MEAN_COLUMNS, self.mean.T))
        columns["frac_hasinfo_std"] = self.std[:, HAS_INFO]
        return Trajectory(times=np.arange(len(self.mean)), columns=columns).write_csv(
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
    """Independent runs with per-run seeds derived via :func:`mix_seed`
    from the integer ``seed``, negative ones included."""
    _check_int("runs", runs, 1, "positive")
    _check_int("seed", seed, -math.inf)  # any integer: mix_seed masks it
    # Each mc_run validates its inputs before anything is allocated.
    trajectories = np.stack([
        mc_run(graph, links, params, init, steps, mix_seed(seed, k))
        for k in range(runs)
    ])
    return EnsembleResult(
        mean=trajectories.mean(axis=0),
        std=trajectories.std(axis=0),
        runs=runs,
        seed=seed,
    )

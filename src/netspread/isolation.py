"""Edge-isolation strategies that push the survivability score below 1.

Four ways to reduce the dominant adjacency eigenvalue of a network while
keeping nodes in place:

* greedy removal of the edges with the largest dominant-eigenvector product,
* a nearest-neighbour Hamiltonian-cycle search (walk heuristic; may fail),
* pruning a known Hamiltonian cycle down to a plain cycle (lambda_1 = 2),
* rewiring the whole edge set into a 4-regular torus lattice (lambda_1 = 4).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .graphs import Graph, _check_int, gen_lattice4
from .meanfield import LinkProbs, NodeParams
from .spectral import adjacency_spectral_radius, survivability_score

__all__ = [
    "IsolationReport",
    "CycleSearchResult",
    "greedy_edge_removal",
    "nn_hamiltonian_cycle",
    "prune_to_cycle",
    "rewire_to_lattice",
    "lattice_dimensions",
]


@dataclass
class IsolationReport:
    """Outcome of applying an isolation strategy to a graph."""

    strategy: str
    edges_removed: int
    removed_edges: list[tuple[int, int]]
    edges_added: list[tuple[int, int]]
    lambda1_before: float
    lambda1_after: float
    connectivity_after: int
    score_before: float
    score_after: float
    threshold_crossed: bool
    lambda1_steps: list[float] = field(default_factory=list)
    surplus_nodes: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Fields in declaration order, edges as ``[u, v]`` lists."""
        d = asdict(self)
        for key in ("removed_edges", "edges_added"):
            d[key] = [list(e) for e in d[key]]
        return d


@dataclass
class CycleSearchResult:
    """Result of the nearest-neighbour Hamiltonian-cycle heuristic.

    On failure ``cycle`` is ``None`` and ``path`` holds the partial walk,
    with ``reason`` explaining where the heuristic got stuck.
    """

    success: bool
    cycle: list[int] | None
    path: list[int]
    reason: str | None = None


def _missing_edges(g: Graph, other: Graph) -> list[tuple[int, int]]:
    """Edges of ``g`` that ``other`` (on the same nodes) lacks, sorted."""
    e = g.edge_array
    return list(map(tuple, e[other.csr_positions(e[:, 0], e[:, 1]) < 0].tolist()))


def _scores(
    before: Graph, after: Graph, beta_template: float, params: NodeParams
) -> tuple[float, float, bool]:
    """The scores of ``before`` and ``after`` with homogeneous links of
    ``beta_template``, and whether the change crosses the threshold."""
    s_before = survivability_score(
        before, LinkProbs.homogeneous(before, beta_template), params
    ).score
    s_after = survivability_score(
        after, LinkProbs.homogeneous(after, beta_template), params
    ).score
    return s_before, s_after, (s_before >= 1.0 and s_after < 1.0)


def _report(
    strategy: str, before: Graph, after: Graph, beta_template: float, params: NodeParams
) -> IsolationReport:
    """Report of replacing ``before`` by ``after``."""
    removed = _missing_edges(before, after)
    score_before, score_after, crossed = _scores(before, after, beta_template, params)
    return IsolationReport(
        strategy=strategy,
        edges_removed=len(removed),
        removed_edges=removed,
        edges_added=_missing_edges(after, before),
        lambda1_before=adjacency_spectral_radius(before).value,
        lambda1_after=adjacency_spectral_radius(after).value,
        connectivity_after=after.connected_components(),
        score_before=score_before,
        score_after=score_after,
        threshold_crossed=crossed,
    )


def greedy_edge_removal(
    g: Graph, k: int, beta_template: float, params: NodeParams
) -> tuple[Graph, IsolationReport]:
    """Remove ``k`` edges, each chosen to maximally damp the dominant mode.

    Each iteration recomputes the dominant adjacency eigenvector ``x`` and
    removes the edge ``(u, v)`` with the largest product ``x_u * x_v``
    (ties broken toward the lexicographically smallest pair).  Stops early
    if the graph runs out of edges.
    """
    _check_int("k", k, 0, ">= 0")
    current = g
    removed: list[tuple[int, int]] = []
    lambda1_steps: list[float] = []
    for _ in range(k):
        res = adjacency_spectral_radius(current)
        lambda1_steps.append(res.value)
        if current.num_edges == 0:
            break
        x = np.abs(res.vector)
        e = current.edge_array
        # argmax returns the first maximum, i.e. the lexicographically
        # smallest of the tied edges.
        best_edge = tuple(e[np.argmax(x[e[:, 0]] * x[e[:, 1]])].tolist())
        current = current.remove_edges([best_edge])
        removed.append(best_edge)
    lambda1_steps.append(adjacency_spectral_radius(current).value)

    score_before, score_after, crossed = _scores(g, current, beta_template, params)
    report = IsolationReport(
        strategy="greedy",
        edges_removed=len(removed),
        removed_edges=removed,
        edges_added=[],
        lambda1_before=lambda1_steps[0],
        lambda1_after=lambda1_steps[-1],
        connectivity_after=current.connected_components(),
        score_before=score_before,
        score_after=score_after,
        threshold_crossed=crossed,
        lambda1_steps=lambda1_steps,
    )
    return current, report


def nn_hamiltonian_cycle(g: Graph, start: int = 0) -> CycleSearchResult:
    """Greedy Hamiltonian-cycle search over existing edges.

    From the current node, step to the unvisited neighbour of minimum degree
    (ties broken toward the lowest node id).  Succeeds when all ``n`` nodes
    are visited and an edge leads back to the start.
    """
    _check_int("start", start, 0)
    if start >= g.n:
        raise ValueError(f"start node {start!r} out of range for n={g.n}")
    degrees = g.degrees
    indptr, indices = g.csr
    visited = np.zeros(g.n, dtype=bool)
    path = [start]
    visited[start] = True
    current = start
    while len(path) < g.n:
        row = indices[indptr[current]:indptr[current + 1]]
        candidates = row[~visited[row]]
        if not candidates.size:
            return CycleSearchResult(
                success=False,
                cycle=None,
                path=path,
                reason=(
                    f"stuck at node {current} after visiting {len(path)} of "
                    f"{g.n} nodes: no unvisited neighbour"
                ),
            )
        # Candidates are in id order, so argmin picks the lowest id among
        # the minimum-degree ones.
        nxt = int(candidates[np.argmin(degrees[candidates])])
        path.append(nxt)
        visited[nxt] = True
        current = nxt
    if g.has_edge(current, start):
        return CycleSearchResult(success=True, cycle=path, path=path)
    return CycleSearchResult(
        success=False,
        cycle=None,
        path=path,
        reason=(
            f"visited all {g.n} nodes but final node {current} has no edge "
            f"back to start {start}"
        ),
    )


def prune_to_cycle(
    g: Graph, cycle: list[int], beta_template: float, params: NodeParams
) -> tuple[Graph, IsolationReport]:
    """Keep only the edges of a known Hamiltonian cycle of ``g``.

    The result is 2-regular and connected with dominant eigenvalue exactly 2.
    The cycle must visit every node exactly once, and every consecutive pair
    (including the wrap-around) must be an edge of ``g``.
    """
    if len(cycle) != g.n or len(set(cycle)) != g.n or set(cycle) != set(range(g.n)):
        raise ValueError("cycle must visit every node exactly once")
    hops = np.column_stack((cycle, np.roll(cycle, -1)))
    missing = np.flatnonzero(g.csr_positions(hops[:, 0], hops[:, 1]) < 0)
    if missing.size:
        a, b = hops[missing[0]].tolist()
        raise ValueError(f"cycle step ({a}, {b}) is not an edge of the graph")
    pruned = Graph.from_edges(g.n, hops)
    return pruned, _report("cycle", g, pruned, beta_template, params)


def lattice_dimensions(n: int) -> tuple[int, int] | None:
    """Factorisation ``rows * cols == n`` with both factors >= 3.

    ``rows`` starts at ``floor(sqrt(n))`` and is adjusted downward until it
    divides ``n``; returns ``None`` when no such factorisation exists.
    """
    for rows in range(int(math.isqrt(n)), 2, -1):
        if n % rows == 0 and n // rows >= 3:
            return rows, n // rows
    return None


def rewire_to_lattice(
    g: Graph, beta_template: float, params: NodeParams
) -> tuple[Graph, IsolationReport]:
    """Replace the entire edge set with a 4-regular torus lattice.

    Node count is preserved.  When ``n`` has no factorisation ``rows * cols``
    with both factors >= 3 (e.g. prime ``n``), the largest ``n' <= n`` that
    has one is used and the surplus nodes are chained pairwise into the torus
    ring structure: consecutive surplus pairs are spliced into distinct
    row-0 edges (edge ``(2t, 2t+1)`` becomes a path through the pair), which
    gives them degree 2.  Surplus nodes are listed in the report.
    """
    if g.n < 9:
        raise ValueError(f"lattice rewiring needs at least 9 nodes, got {g.n}")
    dims = lattice_dimensions(g.n)
    surplus: list[int] = []
    if dims is not None:
        rewired = gen_lattice4(*dims)
    else:
        n_prime = g.n - 1
        while n_prime >= 9 and lattice_dimensions(n_prime) is None:
            n_prime -= 1
        if n_prime < 9:
            raise ValueError(f"no usable torus factorisation at or below n={g.n}")
        dims = lattice_dimensions(n_prime)
        assert dims is not None
        surplus = list(range(n_prime, g.n))
        cols = dims[1]
        pairs = [surplus[i : i + 2] for i in range(0, len(surplus), 2)]
        if 2 * len(pairs) > cols:
            raise ValueError(
                f"too many surplus nodes ({len(surplus)}) to splice into a "
                f"{dims[0]}x{dims[1]} torus"
            )
        spliced = [(2 * t, 2 * t + 1) for t in range(len(pairs))]
        routes = []
        for (a, b), chain in zip(spliced, pairs):
            route = [a, *chain, b]
            routes.extend(zip(route, route[1:]))
        kept = gen_lattice4(*dims).remove_edges(spliced).edge_array
        rewired = Graph.from_edges(g.n, np.concatenate((kept, routes)))
    report = _report("lattice", g, rewired, beta_template, params)
    report.surplus_nodes = surplus
    return rewired, report


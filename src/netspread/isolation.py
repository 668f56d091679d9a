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
    """Outcome of applying an isolation strategy to a graph.

    ``removed_edges`` is in removal order for ``greedy`` and sorted for the
    other strategies; ``edges_added`` is sorted.  ``lambda1_steps`` is filled
    by ``greedy`` only: the dominant eigenvalue before each removal and after
    the last.  ``surplus_nodes`` is set by ``lattice`` only, and holds at most
    two nodes.
    """

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


def _report(
    strategy: str, before: Graph, after: Graph, beta_template: float,
    params: NodeParams, removed: list[tuple[int, int]] | None = None,
    lambda1_steps: list[float] | None = None,
) -> IsolationReport:
    """Report of replacing ``before`` by ``after``, scored with homogeneous
    links of ``beta_template``.

    Greedy removal passes its edges in removal order and its
    ``lambda1_steps``, the dominant eigenvalue before each removal and after
    the last, whose ends are ``lambda1_before`` and ``lambda1_after``.  The
    other strategies pass neither: ``removed_edges`` is then the sorted edges
    of ``before`` that ``after`` lacks, both eigenvalues are solved here, and
    ``lambda1_steps`` stays empty.  ``surplus_nodes`` is left for the lattice
    strategy to set.
    """
    score_before, score_after = (
        survivability_score(h, LinkProbs.homogeneous(h, beta_template), params).score
        for h in (before, after)
    )
    removed = _missing_edges(before, after) if removed is None else removed
    lambda1 = lambda1_steps or [
        adjacency_spectral_radius(h).value for h in (before, after)
    ]
    return IsolationReport(
        strategy=strategy,
        edges_removed=len(removed),
        removed_edges=removed,
        edges_added=_missing_edges(after, before),
        lambda1_before=lambda1[0],
        lambda1_after=lambda1[-1],
        connectivity_after=after.connected_components(),
        score_before=score_before,
        score_after=score_after,
        threshold_crossed=(score_before >= 1.0 and score_after < 1.0),
        lambda1_steps=lambda1_steps or [],
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
    return current, _report(
        "greedy", g, current, beta_template, params, removed, lambda1_steps
    )


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
            reason = (f"stuck at node {current} after visiting {len(path)} of "
                      f"{g.n} nodes: no unvisited neighbour")
            break
        # Candidates are in id order, so argmin picks the lowest id among
        # the minimum-degree ones.
        current = int(candidates[np.argmin(degrees[candidates])])
        path.append(current)
        visited[current] = True
    else:  # every node visited
        if g.has_edge(current, start):
            return CycleSearchResult(success=True, cycle=path, path=path)
        reason = (f"visited all {g.n} nodes but final node {current} has no "
                  f"edge back to start {start}")
    return CycleSearchResult(success=False, cycle=None, path=path, reason=reason)


def prune_to_cycle(
    g: Graph, cycle: list[int], beta_template: float, params: NodeParams
) -> tuple[Graph, IsolationReport]:
    """Keep only the edges of a known Hamiltonian cycle of ``g``.

    The result is 2-regular and connected with dominant eigenvalue exactly 2.
    The cycle must visit every node exactly once, and every consecutive pair
    (including the wrap-around) must be an edge of ``g``.
    """
    if len(cycle) != g.n or set(cycle) != set(range(g.n)):
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
    with both factors >= 3 (e.g. prime ``n``), the largest ``n' < n`` that
    has one is used, and the one or two surplus nodes ``n', ..., n - 1`` are
    spliced into torus edge ``(0, 1)``, which becomes the path
    ``0 - n' - ... - 1``; each surplus node has degree 2.  Surplus nodes are
    listed in the report.
    """
    if g.n < 9:
        raise ValueError(f"lattice rewiring needs at least 9 nodes, got {g.n}")
    dims = lattice_dimensions(g.n)
    surplus: list[int] = []
    if dims is not None:
        rewired = gen_lattice4(*dims)
    else:
        # Every multiple m >= 9 of 3 factors as 3 * (m / 3), so n is not a
        # multiple of 3 and n - 1 or n - 2 is one, at least 9 (n >= 10, and
        # n >= 11 when n - 2 is the multiple).  So at most two nodes are
        # left over, and the one torus edge (0, 1) takes them both.
        dims = lattice_dimensions(g.n - 1) or lattice_dimensions(g.n - 2)
        surplus = list(range(dims[0] * dims[1], g.n))
        route = [0, *surplus, 1]
        kept = gen_lattice4(*dims).remove_edges([(0, 1)]).edge_array
        rewired = Graph.from_edges(
            g.n, np.concatenate((kept, list(zip(route, route[1:]))))
        )
    report = _report("lattice", g, rewired, beta_template, params)
    report.surplus_nodes = surplus
    return rewired, report

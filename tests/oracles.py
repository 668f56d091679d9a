"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (dense
matrices, scalar loops, bisection) so that agreement with the fast library
code is meaningful.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from netspread.graphs import Graph
from netspread.montecarlo import DEAD, HAS_INFO, NO_INFO, WARNED


def dense_adjacency(g: Graph) -> np.ndarray:
    """Full symmetric 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def dense_spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude via a full dense eigensolve."""
    return float(max(abs(np.linalg.eigvals(matrix))))


def dense_spectral_radius_symmetric(matrix: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvalsh(matrix))))


def sis_ode_exact(t: float, beta: float, gamma: float, i0: float) -> float:
    """Closed-form logistic solution of the two-compartment recovery model."""
    i_inf = 1.0 - gamma / beta
    return i_inf / (1.0 + (i_inf / i0 - 1.0) * math.exp(-(beta - gamma) * t))


def final_size_fixed_point(s0: float, ratio: float) -> float:
    """Terminal susceptible fraction solving s = s0 * exp(-ratio * (1 - s)).

    Bisection on [eps, s0]; the bracket always contains the stable root for
    ratio > 1.
    """
    f = lambda x: x - s0 * math.exp(-ratio * (1.0 - x))
    lo, hi = 1e-15, s0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bfs_ball(g: Graph, source: int, radius: int) -> set[int]:
    """All nodes at graph distance <= radius from ``source``."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for v in g.adjacency[u]:
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return set(dist)


def mle_tail_exponent(degrees: np.ndarray, d_min: int) -> float:
    """Continuous maximum-likelihood estimate of a power-law tail exponent.

    alpha = 1 + n / sum(ln(d_i / (d_min - 1/2))) over degrees >= d_min,
    the standard discrete-data approximation.
    """
    tail = np.asarray(degrees, dtype=float)
    tail = tail[tail >= d_min]
    return 1.0 + len(tail) / float(np.log(tail / (d_min - 0.5)).sum())


def slow_zeta(p: np.ndarray, g: Graph, beta_of, r: np.ndarray) -> np.ndarray:
    """Receive-nothing probabilities via an explicit double loop.

    ``beta_of(j, i)`` must return the transmission probability along the
    directed link j -> i.
    """
    out = np.ones(g.n)
    for i in range(g.n):
        for j in g.adjacency[i]:
            j = int(j)
            out[i] *= 1.0 - r[j] * beta_of(j, i) * p[j]
    return out


def slow_plain_step(p, q, zeta_vals, params):
    """Scalar-loop version of the carrier/susceptible update (no warning
    state): acceptance is certain and ``params.nu`` / ``params.chi`` play
    no part."""
    n = len(p)
    np_, nq = np.empty(n), np.empty(n)
    for i in range(n):
        np_[i] = p[i] * (1.0 - params.delta[i]) + q[i] * (1.0 - zeta_vals[i])
        nq[i] = q[i] * (zeta_vals[i] - params.delta[i]) + (1.0 - p[i] - q[i]) * params.gamma[i]
    return np_, nq


def slow_warned_step(p, q, w, zeta_vals, params):
    """Scalar-loop version of the warned-variant update equations."""
    n = len(p)
    np_, nq, nw = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        dead = 1.0 - p[i] - q[i] - w[i]
        np_[i] = p[i] * (1.0 - params.delta[i]) + q[i] * (1.0 - zeta_vals[i]) * params.nu[i]
        nq[i] = (
            q[i] * (zeta_vals[i] - params.delta[i])
            + dead * params.gamma[i]
            + params.chi[i] * w[i]
        )
        nw[i] = (1.0 - zeta_vals[i]) * (1.0 - params.nu[i]) * q[i] + (
            1.0 - params.chi[i] - params.delta[i]
        ) * w[i]
    return np_, nq, nw


def splitmix_finalizer(x: int) -> int:
    """Independent transcription of the 64-bit splitmix finaliser."""
    mask = (1 << 64) - 1
    z = x & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def dense_system_matrix(g: Graph, beta_of, params) -> np.ndarray:
    """System matrix assembled entry by entry from its definition."""
    s = np.zeros((g.n, g.n))
    for i in range(g.n):
        s[i, i] = 1.0 - params.delta[i]
        for j in g.adjacency[i]:
            j = int(j)
            s[i, j] = (
                params.r[j]
                * beta_of(j, i)
                * params.gamma[i]
                / (params.gamma[i] + params.delta[i])
            )
    return s


def system_matrix_to_dense(s) -> np.ndarray:
    """Dense copy of a :class:`netspread.spectral.SystemMatrix`, entry by entry."""
    dense = np.diag(s.diag.astype(float))
    for i in range(s.n):
        for k in range(s.indptr[i], s.indptr[i + 1]):
            dense[i, s.indices[k]] += s.data[k]
    return dense


def is_hamiltonian_cycle(g: Graph, cycle: list[int]) -> bool:
    """Edge-membership scan: visits every node once, all hops are edges."""
    if len(cycle) != g.n or set(cycle) != set(range(g.n)):
        return False
    return all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def mc_step_reference(states, graph, links, params, rng):
    """One Monte Carlo step with the transmission draws gathered one
    broadcaster at a time: a slice of CSR positions per broadcasting node,
    concatenated in node order, then a single uniform draw over them."""
    n = graph.n
    indptr, indices = graph.csr
    snapshot = states

    u_broadcast = rng.random(n)
    broadcasting = np.flatnonzero((snapshot == HAS_INFO) & (u_broadcast < params.r))
    received = np.zeros(n, dtype=bool)
    if broadcasting.size:
        beta_out = links.out_values
        slices = [np.arange(indptr[i], indptr[i + 1]) for i in broadcasting]
        flat = np.concatenate(slices) if slices else np.empty(0, dtype=np.int64)
        if flat.size:
            u_edges = rng.random(flat.size)
            up = u_edges < beta_out[flat]
            received[indices[flat[up]]] = True

    u_accept = rng.random(n)
    new_states = snapshot.copy()
    receiving = (snapshot == NO_INFO) & received
    accepted = receiving & (u_accept < params.nu)
    new_states[accepted] = HAS_INFO
    new_states[receiving & ~accepted] = WARNED

    u_death = rng.random(n)
    died = (snapshot != DEAD) & (u_death < params.delta)

    u_res = rng.random(n)
    revived = (snapshot == DEAD) & (u_res < params.gamma)
    new_states[revived] = NO_INFO

    u_rev = rng.random(n)
    reverting = (snapshot == WARNED) & ~died & (u_rev < params.chi)
    new_states[reverting] = NO_INFO

    new_states[died] = DEAD
    return new_states

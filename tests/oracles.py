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
from netspread.meanfield import (
    _COLUMNS,
    MeanFieldRun,
    MfState,
    _raise_bounds,
    _require_finite,
    bound_violations,
    validate_warning_params,
)
from netspread.montecarlo import DEAD, HAS_INFO, NO_INFO, WARNED
from netspread.ode import _MODELS, OdeState, _check_state
from netspread.trajectory import Trajectory


def adjacency(g: Graph) -> tuple[np.ndarray, ...]:
    """Per-node sorted neighbour arrays (CSR row slices)."""
    indptr, indices = g.csr
    return tuple(np.split(indices, indptr[1:-1]))


def edge_set(g: Graph) -> frozenset[tuple[int, int]]:
    """The edges of ``g`` as ``(u, v)`` tuples with ``u < v``."""
    return frozenset(map(tuple, g.edge_array.tolist()))


def dense_adjacency(g: Graph) -> np.ndarray:
    """Full symmetric 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    for u, v in edge_set(g):
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
    nbrs = adjacency(g)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for v in nbrs[u]:
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
    nbrs = adjacency(g)
    out = np.ones(g.n)
    for i in range(g.n):
        for j in nbrs[i]:
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


def powerlaw_reference(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment with one scalar ``rng.integers(0, k)`` call
    per attachment attempt over the ``k`` degree units so far."""
    repeated = [u for u in range(m + 1) for _ in range(m)]
    edges = [(u, v) for v in range(m + 1) for u in range(v)]
    for new in range(m + 1, n):
        targets: list[int] = []
        while len(targets) < m:
            cand = repeated[int(rng.integers(0, len(repeated)))]
            if cand not in targets:
                targets.append(cand)
        edges.extend((t, new) for t in targets)
        repeated.extend(targets)
        repeated.extend([new] * m)
    return Graph(n=n, edges=edges)


def splitmix_finalizer(x: int) -> int:
    """Independent transcription of the 64-bit splitmix finaliser."""
    mask = (1 << 64) - 1
    z = x & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def dense_system_matrix(g: Graph, beta_of, params) -> np.ndarray:
    """System matrix assembled entry by entry from its definition."""
    nbrs = adjacency(g)
    s = np.zeros((g.n, g.n))
    for i in range(g.n):
        s[i, i] = 1.0 - params.delta[i]
        for j in nbrs[i]:
            j = int(j)
            s[i, j] = (
                params.r[j]
                * beta_of(j, i)
                * params.gamma[i]
                / (params.gamma[i] + params.delta[i])
            )
    return s


def system_matrix_to_dense(s) -> np.ndarray:
    """Dense copy of a :class:`netspread.spectral.SystemMatrix`, entry by
    entry: layout position ``k`` is row ``spread(arange(n))[k]``, column
    ``columns[k]``, value ``weights[k]`` or the 0-d ``node_weights``.  A
    0-d ``diag`` holds the value of every node."""
    dense = np.diag(np.broadcast_to(s.diag, s.n).astype(float))
    op = s.rows
    node_weights = None if op.node_weights is None else np.broadcast_to(op.node_weights, s.n)
    rows = op.layout.spread(np.arange(s.n), np.empty(op.layout.size, dtype=np.int64))
    for k in range(op.layout.size):
        j = op.columns[k]
        dense[rows[k], j] += op.weights[k] if node_weights is None else node_weights[j]
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


# ---------------------------------------------------------------------------
# The mean-field run and the RK4 loop as they were before both were prepared
# once per run: one MfState per step, zeta rebuilt from the CSR every step,
# a full bound_violations scan per step, OdeState objects in the RK4 stages.
# The package must match them bit for bit.
# ---------------------------------------------------------------------------

def _zeta_reference(state, links, params):
    indptr, indices = links.graph.csr
    factors = 1.0 - params.r[indices] * links.in_values * state.p[indices]
    out = np.ones(links.graph.n)
    row_len = np.diff(indptr)
    mask = row_len > 0
    if factors.size:
        out[mask] = np.multiply.reduceat(factors, indptr[:-1][mask])
    return out


def _step_reference(state, links, params, nu, chi, enforce_bounds):
    z = _zeta_reference(state, links, params)
    dead = 1.0 - state.p - state.q - state.w
    new_p = state.p * (1.0 - params.delta) + state.q * (1.0 - z) * nu
    new_q = state.q * (z - params.delta) + dead * params.gamma + chi * state.w
    new_w = (1.0 - z) * (1.0 - nu) * state.q + (1.0 - chi - params.delta) * state.w
    nxt = MfState(p=new_p, q=new_q, w=new_w, t=state.t + 1)
    if enforce_bounds:
        bad = bound_violations(nxt)
        if bad:
            _raise_bounds(bad, z, params)
    return nxt


def _sis_step_reference(state, links, params, *, enforce_bounds=True):
    if np.any(state.w != 0.0):
        raise ValueError("the sis model requires an empty warning state (w == 0)")
    return _step_reference(state, links, params, 1.0, 0.0, enforce_bounds)


def _sirs_step_reference(state, links, params, *, enforce_bounds=True):
    return _step_reference(state, links, params, params.nu, params.chi, enforce_bounds)


def _aggregates_reference(state):
    return (state.t, state.p.mean(), state.q.mean(), state.w.mean(),
            state.dead.mean(), float(state.p.sum()))


def meanfield_run_reference(model, state0, links, params, max_steps=500, tol=1e-9,
                            allow_negative_coefficients=False):
    """``netspread.meanfield.run`` stepping one ``MfState`` at a time."""
    if model not in ("sis", "sirs"):
        raise ValueError(f"unknown mean-field model {model!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps!r}")
    if model == "sirs" and not allow_negative_coefficients:
        validate_warning_params(params)
    step_fn = _sis_step_reference if model == "sis" else _sirs_step_reference
    enforce = not allow_negative_coefficients

    state = state0
    rows = [_aggregates_reference(state)]
    violations = _require_finite(bound_violations(state0))
    if enforce and violations:
        _raise_bounds(violations, None, params)
    converged = False
    for _ in range(max_steps):
        nxt = step_fn(state, links, params, enforce_bounds=enforce)
        if not enforce:
            violations.extend(_require_finite(bound_violations(nxt)))
        rows.append(_aggregates_reference(nxt))
        change = max(np.max(np.abs(new - old)) for new, old in
                     ((nxt.p, state.p), (nxt.q, state.q), (nxt.w, state.w)))
        state = nxt
        if change < tol:
            converged = True
            break
    times, *columns = zip(*rows)
    return MeanFieldRun(
        trajectory=Trajectory(
            times=np.array(times, dtype=np.int64),
            columns={name: np.array(col) for name, col in zip(_COLUMNS, columns)},
        ),
        final_state=state,
        converged=converged,
        steps=len(rows) - 1,
        violations=violations,
    )


def _sir_epidemic_rhs_reference(state, params):
    infections = params.beta * state.i * state.s
    recoveries = params.gamma * state.i
    return (-infections, infections - recoveries)


def _sir_endemic_rhs_reference(state, params):
    infections = params.beta * state.i * state.s
    ds = -infections + params.mu - params.mu * state.s
    di = infections - (params.gamma + params.mu) * state.i
    return (ds, di)


def _sis_rhs_reference(state, params):
    infections = params.beta * state.i * state.s
    recoveries = params.gamma * state.i
    return (recoveries - infections, infections - recoveries)


_ODE_RHS_REFERENCE = {
    "sir_epidemic": _sir_epidemic_rhs_reference,
    "sir_endemic": _sir_endemic_rhs_reference,
    "sis": _sis_rhs_reference,
}


def integrate_reference(model, state0, params, dt=0.01, t_end=100.0):
    """``netspread.ode.integrate`` with ``OdeState`` stages and a
    ``_check_state`` call after every step."""
    if model not in _ODE_RHS_REFERENCE:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{sorted(_ODE_RHS_REFERENCE)}")
    if dt <= 0 or t_end <= 0:
        raise ValueError(f"dt and t_end must be positive, got dt={dt!r} t_end={t_end!r}")
    rhs = _ODE_RHS_REFERENCE[model]
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end={t_end!r} is shorter than one step of dt={dt!r}")

    s, i = float(state0.s), float(state0.i)
    total0 = s + i
    recovered = _MODELS[model][1]
    if not recovered and abs(total0 - 1.0) > 1e-9:
        raise ValueError(f"SIS requires s + i = 1, got {total0!r}")

    s_out = np.empty(n_steps + 1)
    i_out = np.empty(n_steps + 1)
    s_out[0], i_out[0] = s, i
    _check_state(model, s, i, step=0, t=0.0, total0=total0)

    sixth = dt / 6.0
    half = dt / 2.0
    for k in range(1, n_steps + 1):
        ks1, ki1 = rhs(OdeState(s, i), params)
        ks2, ki2 = rhs(OdeState(s + half * ks1, i + half * ki1), params)
        ks3, ki3 = rhs(OdeState(s + half * ks2, i + half * ki2), params)
        ks4, ki4 = rhs(OdeState(s + dt * ks3, i + dt * ki3), params)
        s = s + sixth * (ks1 + 2.0 * ks2 + 2.0 * ks3 + ks4)
        i = i + sixth * (ki1 + 2.0 * ki2 + 2.0 * ki3 + ki4)
        _check_state(model, s, i, step=k, t=k * dt, total0=total0)
        s_out[k] = s
        i_out[k] = i

    times = np.arange(n_steps + 1) * dt
    if recovered:
        r_out = 1.0 - s_out - i_out
    else:
        r_out = np.zeros_like(s_out)
    return Trajectory(times=times, columns={"s": s_out, "i": i_out, "r": r_out})


def write_csv_reference(names, columns) -> str:
    """The text of ``netspread.trajectory._write_csv``, one ``%`` per row."""
    row = ",".join(
        "%d" if np.issubdtype(col.dtype, np.integer) else "%.12e" for col in columns
    )
    lines = [",".join(names)]
    lines.extend(row % values for values in zip(*(col.tolist() for col in columns)))
    return "\n".join(lines) + "\n"


def edge_list_reference(g: Graph) -> str:
    """The text of ``netspread.graphs.save_edge_list``, one f-string per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edge_array.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Power iteration and the system-matrix product as they were before the row
# operator: CSR-ordered entries, one np.add.reduceat over the non-empty rows
# per product, fresh arrays in every iteration, and greedy removal that
# rebuilds each graph from its edge list.  The package must match them bit
# for bit.
# ---------------------------------------------------------------------------

class CsrSystemMatrixReference:
    """Dense diagonal plus CSR off-diagonal entries."""

    def __init__(self, n, diag, indptr, indices, data):
        self.n, self.diag, self.indptr, self.indices, self.data = n, diag, indptr, indices, data
        mask = np.diff(indptr) > 0
        self._nonempty_rows = mask, indptr[:-1][mask]

    def matvec(self, v):
        out = self.diag * v
        contrib = self.data * v[self.indices]
        if contrib.size:
            mask, starts = self._nonempty_rows
            out[mask] += np.add.reduceat(contrib, starts)
        return out


def system_matrix_reference(g: Graph, links, params) -> CsrSystemMatrixReference:
    indptr, indices = g.csr
    gain = params.gamma / (params.gamma + params.delta)
    row_ids = np.repeat(np.arange(g.n), np.diff(indptr))
    data = params.r[indices] * links.in_values * gain[row_ids]
    return CsrSystemMatrixReference(g.n, 1.0 - params.delta, indptr, indices, data)


def power_iteration_reference(matvec, n, tol=1e-10, max_iter=100_000):
    """``(value, vector, iterations, residual)``; raises ``RuntimeError``
    when it does not converge, with the last residual as ``residual``."""
    v = np.full(n, 1.0 / math.sqrt(n))
    w = matvec(v)
    lam = float(v @ w)
    residual = float(np.linalg.norm(w - lam * v))
    for it in range(1, max_iter + 1):
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0, v, it, 0.0
        v_next = w / norm_w
        w_next = matvec(v_next)
        lam_next = float(v_next @ w_next)
        residual = float(np.linalg.norm(w_next - lam_next * v_next))
        if abs(lam_next - lam) < tol and residual < tol:
            vec = v_next
            peak = np.argmax(np.abs(vec))
            if vec[peak] < 0:
                vec = -vec
            return abs(lam_next), vec, it, residual
        v, w, lam = v_next, w_next, lam_next
    error = RuntimeError(f"no convergence in {max_iter} iterations")
    error.residual = residual
    raise error


def adjacency_radius_reference(g: Graph):
    """``(value, vector, iterations, residual)`` of ``A + I``, shifted back."""
    indptr, indices = g.csr
    shifted = CsrSystemMatrixReference(g.n, np.ones(g.n), indptr, indices,
                                       np.ones(len(indices)))
    value, vector, iterations, residual = power_iteration_reference(shifted.matvec, g.n)
    return max(value - 1.0, 0.0), vector, iterations, residual


def greedy_reference(g: Graph, k: int):
    """``(removed_edges, lambda1_steps)`` of greedy removal, each graph
    rebuilt from its remaining edges."""
    current, removed, steps = g, [], []
    for _ in range(k):
        value, vector, _, _ = adjacency_radius_reference(current)
        steps.append(value)
        if current.num_edges == 0:
            break
        x = np.abs(vector)
        e = current.edge_array
        best = np.argmax(x[e[:, 0]] * x[e[:, 1]])
        removed.append(tuple(e[best].tolist()))
        current = Graph(n=g.n, edges=np.delete(e, best, axis=0))
    steps.append(adjacency_radius_reference(current)[0])
    return removed, steps

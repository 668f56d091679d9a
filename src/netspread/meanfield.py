"""Discrete-time mean-field propagation dynamics on a graph.

Each node carries probabilities of being an information carrier (``p``),
a susceptible non-carrier (``q``) and, in the variant with a warning state,
of having refused the information (``w``); the residual ``1 - p - q - w`` is
the probability of being dead/offline.  All nodes update synchronously from
the previous step's snapshot:

    zeta_i(t)  = prod_j (1 - r_j * beta_ji * p_j(t-1))        over in-neighbours j
    p_i(t)     = p_i(t-1) * (1 - delta_i) + q_i(t-1) * (1 - zeta_i(t)) * nu_i
    q_i(t)     = q_i(t-1) * (zeta_i(t) - delta_i)
                 + (1 - p - q - w)(t-1) * gamma_i + chi_i * w_i(t-1)
    w_i(t)     = (1 - zeta_i(t)) * (1 - nu_i) * q_i(t-1)
                 + (1 - chi_i - delta_i) * w_i(t-1)

``zeta_i`` is the probability that node ``i`` receives nothing this step.
The plain carrier/susceptible model is the special case ``nu = 1``, ``w = 0``.

The update rule is not a stochastic matrix when ``delta_i`` exceeds
``zeta_i(t)`` (or when ``chi_i + delta_i > 1`` in the warning variant), so
probabilities can leave ``[0, 1]``.  Steps detect this and fail loudly with a
parameter-regime diagnostic; nothing is clamped.  Callers can opt into a
reporting-only mode that records violations instead of raising.

One update body serves :func:`run`, :func:`sis_step`, :func:`sirs_step` and
:func:`zeta`.  It is prepared once per run (per call for the single-step
functions): a :class:`~netspread.rowops.RowOperator` on the graph's cached
degree-bucketed layout, the products ``r_j * beta_ji`` in that layout (from
:func:`_transmission`, which the linearised system matrix of
:mod:`netspread.spectral` is built from too) and the per-node coefficients
are computed before the first step.  Each step gathers ``p`` into the
operator's buffer once, takes the row products of ``zeta`` with the operator
and keeps ``p``, ``q``, ``w`` and the dead fraction in one ``(4, n)`` array.
The prepared run gives the same bits as stepping one state at a time with a
plain product over each CSR row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, _pair_array
from .rowops import RowOperator
from .trajectory import Trajectory

__all__ = [
    "NodeParams",
    "LinkProbs",
    "MfState",
    "BoundViolation",
    "MeanFieldBoundsError",
    "ParamRegimeError",
    "MeanFieldRun",
    "zeta",
    "sis_step",
    "sirs_step",
    "run",
    "bound_violations",
]

_BOUND_SLACK = 1e-12


class MeanFieldBoundsError(RuntimeError):
    """A state component left ``[0, 1]`` beyond tolerance during a step."""

    def __init__(self, message: str, violations: list["BoundViolation"]):
        super().__init__(message)
        self.violations = violations


class ParamRegimeError(ValueError):
    """Parameters lie in a regime where the update rule is not a chain."""


@dataclass(frozen=True)
class BoundViolation:
    """One out-of-bounds component, recorded as (step, kind, node, value)."""

    step: int
    kind: str
    node: int
    value: float


def _as_prob_array(name: str, value, n: int) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} entries must be probabilities in [0, 1]")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NodeParams:
    """Per-node rates, each an array of length ``n`` with entries in [0, 1].

    ``r``     broadcast probability per step while carrying,
    ``delta`` death/failure probability per step,
    ``gamma`` resurrection probability per step while dead,
    ``nu``    acceptance probability on receipt (1 = always accept),
    ``chi``   warning-decay probability per step.
    """

    r: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray
    chi: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.r)
        for name in ("r", "delta", "gamma", "nu", "chi"):
            object.__setattr__(self, name, _as_prob_array(name, getattr(self, name), n))

    @classmethod
    def homogeneous(
        cls,
        n: int,
        *,
        r: float,
        delta: float,
        gamma: float,
        nu: float = 1.0,
        chi: float = 0.0,
    ) -> "NodeParams":
        ones = np.ones(n)
        return cls(r=r * ones, delta=delta * ones, gamma=gamma * ones,
                   nu=nu * ones, chi=chi * ones)

    @property
    def n(self) -> int:
        return len(self.r)


class LinkProbs:
    """Per-link transmission probabilities supported on graph edges.

    Stored state: ``graph`` and ``in_values``, a read-only array of one value
    in [0, 1] per entry of ``graph.csr``: entry ``k`` of row ``i`` holds
    ``beta(indices[k] -> i)``.  The constructor copies it from an array of
    that shape or a single value; :meth:`homogeneous` and :meth:`from_mapping`
    build it.  ``out_values`` is the array permuted by ``graph.transpose``.
    """

    def __init__(self, graph: Graph, in_values) -> None:
        values = np.array(in_values, dtype=float)
        bad = values[~((values >= 0.0) & (values <= 1.0))]
        if bad.size:
            raise ValueError(f"link probability must lie in [0, 1], got {float(bad[0])!r}")
        if values.shape != (2 * graph.num_edges,):  # a single value, or a bad shape
            values = np.broadcast_to(values, (2 * graph.num_edges,)).copy()
        values.flags.writeable = False
        self.graph = graph
        self.in_values = values

    @classmethod
    def homogeneous(cls, graph: Graph, beta: float) -> "LinkProbs":
        return cls(graph, float(beta))

    @classmethod
    def from_mapping(
        cls, graph: Graph, mapping: dict[tuple[int, int], float], symmetric: bool = True
    ) -> "LinkProbs":
        """Links from ``mapping``; links it does not name carry 0.  With
        ``symmetric`` each entry also sets the reverse link unless the mapping
        names that link itself."""
        return cls(graph, _table_in_values(graph, mapping, symmetric))

    def value(self, src: int, dst: int) -> float:
        """Transmission probability along the directed link ``src -> dst``."""
        k = self.graph.csr_positions(dst, src)
        return float(self.in_values[k]) if k >= 0 else 0.0

    @cached_property
    def out_values(self) -> np.ndarray:
        """Aligned with the graph CSR: entry ``k`` of row ``i`` holds
        ``beta(i -> indices[k])``."""
        return self.in_values[self.graph.transpose]


def _table_in_values(graph: Graph, table: dict, symmetric: bool) -> np.ndarray:
    """CSR-aligned values of a table of directed links, ranges unchecked; with
    ``symmetric``, entries also fill the reverse links the table leaves out."""
    pairs = _pair_array(table)
    betas = np.fromiter(table.values(), dtype=float, count=len(table))
    src, dst = pairs[:, 0], pairs[:, 1]
    pos = graph.csr_positions(dst, src)
    bad = np.flatnonzero(pos < 0)
    if bad.size:
        raise ValueError(f"link ({src[bad[0]]}, {dst[bad[0]]}) is not an edge of the graph")
    values = np.zeros(2 * graph.num_edges)
    if symmetric:
        values[graph.transpose[pos]] = betas
    values[pos] = betas  # explicit entries beat mirrored ones
    return values


@dataclass(frozen=True)
class MfState:
    """Per-node probabilities at step ``t``: carrier ``p``, susceptible ``q``,
    warned ``w``; dead probability is the residual ``1 - p - q - w``."""

    p: np.ndarray
    q: np.ndarray
    w: np.ndarray
    t: int = 0

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if not (p.shape == q.shape == w.shape) or p.ndim != 1:
            raise ValueError("p, q, w must be one-dimensional arrays of equal length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)

    @classmethod
    def uniform(cls, n: int, p0: float, w0: float = 0.0) -> "MfState":
        if not (0.0 <= p0 <= 1.0 and 0.0 <= w0 <= 1.0 and p0 + w0 <= 1.0):
            raise ValueError(f"invalid initial fractions p0={p0!r} w0={w0!r}")
        return cls(
            p=np.full(n, p0), q=np.full(n, 1.0 - p0 - w0), w=np.full(n, w0), t=0
        )

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def dead(self) -> np.ndarray:
        return 1.0 - self.p - self.q - self.w


def _check_inputs(graph: Graph, links: LinkProbs, params: NodeParams) -> None:
    """Reject ``params`` that do not cover the nodes of ``graph`` and ``links``
    built on another graph (an equal one is fine)."""
    n = graph.n
    if params.n != n:
        raise ValueError(f"node parameters cover {params.n} nodes but the graph has {n}")
    if links.graph is not graph and links.graph != graph:
        raise ValueError("link probabilities were built for a different graph")


def _check_sizes(state: MfState, links: LinkProbs, params: NodeParams) -> None:
    n = links.graph.n
    _check_inputs(links.graph, links, params)
    if state.n != n:
        raise ValueError(f"the state covers {state.n} nodes but the graph has {n}")


def _transmission(links: LinkProbs, params: NodeParams) -> tuple[RowOperator, np.ndarray]:
    """A row operator on the layout of ``links.graph`` and, in that layout,
    ``r_j * beta_ji`` for each in-edge ``j -> i``: the factors of ``zeta`` and,
    times the gains, the system matrix's off-diagonal.  ``r * beta`` comes
    first, as in the per-step product ``r * beta * p`` read left to right."""
    rows = RowOperator(links.graph.row_layout)
    rb = params.r[rows.columns]
    np.multiply(rb, rows.layout.permute(links.in_values, out=rows.buffer), out=rb)
    return rows, rb


class _Update:
    """The update of the module docstring, prepared for one graph, link
    table and parameter set.

    What does not change between steps is computed here, once: the row
    operator and the products ``r_j * beta_ji`` of :func:`_transmission`, and
    the coefficients ``1 - delta``, ``1 - nu`` and ``1 - chi - delta``.  A
    state is a ``(4, n)`` array of rows ``p``, ``q``, ``w`` and
    ``dead = 1 - p - q - w``, so ``dead`` is computed once per state.
    """

    def __init__(self, links: LinkProbs, params: NodeParams,
                 nu: np.ndarray | float, chi: np.ndarray | float) -> None:
        self.rows, self.rb = _transmission(links, params)
        self.delta, self.gamma, self.nu, self.chi = params.delta, params.gamma, nu, chi
        self.keep_p = 1.0 - params.delta
        self.warn = 1.0 - nu
        self.keep_w = 1.0 - chi - params.delta

    def zeta(self, p: np.ndarray) -> np.ndarray:
        factors = self.rows.gather(p)
        np.multiply(self.rb, factors, out=factors)
        np.subtract(1.0, factors, out=factors)
        return self.rows.row_prod(factors)

    def step(self, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The state after ``cur``, and the ``zeta`` it was computed with."""
        p, q, w, dead = cur
        z = self.zeta(p)
        miss = 1.0 - z
        nxt = np.empty_like(cur)
        np.add(p * self.keep_p, q * miss * self.nu, out=nxt[0])
        np.add(q * (z - self.delta) + dead * self.gamma, self.chi * w, out=nxt[1])
        np.add(miss * self.warn * q, self.keep_w * w, out=nxt[2])
        np.subtract(1.0 - nxt[0] - nxt[1], nxt[2], out=nxt[3])
        return nxt, z


def _stack(state: MfState) -> np.ndarray:
    """``state`` as the ``(4, n)`` rows ``p, q, w, dead`` of :class:`_Update`."""
    return np.stack([state.p, state.q, state.w, state.dead])


def _in_bounds(rows: np.ndarray) -> bool:
    """Whether :func:`bound_violations` finds nothing in the state ``rows``
    (``p, q, w`` first); NaN fails every comparison here, as it does there."""
    pqw = rows[:3]
    return bool(pqw.min() >= -_BOUND_SLACK and pqw.max() <= 1.0 + _BOUND_SLACK
                and (rows[0] + rows[1] + rows[2]).max() <= 1.0 + _BOUND_SLACK)


def zeta(state: MfState, links: LinkProbs, params: NodeParams) -> np.ndarray:
    """Probability that each node receives nothing this step.

    ``zeta_i = prod over in-neighbours j of (1 - r_j * beta_ji * p_j)``;
    nodes with no neighbours get exactly 1.
    """
    _check_sizes(state, links, params)
    return _Update(links, params, 1.0, 0.0).zeta(state.p)


def bound_violations(state: MfState) -> list[BoundViolation]:
    """All components of ``state`` outside ``[-1e-12, 1 + 1e-12]`` plus any
    node whose ``p + q + w`` exceeds ``1 + 1e-12``.  Non-finite values (NaN)
    fail the in-bounds test and are reported too."""
    found: list[BoundViolation] = []
    for kind, arr in (("p", state.p), ("q", state.q), ("w", state.w)):
        bad = np.flatnonzero(~((arr >= -_BOUND_SLACK) & (arr <= 1.0 + _BOUND_SLACK)))
        found.extend(
            BoundViolation(step=state.t, kind=kind, node=int(i), value=float(arr[i]))
            for i in bad
        )
    total = state.p + state.q + state.w
    bad = np.flatnonzero(~(total <= 1.0 + _BOUND_SLACK))
    found.extend(
        BoundViolation(step=state.t, kind="p+q+w", node=int(i), value=float(total[i]))
        for i in bad
    )
    return found


def _raise_bounds(violations: list[BoundViolation], zeta_t: np.ndarray,
                  params: NodeParams) -> None:
    worst = max(violations, key=lambda v: max(v.value - 1.0, -v.value))
    diag = ""
    risky = np.flatnonzero(params.delta > zeta_t)
    if risky.size:
        diag = (
            f" Parameter regime note: delta_i exceeds zeta_i(t) for "
            f"{risky.size} node(s) (first: node {int(risky[0])}, "
            f"delta={params.delta[risky[0]]:.6g}, zeta={zeta_t[risky[0]]:.6g}), "
            f"so the susceptible update coefficient is negative."
        )
    raise MeanFieldBoundsError(
        f"mean-field step {worst.step} produced {worst.kind}[{worst.node}]="
        f"{worst.value:.6g}, outside [0, 1] beyond tolerance {_BOUND_SLACK}; "
        f"values are not clamped.{diag}",
        violations,
    )


def _acceptance(model: str, params: NodeParams) -> tuple:
    """``(nu, chi)`` of ``model``: "sis" is the update with ``nu = 1``, ``chi = 0``."""
    return (1.0, 0.0) if model == "sis" else (params.nu, params.chi)


def _require_empty_warning(state: MfState) -> None:
    if np.any(state.w != 0.0):
        raise ValueError("sis_step requires an empty warning state (w == 0)")


def _step(model: str, state: MfState, links: LinkProbs, params: NodeParams,
          enforce_bounds: bool) -> MfState:
    """One step of ``model`` from ``state``, checked unless ``enforce_bounds``
    is false."""
    _check_sizes(state, links, params)
    update = _Update(links, params, *_acceptance(model, params))
    rows, z = update.step(_stack(state))
    nxt = MfState(p=rows[0], q=rows[1], w=rows[2], t=state.t + 1)
    if enforce_bounds:
        bad = bound_violations(nxt)
        if bad:
            _raise_bounds(bad, z, params)
    return nxt


def sis_step(
    state: MfState, links: LinkProbs, params: NodeParams, *, enforce_bounds: bool = True
) -> MfState:
    """One synchronous carrier/susceptible update (no warning state): the
    general update with ``nu = 1`` and ``chi = 0``, whatever ``params`` say.

    Requires ``state.w == 0`` everywhere; the warning state must stay empty.
    """
    _require_empty_warning(state)
    return _step("sis", state, links, params, enforce_bounds)


def sirs_step(
    state: MfState, links: LinkProbs, params: NodeParams, *, enforce_bounds: bool = True
) -> MfState:
    """One synchronous update of the variant with a warning state.

    With ``nu = 1`` and an empty warning state this reduces exactly to
    :func:`sis_step`.
    """
    return _step("sirs", state, links, params, enforce_bounds)


def validate_warning_params(params: NodeParams) -> None:
    """Reject parameter sets where ``chi + delta > 1``.

    In that regime the warned-state retention coefficient ``1 - chi - delta``
    is negative and the update is not a probability map.
    """
    bad = np.flatnonzero(params.chi + params.delta > 1.0 + 1e-15)
    if bad.size:
        i = int(bad[0])
        raise ParamRegimeError(
            f"chi + delta must not exceed 1; node {i} has chi={params.chi[i]:.6g}, "
            f"delta={params.delta[i]:.6g} (sum {params.chi[i] + params.delta[i]:.6g}). "
            f"The warned-state retention coefficient would be negative. "
            f"Pass allow_negative_coefficients=True to run anyway with "
            f"bounds checking reduced to reporting."
        )


@dataclass
class MeanFieldRun:
    """Result of iterating the mean-field dynamics."""

    trajectory: Trajectory
    final_state: MfState
    converged: bool
    steps: int
    violations: list[BoundViolation] = field(default_factory=list)


_COLUMNS = ("mean_p", "mean_q", "mean_w", "dead", "carriers")


def _require_finite(found: list[BoundViolation]) -> list[BoundViolation]:
    """``found`` as is, unless it names a NaN or infinite component."""
    bad = next((v for v in found if not np.isfinite(v.value)), None)
    if bad is not None:
        raise ValueError(f"mean-field state at step {bad.step} has a non-finite "
                         f"{bad.kind}[{bad.node}]={bad.value!r}")
    return found


def run(
    model: str,
    state0: MfState,
    links: LinkProbs,
    params: NodeParams,
    max_steps: int = 500,
    tol: float = 1e-9,
    allow_negative_coefficients: bool = False,
) -> MeanFieldRun:
    """Iterate ``model`` (``"sis"`` or ``"sirs"``) from ``state0``.

    Stops early once the max-norm change of ``(p, q, w)`` over one step falls
    below ``tol``.  The trajectory records per-step aggregates: mean ``p``,
    mean ``q``, mean ``w``, mean dead fraction, and the expected carrier
    count.  With ``allow_negative_coefficients`` the run records bound
    violations instead of failing; otherwise the first violation aborts the
    run with a diagnostic (and, for ``"sirs"``, parameter sets with
    ``chi + delta > 1`` are rejected before the first step).  A NaN or
    infinite component, at the start or in a reporting run, raises
    ``ValueError``.

    The run is prepared once (see :class:`_Update`) and builds no
    :class:`MfState` per step.  Each step checks bounds with one min/max scan
    and calls :func:`bound_violations` only when that scan fails, records
    the four row sums the trajectory's columns are made from, and measures
    the change in place in the previous state, which it no longer needs.
    The numbers are those of repeated :func:`sis_step` / :func:`sirs_step`
    calls, bit for bit.
    """
    if model not in ("sis", "sirs"):
        raise ValueError(f"unknown mean-field model {model!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps!r}")
    _check_sizes(state0, links, params)
    if model == "sirs" and not allow_negative_coefficients:
        validate_warning_params(params)
    enforce = not allow_negative_coefficients

    initial = _require_finite(bound_violations(state0))
    violations: list[BoundViolation] = [] if enforce else initial
    if max_steps and model == "sis":
        # The "sis" update keeps w at zero, so only the start needs checking.
        _require_empty_warning(state0)
    cur = _stack(state0)
    sums = [cur.sum(axis=1)]  # the mean of a row is its sum over n, bit for bit
    t = state0.t
    converged = False
    update = _Update(links, params, *_acceptance(model, params))
    for _ in range(max_steps):
        nxt, z = update.step(cur)
        t += 1
        if not _in_bounds(nxt):
            bad = bound_violations(MfState(p=nxt[0], q=nxt[1], w=nxt[2], t=t))
            if enforce and bad:
                _raise_bounds(bad, z, params)
            violations.extend(_require_finite(bad))
        sums.append(nxt.sum(axis=1))
        # The change is measured in the old state's rows, which are not
        # needed again; no reference to them outlives this line.
        change = np.abs(np.subtract(nxt[:3], cur[:3], out=cur[:3]), out=cur[:3]).max()
        cur = nxt
        if change < tol:
            converged = True
            break
    steps = len(sums) - 1
    totals = np.array(sums).T.copy()
    means = totals / state0.n
    return MeanFieldRun(
        trajectory=Trajectory(
            times=np.arange(state0.t, t + 1, dtype=np.int64),
            columns=dict(zip(_COLUMNS, (*means, totals[0]))),
        ),
        final_state=MfState(p=cur[0], q=cur[1], w=cur[2], t=t) if steps else state0,
        converged=converged,
        steps=steps,
        violations=violations,
    )

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

:func:`run` is the one entry point.  It prepares the update once per run
(:class:`_Update`), on a :class:`~netspread.rowops.RowOperator` weighted by
the products ``r_j * beta_ji`` that the linearised system matrix of
:mod:`netspread.spectral` is built from too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, _check_int, _pair_array
from .rowops import _ONE, RowOperator, _coefficient
from .trajectory import Trajectory

__all__ = [
    "NodeParams",
    "LinkProbs",
    "MfState",
    "BoundViolation",
    "MeanFieldBoundsError",
    "ParamRegimeError",
    "MeanFieldRun",
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
        return cls(r=np.full(n, r), delta=delta, gamma=gamma, nu=nu, chi=chi)

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
    operator, weighted by the products ``r_j * beta_ji`` of
    :func:`_transmission` (one 0-d weight when all have one bit pattern, as
    with homogeneous ``r`` and ``beta``; see
    :meth:`~netspread.rowops.RowOperator.weigh`), and the coefficients
    ``delta``, ``gamma``, ``nu``, ``chi``, ``1 - delta``, ``1 - nu`` and
    ``1 - chi - delta``.  A coefficient whose entries all have the same bits
    (as with homogeneous parameters) is kept as one 0-d float64 array: a
    product or difference with it rounds the same two operands at every
    node, so it gives the bits of the array, and numpy applies a 0-d operand
    faster than an array or a Python float.  A state is a
    ``(4, n)`` array of rows ``p``, ``q``, ``w`` and ``dead = 1 - p - q - w``,
    so ``dead`` is computed once per state.  The update owns the buffers a
    step writes besides the next state: ``zeta``, ``1 - zeta`` and two
    temporaries.  A step computes what the lines of the module
    docstring compute with fresh arrays, operation for operation and operand
    for operand.

    Without ``warned`` (a "sis" run, ``nu = 1`` and ``chi = 0``, whose ``w``
    rows are all +0.0) a step leaves the ``w`` row as it is and skips the
    terms it would feed, each of which changes no bit there: ``* nu`` is
    ``* 1.0``, ``- w`` subtracts +0.0, and the new ``w`` would be
    ``miss * 0.0 * q + (1 - delta) * (+0.0)``, a zero plus +0.0, which is
    +0.0 while ``miss`` and ``q`` are finite.  Where they are not, that
    node's new ``p`` is not finite either, and :func:`run` stops at it, so
    no outcome reads the skipped row.  Only ``+ chi * w`` stays, as
    ``+ 0.0``, because it turns a -0.0 in ``q`` into +0.0.  A ``-0.0`` in
    ``w`` would not stay put, so such a start takes the whole update.
    """

    def __init__(self, links: LinkProbs, params: NodeParams,
                 nu: np.ndarray | float, chi: np.ndarray | float,
                 warned: bool = True) -> None:
        self.rows, rb = _transmission(links, params)
        self.rows.weigh(rb)
        self.warned = warned
        (self.delta, self.gamma, self.nu, self.chi, self.keep_p, self.warn, self.keep_w) = map(
            _coefficient, (params.delta, params.gamma, nu, chi, 1.0 - params.delta, 1.0 - nu,
                           1.0 - chi - params.delta))
        self.z, self.miss, self.a, self.b = np.empty((4, params.n))

    def zeta(self, p: np.ndarray) -> np.ndarray:
        """``zeta`` of ``p``, in the update's ``zeta`` buffer."""
        return self.rows.complement_prod(p, out=self.z)

    def step(self, cur: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """Write the state after ``cur`` to ``nxt`` and return the ``zeta`` it
        was computed with; without ``warned``, ``nxt``'s ``w`` row is left
        as it is."""
        p, q, w, dead = cur
        a, b, miss = self.a, self.b, self.miss
        z = self.zeta(p)
        np.subtract(_ONE, z, out=miss)
        # p * keep_p + q * miss * nu
        np.multiply(p, self.keep_p, out=a)
        np.multiply(q, miss, out=b)
        if self.warned:
            np.multiply(b, self.nu, out=b)
        np.add(a, b, out=nxt[0])
        # q * (z - delta) + dead * gamma + chi * w
        np.subtract(z, self.delta, out=a)
        np.multiply(q, a, out=a)
        np.multiply(dead, self.gamma, out=b)
        np.add(a, b, out=a)
        if self.warned:
            np.multiply(self.chi, w, out=b)
            np.add(a, b, out=nxt[1])
            # miss * warn * q + keep_w * w
            np.multiply(miss, self.warn, out=a)
            np.multiply(a, q, out=a)
            np.multiply(self.keep_w, w, out=b)
            np.add(a, b, out=nxt[2])
        else:
            np.add(a, 0.0, out=nxt[1])
        # 1 - p - q - w
        np.subtract(_ONE, nxt[0], out=a)
        np.subtract(a, nxt[1], out=a if self.warned else nxt[3])
        if self.warned:
            np.subtract(a, nxt[2], out=nxt[3])
        return z


def _nonnegative(rows: np.ndarray) -> bool:
    """Whether no entry of the ``(4, n)`` state ``rows`` (``p, q, w`` and
    ``dead = ((1 - p) - q) - w`` as a step computes it) is negative or NaN:
    one ``minimum.reduce`` that, when it passes, makes
    :func:`bound_violations` find nothing.

    Rounding is monotone and a difference is exact near 0, so
    ``fl(x - y) >= 0`` gives ``x >= y``.  ``dead >= 0`` then gives
    ``w <= fl(fl(1 - p) - q) = b``, ``q <= fl(1 - p) = a`` and ``p <= 1``;
    with ``u = 2**-53`` and every component ``>= 0``, ``p + q + w <= p + a +
    (a - q) u <= 1 + 2u + u**2``, and its two rounded additions stay below
    ``1 + 5u``, far inside ``1 + 1e-12``.  Each of ``p, q, w`` lies in ``[0,
    1]``.  A ``-0.0`` compares equal to 0, and the argument holds for it.
    Without ``warned`` the ``w`` row is +0.0 and ``dead`` is ``fl(1 - p) -
    q``, the same argument with ``w = 0``."""
    return bool(np.minimum.reduce(rows, axis=None) >= 0.0)


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


def _raise_bounds(violations: list[BoundViolation], zeta_t: np.ndarray | None,
                  params: NodeParams) -> None:
    """Raise :class:`MeanFieldBoundsError` for ``violations``, with a regime
    note when a node's ``delta`` exceeds its ``zeta_t``; the start of a run
    has no ``zeta_t`` (``None``) and so no note."""
    worst = max(violations, key=lambda v: max(v.value - 1.0, -v.value))
    diag = ""
    risky = [] if zeta_t is None else np.flatnonzero(params.delta > zeta_t)
    if len(risky):
        diag = (
            f" Parameter regime note: delta_i exceeds zeta_i(t) for "
            f"{len(risky)} node(s) (first: node {int(risky[0])}, "
            f"delta={params.delta[risky[0]]:.6g}, zeta={zeta_t[risky[0]]:.6g}), "
            f"so the susceptible update coefficient is negative."
        )
    raise MeanFieldBoundsError(
        f"mean-field step {worst.step} produced {worst.kind}[{worst.node}]="
        f"{worst.value:.6g}, outside [0, 1] beyond tolerance {_BOUND_SLACK}; "
        f"values are not clamped.{diag}",
        violations,
    )


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
    max_steps: int,
    tol: float = 1e-9,
    allow_negative_coefficients: bool = False,
) -> MeanFieldRun:
    """Iterate ``model`` (``"sis"`` or ``"sirs"``) from ``state0``.

    Stops early once the max-norm change of ``(p, q, w)`` over one step falls
    below ``tol``, which must be finite and non-negative; ``max_steps`` must
    be a non-negative integer.  The trajectory records per-step aggregates:
    mean ``p``, mean ``q``, mean ``w``, mean dead fraction, and the expected
    carrier count.  With ``allow_negative_coefficients`` the run records bound
    violations instead of failing; otherwise the first violation, in
    ``state0`` or after a step, aborts the run with a diagnostic (and, for
    ``"sirs"``, parameter sets with ``chi + delta > 1`` are rejected before
    the first step).  A NaN or infinite component, at the start or in a
    reporting run, raises ``ValueError``.  ``"sis"`` is the update with
    ``nu = 1`` and ``chi = 0``, whatever ``params`` say, and starts only from
    an empty warning state.
    One step is ``run(..., max_steps=1, tol=0).final_state``.

    The run builds no :class:`MfState` per step: it steps the prepared
    :class:`_Update` between two states that swap roles each step.  Each
    step first checks bounds with one ``minimum.reduce`` over ``p``, ``q``,
    ``w`` and ``dead`` (:func:`_nonnegative`): when no entry is negative or
    NaN, ``dead >= 0`` bounds ``p + q + w`` by 1 plus a few ulps, so
    :func:`bound_violations` would find nothing.  Otherwise it calls
    :func:`bound_violations`, which finds nothing when every negative entry
    lies within the ``1e-12`` slack.  It records the four row
    sums the trajectory's columns are made from with one ``add.reduce``,
    and measures the change in place in the previous state, which it no
    longer needs, with one ``maximum.reduce``; with ``tol = 0`` it measures
    nothing, since no change is below 0.  The numbers are those of a loop
    that builds a fresh :class:`MfState` every step and takes each ``zeta``
    with a plain product over the CSR rows, bit for bit.
    """
    if model not in ("sis", "sirs"):
        raise ValueError(f"unknown mean-field model {model!r}")
    _check_int("max_steps", max_steps, 0, "non-negative")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    _check_inputs(links.graph, links, params)
    if state0.n != params.n:
        raise ValueError(f"the state covers {state0.n} nodes but the graph has {params.n}")
    if model == "sirs" and not allow_negative_coefficients:
        validate_warning_params(params)
    enforce = not allow_negative_coefficients

    violations = _require_finite(bound_violations(state0))
    if enforce and violations:
        _raise_bounds(violations, None, params)
    if max_steps and model == "sis" and np.any(state0.w != 0.0):
        # The "sis" update keeps w at zero, so only the start needs checking.
        raise ValueError("the sis model requires an empty warning state (w == 0)")
    cur = np.stack([state0.p, state0.q, state0.w, state0.dead])
    nxt = cur.copy()  # a step that skips the w row keeps the start's
    # The mean of a row is its sum over n, bit for bit.
    sums = [np.add.reduce(cur, axis=1)]
    t = state0.t
    converged = False
    warned = model == "sirs" or bool(np.signbit(state0.w).any())
    acceptance = (1.0, 0.0) if model == "sis" else (params.nu, params.chi)
    update = _Update(links, params, *acceptance, warned=warned)
    changed = 3 if warned else 2  # the rows a step can change, p and q first
    for _ in range(max_steps):
        z = update.step(cur, nxt)
        t += 1
        if not _nonnegative(nxt):
            bad = bound_violations(MfState(p=nxt[0], q=nxt[1], w=nxt[2], t=t))
            if enforce and bad:
                _raise_bounds(bad, z, params)
            violations.extend(_require_finite(bad))
        sums.append(np.add.reduce(nxt, axis=1))
        cur, nxt = nxt, cur
        # The change is measured in the old state's rows, which the next
        # step overwrites anyway.
        old = nxt[:changed]
        if tol and np.maximum.reduce(
                np.abs(np.subtract(cur[:changed], old, out=old), out=old), axis=None) < tol:
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

"""Spectral extinction threshold for the mean-field dynamics.

The linearised propagation dynamics are governed by the system matrix

    S[i][i] = 1 - delta_i
    S[i][j] = r_j * beta_ji * gamma_i / (gamma_i + delta_i)   for in-edges j -> i

whose dominant eigenvalue magnitude ``s = |lambda_1(S)|`` is the
survivability score: ``s < 1`` guarantees the expected carrier count decays
exponentially (fast extinction).  For homogeneous symmetric parameters the
score has the closed form ``(1 - delta) + r * beta * gamma / (gamma + delta)
* lambda_1(adjacency)``.

Eigenvalues are estimated by power iteration with a deterministic start
vector (normalised all-ones).  Extinction decisions always iterate on ``S``
itself: its positive diagonal breaks the ``+/- lambda`` eigenvalue pairs that
stall power iteration on bipartite adjacency structure.  The helper for raw
adjacency spectral radii applies the same cure by iterating on ``A + I`` and
shifting the estimate back.

A :class:`SystemMatrix` is prepared once per solve: its off-diagonal entries
are the mean-field update's ``r_j * beta_ji`` (``meanfield._transmission``,
in the graph's degree-bucketed row layout) times the gains, and each
product gathers ``v`` into the row operator's buffer, scales it and takes
the row sums with the operator (see :mod:`netspread.rowops`, which also
gives the summation-tree argument).  The sums land in the operator's row
buffer and reach the matrix's own row-sum buffer through one ``np.take``,
so a product given ``out`` allocates no array of ``n`` values.  Power
iteration keeps ``v``, ``w`` and the residual in buffers of its own; its
dot product and norms are the only BLAS calls.  Values, vectors, residuals
and iteration counts are those of summing each CSR row with numpy and
fresh arrays, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .graphs import Graph
from .meanfield import LinkProbs, NodeParams, _check_inputs, _transmission
from .rowops import RowOperator

__all__ = [
    "SystemMatrix",
    "SpectralResult",
    "SurvivabilityResult",
    "ThresholdResult",
    "PowerIterationError",
    "build_system_matrix",
    "power_iteration",
    "adjacency_spectral_radius",
    "survivability_score",
    "homogeneous_threshold",
]

CRITICAL_BAND = 1e-3


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SpectralResult:
    """Converged eigenvalue estimate.

    ``value`` is the eigenvalue magnitude, ``vector`` the unit eigenvector
    estimate (oriented so its largest-magnitude entry is positive), and
    ``residual`` the final ``||M v - lambda v||``.
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class SurvivabilityResult:
    """Survivability score with its threshold classification.

    ``vector`` is the dominant eigenvector of the system matrix that the
    score was computed from (unit norm, largest entry positive).
    """

    score: float
    fast_extinction: bool
    critical: bool
    residual: float
    vector: np.ndarray

    @property
    def status(self) -> str:
        """``"true"``/``"false"``/``"critical"`` for reporting."""
        if self.critical:
            return "critical"
        return "true" if self.fast_extinction else "false"


@dataclass(frozen=True)
class ThresholdResult:
    """Closed-form homogeneous threshold, in both published variants.

    ``value`` is the printed form ``gamma / (delta * (gamma + delta)) *
    lambda1``; ``rate_scaled_value`` additionally multiplies by ``r * beta``.
    Neither is silently corrected; ``fast_extinction`` follows the printed
    form's comparison with 1.
    """

    value: float
    fast_extinction: bool
    rate_scaled_value: float
    rate_scaled_fast_extinction: bool


@dataclass(frozen=True)
class SystemMatrix:
    """Sparse system matrix: a dense diagonal plus one off-diagonal entry per
    CSR entry of a graph, stored in the layout of the row operator ``rows``.

    ``data[k]`` is the entry at layout position ``k``: column
    ``rows.columns[k]`` of the row ``rows.layout.spread(np.arange(n))[k]``.
    Products reuse the operator's buffers, so a matrix serves one thread at
    a time.
    """

    n: int
    diag: np.ndarray
    rows: RowOperator
    data: np.ndarray

    @cached_property
    def _sums(self) -> np.ndarray:
        """Buffer for the row sums, reused by every product: power iteration
        calls ``matvec`` hundreds of times."""
        return np.empty(self.n)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``S v``, written to ``out`` or to a fresh array: ``diag * v`` plus
        each row's sum of ``data * v[column]``.  Rows without entries add
        -0.0, which changes no value, so they keep ``diag * v`` bit for bit."""
        contrib = self.rows.gather(v)
        np.multiply(self.data, contrib, out=contrib)
        sums = self.rows.row_sum(contrib, out=self._sums)
        out = np.multiply(self.diag, v, out=out)
        return np.add(out, sums, out=out)


def build_system_matrix(g: Graph, links: LinkProbs, params: NodeParams) -> SystemMatrix:
    """Assemble the system matrix for ``g`` under the given parameters.

    Rejects any node with ``delta == 0`` (the off-diagonal weight divides by
    ``gamma + delta`` and the score loses its extinction meaning without
    node failure).
    """
    _check_inputs(g, links, params)
    zero = np.flatnonzero(params.delta == 0.0)
    if zero.size:
        raise ValueError(
            f"system matrix requires delta > 0 for every node; "
            f"node {int(zero[0])} has delta = 0"
        )
    # Entry k: in-edge from j = columns[k] into row i; weight r_j * beta_ji * g_i,
    # multiplied left to right, the gains staged in the operator's buffer.
    rows, data = _transmission(links, params)
    gain = params.gamma / (params.gamma + params.delta)
    np.multiply(data, rows.layout.spread(gain, out=rows.buffer), out=data)
    return SystemMatrix(n=g.n, diag=1.0 - params.delta, rows=rows, data=data)


def power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SpectralResult:
    """Dominant-eigenpair estimate for the linear map ``matvec`` on R^n.

    Starts from the normalised all-ones vector.  Convergence requires both
    successive Rayleigh estimates to differ by less than ``tol`` and the
    residual ``||M v - lambda v||`` to fall below ``tol``; non-convergence
    raises :class:`PowerIterationError` carrying the last residual.

    ``matvec`` is passed one buffer on every call, overwritten with the next
    iterate in between, so it must not keep a reference to its argument (a
    matvec that records iterates copies them).  Its result is read before
    the next call, so it may return a buffer it reuses.
    """
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    # v, the residual and (through matvec) w live in buffers reused by every
    # iteration; the arithmetic is that of fresh arrays, operation for
    # operation.
    v = np.full(n, 1.0 / math.sqrt(n))
    scratch = np.empty(n)
    w = matvec(v)
    lam = float(v @ w)
    residual = _residual(w, lam, v, scratch)
    for it in range(1, max_iter + 1):
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            # v is in the kernel: the dominant eigenvalue along the reachable
            # subspace is 0 (e.g. the zero matrix).
            return SpectralResult(value=0.0, vector=v, iterations=it, residual=0.0)
        v = np.divide(w, norm_w, out=v)
        w = matvec(v)
        lam_next = float(v @ w)
        residual = _residual(w, lam_next, v, scratch)
        if abs(lam_next - lam) < tol and residual < tol:
            peak = np.argmax(np.abs(v))
            if v[peak] < 0:
                v = -v
            return SpectralResult(
                value=abs(lam_next), vector=v, iterations=it, residual=residual
            )
        lam = lam_next
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e}, tol {tol:.3e})",
        iterations=max_iter,
        residual=residual,
    )


def _residual(w: np.ndarray, lam: float, v: np.ndarray, scratch: np.ndarray) -> float:
    """``||w - lam * v||``, computed in ``scratch``."""
    return float(np.linalg.norm(np.subtract(w, np.multiply(lam, v, out=scratch),
                                            out=scratch)))


def _solve(m: SystemMatrix) -> SpectralResult:
    """Power iteration on ``m``, every product written to one buffer."""
    w = np.empty(m.n)
    return power_iteration(lambda v: m.matvec(v, w), m.n)


def adjacency_spectral_radius(g: Graph) -> SpectralResult:
    """Spectral radius of the adjacency matrix of ``g``.

    Iterates on ``A + I`` (same eigenvectors, spectrum shifted by +1) so that
    bipartite ``+/- lambda`` pairs cannot stall convergence, then shifts the
    eigenvalue estimate back.  The reported residual is identical for both
    matrices.
    """
    shifted = SystemMatrix(n=g.n, diag=np.ones(g.n), rows=RowOperator(g.row_layout),
                           data=np.ones(g.row_layout.size))
    res = _solve(shifted)
    return SpectralResult(
        value=max(res.value - 1.0, 0.0),
        vector=res.vector,
        iterations=res.iterations,
        residual=res.residual,
    )


def survivability_score(
    g: Graph,
    links: LinkProbs,
    params: NodeParams,
    critical_band: float = CRITICAL_BAND,
) -> SurvivabilityResult:
    """Survivability score ``s = |lambda_1(S)|`` with its classification.

    ``fast_extinction`` is ``s < 1``; scores within ``critical_band`` of 1
    are additionally flagged critical (indeterminate in practice).
    """
    res = _solve(build_system_matrix(g, links, params))
    score = res.value
    return SurvivabilityResult(
        score=score,
        fast_extinction=score < 1.0,
        critical=abs(score - 1.0) <= critical_band,
        residual=res.residual,
        vector=res.vector,
    )


def homogeneous_threshold(
    delta: float, gamma: float, r: float, beta: float, lambda1: float
) -> ThresholdResult:
    """Homogeneous closed-form threshold, published form and scaled variant.

    The printed form is ``gamma / (delta * (gamma + delta)) * lambda1``; the
    variant multiplies in the transmission rates, ``r * beta * gamma /
    (delta * (gamma + delta)) * lambda1``.  Both are reported as-is.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if gamma < 0 or r < 0 or beta < 0 or lambda1 < 0:
        raise ValueError("gamma, r, beta and lambda1 must be non-negative")
    base = gamma / (delta * (gamma + delta)) * lambda1
    scaled = r * beta * base
    return ThresholdResult(
        value=base,
        fast_extinction=base < 1.0,
        rate_scaled_value=scaled,
        rate_scaled_fast_extinction=scaled < 1.0,
    )

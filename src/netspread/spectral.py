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
vector (normalised all-ones), to the tolerance ``TOL`` within ``MAX_ITER``
iterations.  Extinction decisions always iterate on ``S`` itself.  Its
diagonal ``1 - delta_i`` is positive only when ``delta_i < 1``; a positive
diagonal breaks the ``+/- lambda`` eigenvalue pairs that stall power
iteration on bipartite adjacency structure.  With ``delta = 1`` at every
node the diagonal is 0, and on a bipartite graph that is not regular (a
star, say) the iteration stalls and raises :class:`PowerIterationError`.
The helper for raw adjacency spectral radii iterates on ``A + I`` and shifts
the estimate back, so it cannot stall this way.

A :class:`SystemMatrix` is prepared once per solve: its off-diagonal entries
are the mean-field update's ``r_j * beta_ji`` (``meanfield._transmission``,
in the graph's degree-bucketed row layout) times the gains, and they are the
weights of its row operator (see :mod:`netspread.rowops`, which also gives
the summation-tree argument).  When each entry depends only on its column,
as for homogeneous ``beta`` with homogeneous gains, whatever ``r``, and for
the ``A + I`` of the adjacency radius, a product scales ``v`` per node and
gathers the scaled values into the operator's buffer; otherwise it gathers
``v`` and scales each entry.  Either way it takes the row sums with the
operator, which land in the matrix's own row-sum buffer, so a product
allocates no array of ``n`` values.  Power iteration keeps ``v``, ``w`` and
the residual in buffers of its own, and computes the residual only on
iterations whose eigenvalue estimates already agree to ``TOL``; its dot
products are the only BLAS calls.  It takes each norm as
``math.sqrt(x.dot(x))``, which is the code path of ``np.linalg.norm`` for a
contiguous 1-D float64 array (numpy 1.24 to 2.4), as every product here
is, without its Python wrapper.  Values,
vectors, residuals and iteration counts are those of summing each CSR row
with numpy and ``np.linalg.norm`` on fresh arrays, bit for bit.
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
    "PowerIterationError",
    "build_system_matrix",
    "power_iteration",
    "adjacency_spectral_radius",
    "survivability_score",
]

CRITICAL_BAND = 1e-3
# Power iteration stops once successive eigenvalue estimates and the residual
# both fall below TOL, and raises after MAX_ITER iterations.
TOL = 1e-10
MAX_ITER = 100_000


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
    score was computed from (unit norm, largest entry positive), and
    ``iterations`` the power-iteration count of :class:`SpectralResult`.
    """

    score: float
    fast_extinction: bool
    critical: bool
    residual: float
    vector: np.ndarray
    iterations: int

    @property
    def status(self) -> str:
        """``"true"``/``"false"``/``"critical"`` for reporting."""
        if self.critical:
            return "critical"
        return "true" if self.fast_extinction else "false"


@dataclass(frozen=True)
class SystemMatrix:
    """Sparse system matrix: a dense diagonal plus one off-diagonal entry per
    CSR entry of a graph, the weights of the row operator ``rows``.

    The entry at layout position ``k`` sits in column ``rows.columns[k]`` of
    the row that :meth:`~netspread.rowops.RowLayout.spread` repeats at
    position ``k``; its value is ``rows.weights[k]``, or
    ``rows.node_weights[rows.columns[k]]`` on the per-node path.  Products
    reuse the operator's buffers, so a matrix serves one thread at a time.
    """

    n: int
    diag: np.ndarray
    rows: RowOperator

    @cached_property
    def _sums(self) -> np.ndarray:
        """Buffer for the row sums, reused by every product: power iteration
        calls ``matvec`` hundreds of times."""
        return np.empty(self.n)

    def matvec(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``S v``, written to ``out``: ``diag * v`` plus each row's sum of
        its entries times ``v[column]``.  Rows without entries add -0.0,
        which changes no value, so they keep ``diag * v`` bit for bit."""
        sums = self.rows.weighted_sum(v, out=self._sums)
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
    rows.weigh(data)
    return SystemMatrix(n=g.n, diag=1.0 - params.delta, rows=rows)


def power_iteration(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> SpectralResult:
    """Dominant-eigenpair estimate for the linear map ``matvec`` on R^n.

    Starts from the normalised all-ones vector.  Convergence requires both
    successive Rayleigh estimates to differ by less than ``TOL`` and the
    residual ``||M v - lambda v||`` to fall below ``TOL``; the residual is
    computed only when the estimates agree.  Non-convergence within
    ``MAX_ITER`` iterations raises :class:`PowerIterationError` carrying the
    residual of the last iterate.

    ``matvec`` is passed one buffer on every call, overwritten with the next
    iterate in between, so it must not keep a reference to its argument (a
    matvec that records iterates copies them).  Its result is read before
    the next call, so it may return a buffer it reuses.  Norms are
    ``math.sqrt(w.dot(w))``, the bits of ``np.linalg.norm(w)`` for the
    contiguous float64 array a matvec returns.
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
    for it in range(1, MAX_ITER + 1):
        norm_w = math.sqrt(w.dot(w))
        if norm_w == 0.0:
            # v is in the kernel: the dominant eigenvalue along the reachable
            # subspace is 0 (e.g. the zero matrix).
            return SpectralResult(value=0.0, vector=v, iterations=it, residual=0.0)
        v = np.divide(w, norm_w, out=v)
        w = matvec(v)
        lam_next = float(v @ w)
        # The residual decides only once the estimates agree.
        if abs(lam_next - lam) < TOL:
            residual = _residual(w, lam_next, v, scratch)
            if residual < TOL:
                peak = np.argmax(np.abs(v))
                if v[peak] < 0:
                    v = -v
                return SpectralResult(
                    value=abs(lam_next), vector=v, iterations=it, residual=residual
                )
        lam = lam_next
    residual = _residual(w, lam, v, scratch)
    raise PowerIterationError(
        f"power iteration did not converge in {MAX_ITER} iterations "
        f"(last residual {residual:.3e}, tol {TOL:.3e})",
        iterations=MAX_ITER,
        residual=residual,
    )


def _residual(w: np.ndarray, lam: float, v: np.ndarray, scratch: np.ndarray) -> float:
    """``||w - lam * v||``, computed in ``scratch``."""
    diff = np.subtract(w, np.multiply(lam, v, out=scratch), out=scratch)
    return math.sqrt(diff.dot(diff))


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
    rows = RowOperator(g.row_layout)
    rows.weigh(np.ones(g.row_layout.size))
    shifted = SystemMatrix(n=g.n, diag=np.ones(g.n), rows=rows)
    res = _solve(shifted)
    return SpectralResult(
        value=max(res.value - 1.0, 0.0),
        vector=res.vector,
        iterations=res.iterations,
        residual=res.residual,
    )


def survivability_score(
    g: Graph, links: LinkProbs, params: NodeParams
) -> SurvivabilityResult:
    """Survivability score ``s = |lambda_1(S)|`` with its classification.

    ``fast_extinction`` is ``s < 1``; scores within ``CRITICAL_BAND`` of 1
    are additionally flagged critical (indeterminate in practice).
    """
    res = _solve(build_system_matrix(g, links, params))
    score = res.value
    return SurvivabilityResult(
        score=score,
        fast_extinction=score < 1.0,
        critical=abs(score - 1.0) <= CRITICAL_BAND,
        residual=res.residual,
        vector=res.vector,
        iterations=res.iterations,
    )


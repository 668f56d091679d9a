"""Prepared row reductions over a CSR adjacency.

Both the mean-field step and power iteration reduce one value per CSR entry
to one value per row: ``zeta`` is a row product, the system-matrix matvec a
row sum.  :class:`RowLayout` orders a graph's CSR entries once so that
these reductions run as a few contiguous vector operations, and
:class:`RowOperator` pairs the layout with a gather buffer and the two
reductions.  Both reductions give the bits of ``np.multiply.reduceat`` and
``np.add.reduceat`` over the CSR rows.  They write their results, in layout
row order, to one array the operator owns and place them in row order with
one ``np.take``: no bucket scatters its results on its own.  A layout of one
piece with no empty rows is in the CSR's row order and reduces straight
into ``out`` (the 32x32 torus is one bucket, the 1000-node power-law graph
all tail).  An operator builds its reduction plan once: the views of its
gather buffer that each bucket and the tail reduce, and the views of the
row buffer they fill, so that a product slices nothing.

Both callers weight entry ``k`` by a fixed ``weights[k]`` before they
reduce: the matvec sums ``weights * v[column]``, ``zeta`` multiplies
``1 - weights * p[column]``.  :meth:`RowOperator.weigh` fixes the weights
once, in one of two forms.  Weights that all have one bit pattern
(homogeneous rates, whatever the graph: every figure, every CLI run and the
``A + I`` of the adjacency radius) are one 0-d weight ``f``: the operator
scales ``v`` on ``n`` values and gathers ``f * v``, since ``fl(f * v_j)``
rounds the same two operands as ``fl(weights[k] * v_j)`` and ``1 - x`` is
elementwise, and numpy applies a 0-d operand faster than an array.  Any
other weights are kept one per entry, and a product gathers ``v`` and
scales each entry.

The layout is bucket-major and column-major.  Rows of equal in-degree ``d``
form a bucket when there are at least ``_MIN_BUCKET_ROWS`` of them and
``d <= _MAX_BUCKET_DEGREE``; a bucket of ``m`` rows stores entry ``c`` of
every row as one contiguous block of ``m`` values, so its ``(d, m)`` view is
reduced down the columns.  The buckets come first, in degree order; the
rows left over (rare large degrees, or degrees shared by too few rows) follow
in CSR order and are reduced with ``reduceat``.  Rows with no entries get the
exact identity of the reduction: 1.0 for the product, -0.0 for the sum
(``x + -0.0 == x`` for every ``x``, signed zeros included).

The bucket threshold trades numpy call overhead against ``reduceat``'s cost
per row: a bucket costs a few calls whatever its size, ``reduceat`` about
20 ns per row.  ``_MIN_BUCKET_ROWS`` is a measured constant, not a setting;
see its comment.

Why the bits match:

* ``multiply.reduceat`` multiplies a segment left to right from its first
  entry, ``((a0 * a1) * a2) ...``; a bucket multiplies its block rows in the
  same order, one vector multiplication per row after the first.
* ``add.reduceat`` computes a segment as ``a0 + pairwise(a1 .. a_{d-1})``.
  numpy's pairwise sum of ``L`` values is, for ``L < 8``, the running sum
  ``((s + a1) + a2) ...`` from a start ``s`` of 0.0 or -0.0, depending on
  the numpy release (``_SHORT_SUM_FROM_FIRST``).  For ``8 <= L <= 128`` it
  is eight strided accumulators ``r_j = a_{1+j} + a_{9+j} + ...``, combined
  as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and followed by
  the ``L % 8`` remaining values one at a time.  Longer segments split
  recursively, so ``_MAX_BUCKET_DEGREE`` keeps them out of the buckets.
  :meth:`RowOperator.row_sum` builds the same tree with one vector
  operation per node of it, ``d - 1`` in all for a bucket of degree ``d``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["RowLayout", "RowOperator"]

# Fewest rows of one degree that form a bucket.  Timed against 64, 128, 256
# and no buckets on a 2-core x86 box (row product / row sum per call): the
# 10^5-node power-law graph takes 0.89 / 0.97 ms (reduceat: 2.7 / 2.7 ms),
# the 5000-node one 74 / 70 us (113 / 122 us), the 32x32 torus (one bucket)
# 7.5 / 8.7 us (20 / 21 us); no smaller value was faster on any of them.  The
# 1000-node power-law graph of the figures has no degree this common, so it
# stays on reduceat, which buckets did not beat there; nor did one block of
# its rows of degree <= W padded with 1.0 (complement_prod with its gather and
# placing: 16.4-16.8 us today, 15.0-16.6 us for W = 3-5, 19.2-20.0 us for
# W = 8, whose 8631 slots hold 3994 entries), so it has no padded block.
_MIN_BUCKET_ROWS = 512
# Largest bucket degree: a0 plus one block of numpy's pairwise sum, which
# handles at most 128 values without splitting.
_MAX_BUCKET_DEGREE = 129
# numpy's pairwise sum starts a run of fewer than 8 values from 0.0 in older
# releases and from -0.0 in newer ones, which keeps the sign of a sum of
# negative zeros.  Since -0.0 + x == x, the newer run may start from its
# first value.  The start is read off numpy itself: a segment [-0.0, -0.0]
# sums to -0.0 + (start + -0.0), which is the start.
_SHORT_SUM_FROM_FIRST = bool(np.signbit(np.add.reduceat(np.array([-0.0, -0.0]), [0])[0]))


# 1.0 as a 0-d float64 array: an operand that gives every element the bits
# the float 1.0 would.  numpy 2 takes a 0-d array through its array path and
# a float through scalar promotion; on a 2-vCPU x86 VM (numpy 2.4),
# np.subtract(1.0, x, out=y) on 1024 values took 1.48 us a call, against
# 1.14 us with a 0-d operand.
_ONE = np.array(1.0)


def _coefficient(values) -> np.ndarray:
    """``values`` as one 0-d float64 array when every entry has the same
    bits (``-0.0`` and ``+0.0`` differ), otherwise as an array: a product
    or difference with the 0-d array rounds the same two operands at every
    element, so it gives the bits of the array, and numpy applies a 0-d
    operand faster than an array or a Python float."""
    flat = np.asarray(values, dtype=float).reshape(-1)
    if flat.size and (flat.view(np.int64) == flat[:1].view(np.int64)).all():
        return np.array(flat[0])
    return flat


class RowLayout:
    """Degree-bucketed order of the entries of a CSR ``(indptr, indices)``.

    :meth:`permute` puts any CSR-aligned array in layout order.  ``buckets``
    lists ``(d, start, m, rows)`` for each bucket of ``m`` rows of degree
    ``d``: layout positions ``start .. start + d * m`` hold its ``(d, m)``
    block, entry ``c`` of every row in block row ``c``.  The remaining
    non-empty rows ``tail_rows`` follow from ``tail_start``, in CSR order,
    with ``reduceat`` offsets ``tail_offsets`` relative to ``tail_start``;
    ``empty_rows`` have no entries.  Row sets are ascending index arrays.

    The non-empty rows in layout order (the rows of each bucket, then the
    tail rows) number ``reduced_size``; ``placing[i]`` is the position of
    row ``i`` in that order, and 0 for an empty row.

    The layout holds no CSR-sized array of its own (``indptr`` and
    ``indices`` are the graph's): the permutation is applied bucket by bucket
    when it is needed, which is once per :class:`RowOperator`.  A graph
    caches its layout, so the scores and mean-field runs on it share one.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        degrees = np.diff(indptr)
        top = _MAX_BUCKET_DEGREE + 1
        counts = np.bincount(degrees, minlength=top)
        bucketed = np.zeros(len(counts), dtype=bool)
        bucketed[1:top] = counts[1:top] >= _MIN_BUCKET_ROWS
        in_bucket = bucketed[degrees]
        # Bucket rows grouped by degree, each group in row order.
        by_degree = np.flatnonzero(in_bucket)
        by_degree = by_degree[np.argsort(degrees[by_degree], kind="stable")]
        buckets = []
        start = first = 0
        for d in np.flatnonzero(bucketed).tolist():
            m = int(counts[d])
            buckets.append((d, start, m, by_degree[first:first + m]))
            start += d * m
            first += m
        tail = np.flatnonzero(~in_bucket & (degrees > 0))
        tail_degrees = degrees[tail]
        tail_offsets = np.zeros(len(tail), dtype=np.int64)
        np.cumsum(tail_degrees[:-1], out=tail_offsets[1:])

        self.n = len(indptr) - 1
        self.size = len(indices)
        self.indptr = indptr
        self.indices = indices
        self.buckets = tuple(buckets)
        self.tail_start = start
        self.tail_rows = tail
        self.tail_degrees = tail_degrees
        self.tail_offsets = tail_offsets
        self.empty_rows = np.flatnonzero(degrees == 0)
        self.reduced_size = self.n - len(self.empty_rows)
        # Left writeable, as RowOperator.columns is.
        self.placing = np.zeros(self.n, dtype=np.intp)
        self.placing[np.concatenate([by_degree, tail])] = np.arange(self.reduced_size)

    def permute(self, csr_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``csr_values`` (one value per CSR entry) in layout order."""
        if out is None:
            out = np.empty(self.size, dtype=csr_values.dtype)
        for d, start, m, rows in self.buckets:
            positions = self.indptr[rows] + np.arange(d)[:, None]
            np.take(csr_values, positions, out=out[start:start + d * m].reshape(d, m),
                    mode="clip")
        # Tail entry k sits at CSR position k + (start of its row - its offset).
        positions = np.repeat(self.indptr[:-1][self.tail_rows] - self.tail_offsets,
                              self.tail_degrees)
        positions += np.arange(len(positions))
        np.take(csr_values, positions, out=out[self.tail_start:], mode="clip")
        return out

    def spread(self, row_values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each row's entry of ``row_values``, repeated at every layout
        position of that row, in ``out``."""
        for d, start, m, rows in self.buckets:
            out[start:start + d * m].reshape(d, m)[:] = row_values[rows]
        out[self.tail_start:] = np.repeat(row_values[self.tail_rows], self.tail_degrees)
        return out


class RowOperator:
    """Row reductions over one :class:`RowLayout`, with the gather index
    ``columns`` (the CSR columns in layout order), a CSR-sized buffer and a
    buffer of one value per non-empty row, both its own, so operators on the
    same graph never share scratch memory.

    :meth:`row_sum` and :meth:`row_prod` reduce the CSR-sized buffer, which
    holds values in layout order, and write one value per CSR row to
    ``out``.  Each bucket's column reduction and the tail's ``reduceat``
    land in the row buffer, in layout row order, and one ``np.take`` through
    the layout's ``placing`` puts them in row order; a layout of one piece
    with no empty rows reduces into ``out`` itself.
    The views of the buffer that a reduction reads (each bucket's ``(d, m)``
    block and the tail) and the views of the row buffer they fill form the
    operator's reduction plan, built once here.  Between products the
    buffer is free scratch space of layout size.

    After :meth:`weigh`, :meth:`weighted_sum` and :meth:`complement_prod`
    fill the buffer with weighted entries and reduce it through the plan.
    ``node_weights`` is the one 0-d weight of every entry when all have one
    bit pattern, and ``weights`` the weights of the entries otherwise; the
    other is None.
    """

    def __init__(self, layout: RowLayout) -> None:
        self.layout = layout
        # Left writeable: np.take copies a read-only index array on every
        # call, a CSR-sized allocation per product.
        self.columns = layout.permute(layout.indices)
        self.buffer = np.empty(layout.size)
        # At least one value, so that an edgeless layout, whose rows all
        # get the identity, has one to take.
        self.reduced = np.empty(max(layout.reduced_size, 1))
        self.weights = self.node_weights = self.scaled = None
        # The reduction plan: each bucket's (d, m) view of the buffer, then
        # the tail's, each with the view of the row buffer it fills.
        self._plan, first = [], 0
        for d, at, m, _ in layout.buckets:
            self._plan.append((self.buffer[at:at + d * m].reshape(d, m),
                               self.reduced[first:first + m]))
            first += m
        if layout.tail_start < layout.size:
            self._plan.append((self.buffer[layout.tail_start:], self.reduced[first:]))
        # One bucket or all tail, with no empty rows, is in row order: a
        # bucket's rows and the tail's ascend.  It reduces straight into the
        # caller's array.
        self._direct = len(self._plan) == 1 and not len(layout.empty_rows)

    def weigh(self, weights: np.ndarray) -> None:
        """Fix the weights of the entries from one value per entry, in
        layout order, or one 0-d value for all: one 0-d node weight, with a
        buffer of ``n`` values for the scaled vector, when all have one bit
        pattern, otherwise ``weights`` itself."""
        node = _coefficient(weights)
        self.weights, self.node_weights = (None, node) if node.ndim == 0 else (weights, None)
        self.scaled = None if self.weights is not None else np.empty(self.layout.n)

    def weighted_sum(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-row sums of ``weights * v[columns]``: the off-diagonal part of
        a matvec."""
        self._terms(v, False)
        return self.row_sum(out)

    def complement_prod(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-row products of ``1 - weights * v[columns]``: ``zeta``."""
        self._terms(v, True)
        return self.row_prod(out)

    def _terms(self, v: np.ndarray, complement: bool) -> None:
        """``weights * v[columns]``, or ``1 -`` that, into the buffer: scaled
        by the 0-d weight and gathered, or gathered and scaled per entry.
        Columns lie in ``[0, n)``, so ``"clip"`` clips nothing; the default
        ``"raise"`` would copy through a second buffer."""
        if self.node_weights is not None:
            terms = np.multiply(self.node_weights, v, out=self.scaled)
        else:
            terms = v.take(self.columns, out=self.buffer, mode="clip")
            np.multiply(self.weights, terms, out=terms)
        if complement:
            np.subtract(_ONE, terms, out=terms)
        if terms is not self.buffer:
            terms.take(self.columns, out=self.buffer, mode="clip")

    def row_prod(self, out: np.ndarray) -> np.ndarray:
        """Per-row products of the buffer, as ``np.multiply.reduceat``."""
        return self._reduce(_column_prod, np.multiply, out, 1.0)

    def row_sum(self, out: np.ndarray) -> np.ndarray:
        """Per-row sums of the buffer, as ``np.add.reduceat``."""
        return self._reduce(_column_sum, np.add, out, -0.0)

    def _reduce(self, columns, ufunc, out, identity):
        """The plan's buckets through ``columns``, its tail through
        ``ufunc.reduceat``, both into the row buffer (or, for a layout of
        one piece with no empty rows, into ``out``); then row order, and
        ``identity`` for empty rows."""
        lay = self.layout
        for view, target in self._plan:
            if view.ndim == 2:
                columns(view, out if self._direct else target)
            else:
                ufunc.reduceat(view, lay.tail_offsets, out=out if self._direct else target)
        if not self._direct:
            self.reduced.take(lay.placing, out=out, mode="clip")
            out[lay.empty_rows] = identity
        return out


def _column_prod(block: np.ndarray, out: np.ndarray) -> None:
    """Products down the columns of a ``(d, m)`` bucket, left to right, into
    ``out``: ``d - 1`` multiplications, the first straight into ``out``.  A
    bucket of degree 1 is multiplied by 1.0, which keeps every bit but a
    signalling NaN's."""
    np.multiply(block[0], block[1] if len(block) > 1 else _ONE, out=out)
    for row in block[2:]:
        np.multiply(out, row, out=out)


def _column_sum(block: np.ndarray, out: np.ndarray) -> None:
    """Sums down the columns of a ``(d, m)`` bucket in ``add.reduceat``'s
    tree, ``a0 + pairwise(a1 .. a_{d-1})`` (see the module
    docstring), into ``out``: ``d - 1`` additions, one more on numpy releases
    whose short pairwise sum starts from 0.0."""
    rest = block[1:]
    if len(rest) == 0:
        out[:] = block[0]
        return
    if len(rest) < 8:
        acc = rest[0] if _SHORT_SUM_FROM_FIRST else np.add(0.0, rest[0], out=out)
        more = rest[1:]
    else:
        k = len(rest) // 8
        lanes = rest[:8 * k].reshape(k, 8, -1)  # lane j of block row i: a_{1+8i+j}
        r = lanes[0]
        if k > 1:
            r = np.add(lanes[0], lanes[1])
            for lane in lanes[2:]:
                np.add(r, lane, out=r)
        pairs = np.add(r[0::2], r[1::2])
        quads = np.add(pairs[0::2], pairs[1::2])
        acc = np.add(quads[0], quads[1], out=out)
        more = rest[8 * k:]
    for row in more:
        acc = np.add(acc, row, out=out)
    np.add(block[0], acc, out=out)

"""Graph substrates for propagation experiments.

Provides an immutable undirected simple graph type, four generator families
(binomial/Erdos-Renyi, preferential-attachment power law, exponential-degree
configuration model, 4-regular torus lattice) and a plain text edge-list
format for persistence.

A :class:`Graph` stores its node count and the CSR adjacency the dynamics
read; its sorted edge array is read off the CSR when asked for.

All generators are deterministic for a fixed seed: the same seed produces the
same edge set in any process.

:func:`gen_powerlaw` draws as one ``rng.integers(0, high_t)`` call per
attachment attempt would, over the ``high_t = m(m+1) + 2m(t - m - 1)``
degree units before node ``t``.  Nodes are drawn a segment at a time, as
arrays, which read a unit's node off its position instead of a list; the
rare node whose words might be rejected, or whose candidates repeat, is
drawn one attempt at a time.
"""
from __future__ import annotations

from collections.abc import Sized
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .rowops import RowLayout
from .trajectory import _write_text

__all__ = [
    "Graph",
    "EdgeListFormatError",
    "gen_binomial",
    "gen_powerlaw",
    "gen_exponential",
    "gen_lattice4",
    "sample_exponential_degrees",
    "save_edge_list",
    "load_edge_list",
]


class EdgeListFormatError(ValueError):
    """Raised when an edge-list file violates the on-disk format."""


# Pairs from a Python iterable are converted this many at a time: numpy
# turns a list of tuples into an array through temporaries more than twice
# the size of the result (24 MB beside the 9.6 MB result for the 6 * 10^5
# links of a 10^5-node link table); one chunk's take about 1 MB.
_PAIR_CHUNK = 1 << 14
# Largest node count: it keeps the keys u * n + v of the constructor and of
# csr_positions within int64.
_MAX_NODES = 1 << 31


def _check_int(name: str, value: object, low: int, wording: str = "") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a Python or
    numpy integer (not a bool) of at least ``low``; the range error says
    ``wording``, by default "at least <low>"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be {wording or f'at least {low}'}, got {value!r}")


def _pair_array(pairs) -> np.ndarray:
    """An ``(m, 2)`` int64 array from an iterable of pairs or an array, for
    reading only: an int64 array comes back as a plain-ndarray view of
    itself, not as a copy."""
    if isinstance(pairs, np.ndarray):
        if pairs.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        return _int_pairs(np.asarray(pairs)).astype(np.int64, copy=False)
    if not isinstance(pairs, Sized):
        pairs = list(pairs)
    out = np.empty((len(pairs), 2), dtype=np.int64)
    it = iter(pairs)
    for start in range(0, len(out), _PAIR_CHUNK):
        out[start:start + _PAIR_CHUNK] = _int_pairs(np.asarray(list(islice(it, _PAIR_CHUNK))))
    return out


def _int_pairs(arr: np.ndarray) -> np.ndarray:
    """``arr``, checked to be an ``(m, 2)`` integer array."""
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError(f"edges must be integer pairs (u, v), got {arr.dtype} "
                         f"array of shape {arr.shape}")
    return arr


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


class Graph:
    """Undirected simple graph on nodes ``0 .. n-1``; no self-loops.

    Stored state: ``n`` and ``csr``, the adjacency as read-only
    ``(indptr, indices)`` with each row's neighbours in ascending order, so
    each edge is two entries.  ``edges`` may be any iterable of pairs
    ``(u, v)`` with ``u < v``, or an array of them; repeats collapse.
    ``edge_array``, ``degrees``, ``transpose`` and ``row_layout`` are read
    off the CSR when first asked for and cached.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        _check_int("node count n", n, 1)
        if n > _MAX_NODES:
            raise ValueError(f"node count n must be at most 2**31, got {n!r}")
        arr = _pair_array(edges)
        u, v = arr[:, 0], arr[:, 1]
        bad = np.flatnonzero(~((0 <= u) & (u < v) & (v < n)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"edge ({u[i]}, {v[i]}) violates 0 <= u < v < {n}")
        keys = u * n + v
        if not np.all(keys[1:] > keys[:-1]):
            keys = np.sort(keys)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            arr = np.column_stack((keys // n, keys % n))
        # Row r lists its smaller neighbours (edges (u, r), in u order) and
        # then its larger ones (edges (r, v), in v order): a stable sort by
        # row of [lower halves; upper halves] keeps every row sorted.  The
        # build is a graph's peak of memory, so each temporary goes as soon
        # as it is spent.
        del u, v, keys
        rows = np.concatenate((arr[:, 1], arr[:, 0]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        order = np.argsort(rows, kind="stable")
        del rows
        indices = np.concatenate((arr[:, 0], arr[:, 1]))[order]
        self.n = n
        self.csr = (_read_only(indptr), _read_only(indices))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalising each pair to ``(min, max)`` order."""
        arr = _pair_array(pairs)
        loops = np.flatnonzero(arr[:, 0] == arr[:, 1])
        if loops.size:
            u, v = arr[loops[0]]
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        return cls(n=n, edges=np.sort(arr, axis=1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return other is self or (self.n == other.n and all(
            np.array_equal(a, b) for a, b in zip(self.csr, other.csr)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, num_edges={self.num_edges})"

    @property
    def num_edges(self) -> int:
        return len(self.csr[1]) // 2

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Each edge once as ``(u, v)``, ``u < v``, in lexicographic order: a
        read-only ``(m, 2)`` int64 array of the CSR entries above the
        diagonal, which the CSR already holds in that order."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = self.csr[1] > rows
        return _read_only(np.column_stack((rows[upper], self.csr[1][upper])))

    @cached_property
    def transpose(self) -> np.ndarray:
        """CSR permutation to the reversed entries: if position ``k`` holds
        column ``j`` of row ``i``, ``transpose[k]`` holds column ``i`` of
        row ``j``.  A stable sort by column orders the (row-sorted) entries
        by (column, row), the CSR order of their reverses."""
        return _read_only(np.argsort(self.csr[1], kind="stable"))

    @cached_property
    def row_layout(self) -> RowLayout:
        """The CSR entries in the degree-bucketed order of the row
        reductions (see :mod:`netspread.rowops`)."""
        return RowLayout(*self.csr)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.diff(self.csr[0]))

    @cached_property
    def _csr_keys(self) -> np.ndarray:
        """Row-major keys ``row * n + col`` of the CSR entries, ascending."""
        keys = np.repeat(np.arange(self.n), self.degrees)
        keys *= self.n  # in place: one CSR-sized array at a time, not three
        keys += self.csr[1]
        return keys

    def csr_positions(self, rows, cols) -> np.ndarray:
        """CSR position of each entry ``(rows[i], cols[i])``, or -1 where it
        is not an edge (including out-of-range node ids).  Keys are formed
        only for ids in ``0 .. n-1``, so an out-of-range pair such as
        ``(-1, 1)`` cannot alias ``(0, n - 1)``."""
        keys, n = self._csr_keys, self.n
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        inside = (0 <= rows) & (rows < n) & (0 <= cols) & (cols < n)
        if not len(keys):
            return np.full(rows.shape, -1)
        want = np.where(inside, rows * n + cols, -1)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(inside & (keys[pos] == want), pos, -1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.csr_positions(u, v) >= 0)

    def remove_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Return a copy with the given edges removed (edges must exist).

        The copy's CSR is this graph's with the two entries of each removed
        edge deleted: deleting keeps every row sorted, so nothing is
        re-sorted or re-checked.
        """
        arr = np.sort(_pair_array(pairs), axis=1)
        u, v = arr[:, 0], arr[:, 1]
        # Both entries of a pair are missing or neither, so the first miss
        # lies among the (u, v) entries.
        found = self.csr_positions(np.concatenate((u, v)), np.concatenate((v, u)))
        missing = np.flatnonzero(found < 0)
        if missing.size:
            u, v = arr[missing[0]].tolist()
            raise ValueError(f"edge {(u, v)} not present in graph")
        indptr, indices = self.csr
        keep = np.ones(len(indices), dtype=bool)
        keep[found] = False
        child = Graph.__new__(Graph)
        child.n = self.n
        # A row start moves back by the number of deleted entries before it.
        child.csr = (_read_only(indptr - np.searchsorted(np.flatnonzero(~keep), indptr)),
                     _read_only(indices[keep]))
        return child

    def connected_components(self) -> int:
        """Number of connected components (isolated nodes count)."""
        u, v = self.edge_array[:, 0], self.edge_array[:, 1]
        # Hook each root onto the smallest root it shares an edge with, then
        # jump pointers until every node points at its root.
        parent = np.arange(self.n)
        while True:
            pu, pv = parent[u], parent[v]
            cross = pu != pv
            if not cross.any():
                return int(np.count_nonzero(parent == np.arange(self.n)))
            np.minimum.at(parent, np.maximum(pu, pv)[cross], np.minimum(pu, pv)[cross])
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_binomial(n: int, p: float, seed: int | np.random.Generator) -> Graph:
    """Binomial random graph: each of the C(n, 2) pairs is an edge w.p. ``p``."""
    _check_int("n", n, 1)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p!r}")
    rng = np.random.default_rng(seed)
    # One draw per row u over the pairs (u, u+1 .. n-1), in row order.
    upper = [u + 1 + np.flatnonzero(rng.random(n - 1 - u) < p) for u in range(n - 1)]
    lower = np.repeat(np.arange(n - 1), [len(v) for v in upper])
    return Graph(n=n, edges=np.column_stack(
        (lower, np.concatenate([np.empty(0, dtype=np.int64), *upper]))))


# gen_powerlaw draws 32-bit words from its generator at most this many at a
# time: larger batches are no faster and raise the peak memory of a
# 10^5-node graph.
_WORD_BATCH = 4096
_LOW32 = 0xFFFFFFFF


def _word_index(x: int, high: int, next_word) -> int:
    """The index ``rng.integers(0, high)`` draws, for ``2 <= high < 2**32``,
    from ``x = word * high`` for its first 32-bit word and from further words
    ``next_word()`` when needed (Lemire's method, as numpy implements it):
    ``x >> 32``, unless the low half of ``x`` falls below
    ``(2**32 - high) % high``, where the index would be biased and a new word
    is drawn.  A low half of at least ``high`` (all but a ``high / 2**32``
    share of words) is accepted without computing that bound."""
    if x & _LOW32 < high:
        threshold = ((1 << 32) - high) % high
        while x & _LOW32 < threshold:
            x = next_word() * high
    return x >> 32


def gen_powerlaw(n: int, m: int, seed: int | np.random.Generator) -> Graph:
    """Preferential-attachment graph with power-law degree tail.

    Starts from a complete graph on ``m + 1`` nodes; each subsequent node
    attaches ``m`` edges to distinct existing nodes chosen with probability
    proportional to their current degree.  Edge count is therefore
    ``C(m+1, 2) + (n - m - 1) * m``.

    Draw contract: each attachment attempt takes the same 32-bit words from
    the generator, and gives the same index, as ``rng.integers(0, k)`` over
    the ``k`` degree units; words are fetched in batches no longer than the
    attempts still to come, so the graph and the generator's state afterwards
    are those of one such call per attempt, on any numpy bit generator.

    Before node ``t`` there are ``high_t = m(m+1) + 2m(t - m - 1)`` degree
    units, in order: ``m`` for each seed node, then per later node its ``m``
    targets and ``m`` units of its own.  The nodes are drawn a segment at a
    time (see :func:`_attach_segments`).
    """
    _check_int("attachment count m", m, 1)
    _check_int("n", n, m + 1)
    attached = _attach_segments(np.random.default_rng(seed), n, m)
    seed_u, seed_v = np.triu_indices(m + 1, k=1)
    edges = np.column_stack((
        np.concatenate((seed_u, attached)),
        np.concatenate((seed_v, np.repeat(np.arange(m + 1, n, dtype=np.int64), m))),
    ))
    del attached
    return Graph(n=n, edges=edges)


def _attach_segments(rng, n: int, m: int) -> np.ndarray:
    """The ``m`` targets of each node from ``m + 1`` on, in node order,
    drawn as :func:`gen_powerlaw` draws them.

    Unit ``p`` is node ``p // m`` for ``p < m(m+1)``; otherwise, with
    ``b, o = divmod(p - m(m+1), 2m)``, it is node ``m + 1 + b`` for
    ``o >= m`` and that node's ``o``-th target for ``o < m``.  A segment of
    nodes is speculated to take ``m`` words each, every word accepted as
    Lemire's ``(word * high) >> 32``; a target of a node in the same segment
    is a pointer to an earlier slot, resolved by pointer jumping.  The first
    node whose words could be rejected (a low half below ``high``) or whose
    candidates repeat ends the segment; the nodes before it are kept, and
    it is drawn by :func:`_attach_one`.  A segment holds no more nodes than
    came before it: early nodes often repeat a candidate, and the rest of a
    long segment cut short there would be drawn for nothing.
    """
    base = m * (m + 1)
    attached = np.empty(m * (n - m - 1), dtype=np.int64)
    stock = np.empty(0, dtype=np.uint32)  # words fetched, not yet consumed
    new = m + 1
    while new < n:
        # Each node takes at least m words, so a segment's fetch is no longer
        # than the attempts still to come.
        nodes = min(n - new, max(1, _WORD_BATCH // m), new)
        if len(stock) < nodes * m:
            stock = np.concatenate((stock, rng.integers(
                0, 1 << 32, size=nodes * m - len(stock), dtype=np.uint32)))
        # uint32 words times uint64 bounds: no int64 operand, whose mix with
        # uint64 would round through float64.
        done = m * (new - m - 1)  # slots filled before this segment
        high = np.arange(base + 2 * done, base + 2 * (done + m * nodes), 2 * m, dtype=np.uint64)
        x = stock[:nodes * m].reshape(nodes, m) * high[:, None]
        units = (x >> np.uint64(32)).astype(np.int64).ravel()
        b, o = np.divmod(units - base, 2 * m)
        slot = b * m + o  # a target's slot where units >= base and o < m
        cand = np.where(units < base, units // m,
                        np.where(o < m, attached.take(slot, mode="clip"), m + 1 + b))
        # A slot of this segment is not filled yet: point at it, and jump
        # pointers until each lands on a candidate of its own.
        ref = np.where((o < m) & (slot >= done), slot - done, np.arange(len(slot)))
        while not np.array_equal(ref[ref], ref):
            ref = ref[ref]
        cand = cand[ref].reshape(nodes, m)
        # The first node with a word Lemire's method might reject, or with a
        # repeated candidate (row-major keys, sorted: repeats are adjacent).
        keys = np.sort(cand + (np.arange(nodes) * n)[:, None], axis=None, kind="stable")
        odd = np.concatenate((np.flatnonzero((x & np.uint64(_LOW32)) < high[:, None]) // m,
                              keys[1:][keys[1:] == keys[:-1]] // n))
        kept = int(odd.min()) if odd.size else nodes
        attached[done:done + kept * m] = cand[:kept].ravel()
        stock, new = stock[kept * m:], new + kept
        if kept < nodes:
            stock = _attach_one(rng, attached, stock, new, m)
            new += 1
    return attached


def _attach_one(rng, attached: np.ndarray, stock: np.ndarray, new: int, m: int) -> np.ndarray:
    """Draw node ``new``'s targets into ``attached`` one attempt at a time,
    taking words from ``stock`` first; return the words left."""
    base, high, at = m * (m + 1), m * (m + 1) + 2 * m * (new - m - 1), 0
    targets: list[int] = []

    def next_word() -> int:
        nonlocal stock, at
        if at == len(stock):  # a batch no longer than this node's attempts to come
            stock, at = rng.integers(0, 1 << 32, size=min(m - len(targets), _WORD_BATCH),
                                     dtype=np.uint32), 0
        at += 1
        return int(stock[at - 1])

    while len(targets) < m:
        p = _word_index(next_word() * high, high, next_word)
        b, o = divmod(p - base, 2 * m)
        cand = p // m if p < base else m + 1 + b if o >= m else int(attached[b * m + o])
        if cand not in targets:
            targets.append(cand)
    attached[m * (new - m - 1):m * (new - m)] = targets
    return stock[at:]


def sample_exponential_degrees(
    n: int, lam: float, seed: int | np.random.Generator
) -> np.ndarray:
    """Target degree sequence ``max(1, round(X))`` with ``X ~ Exp(lam)``."""
    if not lam > 0:  # NaN fails too
        raise ValueError(f"rate lam must be positive, got {lam!r}")
    rng = np.random.default_rng(seed)
    draws = rng.exponential(scale=1.0 / lam, size=n)
    return np.maximum(1, np.rint(draws)).astype(np.int64)


def gen_exponential(n: int, lam: float, seed: int | np.random.Generator) -> Graph:
    """Configuration-model graph with exponential target degrees.

    Degrees are drawn via :func:`sample_exponential_degrees`; if their sum is
    odd the first entry is incremented by one.  Stubs are shuffled and paired;
    self-loops and duplicate edges are discarded, so realised degrees can fall
    short of targets.
    """
    _check_int("n", n, 2)
    rng = np.random.default_rng(seed)
    degrees = sample_exponential_degrees(n, lam, rng)
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = np.sort(stubs.reshape(-1, 2), axis=1)
    return Graph(n=n, edges=pairs[pairs[:, 0] != pairs[:, 1]])


def gen_lattice4(rows: int, cols: int) -> Graph:
    """4-regular torus lattice: node ``(i, j)`` has id ``i * cols + j``.

    Each node is adjacent to its four wrap-around grid neighbours, so the
    graph has exactly ``2 * rows * cols`` edges.  Requires both dimensions
    to be at least 3 so that wrap-around creates no duplicate edges.
    """
    _check_int("torus rows", rows, 3)
    _check_int("torus cols", cols, 3)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right, down = np.roll(ids, -1, axis=1), np.roll(ids, -1, axis=0)
    return Graph.from_edges(rows * cols, np.column_stack(
        (np.tile(ids.ravel(), 2), np.concatenate((right, down), axis=None))))


# ---------------------------------------------------------------------------
# Edge-list persistence
# ---------------------------------------------------------------------------

def save_edge_list(g: Graph, destination: str | Path | IO[str]) -> None:
    """Write ``g`` as a plain text edge list.

    Format: first non-comment line is the node count; each subsequent line is
    ``"u v"`` with ``0 <= u < v < n``, in lexicographic order.  The edge
    lines are built by one format operation over the flat endpoint list.
    """
    endpoints = g.edge_array.ravel().tolist()
    _write_text(destination, f"{g.n}\n" + "%d %d\n" * g.num_edges % tuple(endpoints))


def _load_plain(text: str) -> Graph | None:
    """The graph of ``text`` read as arrays when it is a plain, valid edge
    list: ASCII digits, spaces, tabs and newlines only, numbers of at most
    18 digits, one on the first line that holds any and two on each later
    one, and endpoints in range, distinct and not repeated.  Anything else
    gives None, for :func:`load_edge_list`'s line loop to read or reject."""
    # Any other character becomes "?", which the character test refuses.
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    digit = (48 <= raw) & (raw <= 57)
    newline = raw == 10
    if not np.all(digit | newline | (raw == 32) | (raw == 9)):
        return None
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    line = np.searchsorted(np.flatnonzero(newline), starts)
    # Tokens 2k + 1 and 2k + 2 share a line, which token 2k does not.
    if (len(line) % 2 == 0 or (ends - starts).max() > 18
            or np.any(line[1::2] != line[2::2]) or np.any(line[:-1:2] == line[1::2])):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    n, u, v = int(values[0]), values[1::2], values[2::2]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    if (len(values) != len(starts) or not 1 <= n <= _MAX_NODES or np.any(np.maximum(u, v) >= n)
            or np.any(u == v) or np.any(keys[1:] == keys[:-1])):
        return None
    return Graph(n=n, edges=np.column_stack((keys // n, keys % n)))


def load_edge_list(source: str | Path | IO[str]) -> Graph:
    """Parse an edge list written by :func:`save_edge_list`.

    Lines starting with ``#`` and blank lines are ignored.  Endpoint pairs may
    appear in either order but are normalised; malformed lines, out-of-range
    endpoints, self-loops and duplicate edges raise
    :class:`EdgeListFormatError` naming the offending line number.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        text = Path(source).read_text(encoding="utf-8")
    plain = _load_plain(text)
    if plain is not None:
        return plain
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: expected node count, got {line!r}") from None
            if n < 1:
                raise EdgeListFormatError(f"line {lineno}: node count must be positive, got {n}")
            if n > _MAX_NODES:
                raise EdgeListFormatError(
                    f"line {lineno}: node count must be at most 2**31, got {n}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(
                f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u == v:
            raise EdgeListFormatError(f"line {lineno}: self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListFormatError(
                f"line {lineno}: endpoint out of range for n={n}: ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise EdgeListFormatError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
    if n is None:
        raise EdgeListFormatError("file contains no node-count line")
    return Graph(n=n, edges=edges)

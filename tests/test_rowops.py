"""The prepared row operator against numpy's own ``reduceat``, and the
spectral and mean-field code built on it against the CSR code it replaced
(``tests/oracles.py``), bit for bit.

The reductions are compared with ``np.add.reduceat`` and
``np.multiply.reduceat`` themselves, not with a model of them, so a numpy
release that sums in another order fails here."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netspread.graphs import Graph, gen_binomial, gen_powerlaw
from netspread.isolation import greedy_edge_removal
from netspread.meanfield import LinkProbs, MfState, NodeParams, run
from netspread.rowops import _MAX_BUCKET_DEGREE, _MIN_BUCKET_ROWS, RowLayout, RowOperator
from netspread.spectral import (
    _solve,
    adjacency_spectral_radius,
    build_system_matrix,
    power_iteration,
    survivability_score,
)

from oracles import (
    adjacency_radius_reference,
    greedy_reference,
    meanfield_run_reference,
    power_iteration_reference,
    system_matrix_reference,
)

T = _MIN_BUCKET_ROWS
# Degrees at the edges of the summation tree: empty rows, single entries,
# the last running sum (8 entries: a0 plus 7), the first pairwise block (9),
# block boundaries (16, 17), the largest bucket degree and past it.
EDGE_DEGREES = (0, 1, 2, 8, 9, 16, 17, _MAX_BUCKET_DEGREE, _MAX_BUCKET_DEGREE + 1, 200)
# Values whose sums and products expose the order of operations: signed
# zeros, magnitudes that absorb one another, overflow to infinity.
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 1e16, 3.0])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return (np.array_equal(nan, np.isnan(got))
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


@st.composite
def csr_rows(draw):
    """A CSR ``(indptr, indices)`` made of groups of rows of equal degree;
    group sizes sit just below, at and just above the bucket threshold, or
    are small.  Rows are shuffled unless ``sorted_rows`` keeps each group
    contiguous."""
    groups = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGE_DEGREES), st.integers(0, 140)),
        st.one_of(st.sampled_from((T - 1, T, T + 1)), st.integers(1, 4)),
    ), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    sorted_rows = draw(st.booleans())
    rng = np.random.default_rng(seed)
    degrees = np.concatenate([np.full(count, d) for d, count in groups])
    if not sorted_rows:
        rng.shuffle(degrees)
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, len(degrees), indptr[-1])
    return indptr, indices, rng


def csr_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Normal draws mixed with special values, or (one draw in four) signed
    zeros only, so that whole rows of -0.0 occur."""
    if rng.random() < 0.25:
        return rng.choice(np.array([0.0, -0.0]), size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 6, size)
    special = rng.random(size) < rng.random()
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    return values


@settings(max_examples=150, deadline=None)
@given(csr_rows())
def test_row_sum_and_product_equal_reduceat(drawn):
    indptr, indices, rng = drawn
    layout = RowLayout(indptr, indices)
    op = RowOperator(layout)
    values = csr_values(rng, layout.size)
    nonempty = np.diff(indptr) > 0
    for ufunc, reduce, identity in ((np.add, op.row_sum, -0.0),
                                    (np.multiply, op.row_prod, 1.0)):
        want = np.full(layout.n, identity)
        if values.size:
            with np.errstate(all="ignore"):
                want[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
        with np.errstate(all="ignore"):
            got = reduce(layout.permute(values), out=np.full(layout.n, np.nan))
        assert same_bits(got, want), ufunc


@settings(max_examples=60, deadline=None)
@given(csr_rows())
def test_layout_is_a_bucketed_permutation_of_the_csr(drawn):
    indptr, indices, _ = drawn
    layout = RowLayout(indptr, indices)
    degrees = np.diff(indptr)
    order = layout.permute(np.arange(layout.size))
    assert np.array_equal(np.sort(order), np.arange(layout.size))
    assert np.array_equal(RowOperator(layout).columns, indices[order])
    assert np.array_equal(layout.spread(np.arange(layout.n)),
                          np.repeat(np.arange(layout.n), degrees)[order])
    counts = np.bincount(degrees)
    bucketed = [d for d in range(1, min(len(counts), _MAX_BUCKET_DEGREE + 1))
                if counts[d] >= T]
    assert [d for d, *_ in layout.buckets] == bucketed
    ids = np.arange(layout.n)
    for d, start, m, rows in layout.buckets:
        rows = ids[rows]
        assert np.array_equal(rows, np.flatnonzero(degrees == d))
        block = order[start:start + d * m].reshape(d, m)
        assert np.array_equal(block, indptr[rows] + np.arange(d)[:, None])
    tail = ids[layout.tail_rows]
    in_tail = (degrees > 0) & ~np.isin(degrees, bucketed)
    assert np.array_equal(tail, np.flatnonzero(in_tail))
    assert np.array_equal(order[layout.tail_start:],
                          np.flatnonzero(np.repeat(in_tail, degrees)))
    assert np.array_equal(ids[layout.empty_rows], np.flatnonzero(degrees == 0))


@pytest.mark.parametrize("rows,buckets", [(T - 1, 0), (T, 1)])
def test_threshold_decides_the_bucket(rows, buckets):
    degrees = np.full(rows, 5)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    layout = RowLayout(indptr, np.zeros(indptr[-1], dtype=np.int64))
    assert len(layout.buckets) == buckets
    assert layout.tail_start == (5 * rows if buckets else 0)


def test_empty_csr():
    layout = RowLayout(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
    op = RowOperator(layout)
    assert same_bits(op.row_sum(np.zeros(0)), np.full(3, -0.0))
    assert same_bits(op.row_prod(np.zeros(0)), np.ones(3))


# ---------------------------------------------------------------------------
# Power iteration, greedy removal and mean-field runs on graphs with buckets
# ---------------------------------------------------------------------------

def bucketed_graphs():
    """Power-law graphs whose low degrees form buckets, one with isolated
    nodes at the end and a sparse binomial graph with isolated nodes
    scattered through it."""
    plain = gen_powerlaw(2500, 3, 11)
    return {
        "powerlaw": plain,
        "isolated_tail": Graph(plain.n + 40, plain.edge_array),
        "isolated_scattered": gen_binomial(3000, 0.0012, 5),
    }


GRAPHS = bucketed_graphs()


def random_params(n: int, seed: int) -> NodeParams:
    rng = np.random.default_rng(seed)
    return NodeParams(r=rng.uniform(0.5, 1.0, n), delta=rng.uniform(0.2, 0.4, n),
                      gamma=rng.uniform(0.2, 0.4, n), nu=rng.uniform(0.5, 1.0, n),
                      chi=rng.uniform(0.0, 0.3, n))


def directed_links(g: Graph, seed: int) -> LinkProbs:
    indptr, indices = g.csr
    dst = np.repeat(np.arange(g.n), np.diff(indptr))
    beta = np.random.default_rng(seed).uniform(0.01, 0.2, len(indices))
    return LinkProbs.from_mapping(g, dict(zip(zip(indices.tolist(), dst.tolist()),
                                              beta.tolist())), symmetric=False)


def test_graphs_have_buckets_and_tails():
    for g in GRAPHS.values():
        layout = g.row_layout
        assert layout.buckets and layout.tail_start < layout.size
    assert len(GRAPHS["isolated_scattered"].row_layout.empty_rows) > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("directed", [False, True])
def test_scores_match_the_csr_power_iteration(name, directed):
    g = GRAPHS[name]
    links = directed_links(g, 3) if directed else LinkProbs.homogeneous(g, 0.1)
    params = random_params(g.n, 4)
    value, vector, iterations, residual = power_iteration_reference(
        system_matrix_reference(g, links, params).matvec, g.n)
    sm = build_system_matrix(g, links, params)
    for res in (_solve(sm), power_iteration(sm.matvec, g.n)):
        assert (res.value, res.iterations, res.residual) == (value, iterations, residual)
        assert same_bits(res.vector, vector)
    score = survivability_score(g, links, params)
    assert (score.score, score.residual) == (value, residual)
    assert same_bits(score.vector, vector)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_adjacency_radius_matches_the_csr_power_iteration(name):
    g = GRAPHS[name]
    value, vector, iterations, residual = adjacency_radius_reference(g)
    res = adjacency_spectral_radius(g)
    assert (res.value, res.iterations, res.residual) == (value, iterations, residual)
    assert same_bits(res.vector, vector)


def test_matvec_returns_a_fresh_array():
    g = GRAPHS["powerlaw"]
    sm = build_system_matrix(g, LinkProbs.homogeneous(g, 0.1), random_params(g.n, 1))
    v = np.random.default_rng(2).random(g.n)
    first, second = sm.matvec(v), sm.matvec(v)
    assert first is not second and not np.shares_memory(first, second)
    assert same_bits(first, system_matrix_reference(
        g, LinkProbs.homogeneous(g, 0.1), random_params(g.n, 1)).matvec(v))


def test_greedy_removal_matches_rebuilding_every_graph():
    g = gen_powerlaw(2000, 3, 9)
    assert g.row_layout.buckets
    removed, steps = greedy_reference(g, 6)
    _, report = greedy_edge_removal(g, 6)
    assert report.removed_edges == removed
    assert report.lambda1_steps == steps


@pytest.mark.parametrize("model", ["sis", "sirs"])
def test_meanfield_run_matches_the_step_at_a_time_loop(model):
    g = GRAPHS["isolated_scattered"]
    links, params = directed_links(g, 6), random_params(g.n, 7)
    state0 = MfState.uniform(g.n, p0=0.2)
    got = run(model, state0, links, params, max_steps=30, tol=0.0,
              allow_negative_coefficients=True)
    want = meanfield_run_reference(model, state0, links, params, max_steps=30, tol=0.0,
                                   allow_negative_coefficients=True)
    assert got.steps == want.steps == 30
    for name, column in want.trajectory.columns.items():
        assert same_bits(got.trajectory.columns[name], column), name
    for kind in ("p", "q", "w"):
        assert same_bits(getattr(got.final_state, kind), getattr(want.final_state, kind))

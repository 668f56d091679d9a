"""The prepared row operator against numpy's own ``reduceat``, and the
spectral and mean-field code built on it against the CSR code it replaced
(``tests/oracles.py``), bit for bit.

The reductions are compared with ``np.add.reduceat`` and
``np.multiply.reduceat`` themselves, not with a model of them, so a numpy
release that sums in another order fails here."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netspread import spectral
from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.isolation import greedy_edge_removal
from netspread.meanfield import LinkProbs, MfState, NodeParams, _Update, run
from netspread.rowops import (
    _MAX_BUCKET_DEGREE,
    _MIN_BUCKET_ROWS,
    RowLayout,
    RowOperator,
    _coefficient,
)
from netspread.spectral import (
    PowerIterationError,
    _solve,
    adjacency_spectral_radius,
    build_system_matrix,
    power_iteration,
    survivability_score,
)

from oracles import (
    _zeta_reference,
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
        layout.permute(values, out=op.buffer)
        with np.errstate(all="ignore"):
            got = reduce(out=np.full(layout.n, np.nan))
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
    spread = layout.spread(np.arange(layout.n), np.empty(layout.size, dtype=np.int64))
    assert np.array_equal(spread, np.repeat(np.arange(layout.n), degrees)[order])
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
    # An operator reduces straight into the caller's array exactly when the
    # layout is one piece whose rows are all rows, in row order.
    row_order = np.concatenate([rows for *_, rows in layout.buckets] + [tail])
    pieces = len(layout.buckets) + bool(len(tail))
    assert RowOperator(layout)._direct == (pieces == 1 and np.array_equal(row_order, ids))


def test_figure_graphs_reduce_in_row_order():
    # The 1000-node power-law graph of the figures is all tail, the 32x32
    # torus one bucket: both reduce straight into the caller's array.
    for g in (gen_powerlaw(1000, 2, 42), gen_lattice4(32, 32)):
        layout = g.row_layout
        assert RowOperator(layout)._direct
        indptr, _ = g.csr
        values = np.random.default_rng(1).standard_normal(layout.size)
        out = np.empty(g.n)
        op = RowOperator(layout)
        layout.permute(values, out=op.buffer)
        assert op.row_sum(out=out) is out
        assert same_bits(out, np.add.reduceat(values, indptr[:-1]))
    assert not RowOperator(GRAPHS["powerlaw"].row_layout)._direct


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
    assert same_bits(op.row_sum(out=np.empty(3)), np.full(3, -0.0))
    assert same_bits(op.row_prod(out=np.empty(3)), np.ones(3))


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
@pytest.mark.parametrize("kind", ["directed", "homogeneous_links", "homogeneous"])
def test_scores_match_the_csr_power_iteration(name, kind):
    # Homogeneous links with per-node gains weigh each entry by its row; with
    # homogeneous gains too, every entry by one 0-d weight.
    g = GRAPHS[name]
    links = directed_links(g, 3) if kind == "directed" else LinkProbs.homogeneous(g, 0.1)
    params = random_params(g.n, 4)
    if kind == "homogeneous":
        params = NodeParams.homogeneous(g.n, r=0.8, delta=0.3, gamma=0.25)
    value, vector, iterations, residual = power_iteration_reference(
        system_matrix_reference(g, links, params).matvec, g.n)
    sm = build_system_matrix(g, links, params)
    assert (sm.rows.node_weights is not None) == (kind == "homogeneous")
    for res in (_solve(sm), power_iteration(lambda v: sm.matvec(v, np.empty(g.n)), g.n)):
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


def test_matvec_results_share_no_storage():
    g = GRAPHS["powerlaw"]
    sm = build_system_matrix(g, LinkProbs.homogeneous(g, 0.1), random_params(g.n, 1))
    v = np.random.default_rng(2).random(g.n)
    first, second = np.empty(g.n), np.empty(g.n)
    assert sm.matvec(v, first) is first and sm.matvec(2 * v, second) is second
    assert same_bits(first, system_matrix_reference(
        g, LinkProbs.homogeneous(g, 0.1), random_params(g.n, 1)).matvec(v))


def test_greedy_removal_matches_rebuilding_every_graph():
    g = gen_powerlaw(2000, 3, 9)
    assert g.row_layout.buckets
    removed, steps = greedy_reference(g, 6)
    _, report = greedy_edge_removal(g, 6, beta_template=0.1, params=random_params(g.n, 1))
    assert report.removed_edges == removed
    assert report.lambda1_steps == steps


@pytest.mark.parametrize("model", ["sis", "sirs"])
@pytest.mark.parametrize("directed", [False, True])
def test_meanfield_run_matches_the_step_at_a_time_loop(model, directed):
    g = GRAPHS["isolated_scattered"]
    links = directed_links(g, 6) if directed else LinkProbs.homogeneous(g, 0.3)
    params = random_params(g.n, 7)
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


# ---------------------------------------------------------------------------
# The two weight forms: one 0-d value, or one per entry
# ---------------------------------------------------------------------------

@st.composite
def mixed_graphs(draw):
    """A ring of T - 1 to T + 40 nodes (degree 2, a bucket when T of them
    keep that degree) with the chord (0, 2) and others among its first 30
    nodes (tail rows of other degrees) and up to three isolated nodes (empty
    rows), relabelled at random."""
    ring = draw(st.integers(T - 1, T + 40))
    chords = draw(st.integers(0, 40))
    n = ring + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.arange(ring)
    pairs = np.concatenate([np.column_stack((u, (u + 1) % ring)), [[0, 2]],
                            rng.integers(0, 30, (chords, 2))])
    pairs = rng.permutation(n)[pairs]
    return Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]]), rng


def mixed_signed_zero_links(g: Graph) -> LinkProbs:
    """beta = 0 everywhere, but -0.0 on one of the out-links of node 0."""
    values = np.zeros(2 * g.num_edges)
    values[np.flatnonzero(g.csr[1] == 0)[0]] = -0.0
    return LinkProbs(g, values)


# (links, params, whether the matvec's and zeta's weights are one 0-d value)
WEIGHT_CASES = {
    "homogeneous": lambda g, rng: (
        LinkProbs.homogeneous(g, float(rng.choice([0.0, 1.0, rng.random()]))),
        NodeParams.homogeneous(g.n, r=rng.random(), delta=rng.uniform(0.01, 1.0),
                               gamma=rng.random()), True),
    "per_node_r": lambda g, rng: (
        LinkProbs.homogeneous(g, rng.random()),
        NodeParams(r=rng.random(g.n), delta=np.full(g.n, 0.4), gamma=np.full(g.n, 0.3),
                   nu=np.ones(g.n), chi=np.zeros(g.n)), False),
    "per_node_gains": lambda g, rng: (
        LinkProbs.homogeneous(g, rng.random()), random_params(g.n, rng), False),
    # r * beta is +1.0 at every link: one 0-d node weight of 1.0.
    "unit": lambda g, rng: (
        LinkProbs.homogeneous(g, 1.0),
        NodeParams.homogeneous(g.n, r=1.0, delta=rng.uniform(0.01, 1.0), gamma=rng.random()),
        True),
    # Every weight is -0.0, whatever the gains.
    "negative_zero_beta": lambda g, rng: (
        LinkProbs.homogeneous(g, -0.0), random_params(g.n, rng), True),
    "mixed_signed_zero_beta": lambda g, rng: (
        mixed_signed_zero_links(g),
        NodeParams.homogeneous(g.n, r=0.5, delta=0.3, gamma=0.3), False),
    "directed": lambda g, rng: (
        directed_links(g, rng), NodeParams.homogeneous(g.n, r=0.5, delta=0.3, gamma=0.3),
        False),
}


@settings(max_examples=60, deadline=None)
@given(mixed_graphs(), st.sampled_from(sorted(WEIGHT_CASES)))
def test_weighted_products_match_the_csr_code(drawn, case):
    g, rng = drawn
    layout = g.row_layout
    assert layout.tail_start < layout.size
    links, params, zero_d = WEIGHT_CASES[case](g, rng)
    sm = build_system_matrix(g, links, params)
    update = _Update(links, params, 1.0, 0.0)
    for rows in (sm.rows, update.rows):
        assert (rows.node_weights is not None) == zero_d
        assert (rows.weights is None) == zero_d
        assert zero_d or rows.weights.shape == (layout.size,)
    state = MfState(p=csr_values(rng, g.n), q=np.zeros(g.n), w=np.zeros(g.n))
    with np.errstate(all="ignore"):
        assert same_bits(sm.matvec(state.p, np.empty(g.n)), system_matrix_reference(
            g, links, params).matvec(state.p))
        assert same_bits(update.zeta(state.p), _zeta_reference(state, links, params))


# ---------------------------------------------------------------------------
# One value stays one value: operands of one bit pattern are 0-d
# ---------------------------------------------------------------------------

def test_one_bit_pattern_is_one_value():
    assert _coefficient(np.full(4, 0.3)).shape == ()
    assert _coefficient(np.full(4, -0.0)).shape == () and np.signbit(_coefficient([-0.0, -0.0]))
    assert _coefficient(0.5).shape == ()
    for values in ([0.0, -0.0], [0.3, 0.3, 0.30000000000000004], []):
        assert same_bits(_coefficient(values), np.array(values, dtype=float))


def test_homogeneous_inputs_give_0d_diagonal_and_node_weights():
    g = GRAPHS["isolated_scattered"]
    links = LinkProbs.homogeneous(g, 0.1)
    params = NodeParams.homogeneous(g.n, r=0.8, delta=0.3, gamma=0.25)
    sm = build_system_matrix(g, links, params)
    assert sm.diag.shape == () and sm.diag == 1.0 - 0.3
    assert sm.rows.node_weights.shape == () and sm.rows.weights is None
    assert _Update(links, params, 1.0, 0.0).rows.node_weights.shape == ()
    # Per-node rates keep arrays: a per-node diagonal, and weights per entry.
    varied = random_params(g.n, 4)
    sm = build_system_matrix(g, links, varied)
    assert sm.diag.shape == (g.n,) and sm.rows.node_weights is None
    rows = _Update(links, varied, 1.0, 0.0).rows
    assert rows.node_weights is None and rows.weights.shape == (g.row_layout.size,)


def test_signed_zero_weights_are_two_values():
    layout = GRAPHS["isolated_scattered"].row_layout
    op = RowOperator(layout)
    op.weigh(np.full(layout.size, -0.0))
    assert op.node_weights.shape == () and np.signbit(op.node_weights)
    weights = np.zeros(layout.size)
    weights[layout.size // 2] = -0.0
    op.weigh(weights)
    assert op.node_weights is None and op.weights.shape == (layout.size,)
    v = np.random.default_rng(5).standard_normal(layout.n)
    assert same_bits(op.weighted_sum(v, np.empty(layout.n)), _csr_weighted_sum(layout, op, v))


def _csr_weighted_sum(layout, op, v):
    """``add.reduceat`` over the CSR rows of the operator's weights times
    ``v[column]``, -0.0 for an empty row."""
    weights = op.weights if op.node_weights is None else \
        np.broadcast_to(op.node_weights, layout.n)[op.columns]
    csr = np.empty(layout.size)
    csr[layout.permute(np.arange(layout.size))] = weights * v[op.columns]
    want = np.full(layout.n, -0.0)
    nonempty = np.diff(layout.indptr) > 0
    want[nonempty] = np.add.reduceat(csr, layout.indptr[:-1][nonempty])
    return want


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_unit_weights_leave_p_unchanged(name):
    g = GRAPHS[name]
    layout = g.row_layout
    op = RowOperator(layout)
    op.weigh(np.ones(layout.size))
    assert op.node_weights.shape == ()
    p = csr_values(np.random.default_rng(3), g.n)
    kept = p.copy()
    nonempty = np.diff(g.csr[0]) > 0
    want = np.ones(g.n)
    with np.errstate(all="ignore"):
        want[nonempty] = np.multiply.reduceat(1.0 - p[g.csr[1]], g.csr[0][:-1][nonempty])
        got = op.complement_prod(p, np.empty(g.n))
    assert same_bits(p, kept)
    assert same_bits(got, want)
    assert same_bits(op.weighted_sum(p, np.empty(g.n)), _csr_weighted_sum(layout, op, p))
    assert same_bits(p, kept)


# ---------------------------------------------------------------------------
# Power iteration computes residuals only where the estimates agree
# ---------------------------------------------------------------------------

def test_residual_is_computed_only_when_the_estimates_agree(monkeypatch):
    g = GRAPHS["powerlaw"]
    links, params = LinkProbs.homogeneous(g, 0.1), random_params(g.n, 4)
    calls = []
    residual = spectral._residual
    monkeypatch.setattr(spectral, "_residual",
                        lambda *args: calls.append(1) or residual(*args))
    res = _solve(build_system_matrix(g, links, params))
    assert 1 <= len(calls) < res.iterations


@pytest.mark.parametrize("budget", [1, 7, 40])
def test_power_iteration_error_carries_the_last_residual(monkeypatch, budget):
    g = GRAPHS["isolated_scattered"]
    links, params = directed_links(g, 3), random_params(g.n, 4)
    with pytest.raises(RuntimeError) as want:
        power_iteration_reference(system_matrix_reference(g, links, params).matvec, g.n,
                                  max_iter=budget)
    monkeypatch.setattr(spectral, "MAX_ITER", budget)
    with pytest.raises(PowerIterationError) as got:
        _solve(build_system_matrix(g, links, params))
    assert got.value.iterations == budget
    assert np.float64(got.value.residual).tobytes() == \
        np.float64(want.value.residual).tobytes()


# ---------------------------------------------------------------------------
# Reused buffers never leak into results
# ---------------------------------------------------------------------------

def test_row_results_keep_their_bits_through_later_reductions():
    g = GRAPHS["isolated_scattered"]
    op = RowOperator(g.row_layout)
    rng = np.random.default_rng(8)
    first, second = (g.row_layout.permute(rng.standard_normal(g.row_layout.size))
                     for _ in range(2))
    op.buffer[:] = first
    sums = op.row_sum(out=np.empty(g.n))
    kept_sums = sums.copy()
    prods = op.row_prod(out=np.empty(g.n))
    kept_prods = prods.copy()
    op.buffer[:] = second
    op.row_sum(out=np.empty(g.n))
    op.row_prod(out=np.empty(g.n))
    assert same_bits(sums, kept_sums) and same_bits(prods, kept_prods)


def out_writers():
    """Each call that writes into a caller's ``out``, on a graph with
    buckets, a tail and empty rows: ``(size of out, call)``."""
    g = GRAPHS["isolated_scattered"]
    layout = g.row_layout
    rng = np.random.default_rng(10)
    values = layout.permute(rng.standard_normal(layout.size))
    v = rng.random(g.n)
    op = RowOperator(layout)
    op.weigh(layout.permute(rng.uniform(0.1, 0.9, layout.size)))
    sm = build_system_matrix(g, directed_links(g, 11), random_params(g.n, 12))

    def of_values(reduce):
        def call(out):
            op.buffer[:] = values
            return reduce(out)
        return call

    return {
        "spread": (layout.size, lambda out: layout.spread(v, out)),
        "row_sum": (g.n, of_values(op.row_sum)),
        "row_prod": (g.n, of_values(op.row_prod)),
        "weighted_sum": (g.n, lambda out: op.weighted_sum(v, out)),
        "complement_prod": (g.n, lambda out: op.complement_prod(v, out)),
        "matvec": (g.n, lambda out: sm.matvec(v, out)),
    }


OUT_WRITERS = out_writers()


@pytest.mark.parametrize("name", sorted(OUT_WRITERS))
def test_every_entry_of_out_is_written(name):
    # Callers pass reused buffers, so no entry may keep what the buffer held
    # before.
    size, call = OUT_WRITERS[name]
    stale_nan, stale_inf = np.full(size, np.nan), np.full(size, np.inf)
    assert call(stale_nan) is stale_nan and call(stale_inf) is stale_inf
    assert not np.isnan(stale_nan).any()
    assert same_bits(stale_nan, stale_inf)


def test_meanfield_runs_share_no_storage():
    g = GRAPHS["isolated_scattered"]
    links, params = directed_links(g, 6), random_params(g.n, 7)
    rng = np.random.default_rng(9)
    p, w = rng.uniform(0.0, 0.3, g.n), rng.uniform(0.0, 0.2, g.n)
    state0 = MfState(p=p, q=0.9 * (1.0 - p - w), w=w)
    given = [getattr(state0, kind).copy() for kind in "pqw"]

    def steps(k):
        return run("sirs", state0, links, params, max_steps=k, tol=0.0,
                   allow_negative_coefficients=True)

    first = steps(7)
    final = [getattr(first.final_state, kind).copy() for kind in "pqw"]
    second = steps(7)
    assert first.trajectory.times.tobytes() == second.trajectory.times.tobytes()
    for name, column in first.trajectory.columns.items():
        assert column.tobytes() == second.trajectory.columns[name].tobytes(), name
    steps(4)  # ends in the other of a run's two states
    for kind, want in zip("pqw", final):
        assert getattr(first.final_state, kind).tobytes() == want.tobytes(), kind
    for kind, want in zip("pqw", given):
        assert getattr(state0, kind).tobytes() == want.tobytes(), kind

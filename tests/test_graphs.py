"""Graph generators, degree statistics and edge-list persistence."""
import hashlib
import io
import math
import subprocess
import sys
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from netspread.graphs import (
    _ARRAY_FROM_NODE,
    _PAIR_CHUNK,
    _WORD_BATCH,
    _word_index,
    EdgeListFormatError,
    Graph,
    gen_binomial,
    gen_exponential,
    gen_lattice4,
    gen_powerlaw,
    load_edge_list,
    sample_exponential_degrees,
    save_edge_list,
)
from netspread.meanfield import LinkProbs, MfState, NodeParams, run as meanfield_run
from netspread.rowops import RowOperator
from netspread.spectral import survivability_score

from oracles import (
    adjacency,
    dense_adjacency,
    edge_set,
    dense_spectral_radius_symmetric,
    mle_tail_exponent,
    powerlaw_reference,
)

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64)


def assert_valid_graph(g: Graph) -> None:
    """Direct scan of every structural invariant."""
    assert g.n >= 1
    seen = set()
    for u, v in edge_set(g):
        assert 0 <= u < v < g.n
        assert (u, v) not in seen
        seen.add((u, v))
    assert int(g.degrees.sum()) == 2 * g.num_edges


# ---------------------------------------------------------------------------
# Graph container
# ---------------------------------------------------------------------------

class TestGraphContainer:
    def test_from_edges_normalises_order(self):
        g = Graph.from_edges(4, [(2, 1), (0, 3)])
        assert edge_set(g) == frozenset({(1, 2), (0, 3)})
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 1)

    def test_rejects_self_loop_and_bad_endpoints(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            Graph(n=0, edges=frozenset())

    def test_degrees_and_adjacency(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees.tolist() == [3, 1, 1, 1]
        assert adjacency(g)[0].tolist() == [1, 2, 3]
        assert g.degrees[0] == 3

    def test_remove_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        h = g.remove_edges([(2, 1)])
        assert edge_set(h) == frozenset({(0, 1)})
        with pytest.raises(ValueError):
            g.remove_edges([(0, 2)])

    def test_connected_components(self):
        assert Graph(n=4, edges=frozenset()).connected_components() == 4
        assert gen_lattice4(3, 3).connected_components() == 1
        assert Graph.from_edges(4, [(0, 1), (2, 3)]).connected_components() == 2


# ---------------------------------------------------------------------------
# Binomial generator
# ---------------------------------------------------------------------------

class TestBinomial:
    def test_zero_probability_gives_no_edges(self):
        for seed in (0, 1, 17):
            assert gen_binomial(10, 0.0, seed).num_edges == 0

    def test_full_probability_gives_complete_graph(self):
        for seed in (0, 5):
            g = gen_binomial(5, 1.0, seed)
            assert g.num_edges == 10
            assert edge_set(g) == frozenset(
                (u, v) for u in range(5) for v in range(u + 1, 5)
            )

    def test_edge_count_within_four_sigma(self):
        g = gen_binomial(1000, 0.01, 42)
        trials = 1000 * 999 // 2
        mean = 0.01 * trials
        sigma = math.sqrt(trials * 0.01 * 0.99)
        assert abs(g.num_edges - mean) <= 4.0 * sigma
        assert_valid_graph(g)

    def test_mean_edge_count_over_200_seeds(self):
        counts = [gen_binomial(200, 0.05, seed).num_edges for seed in range(200)]
        expected = 0.05 * 200 * 199 / 2
        empirical = sum(counts) / len(counts)
        assert abs(empirical - expected) / expected < 0.05

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_binomial(10, -0.1, 0)
        with pytest.raises(ValueError):
            gen_binomial(10, 1.1, 0)
        with pytest.raises(ValueError):
            gen_binomial(0, 0.5, 0)


# ---------------------------------------------------------------------------
# Power-law (preferential attachment) generator
# ---------------------------------------------------------------------------

class TestPowerlaw:
    def test_degenerate_case_is_complete_seed_graph(self):
        for seed in (0, 9):
            g = gen_powerlaw(3, 2, seed)
            assert edge_set(g) == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_edge_count_formula(self):
        # |E| = C(m+1, 2) + (n - m - 1) * m, exactly, for every seed.
        for n, m, expected in ((1000, 2, 3 + 997 * 2), (50, 3, 6 + 46 * 3)):
            for seed in (0, 1, 42):
                g = gen_powerlaw(n, m, seed)
                assert g.num_edges == expected
                assert_valid_graph(g)

    def test_minimum_degree_is_m(self):
        g = gen_powerlaw(200, 2, 7)
        assert int(g.degrees.min()) >= 2

    def test_tail_exponent_in_expected_band(self):
        g = gen_powerlaw(10000, 2, 7)
        alpha = mle_tail_exponent(g.degrees, d_min=2)
        assert 2.0 <= alpha <= 3.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_powerlaw(2, 2, 0)  # n <= m
        with pytest.raises(ValueError):
            gen_powerlaw(10, 0, 0)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("n,m,seed", [
    (2, 1, 0),  # n = m + 1: the seed graph, no draw at all
    (3, 1, 1),  # n = m + 2: one attempt
    (60, 1, 2),
    (4, 3, 3),  # n = m + 1
    (5, 3, 4),  # n = m + 2
    (300, 2, 5),
    (200, 6, 6),  # many duplicate candidates while the graph is small
    (_WORD_BATCH + 40, 1, 7),  # the words span two batches
    # Past the per-attempt loop: several segments of array draws, each cut
    # short wherever a node repeats a candidate or meets a word that might
    # be rejected.
    (_ARRAY_FROM_NODE + 3 * _WORD_BATCH + 5, 1, 8),
    (_ARRAY_FROM_NODE + 4 * (_WORD_BATCH // 3) + 7, 3, 9),
    (_ARRAY_FROM_NODE + 5 * (_WORD_BATCH // 6) + 2, 6, 10),
])
def test_powerlaw_matches_scalar_draws_and_leaves_the_same_generator_state(
        bit_generator, n, m, seed):
    rng, ref_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    assert gen_powerlaw(n, m, rng) == powerlaw_reference(n, m, ref_rng)
    # An odd uint32 batch first: a 64-bit generator that buffered a half
    # word on one side only would differ here.
    assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
        ref_rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()
    assert rng.random() == ref_rng.random()


def test_containment_graph_leaves_the_generator_where_scalar_draws_do():
    # Recorded from one scalar rng.integers(0, k) call per attempt: 10 of
    # the graph's words are rejected and 81 candidates repeat.
    rng = np.random.default_rng(7)
    gen_powerlaw(10**5, 3, rng)
    assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
        [4165388613, 2590561264, 3822050504]
    assert rng.random() == float.fromhex("0x1.fe17cd7677eecp-1")


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("high", [2, 3, 7, 2**31 + 1, 2**32 - 1])
def test_word_index_matches_numpy_bounded_draws(bit_generator, high):
    rng, ref_rng = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
    words = 0

    def next_word():
        nonlocal words
        words += 1
        return int(rng.integers(0, 1 << 32, dtype=np.uint32))

    draws = 400
    got = [_word_index(next_word() * high, high, next_word) for _ in range(draws)]
    assert got == [int(ref_rng.integers(0, high)) for _ in range(draws)]
    assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
        ref_rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()
    if high == 2**31 + 1:  # about half of all words fall in the biased zone
        assert words > 1.3 * draws


# ---------------------------------------------------------------------------
# Exponential-degree configuration model
# ---------------------------------------------------------------------------

class TestExponential:
    def test_huge_rate_clamps_to_degree_one(self):
        g = gen_exponential(2, 1e6, 0)
        assert edge_set(g) == frozenset({(0, 1)})
        assert g.degrees.tolist() == [1, 1]

    def test_target_degree_mean_matches_rate(self):
        degs = sample_exponential_degrees(2000, 0.25, 123)
        assert abs(degs.mean() - 4.0) / 4.0 < 0.10

    def test_target_degrees_at_least_one(self):
        degs = sample_exponential_degrees(500, 2.0, 3)
        assert int(degs.min()) >= 1

    def test_output_is_simple_graph(self):
        for seed in range(5):
            for lam in (0.25, 0.7, 2.0):
                assert_valid_graph(gen_exponential(300, lam, seed))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_exponential(100, 0.0, 0)
        with pytest.raises(ValueError):
            gen_exponential(100, -1.0, 0)
        with pytest.raises(ValueError):
            gen_exponential(1, 0.5, 0)

    def test_nan_rate_is_rejected_before_sampling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lam must be positive"):
                sample_exponential_degrees(30, math.nan, 0)
            with pytest.raises(ValueError, match="lam must be positive"):
                gen_exponential(30, math.nan, 0)


# ---------------------------------------------------------------------------
# Torus lattice
# ---------------------------------------------------------------------------

class TestLattice4:
    @pytest.mark.parametrize("rows,cols", [(10, 10), (3, 3), (3, 7), (5, 4)])
    def test_four_regular_torus(self, rows, cols):
        g = gen_lattice4(rows, cols)
        assert g.n == rows * cols
        assert g.num_edges == 2 * rows * cols
        assert np.all(g.degrees == 4)
        assert g.connected_components() == 1

    def test_spectral_radius_is_exactly_degree(self):
        lam = dense_spectral_radius_symmetric(dense_adjacency(gen_lattice4(10, 10)))
        assert abs(lam - 4.0) < 1e-8

    def test_rejects_small_dimensions(self):
        for rows, cols in ((2, 5), (5, 2), (1, 1)):
            with pytest.raises(ValueError):
                gen_lattice4(rows, cols)


# ---------------------------------------------------------------------------
# Degree distribution
# ---------------------------------------------------------------------------

class TestDegreeDistribution:
    def test_empty_graph(self):
        assert Graph(n=4, edges=frozenset()).degrees.tolist() == [0, 0, 0, 0]

    def test_complete_graph(self):
        g = gen_binomial(5, 1.0, 0)
        assert g.degrees.tolist() == [4] * 5
        assert g.degrees.mean() == 4.0
        assert g.degrees.max() == 4

    def test_lattice_regularity(self):
        assert gen_lattice4(5, 5).degrees.tolist() == [4] * 25

    def test_counts_sum_to_n(self):
        for seed in range(5):
            g = gen_binomial(60, 0.1, seed)
            assert len(g.degrees) == g.n
            assert g.degrees.sum() == 2 * g.num_edges
            assert g.degrees.min() >= 0


# ---------------------------------------------------------------------------
# Edge-list persistence
# ---------------------------------------------------------------------------

class TestEdgeListFormat:
    def test_round_trip_identity(self, tmp_path):
        g = gen_lattice4(3, 3)
        path = tmp_path / "torus.edges"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.n == g.n and edge_set(h) == edge_set(g)

    def test_round_trip_via_stream(self):
        g = gen_powerlaw(20, 2, 3)
        buf = io.StringIO()
        save_edge_list(g, buf)
        assert edge_set(load_edge_list(io.StringIO(buf.getvalue()))) == edge_set(g)

    def test_reversed_endpoints_are_normalised(self):
        g = load_edge_list(io.StringIO("3\n2 0\n"))
        assert edge_set(g) == frozenset({(0, 2)})

    def test_duplicate_edge_error_names_line(self):
        with pytest.raises(EdgeListFormatError, match=r"line 3.*duplicate"):
            load_edge_list(io.StringIO("5\n0 1\n1 0\n"))

    def test_out_of_range_error_names_line(self):
        with pytest.raises(EdgeListFormatError, match=r"line 2.*out of range"):
            load_edge_list(io.StringIO("3\n0 7\n"))

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListFormatError, match=r"line 2.*self-loop"):
            load_edge_list(io.StringIO("3\n1 1\n"))

    def test_malformed_lines_rejected(self):
        with pytest.raises(EdgeListFormatError, match="node count"):
            load_edge_list(io.StringIO("abc\n0 1\n"))
        with pytest.raises(EdgeListFormatError, match="expected 'u v'"):
            load_edge_list(io.StringIO("3\n0 1 2\n"))
        with pytest.raises(EdgeListFormatError, match="no node-count"):
            load_edge_list(io.StringIO("# only a comment\n"))
        with pytest.raises(EdgeListFormatError, match="line 1: node count must be positive"):
            load_edge_list(io.StringIO("0\n"))
        with pytest.raises(EdgeListFormatError, match="line 2: non-integer endpoint"):
            load_edge_list(io.StringIO("3\n0 x\n"))

    def test_comments_and_blank_lines_ignored(self):
        g = load_edge_list(io.StringIO("# header\n3\n\n0 1\n# trailing\n"))
        assert g.n == 3 and edge_set(g) == frozenset({(0, 1)})

    def test_large_round_trip_gives_an_equal_graph(self):
        g = gen_powerlaw(5000, 3, 1)
        buf = io.StringIO()
        save_edge_list(g, buf)
        assert load_edge_list(io.StringIO(buf.getvalue())) == g
        # Tabs, extra spaces, blank lines, leading zeros, reversed pairs and
        # no final newline read the same.
        lines = buf.getvalue().splitlines()
        lines[1:] = [f"{v}\t 0{u}  " for u, v in (line.split() for line in lines[1:])]
        assert load_edge_list(io.StringIO("\n" + "\n\n".join(lines))) == g

    # Each error after 10^4 good lines: the message and line number of the
    # line loop, whichever way the good lines are read.
    @pytest.mark.parametrize("bad,message", [
        ("5 5", "line 10002: self-loop (5, 5)"),
        ("3 20000", "line 10002: endpoint out of range for n=20000: (3, 20000)"),
        ("2 1", "line 10002: duplicate edge (1, 2)"),
        ("1 2 3", "line 10002: expected 'u v', got '1 2 3'"),
        ("1 x", "line 10002: non-integer endpoint in '1 x'"),
        ("7", "line 10002: expected 'u v', got '7'"),
    ])
    def test_error_after_many_good_lines_names_its_line(self, bad, message):
        good = "".join(f"{i} {i + 1}\n" for i in range(10**4))
        with pytest.raises(EdgeListFormatError) as excinfo:
            load_edge_list(io.StringIO(f"20000\n{good}{bad}\n"))
        assert str(excinfo.value) == message

    def test_integer_spellings_beyond_plain_digits_read_as_int_reads_them(self):
        good = "".join(f"{i} {i + 1}\n" for i in range(10**4))
        g = load_edge_list(io.StringIO(f"20000\n{good}+3 1_000\n# note\r\n\u0661\u0667 \uff12\n"))
        want = {(i, i + 1) for i in range(10**4)} | {(3, 1000), (2, 17)}
        assert g.n == 20000 and edge_set(g) == frozenset(want)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_same_edges_in_process(self):
        assert edge_set(gen_binomial(100, 0.05, 9)) == edge_set(gen_binomial(100, 0.05, 9))
        assert edge_set(gen_powerlaw(100, 2, 9)) == edge_set(gen_powerlaw(100, 2, 9))
        assert edge_set(gen_exponential(100, 0.5, 9)) == edge_set(gen_exponential(100, 0.5, 9))

    def test_same_seed_same_edges_across_processes(self):
        snippet = (
            "from netspread.graphs import gen_binomial, gen_powerlaw, gen_exponential;"
            "print(gen_binomial(80, 0.06, 4).edge_array.tolist());"
            "print(gen_powerlaw(80, 2, 4).edge_array.tolist());"
            "print(gen_exponential(80, 0.5, 4).edge_array.tolist())"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet], capture_output=True, text=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_binomial_invariants_hold_for_all_seeds(n, p, seed):
    g = gen_binomial(n, p, seed)
    assert_valid_graph(g)
    assert edge_set(g) == edge_set(gen_binomial(n, p, seed))


@given(
    m=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_powerlaw_invariants_hold_for_all_seeds(m, extra, seed):
    n = m + 1 + extra
    g = gen_powerlaw(n, m, seed)
    assert_valid_graph(g)
    assert g.num_edges == m * (m + 1) // 2 + (n - m - 1) * m


@given(
    n=st.integers(min_value=2, max_value=50),
    lam=st.floats(min_value=0.05, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exponential_invariants_hold_for_all_seeds(n, lam, seed):
    g = gen_exponential(n, lam, seed)
    assert_valid_graph(g)
    assert edge_set(g) == edge_set(gen_exponential(n, lam, seed))


# ---------------------------------------------------------------------------
# Pinned edge lists and networkx oracles for the array representation
# ---------------------------------------------------------------------------

# SHA-256 of save_edge_list output, recorded from the tuple-set Graph before
# the graph became an edge array; any change in RNG use or ordering shows up.
EDGE_LIST_SHA256 = {
    "binomial": ("1c14147b21953085386a0d1fe6a18c4b3026fbae79fc052b694ca298fe4b3564",
                 lambda: gen_binomial(300, 0.02, 3)),
    "powerlaw": ("852dac31f7fa179dfb49f04107895487ecf3078f91647ede02ff4d7be2731b2b",
                 lambda: gen_powerlaw(2000, 3, 7)),
    "exponential": ("38d65a8aa501873e94c14681ecb18c88ae69105be55502c0572cb4e48b80331a",
                    lambda: gen_exponential(2000, 0.5, 5)),
    "lattice4": ("4da3890e5b70f82c4ed3e633c26199b6787f4b23c5a260234a7adcc99fab610b",
                 lambda: gen_lattice4(7, 9)),
    # The containment graph: its draws hold rejected words and repeated
    # candidates well past the first segment.
    "powerlaw_1e5": ("d6d49040a6a377a21070c7ccc4d8108c1ea2529195f011f6cef5039044080016",
                     lambda: gen_powerlaw(10**5, 3, 7)),
}


@pytest.mark.parametrize("family", sorted(EDGE_LIST_SHA256))
def test_pinned_edge_list_bytes(family):
    want, build = EDGE_LIST_SHA256[family]
    buf = io.StringIO()
    save_edge_list(build(), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == want


def _torus_3x4_less_two_edges() -> Graph:
    whole = gen_lattice4(3, 4)
    pruned = whole.remove_edges([(0, 1), (5, 1)])
    assert "edge_array" not in vars(whole)
    return pruned


# Graphs made in each remaining way, with their edges: the torus's are
# listed by hand, node (i, j) being i * 4 + j.
TORUS_3x4 = sorted({tuple(sorted((i * 4 + j, (i + di) % 3 * 4 + (j + dj) % 4)))
                    for i in range(3) for j in range(4) for di, dj in ((0, 1), (1, 0))})
BUILT = {
    "load_edge_list": (lambda: load_edge_list(io.StringIO("5\n3 1\n0 4\n1 0\n")),
                       [(0, 1), (0, 4), (1, 3)]),
    "from_edges": (lambda: Graph.from_edges(5, [(3, 1), (4, 0), (1, 0), (0, 1)]),
                   [(0, 1), (0, 4), (1, 3)]),
    "remove_edges": (_torus_3x4_less_two_edges,
                     [e for e in TORUS_3x4 if e not in {(0, 1), (1, 5)}]),
}


@pytest.mark.parametrize("source", sorted(EDGE_LIST_SHA256) + sorted(BUILT))
def test_graph_holds_no_edge_array_until_it_is_read(source):
    # The CSR is a graph's state: reading it, scoring the graph and running
    # the mean field on it leave the edge array unbuilt.
    build = EDGE_LIST_SHA256[source][1] if source in EDGE_LIST_SHA256 else BUILT[source][0]
    g = build()
    g.csr
    links = LinkProbs.homogeneous(g, 0.1)
    params = NodeParams.homogeneous(g.n, r=1.0, delta=0.3, gamma=0.3)
    survivability_score(g, links, params)
    meanfield_run("sis", MfState.uniform(g.n, p0=0.1), links, params, max_steps=3,
                  allow_negative_coefficients=True)
    assert "edge_array" not in vars(g)
    edges = g.edge_array
    assert edges.dtype == np.int64 and edges.shape == (g.num_edges, 2)
    assert not edges.flags.writeable and g.edge_array is edges
    if source in EDGE_LIST_SHA256:
        buf = io.StringIO()
        save_edge_list(g, buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert digest == EDGE_LIST_SHA256[source][0]
    else:
        assert edges.tolist() == [list(e) for e in BUILT[source][1]]


@st.composite
def graphs(draw, max_n=25):
    """A graph plus the raw pair list it was built from (either order,
    repeats allowed)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=3 * n))
    return Graph.from_edges(n, pairs), pairs


def nx_graph(n, pairs) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs)
    return h


@given(graphs())
def test_csr_rows_match_networkx(drawn):
    g, pairs = drawn
    h = nx_graph(g.n, pairs)
    indptr, indices = g.csr
    assert g.num_edges == h.number_of_edges()
    for i in range(g.n):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == sorted(h.neighbors(i))
    assert g.edge_array.tolist() == sorted(sorted(e) for e in h.edges)
    # transpose maps each entry (i, j) to the entry (j, i)
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    assert np.array_equal(indices[g.transpose], rows)
    assert np.array_equal(rows[g.transpose], indices)


@given(graphs(max_n=40))
def test_connected_components_match_networkx(drawn):
    g, pairs = drawn
    assert g.connected_components() == nx.number_connected_components(nx_graph(g.n, pairs))


@given(graphs(), st.data())
def test_remove_edges_matches_networkx(drawn, data):
    g, pairs = drawn
    present = sorted(edge_set(g))
    doomed = data.draw(st.lists(st.sampled_from(present), unique=True)) if present else []
    flipped = [(v, u) if k % 2 else (u, v) for k, (u, v) in enumerate(doomed)]
    h = nx_graph(g.n, pairs)
    h.remove_edges_from(doomed)
    after = g.remove_edges(flipped)
    assert edge_set(after) == {tuple(sorted(e)) for e in h.edges}
    assert after.n == g.n and g.num_edges == len(present)  # input untouched


@given(graphs(), st.data())
def test_remove_edges_equals_a_rebuilt_graph_array_for_array(drawn, data):
    """The copy is derived from this graph's cached arrays by deletion; every
    array it holds or derives equals that of the graph built from scratch."""
    g, _ = drawn
    present = sorted(edge_set(g))
    doomed = data.draw(st.lists(st.sampled_from(present))) if present else []
    after = g.remove_edges(doomed)
    rebuilt = Graph.from_edges(g.n, sorted(set(present) - set(doomed)))
    pairs = [(after.edge_array, rebuilt.edge_array), (after._csr_keys, rebuilt._csr_keys),
             (after.degrees, rebuilt.degrees), (after.transpose, rebuilt.transpose),
             (RowOperator(after.row_layout).columns, RowOperator(rebuilt.row_layout).columns),
             *zip(after.csr, rebuilt.csr)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for got, want in [(after.edge_array, rebuilt.edge_array), *zip(after.csr, rebuilt.csr)]:
        assert not got.flags.writeable and not want.flags.writeable
    assert after == rebuilt


def test_remove_missing_or_out_of_range_edge_names_it():
    g = Graph.from_edges(4, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"edge \(1, 2\) not present"):
        g.remove_edges([(2, 1)])
    with pytest.raises(ValueError, match="not present"):
        g.remove_edges([(-1, 1)])  # -1 * 4 + 1 would alias (0, 3) if unchecked


def test_out_of_range_ids_are_never_edges():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    # (-1, 1) and (1, -1) would alias (0, 4) through wrap-around indexing
    # or row-major keys; neither is an edge.
    for u, v in ((-1, 1), (1, -1), (5, 0), (0, 5), (-1, -1), (4, 4)):
        assert not g.has_edge(u, v)
    assert g.has_edge(4, 0) and g.has_edge(2, 1)
    assert g.csr_positions([-1, 1, 0], [1, -1, 4]).tolist() == [-1, -1, 0]


def test_views_are_read_only_and_match_arrays():
    g = gen_powerlaw(30, 2, 1)
    for arr in (g.edge_array, *g.csr, g.degrees, g.transpose, adjacency(g)[0]):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert Graph(n=g.n, edges=g.edge_array) == g
    assert Graph(n=g.n, edges=edge_set(g)) == g
    assert Graph(n=g.n + 1, edges=edge_set(g)) != g


def test_constructor_accepts_arrays_and_rejects_bad_pairs():
    assert Graph(n=3, edges=np.array([[1, 2], [0, 1], [1, 2]])).edge_array.tolist() == [
        [0, 1], [1, 2]]
    with pytest.raises(ValueError, match="violates"):
        Graph(n=3, edges=[(2, 1)])  # the constructor does not normalise
    with pytest.raises(ValueError, match="pairs"):
        Graph(n=3, edges=[(0, 1, 2)])
    with pytest.raises(ValueError, match="integer pairs"):
        Graph(n=3, edges=[(0.5, 1.7)])  # never truncated to (0, 1)


def test_edge_array_is_a_copy_of_an_array_subclass(tmp_path):
    edges = np.array([[0, 1], [1, 2]])
    mapped = np.memmap(tmp_path / "edges.bin", dtype=np.int64, mode="w+", shape=edges.shape)
    mapped[:] = edges
    for source in (mapped, edges.view(type("Sub", (np.ndarray,), {}))):
        g = Graph(n=4, edges=source)
        source[0] = (2, 3)
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]
        source[:] = edges


@pytest.mark.parametrize("build,name", [
    (lambda: Graph(True, []), "node count n"),
    (lambda: Graph(3.0, []), "node count n"),
    (lambda: gen_binomial(True, 0.5, 0), "n"),
    (lambda: gen_binomial(4.0, 0.5, 0), "n"),
    (lambda: gen_powerlaw(10, True, 0), "attachment count m"),
    (lambda: gen_powerlaw(10.0, 2, 0), "n"),
    (lambda: gen_exponential(10.0, 0.5, 0), "n"),
    (lambda: gen_lattice4(3.0, 4), "torus rows"),
    (lambda: gen_lattice4(4, True), "torus cols"),
], ids=["graph_bool", "graph_float", "binomial_bool", "binomial_float",
        "powerlaw_bool_m", "powerlaw_float_n", "exponential_float",
        "lattice_float_rows", "lattice_bool_cols"])
def test_node_counts_and_sizes_must_be_integers(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build()


def test_pair_conversion_crosses_chunks():
    # More pairs than one conversion chunk holds; a bad pair in the last
    # chunk is still rejected.
    pairs = [(u, u + 1) for u in range(2 * _PAIR_CHUNK + 3)]
    g = Graph(n=len(pairs) + 1, edges=iter(pairs))
    assert g.edge_array.tolist() == [list(p) for p in pairs]
    with pytest.raises(ValueError, match="integer pairs"):
        Graph(n=len(pairs) + 1, edges=pairs[:-1] + [(0.5, 1.7)])

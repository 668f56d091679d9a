"""Spectral machinery: power iteration, system matrix, survivability score."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.meanfield import LinkProbs, MfState, NodeParams, run
from netspread import spectral
from netspread.spectral import (
    CRITICAL_BAND,
    MAX_ITER,
    TOL,
    PowerIterationError,
    adjacency_spectral_radius,
    build_system_matrix,
    power_iteration,
    survivability_score,
)

from oracles import (
    dense_adjacency,
    dense_spectral_radius,
    dense_spectral_radius_symmetric,
    dense_system_matrix,
    edge_set,
    power_iteration_reference,
    system_matrix_reference,
    system_matrix_to_dense,
)


def random_links(g: Graph, rng: np.random.Generator):
    """A random directed link table and ``beta_of(j, i)``, the probability
    it gives the link ``j -> i``."""
    mapping = {}
    for u, v in edge_set(g):
        mapping[(u, v)] = float(rng.random())
        mapping[(v, u)] = float(rng.random())
    return (LinkProbs.from_mapping(g, mapping, symmetric=False),
            lambda j, i: mapping[(j, i)])


# ---------------------------------------------------------------------------
# Power iteration
# ---------------------------------------------------------------------------

class TestPowerIteration:
    def test_known_symmetric_pair(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = power_iteration(lambda v: m @ v, 2)
        assert res.value == pytest.approx(3.0, abs=1e-10)
        # the dominant eigenvector is uniform
        assert abs(abs(res.vector[0]) - abs(res.vector[1])) < 1e-8

    def test_zero_matrix_returns_zero(self):
        res = power_iteration(lambda v: np.zeros(4), 4)
        assert res.value == 0.0

    def test_matches_dense_solver_on_random_nonnegative(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = rng.random((30, 30))
            got = power_iteration(lambda v: m @ v, 30).value
            want = dense_spectral_radius(m)
            assert got == pytest.approx(want, abs=1e-8)

    def test_diagonal_matrix(self):
        d = np.diag([0.5, 2.5, 1.0])
        res = power_iteration(lambda v: d @ v, 3)
        assert res.value == pytest.approx(2.5, abs=1e-10)

    def test_reports_residual_and_iterations(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = power_iteration(lambda v: m @ v, 2)
        assert res.iterations >= 1
        assert res.residual <= 1e-10

    def test_matvec_argument_is_one_buffer_overwritten_between_calls(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        seen, copies = [], []

        def recording(v):
            seen.append(v)
            copies.append(v.copy())
            return m @ v

        res = power_iteration(recording, 2)
        assert len(seen) == res.iterations + 1
        # Every call got the same array, which ends as the last iterate ...
        assert all(v is seen[0] for v in seen)
        np.testing.assert_array_equal(seen[0], copies[-1])
        # ... while copies taken inside matvec keep each iterate.
        assert not np.array_equal(copies[0], copies[-1])
        np.testing.assert_array_equal(copies[0], np.full(2, 1.0 / np.sqrt(2.0)))

    def test_tolerance_and_budget_are_constants(self):
        assert TOL == 1e-10
        assert MAX_ITER == 100_000

    def test_empty_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="matrix dimension must be positive"):
            power_iteration(lambda v: v, 0)

    def test_nonconvergent_rotation_raises(self, monkeypatch):
        # Eigenvalues are +/-2: the iterate oscillates forever.  The budget is
        # read at call time; a smaller one keeps the test fast.
        monkeypatch.setattr(spectral, "MAX_ITER", 2000)
        m = np.array([[0.0, 4.0], [1.0, 0.0]])
        with pytest.raises(PowerIterationError) as exc:
            power_iteration(lambda v: m @ v, 2)
        assert exc.value.iterations == 2000
        assert exc.value.residual == pytest.approx(1.5, abs=1e-12)
        assert "did not converge" in str(exc.value)


# ---------------------------------------------------------------------------
# Adjacency spectral radius
# ---------------------------------------------------------------------------

class TestAdjacencySpectralRadius:
    def test_torus_is_four_regular(self):
        g = gen_lattice4(10, 10)
        res = adjacency_spectral_radius(g)
        assert res.value == pytest.approx(4.0, abs=1e-8)

    def test_bipartite_single_edge(self):
        # Spectrum is {+1, -1}; the diagonal shift must still converge.
        g = Graph.from_edges(2, [(0, 1)])
        assert adjacency_spectral_radius(g).value == pytest.approx(1.0, abs=1e-8)

    def test_bipartite_star(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert adjacency_spectral_radius(g).value == pytest.approx(2.0, abs=1e-8)

    def test_edgeless_graph(self):
        g = Graph.from_edges(4, [])
        assert adjacency_spectral_radius(g).value == 0.0

    def test_cycle(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        g = Graph.from_edges(6, edges)
        assert adjacency_spectral_radius(g).value == pytest.approx(2.0, abs=1e-8)

    def test_matches_dense_oracle_on_random_graphs(self):
        for seed in range(10):
            g = gen_binomial(40, 0.15, seed)
            want = dense_spectral_radius_symmetric(dense_adjacency(g))
            got = adjacency_spectral_radius(g).value
            assert got == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# System matrix
# ---------------------------------------------------------------------------

class TestSystemMatrix:
    def test_hand_built_two_nodes(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = NodeParams.homogeneous(2, r=0.5, delta=0.2, gamma=0.3)
        links = LinkProbs.homogeneous(g, 0.8)
        s = build_system_matrix(g, links, params)
        dense = system_matrix_to_dense(s)
        # diagonal: survival of the carrier itself
        assert dense[0, 0] == pytest.approx(0.8, abs=1e-15)
        # off-diagonal: broadcast, link success, then (re)availability weight
        want = 0.5 * 0.8 * (0.3 / 0.5)
        assert dense[0, 1] == pytest.approx(want, abs=1e-15)
        assert dense[1, 0] == pytest.approx(want, abs=1e-15)

    def test_matches_dense_oracle_heterogeneous(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = gen_binomial(20, 0.25, seed)
            links, beta_of = random_links(g, rng)
            params = NodeParams(
                r=rng.random(20),
                delta=rng.uniform(0.05, 1.0, 20),
                gamma=rng.random(20),
                nu=np.ones(20),
                chi=np.zeros(20),
            )
            s = build_system_matrix(g, links, params)
            want = dense_system_matrix(g, beta_of, params)
            assert np.max(np.abs(system_matrix_to_dense(s) - want)) < 1e-14

    def test_matvec_agrees_with_dense(self):
        rng = np.random.default_rng(9)
        g = gen_binomial(25, 0.2, 7)
        links, _ = random_links(g, rng)
        params = NodeParams(
            r=rng.random(25), delta=rng.uniform(0.05, 1.0, 25),
            gamma=rng.random(25), nu=np.ones(25), chi=np.zeros(25),
        )
        s = build_system_matrix(g, links, params)
        dense = system_matrix_to_dense(s)
        for _ in range(5):
            v = rng.standard_normal(25)
            assert np.max(np.abs(s.matvec(v, np.empty(25)) - dense @ v)) < 1e-12

    def test_zero_death_rate_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = NodeParams.homogeneous(2, r=1.0, delta=0.0, gamma=0.3)
        with pytest.raises(ValueError, match="requires delta > 0"):
            build_system_matrix(g, LinkProbs.homogeneous(g, 0.5), params)

    def test_size_mismatch_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        params = NodeParams.homogeneous(2, r=1.0, delta=0.1, gamma=0.3)
        with pytest.raises(ValueError):
            build_system_matrix(g, LinkProbs.homogeneous(g, 0.5), params)

    def test_foreign_link_table_rejected(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(0, 2), (1, 2)])
        params = NodeParams.homogeneous(3, r=1.0, delta=0.1, gamma=0.3)
        with pytest.raises(ValueError):
            build_system_matrix(g1, LinkProbs.homogeneous(g2, 0.5), params)


# ---------------------------------------------------------------------------
# Survivability score
# ---------------------------------------------------------------------------

class TestSurvivability:
    LATTICE_PARAMS = dict(r=1.0, delta=0.65, gamma=0.3)
    BETA = 0.4

    def test_homogeneous_lattice_closed_form(self):
        g = gen_lattice4(25, 40)
        params = NodeParams.homogeneous(1000, **self.LATTICE_PARAMS)
        res = survivability_score(g, LinkProbs.homogeneous(g, self.BETA), params)
        closed = (1 - 0.65) + 1.0 * 0.4 * (0.3 / 0.95) * 4.0
        assert closed == pytest.approx(0.8552631578947368, abs=1e-15)
        assert res.score == pytest.approx(closed, abs=1e-6)
        assert res.fast_extinction is True
        assert res.critical is False
        assert res.status == "true"

    def test_hub_rich_graph_is_supercritical(self):
        g = gen_powerlaw(1000, 2, 42)
        params = NodeParams.homogeneous(1000, **self.LATTICE_PARAMS)
        res = survivability_score(g, LinkProbs.homogeneous(g, self.BETA), params)
        assert res.score == pytest.approx(1.680011943774955, abs=1e-9)
        assert res.fast_extinction is False
        assert res.status == "false"

    def test_exactly_critical_reports_band(self):
        # (1 - 0.5) + 0.25 * (0.5 / 1.0) * 4 = 1.0 on a 4-regular torus.
        g = gen_lattice4(4, 4)
        params = NodeParams.homogeneous(16, r=1.0, delta=0.5, gamma=0.5)
        res = survivability_score(g, LinkProbs.homogeneous(g, 0.25), params)
        assert res.score == pytest.approx(1.0, abs=1e-12)
        assert res.critical is True
        assert res.status == "critical"
        assert CRITICAL_BAND == 1e-3

    def test_heterogeneous_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            g = gen_binomial(30, 0.2, seed)
            links, beta_of = random_links(g, rng)
            params = NodeParams(
                r=rng.random(30), delta=rng.uniform(0.05, 1.0, 30),
                gamma=rng.random(30), nu=np.ones(30), chi=np.zeros(30),
            )
            res = survivability_score(g, links, params)
            want = dense_spectral_radius(dense_system_matrix(g, beta_of, params))
            assert res.score == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("g", [gen_powerlaw(1000, 2, 42), gen_lattice4(32, 32),
                                   gen_binomial(300, 0.02, 3)], ids=["powerlaw", "torus",
                                                                   "binomial"])
    def test_keeps_the_power_iteration_count(self, g):
        rng = np.random.default_rng(5)
        links, _ = random_links(g, rng)
        params = NodeParams(r=rng.random(g.n), delta=rng.uniform(0.05, 1.0, g.n),
                            gamma=rng.random(g.n), nu=np.ones(g.n), chi=np.zeros(g.n))
        want = power_iteration_reference(
            system_matrix_reference(g, links, params).matvec, g.n)
        res = survivability_score(g, links, params)
        assert (res.score, res.iterations, res.residual) == (want[0], want[2], want[3])
        assert res.iterations > 1

    def test_score_increases_with_broadcast_rate(self):
        g = gen_powerlaw(200, 2, 5)
        links = LinkProbs.homogeneous(g, 0.3)
        scores = [
            survivability_score(
                g, links,
                NodeParams.homogeneous(200, r=r, delta=0.4, gamma=0.2)).score
            for r in (0.2, 0.5, 0.9)
        ]
        assert scores[0] < scores[1] < scores[2]


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_power_iteration_matches_dense_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = rng.random((12, 12))
    m = m + m.T
    got = power_iteration(lambda v: m @ v, 12).value
    assert got == pytest.approx(dense_spectral_radius_symmetric(m), abs=1e-8)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.floats(min_value=0.05, max_value=1.0),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=0.0, max_value=1.0),
)
def test_homogeneous_score_closed_form_property(seed, delta, gamma, beta):
    g = gen_binomial(20, 0.3, seed)
    params = NodeParams.homogeneous(20, r=1.0, delta=delta, gamma=gamma)
    res = survivability_score(g, LinkProbs.homogeneous(g, beta), params)
    lam = dense_spectral_radius_symmetric(dense_adjacency(g))
    closed = (1 - delta) + beta * (gamma / (gamma + delta)) * lam
    assert res.score == pytest.approx(closed, abs=1e-7)


@pytest.mark.parametrize("call", [build_system_matrix, survivability_score])
def test_params_and_links_must_belong_to_the_graph(call):
    # The check and wording that mc_run and the mean-field functions use.
    g = gen_powerlaw(20, 2, 1)
    other = gen_powerlaw(20, 2, 2)
    assert other != g
    params = NodeParams.homogeneous(20, r=1.0, delta=0.2, gamma=0.1)
    with pytest.raises(ValueError, match="cover 21 nodes but the graph has 20"):
        call(g, LinkProbs.homogeneous(g, 0.3),
             NodeParams.homogeneous(21, r=1.0, delta=0.2, gamma=0.1))
    with pytest.raises(ValueError,
                       match="link probabilities were built for a different graph"):
        call(g, LinkProbs.homogeneous(other, 0.3), params)
    call(g, LinkProbs.homogeneous(Graph(n=g.n, edges=edge_set(g)), 0.3), params)


# ---------------------------------------------------------------------------
# The score is the decay rate of the mean-field dynamics near p = 0
# ---------------------------------------------------------------------------

@st.composite
def connected_graphs(draw):
    family = draw(st.sampled_from(["powerlaw", "torus", "binomial"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "powerlaw":
        g = gen_powerlaw(draw(st.integers(10, 80)), draw(st.integers(1, 3)), seed)
    elif family == "torus":
        g = gen_lattice4(draw(st.integers(3, 8)), draw(st.integers(3, 8)))
    else:
        g = gen_binomial(draw(st.integers(8, 60)), draw(st.floats(0.15, 0.5)), seed)
    nxg = nx.Graph(list(edge_set(g)))
    nxg.add_nodes_from(range(g.n))
    assume(nx.is_connected(nxg))
    return g


@settings(max_examples=40)
@given(g=connected_graphs(), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([1e-6, 1e-7, 1e-8, 1e-9]))
def test_one_step_from_the_eigenvector_decays_at_the_score(g, seed, eps):
    # Near p = 0 with q = q* (1 - p), q* = gamma / (gamma + delta), the
    # update linearises to p' = S p.  From p = eps * v, v the score's
    # eigenvector, the carrier sum therefore changes by the factor s, up to
    # terms of order eps (measured below 6e-7 relative on such graphs).
    # eps stays at or above 1e-9: far smaller carrier levels reach the
    # rounding floor of 1 - zeta, where infection stops.
    rng = np.random.default_rng(seed)
    n = g.n
    params = NodeParams(r=rng.uniform(0.2, 1.0, n), delta=rng.uniform(0.05, 0.9, n),
                        gamma=rng.uniform(0.05, 1.0, n), nu=np.ones(n), chi=np.zeros(n))
    links = LinkProbs(g, rng.uniform(0.01, 1.0, 2 * g.num_edges))
    result = survivability_score(g, links, params)
    p = eps * result.vector
    q_star = params.gamma / (params.gamma + params.delta)
    state0 = MfState(p=p, q=q_star * (1.0 - p), w=np.zeros(n))
    stepped = run("sis", state0, links, params, max_steps=1, tol=0.0)
    carriers = stepped.trajectory.columns["carriers"]
    assert stepped.steps == 1
    assert carriers[1] / carriers[0] == pytest.approx(result.score, rel=1e-5)

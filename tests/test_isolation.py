"""Containment strategies: greedy removal, cycle search, lattice rewiring."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.isolation import (
    _report,
    greedy_edge_removal,
    lattice_dimensions,
    nn_hamiltonian_cycle,
    prune_to_cycle,
    rewire_to_lattice,
)
from netspread.meanfield import LinkProbs, NodeParams
from netspread.spectral import survivability_score

from oracles import (
    dense_adjacency,
    dense_spectral_radius_symmetric,
    edge_set,
    is_hamiltonian_cycle,
)

PARAMS = dict(r=1.0, delta=0.65, gamma=0.3)
BETA = 0.4


def scoring(g: Graph) -> dict:
    """The score arguments every strategy takes: ``BETA`` and ``PARAMS`` on
    the nodes of ``g``."""
    return dict(beta_template=BETA, params=NodeParams.homogeneous(g.n, **PARAMS))


# ---------------------------------------------------------------------------
# Greedy edge removal
# ---------------------------------------------------------------------------

class TestGreedyEdgeRemoval:
    def test_star_removes_one_spoke(self):
        star = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
        g2, rep = greedy_edge_removal(star, 1, **scoring(star))
        assert rep.removed_edges == [(0, 1)]  # lexicographic tie-break
        assert rep.lambda1_before == pytest.approx(3.0, abs=1e-10)
        assert rep.lambda1_after == pytest.approx(np.sqrt(8.0), abs=1e-10)
        assert rep.lambda1_steps == pytest.approx([3.0, np.sqrt(8.0)], abs=1e-10)
        assert g2.num_edges == 8
        assert star.num_edges == 9  # input graph untouched

    def test_zero_removals_is_identity(self):
        g = gen_binomial(15, 0.3, 1)
        g2, rep = greedy_edge_removal(g, 0, **scoring(g))
        assert edge_set(g2) == edge_set(g)
        assert rep.edges_removed == 0
        assert len(rep.lambda1_steps) == 1

    def test_negative_budget_rejected(self):
        g = gen_binomial(10, 0.3, 0)
        with pytest.raises(ValueError, match="must be >= 0"):
            greedy_edge_removal(g, -1, **scoring(g))

    def test_budget_capped_at_edge_count(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2, rep = greedy_edge_removal(g, 10, **scoring(g))
        assert g2.num_edges == 0
        assert rep.edges_removed == 2
        assert rep.lambda1_after <= 1e-12

    def test_hub_graph_descent_is_strictly_decreasing(self):
        g = gen_powerlaw(500, 2, 42)
        g2, rep = greedy_edge_removal(g, 50, **scoring(g))
        steps = rep.lambda1_steps
        assert len(steps) == 51
        assert rep.edges_removed == 50
        assert steps[0] == pytest.approx(9.2198642901, abs=1e-9)
        assert steps[-1] == pytest.approx(6.4515993127, abs=1e-9)
        assert all(b < a for a, b in zip(steps, steps[1:]))
        # every removed edge existed beforehand, none remain afterwards
        for u, v in rep.removed_edges:
            assert g.has_edge(u, v)
            assert not g2.has_edge(u, v)
        # final report value vs an independent dense solve
        want = dense_spectral_radius_symmetric(dense_adjacency(g2))
        assert rep.lambda1_after == pytest.approx(want, abs=1e-8)

    def test_scores_attached_when_params_given(self):
        g = gen_powerlaw(100, 2, 4)
        params = NodeParams.homogeneous(100, **PARAMS)
        g2, rep = greedy_edge_removal(g, 5, beta_template=BETA, params=params)
        assert rep.score_before is not None and rep.score_after is not None
        assert rep.score_after < rep.score_before
        assert rep.strategy == "greedy"


@pytest.mark.parametrize("strategy,contain", [
    ("greedy", lambda g: greedy_edge_removal(g, 5, **scoring(g))),
    ("cycle", lambda g: prune_to_cycle(g, nn_hamiltonian_cycle(g).cycle, **scoring(g))),
    ("lattice", lambda g: rewire_to_lattice(g, **scoring(g))),
], ids=["greedy", "cycle", "lattice"])
def test_every_strategy_reports_the_scores_of_both_graphs(strategy, contain):
    g = gen_powerlaw(12, 2, 0)
    after, rep = contain(g)
    params = NodeParams.homogeneous(g.n, **PARAMS)
    want = [survivability_score(h, LinkProbs.homogeneous(h, BETA), params).score
            for h in (g, after)]
    assert [rep.score_before, rep.score_after] == want
    assert rep.threshold_crossed == (want[0] >= 1.0 > want[1])
    assert rep.strategy == strategy


# ---------------------------------------------------------------------------
# Nearest-neighbour Hamiltonian cycle search
# ---------------------------------------------------------------------------

class TestNnHamiltonianCycle:
    def test_torus_from_default_start_cannot_close(self):
        res = nn_hamiltonian_cycle(gen_lattice4(4, 4))
        assert res.success is False
        assert res.cycle is None
        assert len(res.path) == 16
        assert res.reason == ("visited all 16 nodes but final node 14 "
                              "has no edge back to start 0")

    def test_torus_from_alternate_start_succeeds(self):
        g = gen_lattice4(4, 4)
        res = nn_hamiltonian_cycle(g, start=2)
        assert res.success is True
        assert res.cycle == [2, 1, 0, 3, 7, 4, 5, 6, 10, 9, 8, 11, 15, 12, 13, 14]
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_small_hub_graph_succeeds(self):
        g = gen_powerlaw(12, 2, 0)
        res = nn_hamiltonian_cycle(g)
        assert res.success is True
        assert res.cycle == [0, 9, 8, 4, 1, 3, 2, 11, 6, 10, 7, 5]
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_large_hub_graph_gets_stuck(self):
        res = nn_hamiltonian_cycle(gen_powerlaw(1000, 2, 42))
        assert res.success is False
        assert res.reason == ("stuck at node 538 after visiting 44 of 1000 "
                              "nodes: no unvisited neighbour")
        assert len(res.path) == 44

    def test_triangle_trivially_succeeds(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        res = nn_hamiltonian_cycle(g)
        assert res.success and is_hamiltonian_cycle(g, res.cycle)

    def test_start_out_of_range_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            nn_hamiltonian_cycle(g, start=99)

    def test_lowest_id_tie_break(self):
        # From 0 on a square, neighbours 1 and 3 have equal degree: pick 1.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = nn_hamiltonian_cycle(g)
        assert res.cycle == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Pruning down to a found cycle
# ---------------------------------------------------------------------------

class TestPruneToCycle:
    def test_prunes_to_two_regular_ring(self):
        g = gen_powerlaw(12, 2, 0)
        cycle = nn_hamiltonian_cycle(g).cycle
        pruned, rep = prune_to_cycle(g, cycle, **scoring(g))
        assert pruned.num_edges == 12
        assert (pruned.degrees == 2).all()
        assert rep.lambda1_after == pytest.approx(2.0, abs=1e-12)
        assert rep.edges_removed == 9  # 21 edges down to 12
        assert rep.edges_added == []
        assert rep.connectivity_after == 1

    def test_scores_for_small_hub_graph(self):
        g = gen_powerlaw(12, 2, 0)
        cycle = nn_hamiltonian_cycle(g).cycle
        params = NodeParams.homogeneous(12, **PARAMS)
        _, rep = prune_to_cycle(g, cycle, beta_template=BETA, params=params)
        assert rep.score_before == pytest.approx(0.876620426350347, abs=1e-12)
        assert rep.score_after == pytest.approx(0.6026315789473684, abs=1e-12)
        # already below threshold beforehand, so no crossing to report
        assert rep.threshold_crossed is False

    def test_rejects_incomplete_cycle(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="every node exactly once"):
            prune_to_cycle(g, [0, 1, 2], **scoring(g))
        with pytest.raises(ValueError, match="every node exactly once"):
            prune_to_cycle(g, [0, 1, 2, 2], **scoring(g))

    def test_rejects_cycle_using_missing_edge(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="not an edge"):
            prune_to_cycle(g, [0, 1, 3, 2], **scoring(g))


# ---------------------------------------------------------------------------
# Rewiring onto a torus
# ---------------------------------------------------------------------------

class TestLatticeDimensions:
    @pytest.mark.parametrize("n,want", [
        (9, (3, 3)), (12, (3, 4)), (100, (10, 10)), (1000, (25, 40)),
        (8, None), (11, None), (13, None),
    ])
    def test_factorizations(self, n, want):
        assert lattice_dimensions(n) == want


class TestRewireToLattice:
    def test_square_count_becomes_perfect_torus(self):
        g = gen_binomial(16, 0.4, 2)
        lat, rep = rewire_to_lattice(g, **scoring(g))
        assert Counter(lat.degrees.tolist()) == {4: 16}
        assert rep.surplus_nodes == []
        assert rep.lambda1_after == pytest.approx(4.0, abs=1e-8)
        assert rep.connectivity_after == 1

    @pytest.mark.parametrize("n,surplus", [(13, [12]), (11, [9, 10]), (14, [12, 13])],
                             ids=["n13", "n11", "n14"])
    def test_awkward_count_splices_surplus_into_ring(self, n, surplus):
        g = gen_binomial(n, 0.5, 3)
        lat, rep = rewire_to_lattice(g, **scoring(g))
        assert rep.surplus_nodes == surplus
        assert Counter(lat.degrees.tolist()) == {4: n - len(surplus), 2: len(surplus)}
        assert rep.connectivity_after == 1
        # surplus nodes sit on a path between former ring neighbours 0 and 1
        route = [0, *surplus, 1]
        assert all(lat.has_edge(a, b) for a, b in zip(route, route[1:]))
        assert not lat.has_edge(0, 1)
        assert all(lat.degrees[s] == 2 for s in surplus)

    def test_too_small_rejected(self):
        g = gen_binomial(8, 0.5, 1)
        with pytest.raises(ValueError, match="at least 9"):
            rewire_to_lattice(g, **scoring(g))

    def test_hub_graph_crosses_threshold(self):
        g = gen_powerlaw(1000, 2, 42)
        params = NodeParams.homogeneous(1000, **PARAMS)
        lat, rep = rewire_to_lattice(g, beta_template=BETA, params=params)
        assert rep.lambda1_after == pytest.approx(4.0, abs=1e-8)
        assert rep.score_before == pytest.approx(1.680011943774955, abs=1e-9)
        assert rep.score_after == pytest.approx(0.8552631578947373, abs=1e-9)
        assert rep.threshold_crossed is True
        assert rep.connectivity_after == 1
        assert rep.strategy == "lattice"


@pytest.mark.parametrize("call,name", [
    (lambda g: greedy_edge_removal(g, True, **scoring(g)), "k"),
    (lambda g: greedy_edge_removal(g, 2.0, **scoring(g)), "k"),
    (lambda g: nn_hamiltonian_cycle(g, start=0.0), "start"),
    (lambda g: nn_hamiltonian_cycle(g, start=True), "start"),
], ids=["k_bool", "k_float", "start_float", "start_bool"])
def test_non_integer_arguments_are_rejected(call, name):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(g)


# ---------------------------------------------------------------------------
# Strategy comparison report
# ---------------------------------------------------------------------------

class TestReport:
    def test_ring_overlay_report(self):
        base = gen_powerlaw(500, 2, 42)
        ring_edges = [(i, (i + 1) % 500) for i in range(500)]
        before = Graph.from_edges(500, list(edge_set(base)) + ring_edges)
        after = Graph.from_edges(500, ring_edges)
        params = NodeParams.homogeneous(500, **PARAMS)
        rep = _report("ring", before, after, BETA, params)
        assert before.num_edges == 1489
        assert rep.edges_removed == 989
        assert rep.edges_added == []
        assert rep.score_before == pytest.approx(1.6657055810, abs=1e-9)
        assert rep.score_after == pytest.approx(0.6026315789, abs=1e-9)
        assert rep.threshold_crossed is True
        assert rep.strategy == "ring"
        assert rep.connectivity_after == 1

    def test_additions_are_reported(self):
        before = Graph.from_edges(4, [(0, 1), (1, 2)])
        after = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        params = NodeParams.homogeneous(4, **PARAMS)
        rep = _report("custom", before, after, BETA, params)
        assert rep.edges_removed == 0
        assert rep.edges_added == [(2, 3)]

    def test_to_dict_round_trips_through_json(self):
        import json
        g = gen_powerlaw(50, 2, 8)
        params = NodeParams.homogeneous(50, **PARAMS)
        _, rep = greedy_edge_removal(g, 3, beta_template=BETA, params=params)
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["strategy"] == "greedy"
        assert back["edges_removed"] == 3
        assert len(back["lambda1_steps"]) == 4


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=8),
)
def test_greedy_never_increases_lambda1_property(seed, k):
    g = gen_binomial(18, 0.3, seed)
    g2, rep = greedy_edge_removal(g, k, **scoring(g))
    assert g2.num_edges == max(g.num_edges - k, 0)
    steps = rep.lambda1_steps
    assert all(b <= a + 1e-12 for a, b in zip(steps, steps[1:]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_nn_cycle_when_found_is_valid_property(seed):
    g = gen_binomial(12, 0.5, seed)
    res = nn_hamiltonian_cycle(g)
    if res.success:
        assert is_hamiltonian_cycle(g, res.cycle)
    else:
        assert res.reason

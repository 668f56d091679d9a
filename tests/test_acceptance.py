"""Acceptance gate: one test per release criterion, each with its tolerance.

Every test below pins an end-to-end behaviour of the package against an
independent oracle (closed forms, dense eigensolvers, scalar reference loops)
or against frozen values produced by those oracles.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""
import itertools
import time

import numpy as np

from netspread.experiments import ExperimentConfig, run_experiment
from netspread.graphs import (
    Graph,
    gen_binomial,
    gen_exponential,
    gen_lattice4,
    gen_powerlaw,
)
from netspread.isolation import (
    greedy_edge_removal,
    nn_hamiltonian_cycle,
    prune_to_cycle,
    rewire_to_lattice,
)
from netspread.meanfield import LinkProbs, MfState, NodeParams, run
from netspread.montecarlo import HAS_INFO, mc_ensemble
from netspread.ode import OdeParams, OdeState, integrate
from netspread.spectral import adjacency_spectral_radius, power_iteration, survivability_score

from oracles import (
    dense_adjacency,
    dense_spectral_radius,
    dense_spectral_radius_symmetric,
    final_size_fixed_point,
    sis_ode_exact,
)


def test_criterion_1_endemic_ode_reaches_logistic_equilibrium():
    """beta=1.0, gamma=0.1, i0=0.01: i(200) equals the closed-form endemic
    level 1 - gamma/beta = 0.9 within 1e-6, integrated in under a second."""
    start = time.perf_counter()
    traj = integrate("sis", OdeState(s=0.99, i=0.01),
                     OdeParams(beta=1.0, gamma=0.1), dt=0.01, t_end=200.0)
    elapsed = time.perf_counter() - start
    i_final = traj.columns["i"][-1]
    assert abs(i_final - 0.9) < 1e-6
    assert abs(i_final - sis_ode_exact(200.0, 1.0, 0.1, 0.01)) < 1e-9
    assert elapsed < 1.0


def test_criterion_2_epidemic_final_size_matches_fixed_point():
    """beta=0.8, gamma=0.1, s0=0.999: terminal susceptible fraction at t=100
    agrees with the bisection solution of s = s0*exp(-8*(1-s)) within 1e-3,
    and the infected curve has exactly one interior maximum."""
    traj = integrate("sir_epidemic", OdeState(s=0.999, i=0.001),
                     OdeParams(beta=0.8, gamma=0.1), dt=0.01, t_end=100.0)
    s_oracle = final_size_fixed_point(0.999, 0.8 / 0.1)
    assert abs(traj.columns["s"][-1] - s_oracle) < 1e-3
    i = traj.columns["i"]
    interior_maxima = sum(
        1 for k in range(1, len(i) - 1) if i[k - 1] < i[k] >= i[k + 1]
    )
    assert interior_maxima == 1


def test_criterion_3_power_iteration_agrees_with_dense_eigensolver():
    """100 seeded random nonnegative 30x30 matrices: dominant eigenvalue from
    power iteration within 1e-8 of numpy's dense solver; the 10x10 torus
    spectral radius within 1e-8 of the exact value 4; all in under 10 s."""
    start = time.perf_counter()
    for seed in range(100):
        m = np.random.default_rng(seed).random((30, 30))
        got = power_iteration(lambda v: m @ v, 30).value
        assert abs(got - dense_spectral_radius(m)) < 1e-8
    assert abs(adjacency_spectral_radius(gen_lattice4(10, 10)).value - 4.0) < 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_4_meanfield_extinction_and_persistence_follow_score():
    """Across four graph families, the first 20 parameter combinations with
    survivability score < 1 drive expected carriers below 1e-6 of the initial
    mass within 2000 synchronous steps, and the first 20 with score > 1 keep
    more than 1e-3*n expected carriers at step 2000; total under 2 minutes."""
    start = time.perf_counter()
    graphs = [
        gen_lattice4(20, 20),
        gen_powerlaw(400, 2, 11),
        gen_binomial(300, 0.02, 12),
        gen_exponential(400, 0.4, 13),
    ]

    def qualifying(grid, predicate, limit):
        cases = []
        for g in graphs:
            for delta, beta, gamma in grid:
                params = NodeParams.homogeneous(g.n, r=1.0, delta=delta,
                                                gamma=gamma)
                links = LinkProbs.homogeneous(g, beta)
                score = survivability_score(g, links, params).score
                if predicate(score):
                    cases.append((g, links, params))
                    if len(cases) == limit:
                        return cases
        return cases

    extinction_grid = list(itertools.product(
        (0.3, 0.5, 0.65), (0.03, 0.08, 0.15), (0.1, 0.3)))
    extinction = qualifying(extinction_grid, lambda s: s < 1.0, 20)
    assert len(extinction) == 20
    for g, links, params in extinction:
        res = run("sis", MfState.uniform(g.n, p0=0.1), links, params,
                  max_steps=2000, tol=0.0)
        assert res.violations == []
        carriers = res.trajectory.columns["carriers"]
        assert carriers[-1] < 1e-6 * carriers[0]

    persistence_grid = list(itertools.product(
        (0.05, 0.1, 0.15), (0.1, 0.25), (0.2,)))
    persistence = qualifying(persistence_grid, lambda s: s > 1.0, 20)
    assert len(persistence) == 20
    for g, links, params in persistence:
        res = run("sis", MfState.uniform(g.n, p0=0.1), links, params,
                  max_steps=2000, tol=0.0)
        assert res.violations == []
        assert res.trajectory.columns["carriers"][-1] > 1e-3 * g.n

    assert time.perf_counter() - start < 120.0


def test_criterion_5_survivability_ranks_hub_graph_above_lattice():
    """Same node parameters (r=1, delta=0.65, gamma=0.3, beta=0.4) on 1000
    nodes: the preferential-attachment graph scores above 1 while the 25x40
    torus scores (1-delta) + beta*(gamma/(gamma+delta))*4 < 1, the torus value
    matching the closed form within 1e-6 and the hub-graph value matching a
    dense-eigensolver cross-check within 1e-8."""
    params = NodeParams.homogeneous(1000, r=1.0, delta=0.65, gamma=0.3)

    lattice = gen_lattice4(25, 40)
    s_lattice = survivability_score(
        lattice, LinkProbs.homogeneous(lattice, 0.4), params)
    closed_form = (1 - 0.65) + 0.4 * (0.3 / 0.95) * 4.0
    assert abs(closed_form - 0.8552631578947368) < 1e-15
    assert abs(s_lattice.score - closed_form) < 1e-6
    assert s_lattice.fast_extinction is True

    hub = gen_powerlaw(1000, 2, 42)
    s_hub = survivability_score(hub, LinkProbs.homogeneous(hub, 0.4), params)
    lam_dense = dense_spectral_radius_symmetric(dense_adjacency(hub))
    cross_check = (1 - 0.65) + 0.4 * (0.3 / 0.95) * lam_dense
    assert abs(s_hub.score - cross_check) < 1e-8
    assert s_hub.score > 1.0
    assert s_hub.fast_extinction is False
    assert s_hub.score > s_lattice.score


def test_criterion_6_warned_model_reduces_to_plain_model_at_unit_acceptance():
    """100 random single steps with nu=1 and an empty warned pool: the warned
    variant reproduces the plain update to within 1e-15 per node."""
    for k in range(100):
        rng = np.random.default_rng(k)
        g = gen_binomial(30, 0.15, k)
        params = NodeParams(
            r=rng.random(30),
            delta=rng.uniform(0.01, 1.0, 30),
            gamma=rng.random(30),
            nu=np.ones(30),
            chi=rng.random(30),
        )
        links = LinkProbs.homogeneous(g, float(rng.random()))
        cuts = np.sort(rng.random((30, 2)), axis=1)
        state = MfState(p=cuts[:, 0], q=cuts[:, 1] - cuts[:, 0], w=np.zeros(30))
        plain, warned = (
            run(model, state, links, params, max_steps=1, tol=0,
                allow_negative_coefficients=True).final_state
            for model in ("sis", "sirs")
        )
        assert np.max(np.abs(plain.p - warned.p)) <= 1e-15
        assert np.max(np.abs(plain.q - warned.q)) <= 1e-15
        assert np.all(warned.w == 0.0)


def test_criterion_7_stochastic_ensemble_tracks_meanfield_on_complete_graph():
    """Complete graph on 50 nodes, beta=0.01, delta=0.05, gamma=0.1, 20%
    seeded: the 500-run ensemble mean carrier fraction stays within 0.05 of
    the mean-field prediction at every one of 100 steps, in under 60 s."""
    start = time.perf_counter()
    n = 50
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    params = NodeParams.homogeneous(n, r=1.0, delta=0.05, gamma=0.1)
    links = LinkProbs.homogeneous(g, 0.01)

    ensemble = mc_ensemble(g, links, params, init=0.2, steps=100,
                           runs=500, seed=2024)
    mf = run("sis", MfState.uniform(n, p0=0.2), links, params,
             max_steps=100, tol=0.0)

    mc_carriers = ensemble.mean[:, HAS_INFO]
    mf_carriers = mf.trajectory.columns["mean_p"]
    assert mc_carriers.shape == mf_carriers.shape == (101,)
    assert np.max(np.abs(mc_carriers - mf_carriers)) <= 0.05
    assert time.perf_counter() - start < 60.0


def test_criterion_8_isolation_strategies_cut_lambda1_and_cross_threshold():
    """Greedy removal strictly lowers lambda1 at every one of 50 steps on a
    500-node hub graph; the cycle search fails on the 1000-node hub graph but
    succeeds on a 12-node one, pruning it to lambda1 = 2 within 1e-8; and
    rewiring the 1000-node hub graph onto a torus lands lambda1 = 4 within
    1e-8, flipping the survivability verdict from persistent to extinct."""
    def params(n):
        return NodeParams.homogeneous(n, r=1.0, delta=0.65, gamma=0.3)

    g500 = gen_powerlaw(500, 2, 42)
    _, greedy_rep = greedy_edge_removal(g500, 50, beta_template=0.4, params=params(500))
    steps = greedy_rep.lambda1_steps
    assert len(steps) == 51
    assert all(b < a for a, b in zip(steps, steps[1:]))

    g1000 = gen_powerlaw(1000, 2, 42)
    assert nn_hamiltonian_cycle(g1000).success is False

    g12 = gen_powerlaw(12, 2, 0)
    search = nn_hamiltonian_cycle(g12)
    assert search.success is True
    _, prune_rep = prune_to_cycle(g12, search.cycle, beta_template=0.4, params=params(12))
    assert abs(prune_rep.lambda1_after - 2.0) < 1e-8

    _, rewire_rep = rewire_to_lattice(g1000, beta_template=0.4, params=params(1000))
    assert abs(rewire_rep.lambda1_after - 4.0) < 1e-8
    assert rewire_rep.score_before > 1.0
    assert rewire_rep.score_after < 1.0
    assert rewire_rep.threshold_crossed is True


def test_criterion_9_sweep_outputs_are_byte_identical_across_reruns(tmp_path):
    """Running the same swept stochastic experiment twice produces files that
    are byte-for-byte identical, including the manifest."""
    config = ExperimentConfig.from_dict({
        "model": "sis_mc",
        "params": {"beta": 0.05, "delta": 0.1, "gamma": 0.1, "r": 1.0,
                   "p0": 0.1},
        "run": {"steps": 40, "runs": 25},
        "graph": {"family": "binomial", "n": 80, "p": 0.06, "seed": 3},
        "sweep": {"parameters": [{"name": "beta", "base": 0.05}],
                  "increment": 0.05, "count": 3},
        "seed": 99,
    })
    dir_a, dir_b = tmp_path / "first", tmp_path / "second"
    run_experiment(config, dir_a)
    run_experiment(config, dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    assert names_a == ["graph.edges", "manifest.json", "point_000.csv",
                       "point_001.csv", "point_002.csv"]
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

"""Stochastic simulator: seeding, single-step semantics, ensembles."""
import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netspread import montecarlo
from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.meanfield import LinkProbs, NodeParams
from netspread.montecarlo import (
    _TRANSITIONS,
    DEAD,
    HAS_INFO,
    NO_INFO,
    WARNED,
    EnsembleResult,
    initial_states,
    mc_ensemble,
    mc_run,
    _Step,
    mix_seed,
)

from oracles import bfs_ball, edge_set, mc_step_reference, splitmix_finalizer


def one_step(states, g, links, params, rng):
    """One prepared step from a copy of ``states`` as ``int8`` codes."""
    return _Step(g, links, params)(states.astype(np.int8), rng)


def pair_params(**overrides) -> NodeParams:
    base = dict(r=np.ones(2), delta=np.zeros(2), gamma=np.zeros(2),
                nu=np.ones(2), chi=np.zeros(2))
    base.update({k: np.full(2, float(v)) for k, v in overrides.items()})
    return NodeParams(**base)


class TestSeeding:
    def test_state_codes_are_stable(self):
        assert (NO_INFO, HAS_INFO, WARNED, DEAD) == (0, 1, 2, 3)

    def test_mix_seed_matches_reference_finalizer(self):
        for master, k in [(0, 0), (42, 0), (42, 1), (2**64 - 1, 5), (7, 123)]:
            assert mix_seed(master, k) == splitmix_finalizer(master ^ k)

    def test_mix_seed_frozen_vectors(self):
        assert mix_seed(0, 0) == 0
        assert mix_seed(42, 0) == 12058926934050108962
        assert mix_seed(42, 1) == 5695472266747893962
        assert mix_seed(2**64 - 1, 5) == 10663088712343502407

    @pytest.mark.parametrize("numpy_int", [np.int64(5), np.int32(5), np.uint64(5),
                                           np.int64(-1)],
                             ids=["int64", "int32", "uint64", "int64_negative"])
    def test_mix_seed_takes_numpy_integers(self, numpy_int):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mix_seed(numpy_int, 1) == mix_seed(int(numpy_int), 1)
            assert mix_seed(1, numpy_int) == mix_seed(1, int(numpy_int))
        with pytest.raises(TypeError):
            mix_seed(float(numpy_int), 1)

    def test_mix_seed_decorrelates_consecutive_runs(self):
        outs = {mix_seed(42, k) for k in range(1000)}
        assert len(outs) == 1000

    def test_initial_states_exact_count(self):
        rng = np.random.default_rng(0)
        states = initial_states(50, 0.2, rng)
        assert states.shape == (50,)
        assert int(np.sum(states == HAS_INFO)) == 10
        assert int(np.sum(states == NO_INFO)) == 40

    @pytest.mark.parametrize("init", [-0.1, 1.5, float("nan")])
    def test_initial_states_rejects_fractions_outside_the_unit_interval(self, init):
        with pytest.raises(ValueError, match="initial carrier fraction must lie in"):
            initial_states(10, init, np.random.default_rng(0))

    def test_initial_states_rounds_to_nearest(self):
        rng = np.random.default_rng(1)
        assert int(np.sum(initial_states(10, 0.26, rng) == HAS_INFO)) == 3
        assert int(np.sum(initial_states(10, 0.0, rng) == HAS_INFO)) == 0
        assert int(np.sum(initial_states(10, 1.0, rng) == HAS_INFO)) == 10


class TestStepSemantics:
    def test_deterministic_flood_is_bfs_ball(self):
        g = gen_powerlaw(60, 2, 9)
        params = NodeParams.homogeneous(60, r=1.0, delta=0.0, gamma=0.0)
        links = LinkProbs.homogeneous(g, 1.0)
        rng = np.random.default_rng(3)
        states = np.full(60, NO_INFO, dtype=np.int64)
        states[0] = HAS_INFO
        for t in range(1, 4):
            states = one_step(states, g, links, params, rng)
            got = set(np.flatnonzero(states == HAS_INFO).tolist())
            assert got == bfs_ball(g, 0, t)

    def test_no_transmission_without_carriers(self):
        g = gen_binomial(20, 0.3, 4)
        params = NodeParams.homogeneous(20, r=1.0, delta=0.0, gamma=0.0)
        states = np.full(20, NO_INFO, dtype=np.int64)
        nxt = one_step(states, g, LinkProbs.homogeneous(g, 1.0), params,
                       np.random.default_rng(0))
        assert np.all(nxt == NO_INFO)

    def test_death_overrides_receipt(self):
        # The receiver dies in the same step it would have accepted the info.
        g = Graph.from_edges(2, [(0, 1)])
        params = pair_params(delta=1.0)
        nxt = one_step(np.array([HAS_INFO, NO_INFO]), g,
                       LinkProbs.homogeneous(g, 1.0), params,
                       np.random.default_rng(0))
        assert nxt.tolist() == [DEAD, DEAD]

    def test_resurrection_returns_to_no_info(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = pair_params(gamma=1.0)
        nxt = one_step(np.array([DEAD, DEAD]), g, LinkProbs.homogeneous(g, 1.0),
                       params, np.random.default_rng(0))
        assert nxt.tolist() == [NO_INFO, NO_INFO]

    def test_refusal_enters_warned_and_sticks_without_reversion(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = pair_params(nu=0.0, chi=0.0)
        links = LinkProbs.homogeneous(g, 1.0)
        rng = np.random.default_rng(0)
        s1 = one_step(np.array([HAS_INFO, NO_INFO]), g, links, params, rng)
        assert s1.tolist() == [HAS_INFO, WARNED]
        s2 = one_step(s1, g, links, params, rng)
        assert s2.tolist() == [HAS_INFO, WARNED]

    def test_full_reversion_rate_clears_warned(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = pair_params(nu=0.0, chi=1.0)
        links = LinkProbs.homogeneous(g, 1.0)
        rng = np.random.default_rng(0)
        s1 = one_step(np.array([HAS_INFO, NO_INFO]), g, links, params, rng)
        assert s1.tolist() == [HAS_INFO, WARNED]
        s2 = one_step(s1, g, links, params, rng)
        assert s2.tolist() == [HAS_INFO, NO_INFO]

    def test_warned_nodes_never_accept(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = pair_params(nu=1.0, chi=0.0)
        nxt = one_step(np.array([HAS_INFO, WARNED]), g,
                       LinkProbs.homogeneous(g, 1.0), params,
                       np.random.default_rng(0))
        assert nxt.tolist() == [HAS_INFO, WARNED]

    def test_zero_link_probability_blocks_spread(self):
        g = gen_binomial(15, 0.4, 2)
        params = NodeParams.homogeneous(15, r=1.0, delta=0.0, gamma=0.0)
        states = np.full(15, NO_INFO, dtype=np.int64)
        states[0] = HAS_INFO
        nxt = one_step(states, g, LinkProbs.homogeneous(g, 0.0), params,
                       np.random.default_rng(5))
        assert np.sum(nxt == HAS_INFO) == 1

    def test_silent_carriers_do_not_spread(self):
        g = gen_binomial(15, 0.4, 2)
        params = NodeParams.homogeneous(15, r=0.0, delta=0.0, gamma=0.0)
        states = np.full(15, NO_INFO, dtype=np.int64)
        states[0] = HAS_INFO
        nxt = one_step(states, g, LinkProbs.homogeneous(g, 1.0), params,
                       np.random.default_rng(5))
        assert np.sum(nxt == HAS_INFO) == 1


class TestRuns:
    def test_trajectory_shape_and_simplex(self):
        g = gen_lattice4(5, 5)
        params = NodeParams.homogeneous(25, r=1.0, delta=0.2, gamma=0.1)
        traj = mc_run(g, LinkProbs.homogeneous(g, 0.3), params,
                      init=0.2, steps=40, seed=11)
        assert traj.shape == (41, 4)
        assert np.all(traj >= 0.0) and np.all(traj <= 1.0)
        assert np.allclose(traj.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert traj[0, HAS_INFO] == pytest.approx(0.2, abs=1e-12)
        assert traj[0, WARNED] == 0.0 and traj[0, DEAD] == 0.0

    def test_same_seed_reproduces_exactly(self):
        g = gen_binomial(40, 0.1, 8)
        params = NodeParams.homogeneous(40, r=1.0, delta=0.1, gamma=0.05)
        links = LinkProbs.homogeneous(g, 0.3)
        a = mc_run(g, links, params, init=0.1, steps=30, seed=77)
        b = mc_run(g, links, params, init=0.1, steps=30, seed=77)
        assert np.array_equal(a, b)
        c = mc_run(g, links, params, init=0.1, steps=30, seed=78)
        assert not np.array_equal(a, c)

    def test_subcritical_lattice_always_dies_out(self):
        # Survivability score 0.855 < 1: every run hits zero carriers.
        g = gen_lattice4(5, 5)
        params = NodeParams.homogeneous(25, r=1.0, delta=0.65, gamma=0.3)
        links = LinkProbs.homogeneous(g, 0.4)
        for k in range(200):
            traj = mc_run(g, links, params, init=0.2, steps=60, seed=1000 + k)
            assert traj[-1, HAS_INFO] == 0.0


class TestRunInputs:
    def make(self, n=30, seed=1):
        g = gen_powerlaw(n, 2, seed)
        return g, LinkProbs.homogeneous(g, 0.3), NodeParams.homogeneous(
            n, r=1.0, delta=0.1, gamma=0.1)

    @pytest.mark.parametrize("steps", [-1, -3])
    def test_negative_steps_rejected(self, steps):
        g, links, params = self.make()
        with pytest.raises(ValueError, match="steps"):
            mc_run(g, links, params, init=0.1, steps=steps, seed=0)
        with pytest.raises(ValueError, match="steps"):
            mc_ensemble(g, links, params, init=0.1, steps=steps, runs=2, seed=0)

    @pytest.mark.parametrize("steps,runs,name", [
        (True, 2, "steps"), (2.5, 2, "steps"), (np.float64(3.0), 2, "steps"),
        (5, True, "runs"), (5, 2.0, "runs"), (5, "2", "runs"),
    ])
    def test_sizes_must_be_integers(self, steps, runs, name):
        g, links, params = self.make()
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            mc_ensemble(g, links, params, init=0.1, steps=steps, runs=runs, seed=0)
        if name == "steps":
            with pytest.raises(ValueError, match="^steps must be an integer, got "):
                mc_run(g, links, params, init=0.1, steps=steps, seed=0)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), None, 1.5, True],
                             ids=["generator", "none", "float", "bool"])
    def test_run_seed_must_be_an_integer(self, seed):
        g, links, params = self.make()
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            mc_run(g, links, params, init=0.1, steps=2, seed=seed)

    def test_run_seed_must_be_non_negative(self):
        g, links, params = self.make()
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1"):
            mc_run(g, links, params, init=0.1, steps=2, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), None, True, "3"])
    def test_ensemble_seed_must_be_an_integer(self, seed):
        g, links, params = self.make()
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            mc_ensemble(g, links, params, init=0.1, steps=2, runs=2, seed=seed)

    def test_ensemble_takes_any_integer_seed(self):
        # mix_seed masks the master seed to 64 bits, so -1 is 2**64 - 1,
        # whatever integer type carries it.
        g, links, params = self.make()
        means = [mc_ensemble(g, links, params, init=0.1, steps=5, runs=2, seed=seed).mean
                 for seed in (-1, np.int64(-1), 2**64 - 1, np.uint64(2**64 - 1))]
        assert all(np.array_equal(means[0], mean) for mean in means[1:])

    def test_numpy_integer_sizes_accepted(self):
        g, links, params = self.make()
        ens = mc_ensemble(g, links, params, init=0.1, steps=np.int64(3),
                          runs=np.int32(2), seed=0)
        assert ens.mean.shape == (4, 4) and ens.runs == 2

    def test_zero_steps_is_the_initial_row(self):
        g, links, params = self.make()
        traj = mc_run(g, links, params, init=0.1, steps=0, seed=0)
        assert traj.shape == (1, 4)

    def test_param_length_must_match_graph(self):
        g, links, _ = self.make()
        params = NodeParams.homogeneous(g.n + 1, r=1.0, delta=0.1, gamma=0.1)
        with pytest.raises(ValueError, match="31 nodes but the graph has 30"):
            mc_run(g, links, params, init=0.1, steps=5, seed=0)

    def test_links_for_another_graph_rejected(self):
        g = gen_powerlaw(50, 2, 1)
        other = gen_powerlaw(50, 2, 2)
        assert other != g
        params = NodeParams.homogeneous(50, r=1.0, delta=0.1, gamma=0.1)
        with pytest.raises(ValueError, match="different graph"):
            mc_run(g, LinkProbs.homogeneous(other, 0.3), params,
                   init=0.1, steps=5, seed=0)

    def test_links_for_an_equal_graph_accepted(self):
        g = gen_powerlaw(50, 2, 1)
        twin = Graph(n=g.n, edges=edge_set(g))
        params = NodeParams.homogeneous(50, r=1.0, delta=0.1, gamma=0.1)
        a = mc_run(g, LinkProbs.homogeneous(twin, 0.3), params,
                   init=0.1, steps=5, seed=0)
        b = mc_run(g, LinkProbs.homogeneous(g, 0.3), params,
                   init=0.1, steps=5, seed=0)
        assert np.array_equal(a, b)


class TestEnsembles:
    def make(self, seed=7, runs=50):
        g = gen_lattice4(5, 5)
        params = NodeParams.homogeneous(25, r=1.0, delta=0.65, gamma=0.3)
        links = LinkProbs.homogeneous(g, 0.4)
        return mc_ensemble(g, links, params, init=0.2, steps=30,
                           runs=runs, seed=seed)

    def test_frozen_ensemble_row(self):
        ens = self.make()
        assert ens.runs == 50 and ens.seed == 7
        assert ens.mean.shape == (31, 4) and ens.std.shape == (31, 4)
        assert np.allclose(
            ens.mean[5], [0.3304, 0.0032, 0.0, 0.6664], rtol=0.0, atol=1e-12)
        assert ens.mean[:, HAS_INFO].sum() == pytest.approx(0.456, abs=1e-12)

    def test_initial_row_has_zero_spread(self):
        ens = self.make()
        assert ens.mean[0, HAS_INFO] == pytest.approx(0.2, abs=1e-12)
        assert np.all(ens.std[0] <= 1e-15)

    def test_ensemble_deterministic_in_master_seed(self):
        a, b = self.make(seed=123), self.make(seed=123)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)
        c = self.make(seed=124)
        assert not np.array_equal(a.mean, c.mean)

    def test_higher_link_probability_spreads_more(self):
        g = gen_binomial(100, 0.05, 21)
        params = NodeParams.homogeneous(100, r=1.0, delta=0.1, gamma=0.1)
        lo = mc_ensemble(g, LinkProbs.homogeneous(g, 0.02), params,
                         init=0.1, steps=50, runs=100, seed=5)
        hi = mc_ensemble(g, LinkProbs.homogeneous(g, 0.08), params,
                         init=0.1, steps=50, runs=100, seed=5)
        lo_mass = lo.mean[:, HAS_INFO].sum()
        hi_mass = hi.mean[:, HAS_INFO].sum()
        assert lo_mass == pytest.approx(1.8847, abs=1e-12)
        assert hi_mass == pytest.approx(8.7566, abs=1e-12)
        assert lo_mass < hi_mass

    def test_frozen_supercritical_csv_hash(self):
        # Most nodes broadcast here, so every step draws thousands of
        # transmission uniforms; the hash pins the whole draw stream.
        g = gen_powerlaw(2000, 3, 7)
        params = NodeParams.homogeneous(2000, r=1.0, delta=0.1, gamma=0.1)
        ens = mc_ensemble(g, LinkProbs.homogeneous(g, 0.1), params,
                          init=0.1, steps=50, runs=4, seed=7)
        buf = io.StringIO()
        ens.write_csv(buf)
        assert ens.mean[-1, HAS_INFO] == pytest.approx(0.257125, abs=1e-12)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "73bafa7f52582f904c2f1c74ebd0a8cbbba9c3466610f7e018d3de254e6d911a")

    def test_csv_format(self):
        ens = self.make()
        buf = io.StringIO()
        ens.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("t,frac_noinfo_mean,frac_hasinfo_mean,"
                            "frac_warned_mean,frac_dead_mean,frac_hasinfo_std")
        assert len(lines) == 32
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "2.000000000000e-01"
        assert float(first[5]) <= 1e-15


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(
    master=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mix_seed_matches_finalizer_property(master, k):
    assert mix_seed(master, k) == splitmix_finalizer(master ^ k)
    assert 0 <= mix_seed(master, k) < 2**64


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_run_rows_stay_on_simplex(seed):
    g = gen_binomial(20, 0.2, seed)
    params = NodeParams.homogeneous(20, r=1.0, delta=0.3, gamma=0.2)
    traj = mc_run(g, LinkProbs.homogeneous(g, 0.5), params,
                  init=0.25, steps=15, seed=seed)
    assert np.allclose(traj.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all((traj >= 0.0) & (traj <= 1.0))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_immortal_model_never_loses_info_property(seed):
    # delta = 0 and nu = 1: the carrier count never decreases.
    g = gen_binomial(20, 0.25, seed)
    params = NodeParams.homogeneous(20, r=0.6, delta=0.0, gamma=0.0)
    traj = mc_run(g, LinkProbs.homogeneous(g, 0.5), params,
                  init=0.1, steps=20, seed=seed)
    carriers = traj[:, HAS_INFO]
    assert np.all(np.diff(carriers) >= -1e-15)


@st.composite
def step_cases(draw):
    """A graph (possibly with isolated nodes), directed or symmetric link
    probabilities, node parameters and a start state over all four codes."""
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    g = Graph.from_edges(n, chosen)
    prob = st.floats(min_value=0.0, max_value=1.0)
    if draw(st.booleans()) or not chosen:
        links = LinkProbs.homogeneous(g, draw(prob))
    else:
        mapping = {}
        for u, v in chosen:
            mapping[(u, v)] = draw(prob)
            mapping[(v, u)] = draw(prob)
        links = LinkProbs.from_mapping(g, mapping, symmetric=False)
    vec = st.lists(prob, min_size=n, max_size=n).map(np.array)
    params = NodeParams(
        r=draw(vec), delta=draw(vec), gamma=draw(vec),
        nu=draw(st.lists(st.floats(min_value=0.0, max_value=0.99),
                         min_size=n, max_size=n).map(np.array)),
        chi=draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                          min_size=n, max_size=n).map(np.array)),
    )
    states = np.array(draw(st.lists(
        st.sampled_from([NO_INFO, HAS_INFO, WARNED, DEAD]),
        min_size=n, max_size=n)), dtype=np.int8)
    return g, links, params, states


@given(case=step_cases(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_matches_per_broadcaster_reference(case, seed):
    g, links, params, states = case
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    for _ in range(3):
        fast = one_step(states, g, links, params, rng_fast)
        ref = mc_step_reference(states, g, links, params, rng_ref)
        assert np.array_equal(fast, ref) and fast.dtype == ref.dtype
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        states = fast


@pytest.mark.parametrize("nu,chi", [(0.5, 0.4), (1.0, 0.0)])
def test_step_without_broadcasters_matches_reference(nu, chi):
    # Carriers present but none broadcasts (r = 0), plus an isolated node;
    # with nu = 1 and chi = 0 the step skips those phases' draws too.
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    params = NodeParams.homogeneous(6, r=0.0, delta=0.2, gamma=0.3,
                                    nu=nu, chi=chi)
    links = LinkProbs.homogeneous(g, 1.0)
    states = np.array([HAS_INFO, NO_INFO, WARNED, DEAD, HAS_INFO, HAS_INFO],
                      dtype=np.int8)
    rng_fast, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    fast = one_step(states, g, links, params, rng_fast)
    ref = mc_step_reference(states, g, links, params, rng_ref)
    assert np.array_equal(fast, ref)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    # Only the five per-node phase draws were consumed.
    rng_five = np.random.default_rng(3)
    rng_five.random(5 * 6)
    assert rng_fast.bit_generator.state == rng_five.bit_generator.state


def test_prepared_step_replaces_its_states_in_place():
    g = gen_lattice4(3, 3)
    links = LinkProbs.homogeneous(g, 0.5)
    params = NodeParams.homogeneous(9, r=0.5, delta=0.2, gamma=0.3, nu=0.5, chi=0.4)
    states = np.array([HAS_INFO, NO_INFO, WARNED, DEAD, HAS_INFO, HAS_INFO,
                       NO_INFO, WARNED, DEAD], dtype=np.int8)
    want = states.copy()
    step = _Step(g, links, params)
    rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        want = mc_step_reference(want, g, links, params, rng_ref)
        assert step(states, rng) is states
        assert states.dtype == np.int8 and np.array_equal(states, want)


def test_transition_table_matches_the_phase_masks():
    # Phases 2-5 as mask assignments, applied to every 7-bit code: state in
    # bits 0-1, then received, accept, die, revive and revert.
    code = np.arange(128)
    snapshot = code & 3
    received, accept, die, revive, revert = ((code >> bit) & 1 == 1 for bit in range(2, 7))
    new = snapshot.copy()
    receiving = (snapshot == NO_INFO) & received
    new[receiving & accept] = HAS_INFO
    new[receiving & ~accept] = WARNED
    died = (snapshot != DEAD) & die
    new[(snapshot == DEAD) & revive] = NO_INFO
    new[(snapshot == WARNED) & ~died & revert] = NO_INFO
    new[died] = DEAD
    assert np.array_equal(_TRANSITIONS, new)


def assert_run_matches_oracle(graph, links, params, init, steps, seed):
    """``mc_run`` against its loop around the per-broadcaster oracle step,
    which draws every uniform from ``default_rng(seed)``: the same
    fractions."""
    ref_rng = np.random.default_rng(seed)
    states = initial_states(graph.n, init, ref_rng)
    rows = [np.bincount(states, minlength=4) / graph.n]
    for _ in range(steps):
        states = mc_step_reference(states, graph, links, params, ref_rng)
        rows.append(np.bincount(states, minlength=4) / graph.n)
    assert np.array_equal(mc_run(graph, links, params, init, steps, seed), np.array(rows))


def directed_links(g: Graph, seed: int) -> LinkProbs:
    """A directed table with a different probability on every link."""
    rng = np.random.default_rng(seed)
    mapping = {}
    for u, v in g.edge_array.tolist():
        mapping[(u, v)], mapping[(v, u)] = rng.uniform(0.05, 0.6, 2)
    return LinkProbs.from_mapping(g, mapping, symmetric=False)


def run_case(case: str):
    if case == "heterogeneous_table":
        g = gen_lattice4(20, 20)
        return g, directed_links(g, 1), NodeParams.homogeneous(
            g.n, r=0.7, delta=0.1, gamma=0.2, nu=0.6, chi=0.3)
    if case == "powerlaw_low_acceptance":
        g = gen_powerlaw(300, 3, 5)
        return g, LinkProbs.homogeneous(g, 0.4), NodeParams.homogeneous(
            g.n, r=1.0, delta=0.05, gamma=0.1, nu=0.2, chi=0.9)
    if case == "r_zero":
        g = gen_powerlaw(200, 2, 3)
        return g, directed_links(g, 2), NodeParams.homogeneous(
            g.n, r=0.0, delta=0.2, gamma=0.3, nu=0.5, chi=0.4)
    # Nodes 0, 7 and 39 have no edge; per-node parameters.
    pairs = [(u, u + 1) for u in range(1, 6)]
    pairs += [(u, v) for u in range(8, 39) for v in range(u + 1, 39, 5)]
    g = Graph.from_edges(40, pairs)
    return g, directed_links(g, 3), NodeParams(
        r=np.linspace(0.2, 1.0, 40), delta=np.linspace(0.0, 0.3, 40),
        gamma=np.linspace(0.5, 0.1, 40), nu=np.linspace(1.0, 0.3, 40),
        chi=np.linspace(0.1, 0.6, 40))


@pytest.mark.parametrize("case", ["heterogeneous_table", "powerlaw_low_acceptance",
                                  "r_zero", "isolated_nodes"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_matches_the_oracle_step_loop(case, seed):
    assert_run_matches_oracle(*run_case(case), init=0.3, steps=25, seed=seed)


def test_equal_valued_table_runs_as_the_homogeneous_one():
    # Every link of the table carries 0.25: the step compares its edge draws
    # with that one value, as for LinkProbs.homogeneous, while the oracle
    # gathers it per edge.  A table with one other value gathers too.
    g = gen_powerlaw(300, 3, 11)
    params = NodeParams.homogeneous(300, r=0.8, delta=0.1, gamma=0.2, nu=0.7, chi=0.2)
    table = {(u, v): 0.25 for u, v in g.edge_array.tolist()}
    equal = LinkProbs.from_mapping(g, table)
    homogeneous = LinkProbs.homogeneous(g, 0.25)
    table[next(iter(table))] = 0.5
    uneven = LinkProbs.from_mapping(g, table)
    for links, ndim in ((equal, 0), (homogeneous, 0), (uneven, 1)):
        assert np.ndim(_Step(g, links, params).beta) == ndim
        assert_run_matches_oracle(g, links, params, init=0.2, steps=30, seed=9)
    assert np.array_equal(mc_run(g, equal, params, 0.2, 30, 9),
                          mc_run(g, homogeneous, params, 0.2, 30, 9))


def test_ensemble_calls_mc_run_once_per_run(monkeypatch):
    # Each run goes through the module's mc_run, which a caller can wrap
    # (the benchmark times each run that way).
    calls = []
    inner = montecarlo.mc_run

    def counting(*args, **kwargs):
        calls.append(args[5])
        return inner(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_run", counting)
    g = gen_lattice4(4, 4)
    params = NodeParams.homogeneous(16, r=1.0, delta=0.2, gamma=0.2)
    ens = mc_ensemble(g, LinkProbs.homogeneous(g, 0.3), params,
                      init=0.25, steps=4, runs=3, seed=5)
    assert calls == [mix_seed(5, k) for k in range(3)] and ens.runs == 3


# ---------------------------------------------------------------------------
# Decided phases: a parameter of 1 (or 0) everywhere decides every draw of
# its phase, and a step advances its PCG64 generator past those draws.
# ---------------------------------------------------------------------------

def decided_case(**given):
    """A 120-node power-law graph with a node cut off, drawn parameters
    (r 0.8, nu 0.6, delta 0.15, gamma 0.3, chi 0.4, beta 0.3) and ``given``
    in their place: a number is every node's value, ``"mixed"`` per-node
    values from 0 to 1, 0 and 1 included; ``beta="per_link"`` a directed
    table."""
    pairs = gen_powerlaw(119, 2, 6).edge_array.tolist()
    g = Graph.from_edges(120, pairs)
    values = {"r": 0.8, "nu": 0.6, "delta": 0.15, "gamma": 0.3, "chi": 0.4,
              "beta": 0.3, **given}
    beta = values.pop("beta")
    links = (directed_links(g, 4) if beta == "per_link"
             else LinkProbs.homogeneous(g, beta))
    params = NodeParams(**{
        key: np.linspace(0.0, 1.0, g.n) if value == "mixed" else np.full(g.n, value)
        for key, value in values.items()})
    return g, links, params


PHASE_CASES = {
    **{f"{key}={value}": {key: value}
       for key in ("r", "nu", "delta", "gamma", "chi") for value in (0.0, 1.0, "mixed")},
    **{f"beta={value}": {"beta": value} for value in (0.0, 1.0, "per_link")},
    "defaults": {"r": 1.0, "nu": 1.0, "chi": 0.0},
    "all_decided": {"r": 1.0, "nu": 0.0, "delta": 0.0, "gamma": 1.0, "chi": 1.0,
                    "beta": 1.0},
    "alternating": {"nu": 1.0, "gamma": 0.0},
    "drawn": {},
}


# The "-plain" suffix keeps these test ids as they were when runs could also
# start on a generator holding a buffered 32-bit half.
@pytest.mark.parametrize("case", sorted(PHASE_CASES), ids=lambda case: f"{case}-plain")
def test_decided_phases_keep_the_stream(case):
    assert_run_matches_oracle(*decided_case(**PHASE_CASES[case]), init=0.3,
                              steps=12, seed=8)


@pytest.mark.parametrize("half", [False, True], ids=["plain", "half"])
@pytest.mark.parametrize("case", sorted(PHASE_CASES))
def test_decided_phases_keep_the_stream_position(case, half):
    # After every step the generator's PCG64 counter and increment are the
    # drawing oracle's, so an advance by the wrong count shows at once;
    # the buffered 32-bit half, which advance drops, is not compared.
    # initial_states' choice leaves such a half held here ("half"); "plain"
    # uses it up first, so the first step starts from either.
    g, links, params = decided_case(**PHASE_CASES[case])
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    states, want = initial_states(g.n, 0.3, rng), initial_states(g.n, 0.3, ref_rng)
    for generator in (rng, ref_rng):
        if not half:
            generator.integers(0, 1000, dtype=np.uint32)
        assert generator.bit_generator.state["has_uint32"] == half
    step = _Step(g, links, params)
    for _ in range(12):
        want = mc_step_reference(want, g, links, params, ref_rng)
        step(states, rng)
        assert np.array_equal(states, want)
        assert rng.bit_generator.state["state"] == ref_rng.bit_generator.state["state"]


def test_decided_phases_sort_into_the_phase_list():
    step = _Step(*decided_case(**PHASE_CASES["alternating"]))
    assert step.broadcast is None and step.transmit is None
    assert [phase is None for phase in step.phases] == [True, False, True, False]
    assert [bit for _, bit in filter(None, step.phases)] == [16, 64]
    assert step.constant == 8
    step = _Step(*decided_case(**PHASE_CASES["all_decided"]))
    assert (step.broadcast, step.transmit) == (True, True)
    assert step.phases == [None] * 4 and step.constant == 32 + 64
    step = _Step(*decided_case(**PHASE_CASES["defaults"]))
    assert [phase is None for phase in step.phases] == [True, False, False, True]
    assert step.constant == 8 and step.u.shape == (120,)

"""Discrete-time mean-field dynamics: steps, bounds policy and runs."""
import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.meanfield import (
    LinkProbs,
    MeanFieldBoundsError,
    MfState,
    NodeParams,
    ParamRegimeError,
    bound_violations,
    run,
    sirs_step,
    sis_step,
    validate_warning_params,
    zeta,
)

from oracles import slow_plain_step, slow_warned_step, slow_zeta


def random_valid_state(n: int, rng: np.random.Generator, with_warned: bool) -> MfState:
    """Random state with p + q + w <= 1 entrywise."""
    cuts = np.sort(rng.random((n, 3)), axis=1)
    p = cuts[:, 0]
    q = cuts[:, 1] - cuts[:, 0]
    w = (cuts[:, 2] - cuts[:, 1]) if with_warned else np.zeros(n)
    return MfState(p=p, q=q, w=w)


def random_params(n: int, rng: np.random.Generator) -> NodeParams:
    return NodeParams(
        r=rng.random(n),
        delta=rng.uniform(0.01, 1.0, n),
        gamma=rng.random(n),
        nu=rng.random(n),
        chi=rng.random(n),
    )


# ---------------------------------------------------------------------------
# Parameter and state containers
# ---------------------------------------------------------------------------

class TestContainers:
    def test_node_params_broadcast_and_bounds(self):
        p = NodeParams.homogeneous(4, r=0.5, delta=0.1, gamma=0.2)
        assert p.n == 4
        assert np.all(p.r == 0.5) and np.all(p.nu == 1.0) and np.all(p.chi == 0.0)
        with pytest.raises(ValueError, match="delta"):
            NodeParams.homogeneous(4, r=0.5, delta=1.5, gamma=0.2)
        with pytest.raises(ValueError, match="gamma"):
            NodeParams.homogeneous(4, r=0.5, delta=0.1, gamma=-0.2)

    def test_link_probs_scalar_xor_table(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            LinkProbs.homogeneous(g, 1.5)
        with pytest.raises(ValueError, match="not an edge"):
            LinkProbs.from_mapping(g, {(0, 2): 0.5}, symmetric=False)

    def test_link_probs_values(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        links = LinkProbs.homogeneous(g, 0.3)
        assert links.value(0, 1) == 0.3 and links.value(1, 0) == 0.3
        assert links.value(0, 2) == 0.0  # non-edge

        directed = LinkProbs.from_mapping(g, {(0, 1): 0.7}, symmetric=False)
        assert directed.value(0, 1) == 0.7
        assert directed.value(1, 0) == 0.0
        symmetric = LinkProbs.from_mapping(g, {(0, 1): 0.7, (1, 2): 0.4})
        assert symmetric.value(1, 0) == 0.7 and symmetric.value(2, 1) == 0.4

    def test_link_probs_csr_alignment(self):
        g = gen_binomial(12, 0.4, 5)
        rng = np.random.default_rng(1)
        mapping = {}
        for u, v in g.edges:
            mapping[(u, v)] = float(rng.random())
            mapping[(v, u)] = float(rng.random())
        links = LinkProbs.from_mapping(g, mapping, symmetric=False)
        indptr, indices = g.csr
        for i in range(g.n):
            for k in range(indptr[i], indptr[i + 1]):
                j = int(indices[k])
                assert links.in_values[k] == links.value(j, i)
                assert links.out_values[k] == links.value(i, j)

    def test_state_uniform_and_dead(self):
        st0 = MfState.uniform(5, p0=0.2, w0=0.1)
        assert np.allclose(st0.q, 0.7)
        assert np.allclose(st0.dead, 0.0)
        with pytest.raises(ValueError):
            MfState.uniform(5, p0=0.8, w0=0.5)


# ---------------------------------------------------------------------------
# Receive-nothing probability
# ---------------------------------------------------------------------------

class TestZeta:
    def test_no_carriers_gives_one(self):
        g = gen_binomial(10, 0.3, 2)
        params = NodeParams.homogeneous(10, r=1.0, delta=0.1, gamma=0.1)
        z = zeta(MfState.uniform(10, p0=0.0), LinkProbs.homogeneous(g, 0.5), params)
        assert np.all(z == 1.0)

    def test_single_neighbour_half(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = NodeParams.homogeneous(2, r=1.0, delta=0.1, gamma=0.1)
        state = MfState(p=np.array([0.0, 1.0]), q=np.array([1.0, 0.0]), w=np.zeros(2))
        z = zeta(state, LinkProbs.homogeneous(g, 0.5), params)
        assert z[0] == pytest.approx(0.5, abs=1e-15)

    def test_two_neighbours_quarter(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        params = NodeParams.homogeneous(3, r=1.0, delta=0.1, gamma=0.1)
        state = MfState(p=np.array([0.0, 1.0, 1.0]), q=np.array([1.0, 0.0, 0.0]),
                        w=np.zeros(3))
        z = zeta(state, LinkProbs.homogeneous(g, 0.5), params)
        assert z[0] == pytest.approx(0.25, abs=1e-15)

    def test_isolated_node_gets_one(self):
        g = Graph.from_edges(3, [(0, 1)])
        params = NodeParams.homogeneous(3, r=1.0, delta=0.1, gamma=0.1)
        state = MfState(p=np.ones(3), q=np.zeros(3), w=np.zeros(3))
        z = zeta(state, LinkProbs.homogeneous(g, 1.0), params)
        assert z[2] == 1.0

    def test_matches_slow_double_loop(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = gen_binomial(15, 0.3, seed)
            mapping = {}
            for u, v in g.edges:
                mapping[(u, v)] = float(rng.random())
                mapping[(v, u)] = float(rng.random())
            links = LinkProbs.from_mapping(g, mapping, symmetric=False)
            params = random_params(15, rng)
            state = random_valid_state(15, rng, with_warned=False)
            fast = zeta(state, links, params)
            slow = slow_zeta(state.p, g, links.value, params.r)
            assert np.max(np.abs(fast - slow)) < 1e-14

    def test_monotone_in_carrier_probabilities(self):
        g = gen_binomial(10, 0.4, 3)
        params = NodeParams.homogeneous(10, r=0.8, delta=0.1, gamma=0.1)
        links = LinkProbs.homogeneous(g, 0.6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.random(10) * 0.5
            base = zeta(MfState(p=p, q=1 - p, w=np.zeros(10)), links, params)
            j = int(rng.integers(10))
            bumped = p.copy()
            bumped[j] = min(1.0, bumped[j] + rng.random() * 0.5)
            after = zeta(MfState(p=bumped, q=1 - bumped, w=np.zeros(10)), links, params)
            assert np.all(after <= base + 1e-15)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

class TestSisStep:
    def test_susceptible_only_converges_to_gamma_fraction(self):
        # With no carriers, q has the scalar fixed point gamma / (gamma + delta).
        g = gen_lattice4(3, 3)
        params = NodeParams.homogeneous(9, r=1.0, delta=0.2, gamma=0.3)
        state0 = MfState(p=np.zeros(9), q=np.full(9, 0.4), w=np.zeros(9))
        res = run("sis", state0, LinkProbs.homogeneous(g, 0.5), params,
                  max_steps=500, tol=1e-12)
        assert res.converged
        assert np.allclose(res.final_state.p, 0.0)
        assert np.allclose(res.final_state.q, 0.3 / 0.5, atol=1e-9)
        assert np.all(res.trajectory.columns["carriers"] == 0.0)

    def test_absorbing_full_infection_without_deaths(self):
        g = gen_lattice4(3, 3)
        params = NodeParams.homogeneous(9, r=1.0, delta=0.0, gamma=0.0)
        state = MfState(p=np.ones(9), q=np.zeros(9), w=np.zeros(9))
        links = LinkProbs.homogeneous(g, 0.7)
        for _ in range(10):
            state = sis_step(state, links, params)
        assert np.all(state.p == 1.0)

    def test_no_broadcast_geometric_decay(self):
        g = gen_binomial(12, 0.4, 1)
        delta, p0 = 0.3, 0.8
        params = NodeParams.homogeneous(12, r=0.0, delta=delta, gamma=0.0)
        links = LinkProbs.homogeneous(g, 0.9)
        state = MfState(p=np.full(12, p0), q=np.full(12, 1 - p0), w=np.zeros(12))
        for t in range(1, 51):
            state = sis_step(state, links, params, enforce_bounds=False)
            assert np.max(np.abs(state.p - p0 * (1 - delta) ** t)) < 1e-12

    def test_no_spontaneous_infection(self):
        g = gen_binomial(10, 0.5, 4)
        params = NodeParams.homogeneous(10, r=1.0, delta=0.3, gamma=0.9)
        state = MfState(p=np.zeros(10), q=np.full(10, 0.5), w=np.zeros(10))
        nxt = sis_step(state, LinkProbs.homogeneous(g, 1.0), params)
        assert np.all(nxt.p == 0.0)

    def test_rejects_nonempty_warned_state(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = NodeParams.homogeneous(2, r=1.0, delta=0.1, gamma=0.1)
        state = MfState(p=np.zeros(2), q=np.full(2, 0.5), w=np.full(2, 0.1))
        with pytest.raises(ValueError, match="empty warning state"):
            sis_step(state, LinkProbs.homogeneous(g, 0.5), params)

    def test_vertex_transitive_symmetry(self):
        # Torus + homogeneous parameters + uniform start: all nodes identical.
        g = gen_lattice4(5, 5)
        params = NodeParams.homogeneous(25, r=1.0, delta=0.1, gamma=0.15)
        links = LinkProbs.homogeneous(g, 0.15)
        state = MfState.uniform(25, p0=0.1)
        for _ in range(50):
            state = sis_step(state, links, params)
            for arr in (state.p, state.q):
                assert arr.max() - arr.min() <= 1e-12


class TestBoundsPolicy:
    def make_hot_pair(self):
        g = Graph.from_edges(2, [(0, 1)])
        params = NodeParams.homogeneous(2, r=1.0, delta=0.9, gamma=0.0)
        links = LinkProbs.homogeneous(g, 1.0)
        state = MfState(p=np.array([0.99, 0.99]), q=np.array([0.01, 0.01]),
                        w=np.zeros(2))
        return g, params, links, state

    def test_negative_coefficient_regime_fails_loudly(self):
        # q(t) = q (zeta - delta) goes negative when delta > zeta: hand value
        # 0.01 * (0.01 - 0.9) = -0.0089.
        _, params, links, state = self.make_hot_pair()
        with pytest.raises(MeanFieldBoundsError) as exc:
            sis_step(state, links, params)
        msg = str(exc.value)
        assert "not clamped" in msg
        assert "delta" in msg and "zeta" in msg
        first = exc.value.violations[0]
        assert (first.step, first.kind, first.node) == (1, "q", 0)
        assert first.value == pytest.approx(-0.0089, abs=1e-15)

    def test_run_propagates_step_failure(self):
        _, params, links, state = self.make_hot_pair()
        with pytest.raises(MeanFieldBoundsError):
            run("sis", state, links, params, max_steps=10)

    def test_reporting_mode_records_instead_of_raising(self):
        _, params, links, state = self.make_hot_pair()
        res = run("sis", state, links, params, max_steps=5, tol=0.0,
                  allow_negative_coefficients=True)
        assert len(res.violations) >= 2
        assert res.violations[0].kind == "q"
        assert res.violations[0].value == pytest.approx(-0.0089, abs=1e-15)

    def test_bound_violations_scanner(self):
        bad = MfState(p=np.array([1.5, 0.2]), q=np.array([0.0, 0.9]),
                      w=np.zeros(2), t=3)
        found = bound_violations(bad)
        kinds = {(v.kind, v.node) for v in found}
        assert ("p", 0) in kinds          # p out of range
        assert ("p+q+w", 1) in kinds      # total exceeds 1
        assert all(v.step == 3 for v in found)

    def test_nan_component_is_a_violation(self):
        state = MfState(p=np.array([np.nan, 0.2]), q=np.array([0.5, 0.3]),
                        w=np.zeros(2), t=4)
        found = bound_violations(state)
        kinds = {(v.kind, v.node) for v in found}
        assert kinds == {("p", 0), ("p+q+w", 0)}
        assert all(np.isnan(v.value) for v in found)

    def test_in_range_state_has_no_violations(self):
        good = MfState(p=np.array([0.3]), q=np.array([0.4]), w=np.array([0.1]))
        assert bound_violations(good) == []


class TestWarnedVariant:
    def test_unit_acceptance_reduces_to_plain_model(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            g = gen_binomial(20, 0.25, seed)
            params = NodeParams(
                r=rng.random(20), delta=rng.uniform(0.01, 1.0, 20),
                gamma=rng.random(20), nu=np.ones(20), chi=rng.random(20),
            )
            links = LinkProbs.homogeneous(g, float(rng.random()))
            state = random_valid_state(20, rng, with_warned=False)
            a = sis_step(state, links, params, enforce_bounds=False)
            b = sirs_step(state, links, params, enforce_bounds=False)
            assert np.max(np.abs(a.p - b.p)) <= 1e-15
            assert np.max(np.abs(a.q - b.q)) <= 1e-15
            assert np.all(b.w == 0.0)

    def test_zero_acceptance_decays_carriers_geometrically(self):
        g = gen_binomial(15, 0.4, 2)
        params = NodeParams.homogeneous(15, r=1.0, delta=0.2, gamma=0.1, nu=0.0)
        links = LinkProbs.homogeneous(g, 0.2)
        state = MfState.uniform(15, p0=0.2)
        nxt = sirs_step(state, links, params)
        assert np.allclose(nxt.p, state.p * 0.8, atol=1e-15)
        assert np.any(nxt.w > 0.0)  # refused receipts land in the warned pool

    def test_matches_slow_scalar_loop(self):
        rng = np.random.default_rng(23)
        for seed in range(5):
            g = gen_binomial(15, 0.3, seed + 40)
            params = random_params(15, rng)
            links = LinkProbs.homogeneous(g, float(rng.random()))
            state = random_valid_state(15, rng, with_warned=True)
            z = zeta(state, links, params)
            nxt = sirs_step(state, links, params, enforce_bounds=False)
            sp, sq, sw = slow_warned_step(state.p, state.q, state.w, z, params)
            assert np.max(np.abs(nxt.p - sp)) < 1e-14
            assert np.max(np.abs(nxt.q - sq)) < 1e-14
            assert np.max(np.abs(nxt.w - sw)) < 1e-14

    def test_no_spontaneous_infection(self):
        g = gen_binomial(10, 0.5, 4)
        params = NodeParams.homogeneous(10, r=1.0, delta=0.3, gamma=0.9,
                                        nu=0.5, chi=0.2)
        state = MfState(p=np.zeros(10), q=np.full(10, 0.5), w=np.full(10, 0.2))
        nxt = sirs_step(state, LinkProbs.homogeneous(g, 1.0), params)
        assert np.all(nxt.p == 0.0)

    def test_retention_overflow_rejected_at_configuration(self):
        params = NodeParams.homogeneous(4, r=1.0, delta=0.6, gamma=0.6,
                                        nu=1.0, chi=1.0)
        with pytest.raises(ParamRegimeError, match="chi \\+ delta") as exc:
            validate_warning_params(params)
        assert "allow_negative_coefficients" in str(exc.value)

        g = gen_lattice4(3, 3)
        p9 = NodeParams.homogeneous(9, r=1.0, delta=0.6, gamma=0.6, nu=1.0, chi=1.0)
        with pytest.raises(ParamRegimeError):
            run("sirs", MfState.uniform(9, p0=0.1), LinkProbs.homogeneous(g, 0.3), p9)

    def test_retention_overflow_allowed_with_flag(self):
        g = gen_lattice4(3, 3)
        p9 = NodeParams.homogeneous(9, r=1.0, delta=0.6, gamma=0.6, nu=1.0, chi=1.0)
        res = run("sirs", MfState.uniform(9, p0=0.1), LinkProbs.homogeneous(g, 0.3),
                  p9, max_steps=50, allow_negative_coefficients=True)
        assert res.steps >= 1  # completes instead of raising


# ---------------------------------------------------------------------------
# Iterated runs
# ---------------------------------------------------------------------------

class TestRun:
    def test_converges_and_records_aggregates(self):
        g = gen_lattice4(4, 4)
        params = NodeParams.homogeneous(16, r=1.0, delta=0.5, gamma=0.1)
        res = run("sis", MfState.uniform(16, p0=0.1),
                  LinkProbs.homogeneous(g, 0.1), params, max_steps=500, tol=1e-9)
        assert res.converged
        assert res.steps < 500
        traj = res.trajectory
        assert list(traj.columns) == ["mean_p", "mean_q", "mean_w", "dead", "carriers"]
        assert len(traj) == res.steps + 1
        assert traj.columns["carriers"][0] == pytest.approx(1.6, abs=1e-12)
        # aggregate identity: mean_p * n == carriers
        assert np.allclose(traj.columns["mean_p"] * 16, traj.columns["carriers"])

    def test_csv_header(self):
        g = gen_lattice4(3, 3)
        params = NodeParams.homogeneous(9, r=1.0, delta=0.5, gamma=0.1)
        res = run("sis", MfState.uniform(9, p0=0.1),
                  LinkProbs.homogeneous(g, 0.1), params, max_steps=5, tol=0.0)
        buf = io.StringIO()
        res.trajectory.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,mean_p,mean_q,mean_w,dead,carriers"
        assert lines[1].startswith("0,")  # integer step stamps

    def test_unknown_model_rejected(self):
        g = gen_lattice4(3, 3)
        params = NodeParams.homogeneous(9, r=1.0, delta=0.5, gamma=0.1)
        with pytest.raises(ValueError, match="unknown mean-field model"):
            run("seir", MfState.uniform(9, p0=0.1),
                LinkProbs.homogeneous(g, 0.1), params)

    def test_extinction_on_lattice_for_subcritical_parameters(self):
        # Survivability score 0.855 < 1: carriers must collapse.
        g = gen_lattice4(8, 8)
        params = NodeParams.homogeneous(64, r=1.0, delta=0.65, gamma=0.3)
        res = run("sis", MfState.uniform(64, p0=0.1),
                  LinkProbs.homogeneous(g, 0.4), params, max_steps=2000, tol=0.0)
        carriers = res.trajectory.columns["carriers"]
        assert carriers[-1] < 1e-6 * carriers[0]


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    beta=st.floats(min_value=0.0, max_value=1.0),
)
def test_zeta_always_in_unit_interval(seed, beta):
    rng = np.random.default_rng(seed)
    g = gen_binomial(12, 0.3, seed)
    params = random_params(12, rng)
    state = random_valid_state(12, rng, with_warned=True)
    z = zeta(state, LinkProbs.homogeneous(g, beta), params)
    assert np.all(z >= 0.0) and np.all(z <= 1.0)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unit_acceptance_reduction_property(seed):
    rng = np.random.default_rng(seed)
    g = gen_binomial(10, 0.35, seed)
    params = NodeParams(
        r=rng.random(10), delta=rng.uniform(0.01, 1.0, 10), gamma=rng.random(10),
        nu=np.ones(10), chi=rng.random(10),
    )
    links = LinkProbs.homogeneous(g, float(rng.random()))
    state = random_valid_state(10, rng, with_warned=False)
    a = sis_step(state, links, params, enforce_bounds=False)
    b = sirs_step(state, links, params, enforce_bounds=False)
    assert np.max(np.abs(a.p - b.p)) <= 1e-15
    assert np.max(np.abs(a.q - b.q)) <= 1e-15


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_no_spontaneous_infection_property(seed):
    rng = np.random.default_rng(seed)
    g = gen_binomial(10, 0.35, seed)
    params = random_params(10, rng)
    q0 = rng.random(10) * 0.8
    state = MfState(p=np.zeros(10), q=q0, w=np.zeros(10))
    for step_fn in (sis_step, sirs_step):
        nxt = step_fn(state, LinkProbs.homogeneous(g, 1.0), params,
                      enforce_bounds=False)
        assert np.all(nxt.p == 0.0)


# ---------------------------------------------------------------------------
# The plain model against its own scalar oracle; run and step validation
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sis_step_matches_plain_oracle_and_ignores_nu_chi(seed):
    rng = np.random.default_rng(seed)
    g = gen_binomial(12, 0.3, seed)
    # nu < 1 and chi > 0 everywhere (chi + delta often > 1): "sis" must ignore both.
    params = NodeParams(
        r=rng.random(12), delta=rng.uniform(0.01, 1.0, 12), gamma=rng.random(12),
        nu=rng.uniform(0.0, 0.9, 12), chi=rng.uniform(0.1, 1.0, 12),
    )
    links = LinkProbs.homogeneous(g, float(rng.random()))
    state = random_valid_state(12, rng, with_warned=False)
    nxt = sis_step(state, links, params, enforce_bounds=False)
    sp, sq = slow_plain_step(state.p, state.q, zeta(state, links, params), params)
    assert np.max(np.abs(nxt.p - sp)) < 1e-14
    assert np.max(np.abs(nxt.q - sq)) < 1e-14
    assert np.all(nxt.w == 0.0) and not np.any(np.signbit(nxt.w))


def test_sis_run_writes_positive_zero_warning_column():
    # chi + delta > 1: a warning term (1 - chi - delta) * 0 would be -0.0.
    g = gen_binomial(20, 0.3, 3)
    params = NodeParams.homogeneous(20, r=1.0, delta=0.6, gamma=0.2, nu=0.3, chi=0.9)
    res = run("sis", MfState.uniform(20, p0=0.2), LinkProbs.homogeneous(g, 0.4),
              params, max_steps=30, allow_negative_coefficients=True)
    buf = io.StringIO()
    res.trajectory.write_csv(buf)
    rows = buf.getvalue().splitlines()
    col = rows[0].split(",").index("mean_w")
    assert {row.split(",")[col] for row in rows[1:]} == {"0.000000000000e+00"}


class TestRunValidation:
    def setup_method(self):
        self.g = gen_powerlaw(20, 2, 1)
        self.links = LinkProbs.homogeneous(self.g, 0.3)
        self.params = NodeParams.homogeneous(20, r=1.0, delta=0.2, gamma=0.1)

    def test_negative_max_steps_rejected(self):
        for model in ("sis", "sirs"):
            with pytest.raises(ValueError, match="max_steps"):
                run(model, MfState.uniform(20, p0=0.1), self.links, self.params,
                    max_steps=-5)

    @pytest.mark.parametrize("max_steps", [True, False, 2.0, 1.5, "3"])
    def test_max_steps_must_be_an_integer(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            run("sis", MfState.uniform(20, p0=0.1), self.links, self.params,
                max_steps=max_steps)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-300])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            run("sis", MfState.uniform(20, p0=0.1), self.links, self.params,
                max_steps=5, tol=tol)

    def test_zero_max_steps_returns_initial_state(self):
        res = run("sis", MfState.uniform(20, p0=0.1), self.links, self.params,
                  max_steps=0)
        assert res.steps == 0 and len(res.trajectory) == 1

    @pytest.mark.parametrize("reporting", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_state_rejected(self, bad, reporting):
        p = np.full(20, 0.1)
        p[3] = bad
        state0 = MfState(p=p, q=np.full(20, 0.5), w=np.zeros(20))
        with pytest.raises(ValueError, match=r"non-finite p\[3\]"):
            run("sis", state0, self.links, self.params, max_steps=50,
                allow_negative_coefficients=reporting)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_stops_a_reporting_run(self):
        # A huge but finite carrier mass overflows in the first step; the
        # reporting run stops there instead of carrying infinity onward.
        p = np.full(20, 0.1)
        p[0] = 1e308
        state0 = MfState(p=p, q=np.full(20, 0.5), w=np.zeros(20))
        with pytest.raises(ValueError, match=r"step \d+ has a non-finite"):
            run("sirs", state0, self.links, self.params, max_steps=50,
                allow_negative_coefficients=True)


# ---------------------------------------------------------------------------
# CSR-aligned link tables against a networkx oracle
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       symmetric=st.booleans())
def test_from_mapping_precedence_matches_networkx(seed, symmetric):
    rng = np.random.default_rng(seed)
    g = gen_binomial(int(rng.integers(2, 16)), 0.4, seed)
    # Name a random subset of directed links, in random order.
    directed = [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    named = [directed[i] for i in rng.permutation(len(directed))[: len(directed) // 2 + 1]]
    mapping = {link: float(rng.random()) for link in named}
    # Oracle: mirrored entries first, then explicit ones overwrite them.
    oracle = nx.DiGraph()
    if symmetric:
        oracle.add_edges_from((v, u, {"beta": b}) for (u, v), b in mapping.items())
    oracle.add_edges_from((u, v, {"beta": b}) for (u, v), b in mapping.items())
    links = LinkProbs.from_mapping(g, mapping, symmetric=symmetric)
    indptr, indices = g.csr
    for i in range(g.n):
        for k in range(indptr[i], indptr[i + 1]):
            j = int(indices[k])
            want_in = oracle.edges[j, i]["beta"] if oracle.has_edge(j, i) else 0.0
            want_out = oracle.edges[i, j]["beta"] if oracle.has_edge(i, j) else 0.0
            assert links.in_values[k] == want_in == links.value(j, i)
            assert links.out_values[k] == want_out == links.value(i, j)


def test_out_of_range_links_are_not_edges():
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    links = LinkProbs.from_mapping(g, {(0, 3): 0.5})
    # Unchecked, a negative id would wrap around in indexing or form a
    # row-major key equal to that of a real link: (-1, 1) -> (0, 3) at n = 4.
    for src, dst in ((-1, 1), (1, -1), (3, 4), (4, 0), (0, 1)):
        assert links.value(src, dst) == 0.0
        assert not g.has_edge(src, dst)
    assert links.value(3, 0) == 0.5
    for bad in ({(-1, 1): 0.5}, {(1, -1): 0.5}, {(0, 4): 0.5}):
        with pytest.raises(ValueError, match="not an edge"):
            LinkProbs.from_mapping(g, bad)
    with pytest.raises(ValueError, match=r"got 1\.5"):
        LinkProbs.from_mapping(g, {(1, 2): 1.5}, symmetric=False)


def test_link_arrays_are_read_only():
    g = gen_binomial(10, 0.4, 1)
    for links in (LinkProbs.homogeneous(g, 0.3), LinkProbs.from_mapping(g, {})):
        with pytest.raises(ValueError):
            links.in_values[0] = 1.0


def test_link_constructor_copies_and_checks_csr_aligned_values():
    g = gen_binomial(10, 0.4, 1)
    values = np.linspace(0.0, 1.0, 2 * g.num_edges)
    links = LinkProbs(g, values)
    values[0] = 0.5
    assert links.in_values[0] == 0.0 and not links.in_values.flags.writeable
    assert np.array_equal(links.out_values, links.in_values[g.transpose])
    for bad, message in ((np.full(2 * g.num_edges, np.nan), "got nan"),
                         (np.full(2 * g.num_edges, -0.1), r"got -0\.1")):
        with pytest.raises(ValueError, match=message):
            LinkProbs(g, bad)
    with pytest.raises(ValueError):  # not one value per CSR entry
        LinkProbs(g, np.zeros(2 * g.num_edges + 1))
    # A single value is checked even where no link stores it.
    with pytest.raises(ValueError, match=r"got 1\.5"):
        LinkProbs.homogeneous(Graph.from_edges(3, []), 1.5)


@pytest.mark.parametrize("call", [
    lambda s, l, p: run("sis", s, l, p, max_steps=3),
    lambda s, l, p: run("sirs", s, l, p, max_steps=0),
    lambda s, l, p: sis_step(s, l, p),
    lambda s, l, p: sirs_step(s, l, p),
    lambda s, l, p: zeta(s, l, p),
], ids=["run_sis", "run_sirs_no_steps", "sis_step", "sirs_step", "zeta"])
def test_state_params_and_graph_sizes_must_agree(call):
    # A one-node graph once broadcast against five-node parameters and
    # returned a five-node state.
    for n_graph, n_params, n_state, message in (
        (20, 21, 20, "cover 21 nodes but the graph has 20"),
        (20, 20, 19, "state covers 19 nodes but the graph has 20"),
        (1, 5, 1, "cover 5 nodes but the graph has 1"),
        (1, 1, 5, "state covers 5 nodes but the graph has 1"),
    ):
        g = gen_powerlaw(n_graph, 2, 1) if n_graph > 1 else Graph.from_edges(1, [])
        params = NodeParams.homogeneous(n_params, r=1.0, delta=0.2, gamma=0.1)
        with pytest.raises(ValueError, match=message):
            call(MfState.uniform(n_state, p0=0.1), LinkProbs.homogeneous(g, 0.3), params)

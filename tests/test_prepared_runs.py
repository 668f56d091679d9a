"""The prepared mean-field run and the float-kernel RK4 loop against the
step-at-a-time loops they replaced (``tests/oracles.py``), bit for bit:
outputs, counters, and the type and message of every exception."""
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netspread import experiments
from netspread.graphs import Graph, gen_binomial, gen_lattice4, gen_powerlaw
from netspread.meanfield import (
    LinkProbs,
    MfState,
    NodeParams,
    _nonnegative,
    _Update,
    bound_violations,
    run,
)
from netspread.ode import _MODELS, OdeParams, OdeState, integrate
from netspread.trajectory import Trajectory

from oracles import (
    _ODE_RHS_REFERENCE,
    _zeta_reference,
    integrate_reference,
    meanfield_run_reference,
)

GRAPH_KINDS = ("binomial", "powerlaw", "lattice", "isolated_tail", "no_edges")
STARTS = ("valid", "warned", "negative_zero_w", "out_of_bounds", "huge", "nan", "inf")


def make_graph(kind: str, rng: np.random.Generator) -> Graph:
    n = int(rng.integers(2, 40))
    if kind == "binomial":  # sparse, so isolated nodes (empty CSR rows) are common
        return gen_binomial(n, float(rng.uniform(0.0, 0.15)), rng)
    if kind == "powerlaw":
        return gen_powerlaw(max(n, 4), 2, rng)
    if kind == "lattice":
        return gen_lattice4(int(rng.integers(3, 6)), int(rng.integers(3, 6)))
    if kind == "isolated_tail":  # the last rows of the CSR are empty
        core = max(2, n // 2)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, core, (2 * core, 2)) if a != b}
        return Graph.from_edges(n, pairs)
    return Graph.from_edges(n, [])


def make_links(g: Graph, rng: np.random.Generator) -> LinkProbs:
    if rng.random() < 0.5 or g.num_edges == 0:
        return LinkProbs.homogeneous(g, float(rng.random()))
    indptr, indices = g.csr
    dst = np.repeat(np.arange(g.n), np.diff(indptr))
    mapping = {(int(s), int(d)): float(b)
               for s, d, b in zip(indices, dst, rng.random(len(indices)))}
    return LinkProbs.from_mapping(g, mapping, symmetric=False)


def make_params(n: int, rng: np.random.Generator) -> NodeParams:
    """Per-node or homogeneous rates; mostly with chi + delta <= 1, which
    strict "sirs" runs require."""
    size = n if rng.random() < 0.5 else 1
    delta = rng.random(size)
    chi = rng.random(size) * (1.0 - delta if rng.random() < 0.8 else 1.0)
    return NodeParams(r=rng.random(size) * np.ones(n), delta=delta * np.ones(n),
                      gamma=rng.random(size) * np.ones(n), nu=rng.random(size) * np.ones(n),
                      chi=chi * np.ones(n))


def make_state(n: int, start: str, rng: np.random.Generator) -> MfState:
    """A start state of kind ``start``; only "warned" has w != 0, which a
    "sis" run rejects, and "negative_zero_w" has -0.0 in w at some nodes."""
    cuts = np.sort(rng.random((n, 3)), axis=1)
    p, q, w = cuts[:, 0], cuts[:, 1] - cuts[:, 0], cuts[:, 2] - cuts[:, 1]
    if start == "negative_zero_w":
        w = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    elif start != "warned":
        w = np.zeros(n)
    if start == "out_of_bounds":
        p = p + 1.5 * rng.random(n)
    elif start == "huge":  # finite, but the first step overflows
        p[int(rng.integers(n))] = 1e308
    elif start in ("nan", "inf"):
        p[int(rng.integers(n))] = np.nan if start == "nan" else np.inf
    return MfState(p=p, q=q, w=w, t=int(rng.integers(0, 3)))


def violation_key(violations):
    return [(v.step, v.kind, v.node, np.float64(v.value).tobytes()) for v in violations]


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, as bytes wherever it holds arrays, or the type,
    message and attached details of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc), violation_key(getattr(exc, "violations", [])),
                getattr(exc, "step", None), getattr(exc, "t", None))
    if isinstance(out, np.ndarray):
        return ("ok", out.tobytes())
    if isinstance(out, MfState):
        return ("ok", out.p.tobytes(), out.q.tobytes(), out.w.tobytes(), out.t)
    if isinstance(out, Trajectory):
        return ("ok", out.times.tobytes(),
                [(name, col.tobytes()) for name, col in out.columns.items()])
    buf = io.StringIO()
    out.trajectory.write_csv(buf)
    return ("ok", buf.getvalue(), outcome(lambda: out.trajectory),
            outcome(lambda: out.final_state), out.steps, out.converged,
            violation_key(out.violations))


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from(("sis", "sirs")),
    reporting=st.booleans(),
    tol=st.sampled_from((0.0, 1e-9, 1e-4)),
    kind=st.sampled_from(GRAPH_KINDS),
    start=st.sampled_from(STARTS),
)
def test_meanfield_run_matches_step_loop(seed, model, reporting, tol, kind, start):
    rng = np.random.default_rng(seed)
    g = make_graph(kind, rng)
    links, params = make_links(g, rng), make_params(g.n, rng)
    state0 = make_state(g.n, start, rng)
    args = (model, state0, links, params)
    kwargs = dict(max_steps=int(rng.integers(0, 60)), tol=tol,
                  allow_negative_coefficients=reporting)
    expected = outcome(meanfield_run_reference, *args, **kwargs)
    assert outcome(run, *args, **kwargs) == expected


@pytest.mark.parametrize("w0", [0.0, -0.0])
@pytest.mark.parametrize("reporting", [False, True])
@pytest.mark.parametrize("delta", [0.5, 0.55, 0.6, 0.65, 0.7])
def test_death_sweep_regime_matches_step_loop(delta, reporting, w0):
    # The bundled power-law death sweep: every point leaves [0, 1], so a
    # reporting run carries negative states.  A "sis" run from w0 = +0.0
    # skips the w row; from -0.0 it takes the whole update.
    g = gen_powerlaw(1000, 2, 42)
    links = LinkProbs.homogeneous(g, 0.4)
    params = NodeParams.homogeneous(g.n, r=1.0, delta=delta, gamma=0.3)
    args = ("sis", MfState.uniform(g.n, p0=0.1, w0=w0), links, params)
    kwargs = dict(max_steps=500, allow_negative_coefficients=reporting)
    expected = outcome(meanfield_run_reference, *args, **kwargs)
    assert expected[0] == ("ok" if reporting else "raised")
    assert outcome(run, *args, **kwargs) == expected
    if reporting:
        assert any(v.value < 0.0 for v in run(*args, **kwargs).violations)


@pytest.mark.parametrize("w0", [0.0, -0.0])
@pytest.mark.parametrize("reporting", [False, True])
def test_sis_keeps_the_signs_of_zeros(w0, reporting):
    # p0 = 1 and gamma = -0.0: before chi * w is added, every q of the first
    # step is q * (zeta - delta) + dead * gamma = -0.0 + -0.0.  The whole
    # update adds 0.0 * w, which turns that into +0.0 when w is +0.0 and
    # keeps -0.0 when w is -0.0.
    g = gen_lattice4(4, 4)
    params = NodeParams(r=np.ones(16), delta=np.full(16, 0.5), gamma=np.full(16, -0.0),
                        nu=np.ones(16), chi=np.zeros(16))
    args = ("sis", MfState.uniform(16, p0=1.0, w0=w0), LinkProbs.homogeneous(g, 1.0), params)
    kwargs = dict(max_steps=1, tol=0.0, allow_negative_coefficients=reporting)
    expected = outcome(meanfield_run_reference, *args, **kwargs)
    assert outcome(run, *args, **kwargs) == expected
    q = run(*args, **kwargs).final_state.q
    assert np.all(np.signbit(q) == np.signbit(w0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("reporting", [False, True])
def test_sis_overflowing_zeta_reports_the_warned_row(reporting):
    # Nodes 0 and 2 are both neighbours of node 1, so zeta_1 overflows and
    # the whole update makes w_1 = miss * 0.0 * q NaN: a strict run's error
    # lists it among the violations.
    g = gen_lattice4(4, 4)
    p = np.full(16, 0.1)
    p[[0, 2]] = 1e308
    state0 = MfState(p=p, q=np.full(16, 0.5), w=np.zeros(16))
    args = ("sis", state0, LinkProbs.homogeneous(g, 0.5),
            NodeParams.homogeneous(16, r=1.0, delta=0.2, gamma=0.1))
    kwargs = dict(max_steps=3, allow_negative_coefficients=reporting)
    expected = outcome(meanfield_run_reference, *args, **kwargs)
    assert expected[0] == "raised"
    if not reporting:
        assert ("w", 1) in [(kind, node) for _, kind, node, _ in expected[3]]
    assert outcome(run, *args, **kwargs) == expected


SLACK = 1e-12  # bound_violations' tolerance


@pytest.mark.parametrize("model", ["sis", "sirs"])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("reporting", [False, True])
@pytest.mark.parametrize("p_i,q_i", [
    (1 + 0.5 * SLACK, 0.0),              # inside
    (1 + 1.5 * SLACK, -0.9 * SLACK),     # p above, p + q + w inside
    (-0.5 * SLACK, 0.5),                 # inside
    (-1.5 * SLACK, 0.5),                 # p below
    (0.5, -1.5 * SLACK),                 # q below
    (0.5, 0.5 + 0.5 * SLACK),            # inside
    (0.5, 0.5 + 1.5 * SLACK),            # only p + q + w above
])
def test_frozen_states_on_the_bounds_match_step_loop(model, tol, reporting, p_i, q_i):
    # r = delta = gamma = chi = 0 and nu = 1: every step maps the state to
    # itself, so each step sees node 2 just inside or just outside one
    # bound, and the change is exactly 0.
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    p, q = np.full(6, 0.5), np.full(6, 0.25)
    p[2], q[2] = p_i, q_i
    params = NodeParams.homogeneous(g.n, r=0.0, delta=0.0, gamma=0.0)
    args = (model, MfState(p=p, q=q, w=np.zeros(6)), LinkProbs.homogeneous(g, 0.5), params)
    kwargs = dict(max_steps=3, tol=tol, allow_negative_coefficients=reporting)
    expected = outcome(meanfield_run_reference, *args, **kwargs)
    assert outcome(run, *args, **kwargs) == expected


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(GRAPH_KINDS),
    start=st.sampled_from(STARTS),
    enforce=st.booleans(),
)
def test_single_steps_and_zeta_match_reference(seed, kind, start, enforce):
    rng = np.random.default_rng(seed)
    g = make_graph(kind, rng)
    links, params = make_links(g, rng), make_params(g.n, rng)
    state = make_state(g.n, start, rng)
    assert outcome(lambda: _Update(links, params, 1.0, 0.0).zeta(state.p)) == \
        outcome(_zeta_reference, state, links, params)
    # A step is a one-step run; the reference run steps with the
    # _sis_step_reference / _sirs_step_reference oracles.
    kwargs = dict(max_steps=1, tol=0.0, allow_negative_coefficients=not enforce)
    for model in ("sis", "sirs"):
        assert outcome(run, model, state, links, params, **kwargs) == \
            outcome(meanfield_run_reference, model, state, links, params, **kwargs)


# Values that sit on or just past a bound, or are not finite.
EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, -5e-324, 5e-324, -SLACK,
               -2 * SLACK, 1.0, 1.0 + SLACK, 1.0 + 2 * SLACK)


def ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` units in the last place, up for ``k > 0``."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


@st.composite
def node_pqw(draw):
    """One node's ``(p, q, w)``: free values; a total within a few ulps of
    ``1 + 1e-12``; a total at 1, so that ``dead`` is 0 or a few ulps either
    side; or one component at an edge value (NaN, infinities, signed zeros,
    tiny negatives)."""
    kind = draw(st.sampled_from(("free", "near_slack", "at_one", "edge")))
    p = draw(st.floats(0.0, 1.0))
    q = draw(st.floats(0.0, 1.0)) * (1.0 - p)
    if kind == "free":
        return tuple(draw(st.floats(-2.0, 2.0)) for _ in range(3))
    if kind == "near_slack":
        return p, q, ulps(max((1.0 + SLACK - p) - q, 0.0), draw(st.integers(-4, 4)))
    if kind == "at_one":
        return p, q, ulps((1.0 - p) - q, draw(st.integers(-3, 3)))
    pqw = [p, q, draw(st.floats(0.0, 1.0)) * ((1.0 - p) - q)]
    pqw[draw(st.integers(0, 2))] = draw(st.sampled_from(EDGE_VALUES))
    return tuple(pqw)


@settings(max_examples=400)
@given(nodes=st.lists(node_pqw(), min_size=1, max_size=6), warned=st.booleans(),
       negative_zero_dead=st.booleans())
def test_nonnegative_states_pass_the_bounds_check(nodes, warned, negative_zero_dead):
    # A step's state: without warned, w is +0.0 and dead = (1 - p) - q.  The
    # one-call pre-check may pass only states that bound_violations passes.
    p, q, w = (np.array(values) for values in zip(*nodes))
    if not warned:
        w = np.zeros(len(p))
    with np.errstate(all="ignore"):
        dead = (1.0 - p) - q - w if warned else (1.0 - p) - q
        if negative_zero_dead:  # the same value, so the same bounds
            dead[dead == 0.0] = -0.0
        rows = np.stack([p, q, w, dead])
        flagged = bound_violations(MfState(p=p, q=q, w=w))
        if _nonnegative(rows):
            assert flagged == []


def test_the_pre_check_passes_the_steps_of_a_run_in_bounds():
    # Every state of this run lies in [0, 1] with dead >= 0, which is the
    # common case the pre-check exists for.
    g = gen_lattice4(8, 8)
    params = NodeParams.homogeneous(g.n, r=1.0, delta=0.1, gamma=0.1, nu=0.7, chi=0.2)
    update = _Update(LinkProbs.homogeneous(g, 0.1), params, params.nu, params.chi)
    state = MfState.uniform(g.n, p0=0.1, w0=0.05)
    cur = np.stack([state.p, state.q, state.w, state.dead])
    nxt = np.empty_like(cur)
    for _ in range(50):
        update.step(cur, nxt)
        assert _nonnegative(nxt)
        cur, nxt = nxt, cur


@settings(max_examples=100)
@given(
    model=st.sampled_from(sorted(_MODELS)),
    beta=st.one_of(st.floats(0.0, 5.0), st.sampled_from((40.0, 1e200))),
    gamma=st.floats(0.0, 5.0),
    mu=st.floats(0.0, 2.0),
    i0=st.floats(0.0, 1.0),
    s0=st.one_of(st.none(), st.floats(0.0, 1.0)),
    dt=st.sampled_from((0.01, 0.1, 0.5)),
    t_end=st.sampled_from((0.005, 1.0, 10.0, 30.0)),
)
def test_integrate_matches_reference(model, beta, gamma, mu, i0, s0, dt, t_end):
    # s0=None starts on the s + i = 1 line; a drawn s0 is off it, which SIS
    # rejects and the SIR models may carry out of [0, 1].
    state0 = OdeState(s=1.0 - i0 if s0 is None else s0, i=i0)
    params = OdeParams(beta=beta, gamma=gamma, mu=mu)
    args = (model, state0, params)
    kwargs = dict(dt=dt, t_end=t_end)
    assert outcome(integrate, *args, **kwargs) == \
        outcome(integrate_reference, *args, **kwargs)


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_integrate_blow_up_matches_reference(model):
    # beta * dt far beyond RK4's stability region: the run leaves [0, 1].
    args = (model, OdeState(s=0.9, i=0.1), OdeParams(beta=40.0, gamma=0.1, mu=0.5))
    expected = outcome(integrate_reference, *args, dt=0.5, t_end=50.0)
    assert expected[0] == "raised"
    assert outcome(integrate, *args, dt=0.5, t_end=50.0) == expected


def _figure_run(name):
    """The integrate arguments of the bundled figure config ``name``."""
    config = experiments._figure_configs()[name]
    p = config.params
    return ((experiments._MODELS[config.model][1], OdeState(s=p["s0"], i=p["i0"]),
             OdeParams(beta=p["beta"], gamma=p["gamma"])),
            dict(dt=config.run.dt, t_end=config.run.t_end))


# Each run's integrate arguments and the number of steps it computes: up to
# the first step that repeats the previous one bitwise, or all of them.
FIXED_POINT_RUNS = {
    "sis_phase": (*_figure_run("sis_phase"), 4341),
    "sir_phase": (*_figure_run("sir_phase"), 10_000),  # never repeats
    # (s, i) reaches the endemic equilibrium s* = (gamma + mu) / beta = 0.5.
    "sir_endemic_equilibrium": (
        ("sir_endemic", OdeState(s=0.9, i=0.1), OdeParams(beta=2.0, gamma=0.5, mu=0.5)),
        dict(dt=0.1, t_end=200.0), 683),
    "no_infection": (("sis", OdeState(s=1.0, i=0.0), OdeParams(beta=1.0, gamma=0.1)),
                     dict(dt=0.01, t_end=1.0), 1),
    # Step 1 returns i = +0.0: numerically equal to the start, bitwise not.
    "negative_zero_infection": (("sis", OdeState(s=1.0, i=-0.0), OdeParams(beta=1.0, gamma=0.1)),
                                dict(dt=0.01, t_end=1.0), 2),
}


def first_repeat(traj):
    """The first step whose (s, i) is bitwise equal to the previous step's,
    or ``None``."""
    pairs = np.stack([traj.columns["s"], traj.columns["i"]], axis=1).view(np.uint64)
    repeats = np.flatnonzero(np.all(pairs[1:] == pairs[:-1], axis=1))
    return int(repeats[0]) + 1 if len(repeats) else None


@pytest.mark.parametrize("name", sorted(FIXED_POINT_RUNS))
def test_integrate_stops_at_the_fixed_point(name, monkeypatch):
    args, kwargs, steps = FIXED_POINT_RUNS[name]
    expected = integrate_reference(*args, **kwargs)
    assert (first_repeat(expected) or len(expected) - 1) == steps
    model = args[0]
    kernel, recovered = _MODELS[model]
    calls = []

    def counted(*a):
        calls.append(None)
        return kernel(*a)

    monkeypatch.setitem(_MODELS, model, (counted, recovered))
    assert outcome(integrate, *args, **kwargs) == outcome(lambda: expected)
    # RK4 evaluates the right-hand side four times per step it computes.
    assert len(calls) == 4 * steps


@given(s=st.floats(-2.0, 2.0), i=st.floats(-2.0, 2.0), beta=st.floats(0.0, 5.0),
       gamma=st.floats(0.0, 5.0), mu=st.floats(0.0, 2.0))
def test_kernels_match_reference(s, i, beta, gamma, mu):
    state, params = OdeState(s=s, i=i), OdeParams(beta=beta, gamma=gamma, mu=mu)
    for model, (kernel, _) in _MODELS.items():
        got = np.array(kernel(s, i, beta, gamma, mu))
        assert got.tobytes() == np.array(_ODE_RHS_REFERENCE[model](state, params)).tobytes()

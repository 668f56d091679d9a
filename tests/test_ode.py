"""Continuous compartment models and the fixed-step integrator."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from netspread.ode import (
    _MODELS,
    IntegrationInstabilityError,
    OdeParams,
    OdeState,
    _sir_endemic,
    _sir_epidemic,
    _sis,
    integrate,
)
from netspread.trajectory import Trajectory

from oracles import final_size_fixed_point, sis_ode_exact


def count_interior_maxima(values: np.ndarray) -> int:
    d = np.diff(values)
    return int(np.sum((d[:-1] > 0) & (d[1:] <= 0)))


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

class TestRhs:
    def test_epidemic_hand_values(self):
        ds, di = _sir_epidemic(s=0.9, i=0.1, beta=0.8, gamma=0.1, mu=0.0)
        assert ds == pytest.approx(-0.072, abs=1e-12)
        assert di == pytest.approx(0.062, abs=1e-12)

    def test_recovery_model_hand_values(self):
        ds, di = _sis(s=0.5, i=0.5, beta=1.0, gamma=0.1, mu=0.0)
        assert ds == pytest.approx(-0.2, abs=1e-15)
        assert di == pytest.approx(0.2, abs=1e-15)

    def test_recovery_model_is_exactly_antisymmetric(self):
        ds, di = _sis(s=0.37, i=0.63, beta=1.7, gamma=0.23, mu=0.0)
        assert ds == -di  # bitwise, by construction

    def test_endemic_reduces_to_epidemic_at_mu_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, i = rng.random(), rng.random()
            beta, gamma = 2 * rng.random(), rng.random()
            assert _sir_endemic(s, i, beta, gamma, 0.0) == _sir_epidemic(s, i, beta, gamma, 0.0)

    def test_endemic_equilibrium_residual(self):
        # Closed-form equilibrium: s* = (gamma + mu) / beta,
        # i* = mu (beta - gamma - mu) / (beta (gamma + mu)).
        for beta, gamma, mu in ((0.8, 0.1, 0.05), (1.5, 0.3, 0.1), (2.0, 0.05, 0.2)):
            s_star = (gamma + mu) / beta
            i_star = mu * (beta - gamma - mu) / (beta * (gamma + mu))
            ds, di = _sir_endemic(s_star, i_star, beta, gamma, mu)
            assert abs(ds) < 1e-12 and abs(di) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OdeParams(beta=-0.1, gamma=0.1)
        with pytest.raises(ValueError):
            OdeParams(beta=0.1, gamma=math.nan)
        with pytest.raises(ValueError):
            OdeParams(beta=0.1, gamma=0.1, mu=-1.0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

class TestIntegrate:
    def test_recovery_equilibrium_value(self):
        traj = integrate("sis", OdeState(s=0.99, i=0.01), OdeParams(beta=1.0, gamma=0.1),
                         dt=0.01, t_end=200.0)
        assert traj.columns["i"][-1] == pytest.approx(0.9, abs=1e-6)
        assert traj.times[-1] == pytest.approx(200.0)
        assert len(traj) == 20001

    def test_matches_closed_form_solution(self):
        beta, gamma, i0 = 1.0, 0.1, 0.01
        traj = integrate("sis", OdeState(1 - i0, i0), OdeParams(beta, gamma),
                         dt=0.01, t_end=20.0)
        for k in (500, 1000, 2000):
            t = traj.times[k]
            assert traj.columns["i"][k] == pytest.approx(
                sis_ode_exact(t, beta, gamma, i0), abs=1e-9
            )

    def test_observed_convergence_order(self):
        # Error against the closed form must shrink like dt^p with p >= 3.5.
        beta, gamma, i0, t_end = 1.0, 0.1, 0.01, 5.0
        exact = sis_ode_exact(t_end, beta, gamma, i0)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            traj = integrate("sis", OdeState(1 - i0, i0), OdeParams(beta, gamma),
                             dt=dt, t_end=t_end)
            errs.append(abs(traj.columns["i"][-1] - exact))
        assert math.log2(errs[0] / errs[1]) >= 3.5
        assert math.log2(errs[1] / errs[2]) >= 3.5

    def test_epidemic_final_size_fixed_point(self):
        traj = integrate("sir_epidemic", OdeState(s=0.999, i=0.001),
                         OdeParams(beta=0.8, gamma=0.1), dt=0.01, t_end=100.0)
        s_inf = final_size_fixed_point(0.999, ratio=8.0)
        assert abs(traj.columns["s"][-1] - s_inf) < 1e-3

    def test_epidemic_has_single_interior_peak(self):
        traj = integrate("sir_epidemic", OdeState(s=0.999, i=0.001),
                         OdeParams(beta=0.8, gamma=0.1), dt=0.01, t_end=100.0)
        assert count_interior_maxima(traj.columns["i"]) == 1

    def test_epidemic_susceptible_non_increasing(self):
        traj = integrate("sir_epidemic", OdeState(s=0.999, i=0.001),
                         OdeParams(beta=0.8, gamma=0.1), dt=0.01, t_end=100.0)
        assert np.all(np.diff(traj.columns["s"]) <= 0)

    def test_recovered_complements_to_one(self):
        traj = integrate("sir_epidemic", OdeState(s=0.9, i=0.1),
                         OdeParams(beta=1.2, gamma=0.3), dt=0.01, t_end=10.0)
        total = traj.columns["s"] + traj.columns["i"] + traj.columns["r"]
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_recovery_model_conservation_drift(self):
        traj = integrate("sis", OdeState(s=0.99, i=0.01), OdeParams(beta=1.0, gamma=0.1),
                         dt=0.01, t_end=200.0)
        drift = np.abs(traj.columns["s"] + traj.columns["i"] - 1.0)
        assert np.all(drift <= 1e-12 * (1.0 + traj.times))

    def test_endemic_converges_to_equilibrium(self):
        beta, gamma, mu = 0.8, 0.1, 0.05
        traj = integrate("sir_endemic", OdeState(s=0.99, i=0.01),
                         OdeParams(beta, gamma, mu), dt=0.01, t_end=2000.0)
        s_star = (gamma + mu) / beta
        i_star = mu * (beta - gamma - mu) / (beta * (gamma + mu))
        assert traj.columns["s"][-1] == pytest.approx(s_star, abs=1e-10)
        assert traj.columns["i"][-1] == pytest.approx(i_star, abs=1e-10)

    def test_zero_infection_stays_zero(self):
        for model in _MODELS:
            traj = integrate(model, OdeState(s=1.0, i=0.0),
                             OdeParams(beta=0.9, gamma=0.2, mu=0.01), dt=0.01,
                             t_end=5.0)
            assert np.all(traj.columns["i"] == 0.0)

    def test_instability_raises_with_location(self):
        with pytest.raises(IntegrationInstabilityError, match="blew up") as exc:
            integrate("sis", OdeState(s=0.5, i=0.5), OdeParams(beta=9.0, gamma=0.0),
                      dt=5.0, t_end=50.0)
        assert exc.value.step == 1
        assert exc.value.t == pytest.approx(5.0)

    @pytest.mark.parametrize("model", ["sir_endemic", "sir_epidemic"])
    def test_s_rising_past_one_raises_at_the_first_step(self, model):
        # i < 0 makes -beta*i*s push s up: past 1 + 1e-9 at once.  Without the
        # loop's own upper bound on s, the error came at step 46 (41).
        with pytest.raises(IntegrationInstabilityError, match="fraction s=") as exc:
            integrate(model, OdeState(s=1 + 1e-9, i=-1e-9),
                      OdeParams(beta=1.0, gamma=5.0, mu=0.1), dt=0.01, t_end=1.0)
        assert exc.value.step == 1

    @pytest.mark.parametrize("model", ["sir_endemic", "sir_epidemic"])
    def test_r_rising_past_one_raises_at_the_first_step(self, model):
        # r = 1 - s - i can pass 1 + 1e-9 while s and i stay in bounds when a
        # negative i grows, as it does with gamma*dt = 3, beyond RK4's
        # stability limit of about 2.79.  Without the loop's upper bound on
        # r, the error came at step 3, when i left [0, 1].
        with pytest.raises(IntegrationInstabilityError, match="fraction r=") as exc:
            integrate(model, OdeState(s=-5e-10, i=-4e-10),
                      OdeParams(beta=0.0, gamma=300.0), dt=0.01, t_end=1.0)
        assert exc.value.step == 1

    def test_sis_conservation_drift_raises(self):
        # Each step moves less than half an ulp of s, so s never changes while
        # i decays: s + i drifts by about 5e-17 per step.
        with pytest.raises(IntegrationInstabilityError, match="conservation") as exc:
            integrate("sis", OdeState(s=1 - 5e-11, i=5e-11),
                      OdeParams(beta=0.0, gamma=1.0), dt=1e-6, t_end=0.05)
        assert exc.value.step == 20623

    def test_input_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            integrate("nope", OdeState(0.9, 0.1), OdeParams(1.0, 0.1), 0.01, 100.0)
        with pytest.raises(ValueError):
            integrate("sis", OdeState(0.9, 0.1), OdeParams(1.0, 0.1), dt=0.0, t_end=100.0)
        with pytest.raises(ValueError):
            integrate("sis", OdeState(0.9, 0.1), OdeParams(1.0, 0.1), dt=0.01, t_end=-1.0)
        for bad in ({"t_end": math.inf}, {"t_end": math.nan}, {"dt": math.inf},
                    {"dt": math.nan}):
            with pytest.raises(ValueError, match="dt and t_end must be finite and positive"):
                integrate("sis", OdeState(0.9, 0.1), OdeParams(1.0, 0.1),
                          **{"dt": 0.01, "t_end": 100.0, **bad})
        with pytest.raises(ValueError, match=r"s \+ i = 1"):
            integrate("sis", OdeState(s=0.5, i=0.1), OdeParams(1.0, 0.1), 0.01, 100.0)


@given(
    beta=st.floats(min_value=0.01, max_value=3.0),
    gamma=st.floats(min_value=0.0, max_value=1.0),
    i0=st.floats(min_value=0.0, max_value=1.0),
)
def test_epidemic_invariants_for_random_parameters(beta, gamma, i0):
    traj = integrate("sir_epidemic", OdeState(s=1.0 - i0, i=i0),
                     OdeParams(beta, gamma), dt=0.05, t_end=5.0)
    s, i, r = traj.columns["s"], traj.columns["i"], traj.columns["r"]
    assert np.all(np.diff(s) <= 1e-15)
    assert np.max(np.abs(s + i + r - 1.0)) < 1e-12
    assert np.all(s >= -1e-9) and np.all(i >= -1e-9) and np.all(r >= -1e-9)


# ---------------------------------------------------------------------------
# Trajectory container / CSV format
# ---------------------------------------------------------------------------

class TestTrajectoryCsv:
    def test_ode_csv_header_and_formatting(self):
        traj = integrate("sis", OdeState(s=0.99, i=0.01), OdeParams(1.0, 0.1),
                         dt=0.5, t_end=1.0)
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,s,i,r"
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "0.000000000000e+00"
        assert first[1] == "9.900000000000e-01"

    def test_integer_times_written_plainly(self):
        traj = Trajectory(times=np.array([0, 1, 2]),
                          columns={"x": np.array([0.5, 0.25, 0.125])})
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x"
        assert lines[1] == "0,5.000000000000e-01"

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=np.array([0.0, 0.0]), columns={"x": np.zeros(2)})
        with pytest.raises(ValueError, match="shape"):
            Trajectory(times=np.array([0.0, 1.0]), columns={"x": np.zeros(3)})
        with pytest.raises(ValueError, match="times must be one-dimensional"):
            Trajectory(times=np.zeros((2, 1)), columns={"x": np.zeros(2)})

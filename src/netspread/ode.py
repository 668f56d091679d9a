"""Continuous-time compartment models in population-fraction form.

Three classic models, each expressed as coupled ODEs over fractions:

* SIR epidemic:   ds/dt = -beta*i*s,              di/dt = beta*i*s - gamma*i
  with r = 1 - s - i recovered.
* SIR endemic:    adds balanced birth/death at rate mu:
  ds/dt = -beta*i*s + mu - mu*s,  di/dt = beta*i*s - (gamma + mu)*i
* SIS:            ds/dt = -beta*i*s + gamma*i,    di/dt = beta*i*s - gamma*i
  (s + i = 1 is conserved).

Integration uses the classic fixed-step fourth-order Runge-Kutta scheme.
Each model's right-hand side is one kernel on plain floats, which the RK4
loop calls directly, so no state object is built per stage.  The loop checks
each step's bounds with one chained comparison and calls the full check only
to raise its error.

A run stops computing at the first step whose (s, i) is bitwise equal to the
previous step's (same value and sign of zero; NaN never matches) and fills
the remaining rows with that pair.  This is exact: the RK4 map is autonomous,
so every later step would return the same pair, and every later bounds check
would pass, since the only time-dependent bound (SIS conservation,
``1e-12 * (1 + t)``) only widens.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .trajectory import Trajectory

__all__ = [
    "OdeParams",
    "OdeState",
    "IntegrationInstabilityError",
    "integrate",
]

_BLOWUP_LIMIT = 10.0
_FRACTION_SLACK = 1e-9
_CONSERVATION_TOL = 1e-12
# The bytes of an (s, i) pair: equal exactly when both floats are bitwise equal.
_pair_bits = struct.Struct("<2d").pack


class IntegrationInstabilityError(RuntimeError):
    """Raised when integration leaves the physically meaningful region."""

    def __init__(self, message: str, step: int, t: float):
        super().__init__(message)
        self.step = step
        self.t = t


@dataclass(frozen=True)
class OdeParams:
    """Rates for the compartment models; ``mu`` is only used by SIR endemic."""

    beta: float
    gamma: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class OdeState:
    """Susceptible and infected fractions; the SIR variants' recovered
    fraction is ``1 - s - i``."""

    s: float
    i: float


# Right-hand sides ``(ds, di)`` on plain floats, called by the RK4 loop of
# :func:`integrate`.  ``mu`` is read by SIR endemic only.

def _sir_epidemic(s: float, i: float, beta: float, gamma: float,
                  mu: float) -> tuple[float, float]:
    infections = beta * i * s
    recoveries = gamma * i
    return (-infections, infections - recoveries)


def _sir_endemic(s: float, i: float, beta: float, gamma: float,
                 mu: float) -> tuple[float, float]:
    infections = beta * i * s
    ds = -infections + mu - mu * s
    di = infections - (gamma + mu) * i
    return (ds, di)


def _sis(s: float, i: float, beta: float, gamma: float,
         mu: float) -> tuple[float, float]:
    infections = beta * i * s
    recoveries = gamma * i
    return (recoveries - infections, infections - recoveries)


# Each model's kernel, and whether it carries an explicit recovered
# compartment (r = 1 - s - i).
_MODELS = {
    "sir_epidemic": (_sir_epidemic, True),
    "sir_endemic": (_sir_endemic, True),
    "sis": (_sis, False),
}


def _check_state(model: str, s: float, i: float, step: int, t: float, total0: float) -> None:
    recovered = _MODELS[model][1]
    r = (1.0 - s - i) if recovered else 0.0
    for name, value in (("s", s), ("i", i), ("r", r)):
        if not math.isfinite(value) or abs(value) > _BLOWUP_LIMIT:
            raise IntegrationInstabilityError(
                f"integration blew up: {name}={value!r} at step {step} (t={t:.6g}); "
                f"reduce dt or check parameters",
                step=step,
                t=t,
            )
        if value < -_FRACTION_SLACK or value > 1.0 + _FRACTION_SLACK:
            raise IntegrationInstabilityError(
                f"fraction {name}={value!r} left [0, 1] at step {step} (t={t:.6g})",
                step=step,
                t=t,
            )
    if not recovered:
        drift = abs((s + i) - total0)
        if drift > _CONSERVATION_TOL * (1.0 + t):
            raise IntegrationInstabilityError(
                f"conservation violated by {drift:.3e} at step {step} (t={t:.6g})",
                step=step,
                t=t,
            )


def _check_start(model: str, s: float, i: float) -> float:
    """Reject a start ``(s, i)`` of ``model`` as :func:`integrate` does
    before its first step: ``ValueError`` when an SIS start is not
    ``s + i = 1``, :class:`IntegrationInstabilityError` when a fraction lies
    outside ``[0, 1]``.  Returns ``s + i``."""
    if not _MODELS[model][1] and abs((s + i) - 1.0) > 1e-9:
        raise ValueError(f"SIS requires s + i = 1, got {s + i!r}")
    _check_state(model, s, i, step=0, t=0.0, total0=s + i)
    return s + i


def integrate(
    model: str,
    state0: OdeState,
    params: OdeParams,
    dt: float,
    t_end: float,
) -> Trajectory:
    """Fixed-step RK4 integration of ``model`` from ``state0`` to ``t_end``.

    Returns a trajectory with columns ``s``, ``i``, ``r`` sampled at every
    step (time stamps ``k * dt``).  Raises
    :class:`IntegrationInstabilityError` if any fraction leaves ``[0, 1]``
    (tolerance 1e-9), any value exceeds 10 in magnitude, or (for SIS) the
    ``s + i`` conservation identity drifts beyond 1e-12 per unit time.

    Once a step returns an (s, i) bitwise equal to the previous step's, the
    remaining rows are filled with that pair instead of computed: they are
    the same values the steps would return, and they would pass the same
    checks, because the step does not depend on t and the conservation bound
    only widens with t.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_MODELS)}")
    if not (0 < dt < math.inf and 0 < t_end < math.inf):  # NaN fails too
        raise ValueError(f"dt and t_end must be finite and positive, "
                         f"got dt={dt!r} t_end={t_end!r}")
    rhs, recovered = _MODELS[model]
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end={t_end!r} is shorter than one step of dt={dt!r}")

    s, i = float(state0.s), float(state0.i)
    total0 = _check_start(model, s, i)
    s_out = np.empty(n_steps + 1)
    i_out = np.empty(n_steps + 1)
    s_out[0], i_out[0] = s, i

    beta, gamma, mu = params.beta, params.gamma, params.mu
    lo, hi = -_FRACTION_SLACK, 1.0 + _FRACTION_SLACK
    sixth = dt / 6.0
    half = dt / 2.0
    for k in range(1, n_steps + 1):
        ks1, ki1 = rhs(s, i, beta, gamma, mu)
        ks2, ki2 = rhs(s + half * ks1, i + half * ki1, beta, gamma, mu)
        ks3, ki3 = rhs(s + half * ks2, i + half * ki2, beta, gamma, mu)
        ks4, ki4 = rhs(s + dt * ks3, i + dt * ki3, beta, gamma, mu)
        s_next = s + sixth * (ks1 + 2.0 * ks2 + 2.0 * ks3 + ks4)
        i_next = i + sixth * (ki1 + 2.0 * ki2 + 2.0 * ki3 + ki4)
        # Exactly the conditions under which _check_state passes (NaN fails
        # every comparison); it runs only to raise its error.
        if not (lo <= s_next <= hi and lo <= i_next <= hi and (
                lo <= 1.0 - s_next - i_next <= hi if recovered
                else abs((s_next + i_next) - total0) <= _CONSERVATION_TOL * (1.0 + k * dt))):
            _check_state(model, s_next, i_next, step=k, t=k * dt, total0=total0)
        s_out[k] = s_next
        i_out[k] = i_next
        # A numeric match differs from a bitwise one only in the sign of zero.
        if s_next == s and i_next == i and _pair_bits(s_next, i_next) == _pair_bits(s, i):
            s_out[k + 1:] = s
            i_out[k + 1:] = i
            break
        s, i = s_next, i_next

    times = np.arange(n_steps + 1) * dt
    if recovered:
        r_out = 1.0 - s_out - i_out
    else:
        r_out = np.zeros_like(s_out)
    return Trajectory(times=times, columns={"s": s_out, "i": i_out, "r": r_out})

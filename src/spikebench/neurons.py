"""Point-neuron models and their single-step integrators.

Two model families:

* The two-variable quadratic model in its standard form
  ``v' = 0.04 v^2 + 5 v + 140 - u + I``, ``u' = a (b v - u)``, with the
  regular-spiking (RS, excitatory) and fast-spiking (FS, inhibitory)
  coefficient presets.

* A leaky integrate-and-fire neuron with a calcium-like adaptation
  variable c driving a hyperpolarizing conductance:
  ``v' = -(v - v_rest)/tau_m - g_c c (v - e_k) + I``, ``c' = -c/tau_c``,
  with an absolute refractory period.

Integration scheme (pinned; oracles must mirror it operation-for-operation):

* Explicit Euler.  The quadratic model's membrane update is split into two
  half-steps of dt/2 with the recovery variable held fixed; the recovery
  update then uses the post-update membrane value:

      half = 0.5 * dt
      v1 = v + half * (0.04*v*v + 5.0*v + 140.0 - u + i)
      v2 = v1 + half * (0.04*v1*v1 + 5.0*v1 + 140.0 - u + i)
      u2 = u + dt * (a * (b * v2 - u))

  Spike cut-off is checked at step entry: a state entering with
  v >= v_peak returns (v=c, u=u+d, spiked=True) and does not integrate
  during that step.

* The adaptive LIF integrates one full Euler step and checks threshold
  after it:

      v2 = v + dt * ((v_rest - v)/tau_m - g_c*c*(v - e_k) + i)
      c2 = c - dt * (c / tau_c)

  On v2 >= v_thresh the step returns (v=v_reset, c=c2+delta_c,
  refr=t_refr, spiked=True).  While refractory the membrane is held at
  v_reset, the refractory counter decreases by dt, and c keeps decaying.

Batch variants perform the same float64 operations elementwise, so they
match the scalar functions bit-for-bit.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, NumericalDivergenceError, finite, require

__all__ = [
    "IzhikevichParams",
    "AdaptiveLifParams",
    "NeuronState",
    "izhikevich_preset",
    "step_izhikevich",
    "step_adaptive_lif",
    "step_izhikevich_batch",
    "step_adaptive_lif_batch",
]


@dataclass(frozen=True)
class IzhikevichParams:
    """Coefficients of the two-variable quadratic model.

    a: recovery time scale (1/ms); b: recovery sensitivity; c: reset
    potential (mV); d: recovery increment per spike; v_peak: spike
    cut-off (mV).
    """

    a: float
    b: float
    c: float
    d: float
    v_peak: float = 30.0

    def __post_init__(self):
        c, v_peak = self.c, self.v_peak
        require([("a", self.a, 0 < self.a < math.inf, "be > 0"),
                 *finite(self, "b", "c", "d", "v_peak"),
                 (f"v_peak ({v_peak})", None, not -math.inf < v_peak <= c < math.inf,
                  f"exceed reset c ({c})")])


@dataclass(frozen=True)
class AdaptiveLifParams:
    """Leaky integrate-and-fire with spike-frequency adaptation.

    Defaults produce low-rate adapted firing in the benchmark's ~5 Hz
    regime; the engine's rate calibration tunes the operating point
    regardless.
    """

    tau_m: float = 20.0
    v_rest: float = -70.0
    v_thresh: float = -50.0
    v_reset: float = -60.0
    t_refr: float = 2.0
    g_c: float = 0.05
    tau_c: float = 500.0
    delta_c: float = 0.2
    e_k: float = -90.0

    def __post_init__(self):
        v_thresh, v_reset = self.v_thresh, self.v_reset
        require([("tau_m", self.tau_m, 0 < self.tau_m < math.inf, "be > 0"),
                 ("tau_c", self.tau_c, 0 < self.tau_c < math.inf, "be > 0"),
                 ("t_refr", self.t_refr, 0 <= self.t_refr < math.inf, "be >= 0"),
                 *finite(self, "v_rest", "v_thresh", "v_reset", "g_c", "delta_c", "e_k"),
                 (f"v_thresh ({v_thresh})", None, not -math.inf < v_thresh <= v_reset < math.inf,
                  f"exceed v_reset ({v_reset})")])


@dataclass
class NeuronState:
    """Dynamical variables of one neuron.

    ``w`` is the second variable of whichever model is in use: the
    recovery variable u for the quadratic model, the calcium-like
    adaptation variable c for the adaptive LIF.
    """

    v: float
    w: float
    refr_remaining: float = 0.0
    last_spike_step: Optional[int] = None

    def __post_init__(self):
        refr = self.refr_remaining
        require([*finite(self, "v", "w"),
                 ("refr_remaining", refr, 0 <= refr < math.inf, "be >= 0")])


_PRESETS = {
    "rs": IzhikevichParams(a=0.02, b=0.2, c=-65.0, d=8.0, v_peak=30.0),
    "fs": IzhikevichParams(a=0.1, b=0.2, c=-65.0, d=2.0, v_peak=30.0),
}


def izhikevich_preset(kind: str) -> IzhikevichParams:
    """Canonical coefficient set for a neuron class ("RS" or "FS")."""
    try:
        return _PRESETS[kind.lower()]
    except KeyError:
        raise ConfigError([f"unknown neuron class {kind!r}; expected RS or FS"]) from None


def _check_dt(dt: float) -> None:
    require([("dt", dt, 0 < dt < math.inf, "be > 0")])


def step_izhikevich(
    state: NeuronState,
    params: IzhikevichParams,
    i_syn: float,
    dt: float,
    step: Optional[int] = None,
) -> Tuple[NeuronState, bool]:
    """Advance one quadratic-model neuron by dt milliseconds.

    Returns the new state and whether the neuron spiked this step.
    Raises NumericalDivergenceError if the state becomes non-finite.
    """
    _check_dt(dt)
    v, u = state.v, state.w
    if v >= params.v_peak:
        new = replace(
            state,
            v=params.c,
            w=u + params.d,
            last_spike_step=step if step is not None else state.last_spike_step,
        )
        return new, True
    half = 0.5 * dt
    v1 = v + half * (0.04 * v * v + 5.0 * v + 140.0 - u + i_syn)
    v2 = v1 + half * (0.04 * v1 * v1 + 5.0 * v1 + 140.0 - u + i_syn)
    u2 = u + dt * (params.a * (params.b * v2 - u))
    if not (math.isfinite(v2) and math.isfinite(u2)):
        raise NumericalDivergenceError(
            f"quadratic-model state diverged (v={v2}, u={u2}, i_syn={i_syn})"
        )
    return replace(state, v=v2, w=u2), False


def step_adaptive_lif(
    state: NeuronState,
    params: AdaptiveLifParams,
    i_syn: float,
    dt: float,
    step: Optional[int] = None,
) -> Tuple[NeuronState, bool]:
    """Advance one adaptive LIF neuron by dt milliseconds."""
    _check_dt(dt)
    v, c, refr = state.v, state.w, state.refr_remaining
    c2 = c - dt * (c / params.tau_c)
    if refr > 0.0:
        refr2 = refr - dt
        if refr2 < 0.0:
            refr2 = 0.0
        return replace(state, v=params.v_reset, w=c2, refr_remaining=refr2), False
    v2 = v + dt * ((params.v_rest - v) / params.tau_m - params.g_c * c * (v - params.e_k) + i_syn)
    if not (math.isfinite(v2) and math.isfinite(c2)):
        raise NumericalDivergenceError(
            f"adaptive-LIF state diverged (v={v2}, c={c2}, i_syn={i_syn})"
        )
    if v2 >= params.v_thresh:
        new = replace(
            state,
            v=params.v_reset,
            w=c2 + params.delta_c,
            refr_remaining=params.t_refr,
            last_spike_step=step if step is not None else state.last_spike_step,
        )
        return new, True
    return replace(state, v=v2, w=c2, refr_remaining=0.0), False


def step_izhikevich_batch(v, u, a, b, c, d, v_peak, i_syn, dt):
    """Vectorized quadratic-model step over per-neuron coefficient arrays.

    Returns (v', u', spiked mask, diverged mask); mirrors
    :func:`step_izhikevich` bit-for-bit per element.  Divergence is
    reported as a mask (not raised) so callers can name the neuron;
    entry-reset lanes skip the finiteness check just like the scalar path.
    """
    spiked = v >= v_peak
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = v + half * (0.04 * v * v + 5.0 * v + 140.0 - u + i_syn)
        v2 = v1 + half * (0.04 * v1 * v1 + 5.0 * v1 + 140.0 - u + i_syn)
        u2 = u + dt * (a * (b * v2 - u))
    diverged = ~spiked & ~(np.isfinite(v2) & np.isfinite(u2))
    v_out = np.where(spiked, c, v2)
    u_out = np.where(spiked, u + d, u2)
    return v_out, u_out, spiked, diverged


def step_adaptive_lif_batch(v, c, refr, params: AdaptiveLifParams, i_syn, dt):
    """Vectorized adaptive LIF step (shared scalar params).

    Returns (v', c', refr', spiked mask, diverged mask); mirrors
    :func:`step_adaptive_lif` bit-for-bit per element.  Refractory lanes
    skip the finiteness check just like the scalar path.
    """
    refractory = refr > 0.0
    c2 = c - dt * (c / params.tau_c)
    with np.errstate(over="ignore", invalid="ignore"):
        v2 = v + dt * ((params.v_rest - v) / params.tau_m - params.g_c * c * (v - params.e_k) + i_syn)
    diverged = ~refractory & ~(np.isfinite(v2) & np.isfinite(c2))
    spiked = ~refractory & (v2 >= params.v_thresh)
    v_out = np.where(refractory | spiked, params.v_reset, v2)
    c_out = np.where(spiked, c2 + params.delta_c, c2)
    refr_out = np.where(
        refractory, np.maximum(refr - dt, 0.0), np.where(spiked, params.t_refr, 0.0)
    )
    return v_out, c_out, refr_out, spiked, diverged

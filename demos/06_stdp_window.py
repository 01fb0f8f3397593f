#!/usr/bin/env python3
"""The plasticity window and the trace implementation.

Prints the signed-exponential pair rule over a range of lags, then
pushes an isolated pre/post pair through the trace machinery and shows
it lands exactly on the closed form.  The benchmark configuration keeps
plasticity disabled; this demo flips it on in isolation.
"""

import numpy as np

from spikebench.plasticity import StdpParams, StdpState, stdp_delta_w

params = StdpParams(a_plus=0.01, a_minus=0.012, tau_plus=20.0, tau_minus=20.0,
                    w_min=0.0, w_max=10.0, enabled=True)

print("pair rule (dt = t_post - t_pre):")
for lag in (-60, -40, -20, -5, 0, 5, 20, 40, 60):
    print(f"  dt = {lag:+4d} ms -> dw = {stdp_delta_w(float(lag), params):+.6f}")


class OneSynapse:
    """Source gid 0 feeding local neuron 0 through a single synapse."""
    rank = 0
    model = "adaptive_lif"
    n_slots = 2
    local_gids = np.array([1], dtype=np.int64)
    local_excitatory = np.array([True])
    source_excitatory = np.array([True, True])
    in_offsets = np.array([0, 1, 1], dtype=np.int64)
    in_words = np.array([1], dtype=np.int32)  # delay 1 * n_local 1 + target 0
    source_weights = np.array([1.0, 1.0])  # StdpState expands these into in_weights


print("\ntrace machinery vs closed form, isolated pre->post pair:")
for lag in (1, 5, 10, 20, 40):
    part = OneSynapse()
    state = StdpState(part, params, dt_ms=1.0)
    for t in range(lag + 6):
        pre = np.array([0]) if t == 5 else np.empty(0, dtype=np.int64)
        post = np.array([0]) if t == 5 + lag else np.empty(0, dtype=np.int64)
        state.process_step(pre, post)
    closed = 1.0 + stdp_delta_w(float(lag), params)
    print(f"  lag {lag:2d} ms: trace weight {part.in_weights[0]:.12f}  "
          f"closed form {closed:.12f}  |err| {abs(part.in_weights[0]-closed):.2e}")

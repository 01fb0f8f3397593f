"""spikebench: distributed columnar spiking-network benchmark simulator
with synaptic-event energy accounting.

The package is organized by concern:

* neurons      point-neuron models and single-step integrators
* network      deterministic columnar grid construction
* engine       per-rank simulation loop, metrics, rate calibration
* plasticity   exponential-trace STDP (disabled by default)
* distributed  partitioning, spike-frame wire protocol, transports
* energy       watts / joules / joules-per-event arithmetic
* config       flat key-value run configuration
* cli          `spikebench run|calibrate|report`
"""

from .energy import EnergyReport, PlatformRecord, energy_report
from .engine import (
    DelayRing,
    Engine,
    RunMetrics,
    StimulusSpec,
    calibrate_rate,
    expected_event_count,
    raster_checksum,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ContractViolationError,
    ExchangeError,
    FrameCorruptionError,
    NumericalDivergenceError,
    ProtocolViolationError,
    SpikebenchError,
)
from .network import (
    GridSpec,
    Network,
    build_network,
    connection_probability,
    count_equivalent_synapses,
    network_stats,
    normalize_fanout,
)
from .neurons import (
    AdaptiveLifParams,
    IzhikevichParams,
    NeuronState,
    izhikevich_preset,
    step_adaptive_lif,
    step_izhikevich,
)
from .distributed import (
    Communicator,
    RankPartition,
    decode_frame,
    encode_frame,
    partition,
    run_simulation,
)
from .plasticity import StdpParams, StdpState, stdp_delta_w
from .config import RunConfig, emit_config, load_bundled_config, parse_config

__version__ = "0.1.0"

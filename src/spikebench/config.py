"""Run configuration: flat `key = value` text with dotted section names.

Every key has a schema entry (type + default); parsing collects one
diagnostic per offending line or field instead of stopping at the first.
Emit-then-parse of any valid configuration is the identity (floats are
written with repr, which round-trips exactly).

Platform power records (for the energy report) live under
``power.<label>.*``; a record is considered present when its current is
positive.  ``events = 0`` and ``wall_seconds = 0`` mean "use the event
count and the loop time measured by the run this config drives".
"""

import importlib.resources
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .energy import PlatformRecord, PowerMeasurement
from .errors import ConfigError
from .network import GridSpec, MODEL_KINDS
from .neurons import AdaptiveLifParams
from .engine import StimulusSpec
from .plasticity import StdpParams

__all__ = ["RunConfig", "parse_config", "parse_config_text", "emit_config",
           "apply_overrides", "load_bundled_config", "bundled_config_names"]

_POWER_LABELS = ("server", "embedded")

# key -> (type tag, default); order here is the canonical emit order
SCHEMA: Dict[str, Tuple[str, object]] = {
    "grid.x": ("int", 10),
    "grid.y": ("int", 10),
    "grid.neurons_per_column": ("int", 100),
    "grid.exc_fraction": ("float", 0.8),
    "grid.target_fanout": ("float", 1195.0),
    "grid.decay_lambda": ("float", 2.0),
    "grid.delay_min_ms": ("float", 1.0),
    "grid.delay_max_ms": ("float", 20.0),
    "grid.w_exc": ("float", 0.4),
    "grid.w_inh": ("float", 2.0),
    "grid.seed": ("int", 42),
    "model.kind": ("str", "adaptive_lif"),
    "model.lif.tau_m": ("float", 20.0),
    "model.lif.v_rest": ("float", -70.0),
    "model.lif.v_thresh": ("float", -50.0),
    "model.lif.v_reset": ("float", -60.0),
    "model.lif.t_refr": ("float", 2.0),
    "model.lif.g_c": ("float", 0.05),
    "model.lif.tau_c": ("float", 500.0),
    "model.lif.delta_c": ("float", 0.2),
    "model.lif.e_k": ("float", -90.0),
    "stimulus.ext_synapses_per_neuron": ("int", 594),
    "stimulus.ext_rate_hz": ("float", 3.0),
    "stimulus.ext_weight": ("float", 0.5),
    "stimulus.seed": ("int", 7),
    "stdp.enabled": ("bool", False),
    "stdp.a_plus": ("float", 0.01),
    "stdp.a_minus": ("float", 0.012),
    "stdp.tau_plus": ("float", 20.0),
    "stdp.tau_minus": ("float", 20.0),
    "stdp.w_min": ("float", 0.0),
    "stdp.w_max": ("float", 10.0),
    "run.dt_ms": ("float", 1.0),
    "run.simulated_seconds": ("float", 3.0),
    "run.ranks": ("int", 1),
    "run.transport": ("str", "memory"),
    "run.w_exc_scale": ("float", 1.0),
    "run.raster_format": ("str", "csv"),
    "run.timeout_seconds": ("float", 30.0),
}
for _label in _POWER_LABELS:
    SCHEMA[f"power.{_label}.voltage"] = ("float", 220.0)
    SCHEMA[f"power.{_label}.current"] = ("float", 0.0)
    SCHEMA[f"power.{_label}.current_error"] = ("float", 0.005)
    SCHEMA[f"power.{_label}.wall_seconds"] = ("float", 0.0)
    SCHEMA[f"power.{_label}.events"] = ("int", 0)
    SCHEMA[f"power.{_label}.baseline_w"] = ("float", 0.0)


def _parse_value(kind: str, raw: str):
    raw = raw.strip()
    if kind == "int":
        return int(raw, 0)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    return str(value)


@dataclass
class RunConfig:
    """Resolved configuration: the full schema'd key-value map."""

    values: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_, default) in SCHEMA.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    def with_values(self, **kv) -> "RunConfig":
        out = dict(self.values)
        out.update(kv)
        return RunConfig(out)

    # typed views -------------------------------------------------------
    def grid_spec(self) -> GridSpec:
        v = self.values
        return GridSpec(
            grid_x=v["grid.x"], grid_y=v["grid.y"],
            neurons_per_column=v["grid.neurons_per_column"],
            exc_fraction=v["grid.exc_fraction"],
            target_fanout=v["grid.target_fanout"],
            decay_lambda=v["grid.decay_lambda"],
            delay_min_ms=v["grid.delay_min_ms"],
            delay_max_ms=v["grid.delay_max_ms"],
            w_exc=v["grid.w_exc"], w_inh=v["grid.w_inh"],
            seed=v["grid.seed"],
        )

    def stimulus(self) -> StimulusSpec:
        v = self.values
        return StimulusSpec(
            ext_synapses_per_neuron=v["stimulus.ext_synapses_per_neuron"],
            ext_rate_hz=v["stimulus.ext_rate_hz"],
            ext_weight=v["stimulus.ext_weight"],
            seed=v["stimulus.seed"],
        )

    def lif_params(self) -> AdaptiveLifParams:
        v = self.values
        return AdaptiveLifParams(
            tau_m=v["model.lif.tau_m"], v_rest=v["model.lif.v_rest"],
            v_thresh=v["model.lif.v_thresh"], v_reset=v["model.lif.v_reset"],
            t_refr=v["model.lif.t_refr"], g_c=v["model.lif.g_c"],
            tau_c=v["model.lif.tau_c"], delta_c=v["model.lif.delta_c"],
            e_k=v["model.lif.e_k"],
        )

    def stdp_params(self) -> StdpParams:
        v = self.values
        return StdpParams(
            a_plus=v["stdp.a_plus"], a_minus=v["stdp.a_minus"],
            tau_plus=v["stdp.tau_plus"], tau_minus=v["stdp.tau_minus"],
            w_min=v["stdp.w_min"], w_max=v["stdp.w_max"],
            enabled=v["stdp.enabled"],
        )

    def power_record(self, label: str, wall_seconds: float = 0.0,
                     events: int = 0) -> Optional[PlatformRecord]:
        """The platform record under power.<label>.*, or None if absent
        (absence = non-positive current).  A configured time or event
        count of 0 takes the run's measured ``wall_seconds`` or ``events``."""
        v = self.values
        current = v[f"power.{label}.current"]
        if current <= 0:
            return None
        return PlatformRecord(
            label=label,
            measurement=PowerMeasurement(
                current=current,
                voltage=v[f"power.{label}.voltage"],
                current_error=v[f"power.{label}.current_error"],
            ),
            wall_seconds=v[f"power.{label}.wall_seconds"] or wall_seconds,
            synaptic_events=v[f"power.{label}.events"] or events,
        )

    def power_labels(self) -> List[str]:
        return [lab for lab in _POWER_LABELS if self.values[f"power.{lab}.current"] > 0]

    # validation --------------------------------------------------------
    def validate(self) -> List[str]:
        problems: List[str] = []
        v = self.values

        def check(build, *keys):
            try:
                build()
            except ConfigError as err:
                problems.extend(f"{'/'.join(keys)}: {p}" for p in err.problems)

        problems.extend(f"grid: {p}" for p in self.grid_spec().validate())
        check(self.stimulus, "stimulus")
        check(self.lif_params, "model.lif")
        check(self.stdp_params, "stdp")
        if v["model.kind"] not in MODEL_KINDS:
            problems.append(
                f"model.kind: unknown model {v['model.kind']!r}; expected one of {MODEL_KINDS}"
            )
        if v["run.dt_ms"] <= 0:
            problems.append(f"run.dt_ms: must be > 0, got {v['run.dt_ms']}")
        if v["run.simulated_seconds"] <= 0:
            problems.append(
                f"run.simulated_seconds: must be > 0, got {v['run.simulated_seconds']}"
            )
        if v["run.ranks"] < 1:
            problems.append(f"run.ranks: must be >= 1, got {v['run.ranks']}")
        if v["run.transport"] not in ("memory", "tcp"):
            problems.append(
                f"run.transport: expected memory or tcp, got {v['run.transport']!r}"
            )
        if v["run.raster_format"] not in ("csv", "binary"):
            problems.append(
                f"run.raster_format: expected csv or binary, got {v['run.raster_format']!r}"
            )
        if v["run.w_exc_scale"] < 0:
            problems.append(f"run.w_exc_scale: must be >= 0, got {v['run.w_exc_scale']}")
        if v["run.timeout_seconds"] <= 0:
            problems.append(
                f"run.timeout_seconds: must be > 0, got {v['run.timeout_seconds']}"
            )
        for label in self.power_labels():
            try:  # a time of 0 is the run's own, known only once it has run
                self.power_record(label, wall_seconds=1.0)
            except ConfigError as err:
                problems.extend(f"power.{label}: {p}" for p in err.problems)
        return problems

    def require_valid(self) -> "RunConfig":
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse flat key-value text; raises ConfigError listing every bad line."""
    values: Dict[str, object] = {}
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            problems.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        kind, _ = SCHEMA[key]
        try:
            values[key] = _parse_value(kind, raw)
        except ValueError as err:
            problems.append(f"{source}:{lineno}: {key}: {err}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(values)


def parse_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(cfg: RunConfig, overrides: List[str]) -> RunConfig:
    """Apply `key=value` override strings (the --set flag)."""
    values = dict(cfg.values)
    problems = []
    for item in overrides:
        if "=" not in item:
            problems.append(f"--set {item!r}: expected key=value")
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            problems.append(f"--set: unknown key {key!r}")
            continue
        kind, _ = SCHEMA[key]
        try:
            values[key] = _parse_value(kind, raw)
        except ValueError as err:
            problems.append(f"--set {key}: {err}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(values)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text rendering; parse(emit(cfg)) == cfg."""
    lines = []
    section = None
    for key, (kind, _) in SCHEMA.items():
        head = key.split(".", 1)[0]
        if head != section:
            if section is not None:
                lines.append("")
            section = head
        lines.append(f"{key} = {_format_value(kind, cfg.values[key])}")
    return "\n".join(lines) + "\n"


def bundled_config_names() -> List[str]:
    root = importlib.resources.files("spikebench.configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def load_bundled_config(name: str) -> RunConfig:
    """Load a packaged configuration by file name (e.g. 'paper-desk.cfg')."""
    if not name.endswith(".cfg"):
        name += ".cfg"
    root = importlib.resources.files("spikebench.configs")
    path = root / name
    if not path.is_file():
        raise ConfigError(
            [f"no bundled config {name!r}; available: {bundled_config_names()}"]
        )
    return parse_config_text(path.read_text(), source=f"bundled:{name}")

"""Run configuration: flat `key = value` text with dotted section names.

Every key has a schema entry (type + default); parsing collects one
diagnostic per offending line or field instead of stopping at the first,
and refuses a float that is not finite for every key.  The ``grid``,
``model.lif``, ``stimulus``, ``stdp`` and ``power.<label>`` keys are the
fields of the dataclasses built from them, which declare their types and
defaults and check their values.  Emit-then-parse of any valid
configuration is the identity (floats are written with repr, which
round-trips exactly).

Each platform's power record (for the energy report) is the
``power.<label>`` section, one ``energy.PlatformRecord``; a record is
present when its current is positive.
"""

import functools
import importlib.resources
import math
import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from .energy import PlatformRecord
from .errors import ConfigError, read_input, require
from .distributed import check_run_args
from .network import GridSpec, check_build_args
from .neurons import AdaptiveLifParams
from .engine import StimulusSpec
from .plasticity import StdpParams

__all__ = ["RunConfig", "parse_config", "parse_config_text", "parse_inputs", "emit_config",
           "apply_overrides", "load_bundled_config", "bundled_config_names"]

POWER_LABELS = ("server", "embedded")

# section -> the dataclass whose fields are its keys, types and defaults,
# in validate's order: field f is key "<section>.f", except GridSpec's
# grid_x and grid_y
_SECTIONS = {
    "grid": GridSpec,
    "stimulus": StimulusSpec,
    "model.lif": AdaptiveLifParams,
    "stdp": StdpParams,
    **{f"power.{label}": PlatformRecord for label in POWER_LABELS},
}
_FIELD_KEYS = {"grid_x": "x", "grid_y": "y"}


def _key(section: str, name: str) -> str:
    return f"{section}.{_FIELD_KEYS.get(name, name)}"


def _declared(section: str) -> Dict[str, Tuple[type, object]]:
    return {_key(section, f.name): (f.type, f.default) for f in fields(_SECTIONS[section])}


# key -> (type, default); order here is the canonical emit order
SCHEMA: Dict[str, Tuple[type, object]] = {
    **_declared("grid"),
    "model.kind": (str, "adaptive_lif"),
    **_declared("model.lif"),
    **_declared("stimulus"),
    **_declared("stdp"),
    "run.dt_ms": (float, 1.0),
    "run.simulated_seconds": (float, 3.0),
    "run.ranks": (int, 1),
    "run.transport": (str, "memory"),
    "run.raster_format": (str, "csv"),
    "run.timeout_seconds": (float, 30.0),
    **_declared("power.server"),
    **_declared("power.embedded"),
}


def _parse_value(kind: type, raw: str):
    raw = raw.strip()
    if kind is int:
        return int(raw, 0)
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ValueError(f"expected true/false, got {raw!r}")
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _format_value(kind: type, value) -> str:
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    return str(value)


_LINE = ("{at}: expected 'key = value', got {item!r}", "{at}: unknown key {key!r}",
         "{at}: {key}: {err}")
_FLAG = ("{at} {item!r}: expected key=value", "{at}: unknown key {key!r}", "{at} {key}: {err}")


def _lines(text: str, source: str) -> list:
    """The items of config text: each line but blanks and comments."""
    lines = ((f"{source}:{lineno}", line.strip())
             for lineno, line in enumerate(text.splitlines(), 1))
    return [(_LINE, at, item) for at, item in lines if item and not item.startswith("#")]


def _parse_items(items, values: Dict[str, object]) -> List[str]:
    """Parse (messages, place, "key = value") items into ``values`` in
    order, a later item winning; a value that does not parse reads None.
    ``messages`` are the diagnostics for an item with no ``=``, an unknown
    key and a bad value; returns one per bad item."""
    problems: List[str] = []
    for (no_equals, unknown, bad_value), at, item in items:
        if "=" not in item:
            problems.append(no_equals.format(at=at, item=item))
            continue
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            problems.append(unknown.format(at=at, key=key))
            continue
        try:
            values[key] = _parse_value(SCHEMA[key][0], raw)
        except ValueError as err:
            values[key] = None
            problems.append(bad_value.format(at=at, key=key, err=err))
    return problems


def _parsed(items, values: Dict[str, object]) -> "RunConfig":
    """The config of ``items`` over ``values``, or a ConfigError of them."""
    require([], _parse_items(items, values))
    return RunConfig(values)


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
    def _section(self, section: str):
        """The section's dataclass, built from its keys; None if one is None."""
        cls = _SECTIONS[section]
        kwargs = {f.name: self.values[_key(section, f.name)] for f in fields(cls)}
        return None if None in kwargs.values() else cls(**kwargs)

    def grid_spec(self) -> GridSpec:
        return self._section("grid")

    def stimulus(self) -> StimulusSpec:
        return self._section("stimulus")

    def lif_params(self) -> AdaptiveLifParams:
        return self._section("model.lif")

    def stdp_params(self) -> StdpParams:
        return self._section("stdp")

    def power_record(self, label: str) -> Optional[PlatformRecord]:
        """The platform record under power.<label>.*, or None if absent
        (absence = zero current)."""
        record = self._section(f"power.{label}")
        return record if record.current > 0 else None

    def power_labels(self) -> List[str]:
        return [lab for lab in POWER_LABELS if self.values[f"power.{lab}.current"] > 0]

    # validation --------------------------------------------------------
    def validate(self, rank: Optional[int] = None,
                 cluster: Optional[Dict[int, Tuple[str, int]]] = None) -> List[str]:
        """Every problem of this config as a run's inputs (of ``rank`` of
        ``cluster``, if given), one diagnostic each, from each rule's one
        owner: the section dataclasses, then ``check_build_args`` (the
        grid's rules once the grid is valid) and ``check_run_args``.  A key
        that reads None (did not parse) skips every rule that reads it."""
        problems: List[str] = []

        def check(owner, prefix=""):
            try:
                return owner()
            except ConfigError as err:
                problems.extend(prefix + p for p in err.problems)

        built = {section: check(functools.partial(self._section, section), f"{section}: ")
                 for section in _SECTIONS}
        spec, v = built["grid"], self.values
        check(lambda: check_build_args(spec, v["run.dt_ms"], v["model.kind"]))
        check(lambda: check_run_args(
            n_columns=spec and spec.n_columns, dt_ms=v["run.dt_ms"], n_ranks=v["run.ranks"],
            seconds=v["run.simulated_seconds"], transport=v["run.transport"],
            timeout=v["run.timeout_seconds"], rank=rank, cluster=cluster))
        if v["run.raster_format"] not in (None, "csv", "binary"):
            problems.append(f"run.raster_format: expected csv or binary, "
                            f"got {v['run.raster_format']!r}")
        return problems

    def require_valid(self) -> "RunConfig":
        require([], self.validate())
        return self


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse flat key-value text; raises ConfigError listing every bad line."""
    return _parsed(_lines(text, source), {})


def parse_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(cfg: RunConfig, overrides: List[str]) -> RunConfig:
    """Apply `key=value` override strings (the --set flag)."""
    return _parsed([(_FLAG, "--set", item) for item in overrides], dict(cfg.values))


def parse_inputs(source: Optional[str], flags: List[Tuple[str, str]]
                 ) -> Tuple[RunConfig, List[str]]:
    """One pass over config ``source`` (a file path, else a bundled name) and
    then the (flag, "key=value") items of ``--set`` and the other flags, a
    later value winning -> (the config, one diagnostic per bad input).  A
    source that cannot be read leaves every key None until a flag sets it."""
    values, problems, items = {}, [], []
    try:
        if source and os.path.exists(source):
            items = _lines(read_input(source, "--config"), source)
        elif source:  # a packaged config, whose lines all parse
            values = dict(load_bundled_config(source).values)
    except ConfigError as err:
        values, problems = dict.fromkeys(SCHEMA), err.problems
    problems += _parse_items(items + [(_FLAG, flag, item) for flag, item in flags], values)
    return RunConfig(values), problems


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

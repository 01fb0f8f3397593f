"""Electrical-measurement bookkeeping: watts, joules, and joules per
synaptic event, with error bounds propagated from the current reading.

Power is taken at the wall plug (V * I); no idle baseline is subtracted
unless one is passed explicitly, so the default figures include all
system overhead.  Reference energy-per-event constants for published
neuromorphic platforms are attached to comparison reports for context.
"""

from dataclasses import dataclass, fields
from typing import Tuple

from .errors import ConfigError, UndefinedMetricError

__all__ = [
    "PowerMeasurement",
    "PlatformRecord",
    "EnergyReport",
    "ComparisonReport",
    "electrical_power",
    "energy_to_solution",
    "energy_per_event",
    "energy_report",
    "comparison_report",
    "format_energy_report",
    "format_comparison_table",
    "REFERENCE_JOULE_PER_EVENT",
]

# published-platform reference costs (J per synaptic event)
REFERENCE_JOULE_PER_EVENT = {
    "compass_sim_on_core_i7": 5.7e-6,
    "spinnaker": 20e-9,
    "truenorth": 26e-12,
}


@dataclass(frozen=True)
class PowerMeasurement:
    """A clamp reading at the supply: volts, amps, and the meter error."""

    current: float
    voltage: float = 220.0
    current_error: float = 0.005

    def __post_init__(self):
        problems = []
        if not self.voltage > 0:
            problems.append(f"voltage must be > 0, got {self.voltage}")
        if self.current < 0:
            problems.append(f"current must be >= 0, got {self.current}")
        if self.current_error < 0:
            problems.append(f"current_error must be >= 0, got {self.current_error}")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class PlatformRecord:
    """One platform's measured run: electrical reading, wall time, and the
    synaptic-event count of the simulated task."""

    label: str
    measurement: PowerMeasurement
    wall_seconds: float
    synaptic_events: int

    def __post_init__(self):
        problems = []
        if not self.wall_seconds > 0:
            problems.append(f"wall_seconds must be > 0, got {self.wall_seconds}")
        if self.synaptic_events < 0:
            problems.append(f"synaptic_events must be >= 0, got {self.synaptic_events}")
        if problems:
            raise ConfigError(problems)


def electrical_power(m: PowerMeasurement) -> Tuple[float, float]:
    """Instantaneous power V*I in watts, with absolute error V*dI."""
    return m.voltage * m.current, m.voltage * m.current_error


def energy_to_solution(power_w: float, wall_seconds: float) -> float:
    """Energy in joules to complete the task at the given power."""
    if power_w < 0 or wall_seconds < 0:
        raise ConfigError(
            [f"power and time must be >= 0, got {power_w} W, {wall_seconds} s"]
        )
    return power_w * wall_seconds


def energy_per_event(energy_j: float, events: int) -> float:
    """Joules per synaptic event."""
    if events <= 0:
        raise UndefinedMetricError(
            f"joule-per-event needs a positive event count, got {events}"
        )
    return energy_j / events


@dataclass(frozen=True)
class EnergyReport:
    """Derived quantities for one platform record.

    Relative error equals current_error/current and carries through the
    power -> energy -> J/event chain unchanged (time and event counts are
    taken as exact).
    """

    label: str
    power_w: float
    power_err_w: float
    energy_j: float
    energy_err_j: float
    joule_per_event: float
    joule_per_event_err: float
    wall_seconds: float
    synaptic_events: int
    baseline_w: float = 0.0


def energy_report(record: PlatformRecord, baseline_w: float = 0.0) -> EnergyReport:
    """Full derived report for one platform.

    ``baseline_w`` optionally subtracts an idle power before the derived
    quantities (the default of 0 keeps every overhead in).
    """
    power, power_err = electrical_power(record.measurement)
    if baseline_w < 0 or baseline_w > power:
        raise ConfigError(
            [f"baseline_w must lie in [0, measured power], got {baseline_w}"]
        )
    net_power = power - baseline_w
    energy = energy_to_solution(net_power, record.wall_seconds)
    energy_err = power_err * record.wall_seconds
    jpe = energy_per_event(energy, record.synaptic_events)
    jpe_err = (
        energy_err / record.synaptic_events if record.synaptic_events > 0 else 0.0
    )
    return EnergyReport(
        label=record.label,
        power_w=net_power,
        power_err_w=power_err,
        energy_j=energy,
        energy_err_j=energy_err,
        joule_per_event=jpe,
        joule_per_event_err=jpe_err,
        wall_seconds=record.wall_seconds,
        synaptic_events=record.synaptic_events,
        baseline_w=baseline_w,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Two platforms' reports plus their ratio table (a/b and b/a)."""

    a: EnergyReport
    b: EnergyReport
    energy_ratio_ab: float
    energy_ratio_ba: float
    power_ratio_ab: float
    power_ratio_ba: float
    time_ratio_ab: float
    time_ratio_ba: float

    @property
    def reference_joule_per_event(self) -> dict:
        return dict(REFERENCE_JOULE_PER_EVENT)


def comparison_report(rec_a: PlatformRecord, rec_b: PlatformRecord,
                      baseline_a_w: float = 0.0, baseline_b_w: float = 0.0
                      ) -> ComparisonReport:
    """Ratio table between two platform records (energy, power, time)."""
    a = energy_report(rec_a, baseline_w=baseline_a_w)
    b = energy_report(rec_b, baseline_w=baseline_b_w)
    return ComparisonReport(
        a=a,
        b=b,
        energy_ratio_ab=a.energy_j / b.energy_j,
        energy_ratio_ba=b.energy_j / a.energy_j,
        power_ratio_ab=a.power_w / b.power_w,
        power_ratio_ba=b.power_w / a.power_w,
        time_ratio_ab=a.wall_seconds / b.wall_seconds,
        time_ratio_ba=b.wall_seconds / a.wall_seconds,
    )


def format_energy_report(report: EnergyReport, prefix: str = "energy") -> str:
    """Machine-readable key-value rendering, one line per field (a
    float's ``str`` is its shortest repr)."""
    return "".join(f"{prefix}.{f.name} = {getattr(report, f.name)}\n" for f in fields(report))


def format_comparison_table(cmp: ComparisonReport) -> str:
    """Human-readable table mirroring the platform-comparison layout."""
    a, b = cmp.a, cmp.b
    rows = [
        ("", a.label, b.label, f"{a.label} / {b.label}"),
        ("joule per synaptic event",
         f"{a.joule_per_event * 1e6:.2f} uJ", f"{b.joule_per_event * 1e6:.2f} uJ",
         f"{a.joule_per_event / b.joule_per_event:.2f}x"),
        ("total energy to solution",
         f"{a.energy_j:.1f} J", f"{b.energy_j:.1f} J",
         f"{cmp.energy_ratio_ab:.2f}x"),
        ("instantaneous power",
         f"{a.power_w:.1f} W", f"{b.power_w:.1f} W",
         f"{cmp.power_ratio_ab:.2f}x"),
        ("time to solution",
         f"{a.wall_seconds:.1f} s", f"{b.wall_seconds:.1f} s",
         f"{cmp.time_ratio_ab:.2f}x"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.append("")
    for name, value in REFERENCE_JOULE_PER_EVENT.items():
        lines.append(f"reference {name}: {value:.3g} J/event")
    return "\n".join(lines) + "\n"

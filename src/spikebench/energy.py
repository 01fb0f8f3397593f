"""Electrical-measurement bookkeeping: watts, joules, and joules per
synaptic event, with error bounds propagated from the current reading.

Power is taken at the wall plug (V * I); no idle baseline is subtracted
unless the record names one, so the default figures include all system
overhead.  The comparison table lists reference energy-per-event
constants of published neuromorphic platforms for context.
"""

import math
from dataclasses import dataclass, fields

from .errors import require

__all__ = [
    "PlatformRecord",
    "EnergyReport",
    "energy_report",
    "unmeasured",
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
class PlatformRecord:
    """One platform's measured inputs, the keys of its ``power.<label>``
    config section: the clamp reading at the supply (volts, amps and the
    meter's error in amps), the task's wall time and synaptic-event count,
    and an idle power to subtract.  A wall time or event count of 0 means
    "the run's own"; a current of 0 means the platform was not measured."""

    voltage: float = 220.0
    current: float = 0.0
    current_error: float = 0.005
    wall_seconds: float = 0.0
    events: int = 0
    baseline_w: float = 0.0

    def __post_init__(self):
        voltage, current, baseline_w = self.voltage, self.current, self.baseline_w
        measured = 0 < voltage < math.inf and 0 <= current < math.inf
        require([("voltage", voltage, 0 < voltage < math.inf, "be > 0"),
                 *((f.name, getattr(self, f.name), 0 <= getattr(self, f.name) < math.inf,
                    "be >= 0") for f in fields(self)[1:]),  # every field after voltage
                 # the baseline's bound, once voltage, current and baseline are valid
                 ("baseline_w", baseline_w,
                  not (measured and voltage * current < baseline_w < math.inf),
                  f"lie in [0, voltage * current = {voltage * current} W]")])


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


def unmeasured(label: str, wall_seconds: float, events: int) -> list:
    """One diagnostic for each of power.<label>'s time and event count that
    is still 0, taken neither from the record nor from a run."""
    return [problem for problem, zero in (
        (f"power.{label}.wall_seconds is 0 and no run supplied its time; set it, or pass "
         "the run's metrics (report --metrics FILE)", wall_seconds == 0),
        (f"power.{label}.events is 0 and no measured event count supplied one; "
         "joule-per-event needs a positive event count", events == 0)) if zero]


def energy_report(record: PlatformRecord, label: str) -> EnergyReport:
    """The platform's power V*I less its baseline, the energy over its wall
    time and the joules per event, each with the error V*dI carries.  The
    record's time and event count must be known (> 0) by now."""
    require([], unmeasured(label, record.wall_seconds, record.events))
    power_err = record.voltage * record.current_error
    net_power = record.voltage * record.current - record.baseline_w
    energy = net_power * record.wall_seconds
    energy_err = power_err * record.wall_seconds
    return EnergyReport(
        label=label,
        power_w=net_power,
        power_err_w=power_err,
        energy_j=energy,
        energy_err_j=energy_err,
        joule_per_event=energy / record.events,
        joule_per_event_err=energy_err / record.events,
        wall_seconds=record.wall_seconds,
        synaptic_events=record.events,
        baseline_w=record.baseline_w,
    )


def format_energy_report(report: EnergyReport, prefix: str = "energy") -> str:
    """Machine-readable key-value rendering, one line per field (a
    float's ``str`` is its shortest repr)."""
    return "".join(f"{prefix}.{f.name} = {getattr(report, f.name)}\n" for f in fields(report))


def format_comparison_table(a: EnergyReport, b: EnergyReport) -> str:
    """Human-readable table of two platforms and their ratio a / b, in the
    platform-comparison layout, followed by the reference costs."""
    rows = [
        ("", a.label, b.label, f"{a.label} / {b.label}"),
        ("joule per synaptic event",
         f"{a.joule_per_event * 1e6:.2f} uJ", f"{b.joule_per_event * 1e6:.2f} uJ",
         f"{a.joule_per_event / b.joule_per_event:.2f}x"),
        ("total energy to solution",
         f"{a.energy_j:.4g} J", f"{b.energy_j:.4g} J", f"{a.energy_j / b.energy_j:.2f}x"),
        ("instantaneous power",
         f"{a.power_w:.4g} W", f"{b.power_w:.4g} W", f"{a.power_w / b.power_w:.2f}x"),
        ("time to solution",
         f"{a.wall_seconds:.4g} s", f"{b.wall_seconds:.4g} s",
         f"{a.wall_seconds / b.wall_seconds:.2f}x"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.append("")
    for name, value in REFERENCE_JOULE_PER_EVENT.items():
        lines.append(f"reference {name}: {value:.3g} J/event")
    return "\n".join(lines) + "\n"

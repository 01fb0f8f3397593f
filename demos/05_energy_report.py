#!/usr/bin/env python3
"""Energy accounting from measured electrical inputs.

Feeds the two reference measurements (a 220 V supply, clamp readings of
1.15 A over 9.1 s and 0.08 A over 30 s, 235M synaptic events) through
the power/energy/joule-per-event chain and prints the comparison table
with the published-platform reference costs.
"""

from dataclasses import replace

from spikebench import PlatformRecord, energy_report
from spikebench.energy import format_comparison_table, format_energy_report

EVENTS = 235_000_000
records = {
    "server": PlatformRecord(current=1.15, wall_seconds=9.1, events=EVENTS),
    "embedded": PlatformRecord(current=0.08, wall_seconds=30.0, events=EVENTS),
}

reports = [energy_report(record, label) for label, record in records.items()]
for report in reports:
    print(format_energy_report(report, prefix=f"energy.{report.label}"))
print(format_comparison_table(*reports))

print("with an idle baseline subtracted the picture shifts:")
baselines = {"server": 190.0, "embedded": 8.8}
a, b = (energy_report(replace(records[label], baseline_w=baselines[label]), label)
        for label in records)
print(f"  baseline {baselines['server']} W / {baselines['embedded']} W -> "
      f"energy ratio {a.energy_j / b.energy_j:.2f}x, "
      f"{a.joule_per_event*1e6:.2f} / {b.joule_per_event*1e6:.2f} uJ per event")

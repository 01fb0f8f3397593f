"""Energy arithmetic: the measured-run reproduction and its properties."""

from dataclasses import replace

import pytest

from spikebench import ConfigError, PlatformRecord, energy_report
from spikebench.energy import (
    REFERENCE_JOULE_PER_EVENT,
    format_comparison_table,
    format_energy_report,
)

EVENTS = 235_000_000
SERVER = PlatformRecord(current=1.15, wall_seconds=9.1, events=EVENTS)
EMBEDDED = PlatformRecord(current=0.08, wall_seconds=30.0, events=EVENTS)
UNPOWERED = PlatformRecord(voltage=400.0, current=0.0, wall_seconds=12.0, events=5)


def _ratio_cells(table):
    """The a / b column of the table's four rows."""
    return [line.split()[-1] for line in table.splitlines()[1:5]]


def test_power_values():
    rep = energy_report(SERVER, "server")
    assert rep.power_w == pytest.approx(253.0, rel=1e-9)
    assert rep.power_err_w == pytest.approx(1.1, rel=1e-9)
    rep = energy_report(EMBEDDED, "embedded")
    assert rep.power_w == pytest.approx(17.6, rel=1e-9)
    assert rep.power_err_w == pytest.approx(1.1, rel=1e-9)
    assert energy_report(UNPOWERED, "x").power_w == 0.0


def test_energy_values():
    assert energy_report(SERVER, "server").energy_j == pytest.approx(2302.3, rel=1e-9)
    assert energy_report(EMBEDDED, "embedded").energy_j == pytest.approx(528.0, rel=1e-9)
    assert energy_report(UNPOWERED, "x").energy_j == 0.0
    with pytest.raises(ConfigError):
        PlatformRecord(current=1.0, wall_seconds=-1.0)


def test_joule_per_event_values():
    assert energy_report(SERVER, "server").joule_per_event == pytest.approx(9.80e-6, rel=2e-3)
    assert energy_report(EMBEDDED, "embedded").joule_per_event == pytest.approx(2.247e-6,
                                                                                rel=1e-3)
    assert energy_report(UNPOWERED, "x").joule_per_event == 0.0
    with pytest.raises(ConfigError, match=r"power\.server\.events is 0"):
        energy_report(replace(SERVER, events=0), "server")


def test_reports_carry_propagated_errors():
    rep = energy_report(SERVER, "server")
    assert rep.power_w == pytest.approx(253.0, rel=1e-9)
    assert rep.energy_j == pytest.approx(2302.3, rel=1e-9)
    assert rep.joule_per_event == pytest.approx(9.797e-6, rel=1e-3)
    # relative error = current_error / current, identical down the chain
    rel = 0.005 / 1.15
    assert rep.power_err_w / rep.power_w == pytest.approx(rel, rel=1e-9)
    assert rep.energy_err_j / rep.energy_j == pytest.approx(rel, rel=1e-9)
    assert rep.joule_per_event_err / rep.joule_per_event == pytest.approx(rel, rel=1e-9)


def test_comparison_ratios():
    a, b = energy_report(SERVER, "server"), energy_report(EMBEDDED, "embedded")
    energy_ratio, power_ratio = a.energy_j / b.energy_j, a.power_w / b.power_w
    time_ratio_ba = b.wall_seconds / a.wall_seconds
    assert energy_ratio == pytest.approx(4.36, abs=0.01)
    assert power_ratio == pytest.approx(14.375, rel=1e-9)
    assert time_ratio_ba == pytest.approx(30.0 / 9.1, rel=1e-9)
    # paper-rounded values within 2%
    assert abs(energy_ratio - 4.4) / 4.4 < 0.02
    assert abs(power_ratio - 14.4) / 14.4 < 0.02
    assert abs(time_ratio_ba - 3.3) / 3.3 < 0.02
    # the table prints the same ratios, a / b
    assert _ratio_cells(format_comparison_table(a, b)) == [
        f"{a.joule_per_event / b.joule_per_event:.2f}x", f"{energy_ratio:.2f}x",
        f"{power_ratio:.2f}x", f"{a.wall_seconds / b.wall_seconds:.2f}x"]


def test_comparison_with_itself_is_unity():
    rep = energy_report(SERVER, "server")
    assert _ratio_cells(format_comparison_table(rep, rep)) == ["1.00x"] * 4


def test_scale_covariance_doubling_current():
    base = energy_report(SERVER, "server").joule_per_event
    doubled = energy_report(replace(SERVER, current=2.30), "server2x").joule_per_event
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_baseline_subtraction():
    rep = energy_report(replace(SERVER, baseline_w=53.0), "server")
    assert rep.power_w == pytest.approx(200.0, rel=1e-9)
    assert rep.energy_j == pytest.approx(200.0 * 9.1, rel=1e-9)
    assert rep.baseline_w == 53.0
    with pytest.raises(ConfigError):
        replace(SERVER, baseline_w=300.0)


def test_reference_constants_attached():
    assert REFERENCE_JOULE_PER_EVENT["compass_sim_on_core_i7"] == pytest.approx(5.7e-6)
    assert REFERENCE_JOULE_PER_EVENT["spinnaker"] == pytest.approx(20e-9)
    assert REFERENCE_JOULE_PER_EVENT["truenorth"] == pytest.approx(26e-12)
    table = format_comparison_table(energy_report(SERVER, "server"),
                                    energy_report(EMBEDDED, "embedded"))
    assert table.splitlines()[-3:] == [
        "reference compass_sim_on_core_i7: 5.7e-06 J/event",
        "reference spinnaker: 2e-08 J/event",
        "reference truenorth: 2.6e-11 J/event",
    ]


def test_formatting():
    rep = energy_report(SERVER, "server")
    text = format_energy_report(rep, prefix="energy.server")
    assert "energy.server.power_w = " in text
    assert "energy.server.joule_per_event = " in text
    table = format_comparison_table(rep, energy_report(EMBEDDED, "embedded"))
    assert "9.80 uJ" in table
    assert "2.25 uJ" in table
    assert "4.36x" in table
    assert "14.37x" in table or "14.38x" in table
    assert "reference spinnaker" in table


def test_measurement_validation():
    with pytest.raises(ConfigError):
        PlatformRecord(current=-1.0)
    with pytest.raises(ConfigError):
        PlatformRecord(current=1.0, voltage=0.0)
    with pytest.raises(ConfigError, match=r"power\.x\.wall_seconds is 0"):
        energy_report(PlatformRecord(current=1.0, events=10), "x")


def test_record_checks_every_field_once():
    # a time or event count of 0 is the run's own, so the defaults are legal
    assert PlatformRecord() == PlatformRecord(220.0, 0.0, 0.005, 0.0, 0, 0.0)
    with pytest.raises(ConfigError) as exc_info:
        PlatformRecord(voltage=-5.0, current=-1.0, current_error=-0.1, wall_seconds=-2.0,
                       events=-3, baseline_w=-4.0)
    assert exc_info.value.problems == [
        "voltage must be > 0, got -5.0", "current must be >= 0, got -1.0",
        "current_error must be >= 0, got -0.1", "wall_seconds must be >= 0, got -2.0",
        "events must be >= 0, got -3", "baseline_w must be >= 0, got -4.0"]
    # the baseline's bound is V * I, checked only when V and I are valid
    with pytest.raises(ConfigError) as exc_info:
        PlatformRecord(current=1.0, baseline_w=1000.0)
    assert exc_info.value.problems == [
        "baseline_w must lie in [0, voltage * current = 220.0 W], got 1000.0"]
    with pytest.raises(ConfigError) as exc_info:
        PlatformRecord(voltage=-5.0, current=1.0, baseline_w=2.0)
    assert exc_info.value.problems == ["voltage must be > 0, got -5.0"]
    assert PlatformRecord(current=1.0, baseline_w=220.0).baseline_w == 220.0


def test_table_prints_time_energy_and_power_with_four_digits():
    paper = format_comparison_table(energy_report(SERVER, "server"),
                                    energy_report(EMBEDDED, "embedded")).splitlines()
    assert paper[2].split()[-5:] == ["2302", "J", "528", "J", "4.36x"]
    assert paper[3].split()[-5:] == ["253", "W", "17.6", "W", "14.37x"]
    assert paper[4].split()[-5:] == ["9.1", "s", "30", "s", "0.30x"]
    # a sub-second run no longer prints as 0.0 s and 0.0 J
    short = energy_report(replace(SERVER, wall_seconds=0.01787), "server")
    table = format_comparison_table(short, energy_report(EMBEDDED, "embedded")).splitlines()
    assert table[2].split()[-5:-3] == ["4.521", "J"]
    assert table[4].split()[-5:-3] == ["0.01787", "s"]

"""Command-line entry point.

Subcommands:

* ``run``        execute a benchmark run, write raster + metrics (+ energy
                 report when power inputs are configured)
* ``calibrate``  find the excitatory weight ``grid.w_exc`` hitting the
                 target rate and write a derived config
* ``report``     turn measured electrical inputs into the energy report
                 and, with two platform records, the comparison table

Exit codes: 0 success, 1 runtime failure, 2 validation failure.

Every run goes through ``distributed.run_simulation``.  ``--ranks N``
runs N ranks as threads of this process, linked by socket pairs
(transport memory) or loopback TCP (transport tcp).
``--rank R --cluster FILE`` runs only rank R, over TCP to the processes
listed in FILE (`rank host:port` lines), and writes rank-local artifacts.
"""

import argparse
import dataclasses
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from . import distributed, engine as engine_mod, network as network_mod
from .config import POWER_LABELS, RunConfig, emit_config, parse_inputs
from .energy import energy_report, format_comparison_table, format_energy_report, unmeasured
from .errors import ConfigError, SpikebenchError, read_input, require, rule_problems

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _flag(flag: str, raw, parse=lambda raw: int(raw, 0)):
    """(``parse(raw)``, []) for a flag's text, the config's integer syntax
    by default; (None, [its diagnostic]) if it does not parse; (None, [])
    for a flag not given."""
    try:
        return (None if raw is None else parse(raw)), []
    except ValueError as err:
        return None, [f"{flag}: {err}"]


def _load_config(args, own, **placed) -> RunConfig:
    """The config the arguments name, read in one pass (``parse_inputs``),
    refused with every problem of its inputs, of ``cfg.validate(**placed)``
    and of the command's ``own(cfg)``, which skips a key that reads None."""
    flags = [("--set", item) for item in args.set or []]
    seed, bad_seed = _flag("--seed", args.seed)
    if seed is not None:
        flags += [("--seed", f"grid.seed={seed}"), ("--seed", f"stimulus.seed={seed + 1}")]
    flags += [(f"--{name}", f"run.{name}={getattr(args, name)}")  # --ranks, --transport
              for name in ("ranks", "transport") if getattr(args, name, None) is not None]
    cfg, problems = parse_inputs(args.config, flags)
    require([], problems, bad_seed, cfg.validate(**placed), own(cfg))
    return cfg


def _read(reader, path):
    """(``reader(path)``, []), or (None, its problems) if it refuses the file."""
    try:
        return (reader(path) if path else None), []
    except ConfigError as err:
        return None, err.problems


def _provenance(cfg: RunConfig) -> dict:
    return {f"config.{k}": v for k, v in cfg.values.items()}


def _write_kv(path, mapping: dict) -> None:
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _read_metrics(path) -> engine_mod.RunMetrics:
    """The counters of the metrics document at ``path`` (report --metrics)."""
    doc = {}
    for line in read_input(path, "--metrics").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, raw = line.partition("=")
        doc[key.strip()] = raw.strip()
    return engine_mod.RunMetrics.from_rows(doc, "metrics")


def _machine() -> dict:
    """The machine a run measured: its CPU model (from /proc/cpuinfo where
    readable; ARM kernels name only the implementer and part), the CPUs
    this process may run on, Python, numpy and the SIMD features numpy
    runs with."""
    fields = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    arm = [f"{key} {fields[key]}" for key in ("CPU implementer", "CPU part") if key in fields]
    core = np._core if hasattr(np, "_core") else np.core
    simd = core._multiarray_umath.__cpu_features__
    return {
        "machine.cpu_model": fields.get("model name") or " ".join(arm) or "unknown",
        "machine.arch": platform.machine(),
        "machine.usable_cpus": (len(os.sched_getaffinity(0))
                                if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "machine.python": platform.python_version(),
        "machine.numpy": np.__version__,
        "machine.numpy_simd": " ".join(name for name, on in simd.items() if on),
    }


def _write_raster(cfg: RunConfig, out_dir: str, steps, gids, suffix: str = "") -> str:
    fmt = cfg["run.raster_format"]
    if fmt == "binary":
        path = os.path.join(out_dir, f"raster{suffix}.bin")
        engine_mod.save_raster_binary(path, steps, gids)
    else:
        path = os.path.join(out_dir, f"raster{suffix}.csv")
        engine_mod.save_raster_csv(path, steps, gids, provenance=_provenance(cfg))
    return path


def _resolved(cfg: RunConfig, label: str, measured) -> tuple:
    """power.<label>'s wall time and event count, a 0 taking the run's loop
    time (``metrics.wall_seconds``) or event count from ``measured``, its
    RunMetrics or None -> (wall_seconds, events, the key the time came from)."""
    wall, events = cfg[f"power.{label}.wall_seconds"], cfg[f"power.{label}.events"]
    run_wall, run_events = (measured.wall_seconds, measured.total_events) if measured else (0.0, 0)
    wall_key = f"power.{label}.wall_seconds" if wall else "metrics.wall_seconds"
    return wall or run_wall, events or run_events, wall_key


def _write_energy(cfg: RunConfig, out_dir: str, measured) -> tuple:
    """Write energy.kv for every configured power record, after the
    provenance header, each record's time and event count resolved
    against ``measured`` (``_resolved``); energy.kv names the key each
    time came from.  Returns (path, [EnergyReport per label])."""
    lines = [f"{k} = {v}" for k, v in _provenance(cfg).items()]
    reports = []
    for label in cfg.power_labels():
        wall, events, wall_key = _resolved(cfg, label, measured)
        record = dataclasses.replace(cfg.power_record(label), wall_seconds=wall, events=events)
        reports.append(energy_report(record, label))
        lines.append(format_energy_report(reports[-1], prefix=f"energy.{label}").rstrip())
        lines.append(f"energy.{label}.wall_seconds_from = {wall_key}")
    os.makedirs(out_dir, exist_ok=True)  # once every record has its report
    path = os.path.join(out_dir, "energy.kv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path, reports


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cmd_run(args) -> int:
    children_s = _cpu_seconds(resource.RUSAGE_CHILDREN)
    # the lines' own diagnostics; --rank is checked against the cluster once both read
    rank, bad_rank = _flag("--rank", args.rank)
    cluster, bad_lines = _read(distributed.parse_cluster_file, args.cluster)
    placed = {} if bad_rank or bad_lines else {"rank": rank, "cluster": cluster}
    cfg = _load_config(args, lambda cfg: bad_rank + bad_lines, **placed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    build_ns = time.perf_counter_ns()
    net = network_mod.build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"],
                                    model=cfg["model.kind"])
    build_ns = time.perf_counter_ns() - build_ns
    equivalent = network_mod.count_equivalent_synapses(net, cfg.stimulus())

    metrics, (steps, gids), per_rank, parts = distributed.run_simulation(
        net, seconds=cfg["run.simulated_seconds"], stim=cfg.stimulus(),
        n_ranks=cfg["run.ranks"], transport=cfg["run.transport"],
        lif_params=cfg.lif_params(), stdp_params=cfg.stdp_params(),
        timeout=cfg["run.timeout_seconds"], rank=rank, cluster=cluster,
    )
    metrics.setup_seconds["build"] = build_ns / 1e9
    suffix = "" if rank is None else f"_rank{rank}"

    checksum = engine_mod.raster_checksum(steps, gids)
    raster_path = _write_raster(cfg, out_dir, steps, gids, suffix)
    metrics_path = os.path.join(out_dir, f"metrics{suffix}.kv")
    doc = {**_provenance(cfg), **_machine(), **metrics.rows("metrics"),
           "metrics.equivalent_synapses": equivalent, "metrics.raster_sha256": checksum}
    for part, m in zip(parts, per_rank):  # the ranks run in this process
        doc.update(m.rows(f"metrics.rank{part.rank}"))
    # this process and the children it reaped since cmd_run began: the
    # build and transpose workers (an exec keeps the children's time of
    # the process it replaced)
    doc["metrics.cpu_seconds"] = (_cpu_seconds(resource.RUSAGE_SELF)
                                  + _cpu_seconds(resource.RUSAGE_CHILDREN) - children_s)
    _write_kv(metrics_path, doc)

    print(
        f"run complete: {metrics.total_spikes} spikes, "
        f"mean rate {metrics.mean_rate_hz:.3f} Hz, "
        f"{metrics.total_events} synaptic events "
        f"({metrics.events_per_second:.3g} events/s), "
        f"equivalent synapses {equivalent}"
    )
    print(f"raster sha256 {checksum}")
    print(f"wrote {raster_path}\nwrote {metrics_path}")
    if cfg.power_labels() and rank is None:
        # every power input was checked before the build; the run's own
        # event count can still leave joules per event undefined
        undefined = [f"power.{label}" for label in cfg.power_labels()
                     if not _resolved(cfg, label, metrics)[1]]
        if undefined:
            raise SpikebenchError(f"{', '.join(undefined)}: the run counted 0 synaptic events, "
                                  "so joules per event are undefined; energy.kv not written")
        print(f"wrote {_write_energy(cfg, out_dir, metrics)[0]}")
    return EXIT_OK


def _calibrate_flags(args) -> tuple:
    """--target-hz, --band-hz, --warmup-seconds and --probe-seconds as
    floats, each None if its text does not parse -> (values, problems)."""
    parsed = [_flag(flag, getattr(args, flag[2:].replace("-", "_")), float)
              for flag in ("--target-hz", "--band-hz", "--warmup-seconds", "--probe-seconds")]
    return [value for value, _ in parsed], [p for _, bad in parsed for p in bad]


def _calibrate_problems(values, cfg: RunConfig) -> list:
    """The rules of the calibrate flags' ``values``, one diagnostic per
    flag; a value of None did not parse and skips its rule."""
    target, band, warmup, probe = values
    dt_ms = cfg["run.dt_ms"]  # None did not parse; build_network refuses a dt it cannot step
    probe_ok = probe is None or dt_ms is None or not 0 < dt_ms < math.inf or (
        -math.inf < probe < math.inf and engine_mod.step_count(probe, dt_ms) >= 1)
    return rule_problems([
        ("--target-hz:", target, target is None or 0 < target < math.inf, "be finite and > 0"),
        ("--band-hz:", band, band is None or 0 < band < math.inf, "be finite and > 0"),
        ("--warmup-seconds:", warmup, warmup is None or 0 <= warmup < math.inf,
         "be finite and >= 0"),
        ("--probe-seconds:", probe, probe_ok,
         f"be finite and at least one step of run.dt_ms = {dt_ms} ms"),
    ])


def cmd_calibrate(args) -> int:
    values, bad_flags = _calibrate_flags(args)
    cfg = _load_config(args, lambda cfg: bad_flags + _calibrate_problems(values, cfg))
    target_hz, band_hz, warmup_seconds, probe_seconds = values
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    net = network_mod.build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"],
                                    model=cfg["model.kind"])
    stim, lif, stdp = cfg.stimulus(), cfg.lif_params(), cfg.stdp_params()
    dt_ms, w_exc = cfg["run.dt_ms"], cfg["grid.w_exc"]
    warmup_steps = engine_mod.step_count(warmup_seconds, dt_ms)
    probe_steps = engine_mod.step_count(probe_seconds, dt_ms)

    def probe(scale: float) -> float:
        # the one table at each probe's weight (the build never reads it);
        # the rate after the warmup is unbiased by the adaptation transient.
        # The run is given whole steps, so it runs exactly warmup + probe.
        scaled = dataclasses.replace(net, spec=dataclasses.replace(net.spec, w_exc=w_exc * scale))
        _, (steps, _), _, _ = distributed.run_simulation(
            scaled, seconds=(warmup_steps + probe_steps) * dt_ms / 1000.0, stim=stim,
            n_ranks=1, lif_params=lif, stdp_params=stdp,
        )
        spikes = int((steps >= warmup_steps).sum())
        return spikes / (net.n_neurons * probe_steps * dt_ms / 1000.0)

    scale, achieved = engine_mod.calibrate_rate(
        probe, target_hz=target_hz, band_hz=band_hz)
    derived = cfg.with_values(**{"grid.w_exc": w_exc * scale})
    out_path = os.path.join(out_dir, "calibrated.cfg")
    with open(out_path, "w") as fh:
        fh.write(emit_config(derived))
    print(f"calibrated grid.w_exc {derived['grid.w_exc']!r}, {scale!r} x {w_exc!r} "
          f"(probe rate {achieved:.3f} Hz)")
    print(f"wrote {out_path}")
    return EXIT_OK


def _report_problems(cfg: RunConfig, measured, doc_read: bool) -> list:
    """Refuse a report of no record; a comparison whose two records would
    both take the one run's loop time (its time ratio would be 1 by
    construction, and its energy ratio only the power ratio); and a record
    whose time or event count, resolved against ``measured`` as
    ``_write_energy`` resolves it, is still 0, unless a ``--metrics``
    document did not read (``doc_read`` false) and its counters are unknown."""
    if None in (cfg[f"power.{label}.current"] for label in POWER_LABELS):
        return []  # every rule reads every current
    labels = cfg.power_labels()
    keys = [f"power.{label}.wall_seconds" for label in labels]
    if not keys:
        return ["no power records configured; set power.<label>.current (labels: server, embedded)"]
    problems = []
    if [cfg[key] for key in keys] == [0, 0]:
        problems.append(f"{keys[0]} and {keys[1]} are both 0, so both platforms would take the "
                        "one run's loop time and the table would compare that run with itself; "
                        "set at least one of them")
    for label in labels:
        if doc_read and None not in (cfg[f"power.{label}.wall_seconds"],
                                     cfg[f"power.{label}.events"]):
            problems += unmeasured(label, *_resolved(cfg, label, measured)[:2])
    return problems


def cmd_report(args) -> int:
    measured, bad_doc = _read(_read_metrics, args.metrics)
    cfg = _load_config(args, lambda cfg: _report_problems(cfg, measured, not bad_doc) + bad_doc)
    out_dir = args.out
    energy_path, reports = _write_energy(cfg, out_dir, measured)
    print(f"wrote {energy_path}")

    if len(reports) == 2:
        table = format_comparison_table(*reports)
        table_path = os.path.join(out_dir, "comparison.txt")
        with open(table_path, "w") as fh:
            fh.write(table)
        print(table)
        print(f"wrote {table_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikebench",
        description="columnar spiking-network benchmark simulator and energy reporter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file path or bundled name (e.g. paper-desk)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", help="override grid and stimulus seeds")

    p_run = sub.add_parser("run", help="execute a benchmark run")
    common(p_run)
    p_run.add_argument("--ranks", help="number of ranks (overrides run.ranks)")
    p_run.add_argument("--rank",
                       help="run exactly this rank of a multi-process cluster run")
    p_run.add_argument("--cluster", help="cluster file with `rank host:port` lines")
    p_run.add_argument("--transport", help="transport for single-host multi-rank runs, "
                       "memory|tcp (overrides run.transport)")
    p_run.set_defaults(func=cmd_run)

    p_cal = sub.add_parser("calibrate", help="calibrate the excitatory weight grid.w_exc")
    common(p_cal)
    p_cal.add_argument("--target-hz", default="5.1")
    p_cal.add_argument("--band-hz", default="1.5")
    p_cal.add_argument("--probe-seconds", default="0.5")
    p_cal.add_argument("--warmup-seconds", default="0.5")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("report", help="energy report from measured inputs")
    common(p_rep)
    p_rep.add_argument("--metrics",
                       help="metrics.kv document supplying the event count and loop time")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpikebenchError as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

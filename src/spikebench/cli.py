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
from .energy import energy_report, format_comparison_table, format_energy_report
from .errors import ConfigError, SpikebenchError, read_input

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _load_config(args, own, **placed) -> RunConfig:
    """The config the arguments name, read in one pass (``parse_inputs``),
    refused with every problem of its inputs, of ``cfg.validate(**placed)``
    and of the command's ``own(cfg)``, which skips a key that reads None."""
    flags = [("--set", item) for item in args.set or []]
    if args.seed is not None:
        flags += [("--seed", f"grid.seed={args.seed}"),
                  ("--seed", f"stimulus.seed={args.seed + 1}")]
    flags += [(f"--{name}", f"run.{name}={getattr(args, name)}")  # --ranks, --transport
              for name in ("ranks", "transport") if getattr(args, name, None) is not None]
    cfg, problems = parse_inputs(args.config, flags)
    problems += cfg.validate(**placed) + own(cfg)
    if problems:
        raise ConfigError(problems)
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


def _write_energy(cfg: RunConfig, out_dir: str, measured) -> tuple:
    """Write energy.kv for every configured power record, after the
    provenance header.  ``measured`` is the run's RunMetrics, or None.  A
    zero ``power.<label>.events`` takes its event count; a zero
    ``power.<label>.wall_seconds`` takes its loop time,
    ``metrics.wall_seconds``, and energy.kv names the key each time came
    from.  Returns (path, [EnergyReport per label])."""
    lines = [f"{k} = {v}" for k, v in _provenance(cfg).items()]
    wall, events = (measured.wall_seconds, measured.total_events) if measured else (0.0, 0)
    reports = []
    for label in cfg.power_labels():
        record = cfg.power_record(label)
        wall_key = f"power.{label}.wall_seconds" if record.wall_seconds else "metrics.wall_seconds"
        record = dataclasses.replace(record, wall_seconds=record.wall_seconds or wall,
                                     events=record.events or events)
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
    # the lines' own diagnostics; --rank is checked against the cluster once it reads
    cluster, bad_lines = _read(distributed.parse_cluster_file, args.cluster)
    placed = {} if bad_lines else {"rank": args.rank, "cluster": cluster}
    cfg = _load_config(args, lambda cfg: bad_lines, **placed)
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
        timeout=cfg["run.timeout_seconds"], rank=args.rank, cluster=cluster,
    )
    metrics.setup_seconds["build"] = build_ns / 1e9
    suffix = "" if args.rank is None else f"_rank{args.rank}"

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

    wrote = [raster_path, metrics_path]
    if cfg.power_labels() and args.rank is None:
        wrote.append(_write_energy(cfg, out_dir, metrics)[0])

    print(
        f"run complete: {metrics.total_spikes} spikes, "
        f"mean rate {metrics.mean_rate_hz:.3f} Hz, "
        f"{metrics.total_events} synaptic events "
        f"({metrics.events_per_second:.3g} events/s), "
        f"equivalent synapses {equivalent}"
    )
    print(f"raster sha256 {checksum}")
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def _calibrate_problems(args, cfg: RunConfig) -> list:
    """The calibrate flags' problems, one diagnostic per flag."""
    dt_ms = cfg["run.dt_ms"]  # None did not parse; build_network refuses a dt at or below 0
    probe = dt_ms is None or dt_ms <= 0 or (
        args.probe_seconds < math.inf and engine_mod.step_count(args.probe_seconds, dt_ms) >= 1)
    return [f"{flag}: must be {rule}, got {value}" for flag, value, ok, rule in (
        ("--target-hz", args.target_hz, 0 < args.target_hz < math.inf, "finite and > 0"),
        ("--band-hz", args.band_hz, 0 < args.band_hz < math.inf, "finite and > 0"),
        ("--warmup-seconds", args.warmup_seconds, 0 <= args.warmup_seconds < math.inf,
         "finite and >= 0"),
        ("--probe-seconds", args.probe_seconds, probe,
         f"finite and at least one step of run.dt_ms = {dt_ms} ms"),
    ) if not ok]


def cmd_calibrate(args) -> int:
    cfg = _load_config(args, lambda cfg: _calibrate_problems(args, cfg))
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    net = network_mod.build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"],
                                    model=cfg["model.kind"])
    stim, lif, stdp = cfg.stimulus(), cfg.lif_params(), cfg.stdp_params()
    dt_ms, w_exc = cfg["run.dt_ms"], cfg["grid.w_exc"]
    warmup_steps = engine_mod.step_count(args.warmup_seconds, dt_ms)
    probe_steps = engine_mod.step_count(args.probe_seconds, dt_ms)

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
        probe, target_hz=args.target_hz, band_hz=args.band_hz)
    derived = cfg.with_values(**{"grid.w_exc": w_exc * scale})
    out_path = os.path.join(out_dir, "calibrated.cfg")
    with open(out_path, "w") as fh:
        fh.write(emit_config(derived))
    print(f"calibrated grid.w_exc {derived['grid.w_exc']!r}, {scale!r} x {w_exc!r} "
          f"(probe rate {achieved:.3f} Hz)")
    print(f"wrote {out_path}")
    return EXIT_OK


def _report_problems(cfg: RunConfig) -> list:
    """Refuse a report of no record, and a comparison whose two records
    would both take the one run's loop time: its time ratio would be 1 by
    construction, and its energy ratio only the power ratio."""
    if None in (cfg[f"power.{label}.current"] for label in POWER_LABELS):
        return []  # both rules read every current
    keys = [f"power.{label}.wall_seconds" for label in cfg.power_labels()]
    if not keys:
        return ["no power records configured; set power.<label>.current (labels: server, embedded)"]
    if [cfg[key] for key in keys] == [0, 0]:
        return [f"{keys[0]} and {keys[1]} are both 0, so both platforms would take the one "
                "run's loop time and the table would compare that run with itself; set at "
                "least one of them"]
    return []


def cmd_report(args) -> int:
    measured, bad_doc = _read(_read_metrics, args.metrics)
    cfg = _load_config(args, lambda cfg: _report_problems(cfg) + bad_doc)
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
        p.add_argument("--seed", type=int, help="override grid and stimulus seeds")

    p_run = sub.add_parser("run", help="execute a benchmark run")
    common(p_run)
    p_run.add_argument("--ranks", help="number of ranks (overrides run.ranks)")
    p_run.add_argument("--rank", type=int,
                       help="run exactly this rank of a multi-process cluster run")
    p_run.add_argument("--cluster", help="cluster file with `rank host:port` lines")
    p_run.add_argument("--transport", help="transport for single-host multi-rank runs, "
                       "memory|tcp (overrides run.transport)")
    p_run.set_defaults(func=cmd_run)

    p_cal = sub.add_parser("calibrate", help="calibrate the excitatory weight grid.w_exc")
    common(p_cal)
    p_cal.add_argument("--target-hz", type=float, default=5.1)
    p_cal.add_argument("--band-hz", type=float, default=1.5)
    p_cal.add_argument("--probe-seconds", type=float, default=0.5)
    p_cal.add_argument("--warmup-seconds", type=float, default=0.5)
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

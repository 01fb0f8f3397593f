"""spikebench benchmark: end-to-end and per-layer figures for the desk network.

Usage (from the repository root):

    python3 bench/run.py --workload desk --seed 42 --seconds 25 --trace 0

Each workload runs the bundled `paper-desk` config (10,000 adaptive-LIF
neurons, 11,953,264 synapses) for SIM_SECONDS simulated seconds, as fresh
`spikebench run` processes, one after another, until ``--seconds`` have
been spent (at least MIN_RUNS, or MIN_PAIRS untraced/traced pairs).
Every run is checked against the pinned references in references.json,
or, for a seed without pins, against a 1-rank run (desk-tcp2) or the
first run (the others) of the same invocation.  ``--trace 0`` reports
the end-to-end metrics (medians over the runs that passed); ``--trace 1``
alternates untraced runs with traced ones (bench/trace_run.py) and
reports the per-layer metrics (medians over the traced runs).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Why each workload and metric exists is in bench/NOTES.md.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SIM_SECONDS = 0.3
MIN_RUNS = 3            # runs per invocation at the least (traced pairs: MIN_PAIRS)
MIN_PAIRS = 2
HARD_LIMIT_S = 170.0    # the whole invocation ends within this
CHILD_TIMEOUT_S = 120.0

CONFIG = "paper-desk"
# workload -> (extra `spikebench run` arguments, rank count, reference key)
WORKLOADS = {
    "desk": ([], 1, "desk"),
    "desk-tcp2": (["--ranks", "2", "--transport", "tcp"], 2, "desk"),
    "desk-stdp": (["--set", "stdp.enabled=true"], 1, "desk-stdp"),
}
RANKS = (0, 1)  # per-rank metric suffixes; absent ranks report 0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "loop_s": "s",
    "events_per_s": "1/s",
    "events_per_s_e2e": "1/s",
    "cpu_ns_per_event": "ns",
    "peak_rss_mb": "MB",
}


def _per_rank(names, unit):
    return {f"{n}.r{r}": unit for n in names for r in RANKS}


PER_LAYER = {
    "network.build_s": "s",
    "network.synapses": "count",
    "network.bytes": "bytes",
    "distributed.partition_s": "s",
    **_per_rank(["distributed.table_bytes"], "bytes"),
    "distributed.transport_open_s": "s",
    **_per_rank(["distributed.exchange_s", "distributed.send_s",
                 "distributed.recv_wait_s"], "s"),
    **_per_rank(["distributed.frames", "distributed.spikes_sent"], "count"),
    **_per_rank(["distributed.bytes"], "bytes"),
    **_per_rank(["distributed.nonempty_frame_ratio"], "ratio"),
    **_per_rank(["engine.stimulus_s", "engine.gather_s", "engine.accumulate_s",
                 "engine.drain_s"], "s"),
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p99": "ms",
    "engine.internal_events": "count",
    "engine.external_events": "count",
    "engine.raster_write_s": "s",
    "engine.checksum_s": "s",
    "engine.phase_sum_ratio": "ratio",
    **_per_rank(["neurons.integrate_s"], "s"),
    **_per_rank(["plasticity.stdp_s"], "s"),
    "plasticity.init_s": "s",
    "trace.overhead_ratio": "ratio",
}

# spans whose self times make up the step loop of one rank
LOOP_PHASES = {
    "engine.step", "engine.stimulus", "engine.drain", "neurons.integrate",
    "engine.deliver", "engine.accumulate", "engine.advance", "plasticity.stdp",
    "distributed.exchange", "distributed.send", "distributed.recv_wait",
}


class RunFailed(Exception):
    """A run that crashed, timed out or produced output we cannot read."""


class Mismatch(Exception):
    """A run whose output disagrees with its reference."""


def _read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _spawn(cmd, log_path, timeout):
    """Run ``cmd`` to completion; return (exit code, wall s, rusage).

    The child is reaped with wait4 so that its own CPU time and peak RSS
    are read, not those of every child this process ever had.
    """
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    reaped = {}
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(t1=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(timeout)
            timed_out = waiter.is_alive()
        finally:
            if waiter.is_alive():
                # the child stays a zombie until reap() collects it, so
                # its pid cannot have been reused
                os.kill(proc.pid, signal.SIGKILL)
                waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    if timed_out:
        raise RunFailed(f"timed out after {timeout:.0f} s")
    return proc.returncode, reaped["t1"] - t0, reaped["usage"]


class Runner:
    """Runs one workload for one seed and checks every run."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.extra, self.n_ranks, self.ref_key = WORKLOADS[workload]
        self.run_dir = os.path.join(OUT, "run")
        self.expected = None
        self.records = []

    def cli_args(self, extra):
        return ["run", "--config", CONFIG, "--seed", str(self.seed),
                "--set", f"run.simulated_seconds={SIM_SECONDS}",
                "--out", self.run_dir, *extra]

    def execute(self, traced=False, extra=None):
        """One `spikebench run`; returns the parsed record or raises."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        args = self.cli_args(self.extra if extra is None else extra)
        spans_path = os.path.join(
            OUT, f"spans-{self.workload}-seed{self.seed}-{len(self.records)}.json")
        if traced:
            cmd = [sys.executable, os.path.join(BENCH, "trace_run.py"),
                   "--spans", spans_path, "--", *args]
        else:
            cmd = [sys.executable, "-m", "spikebench.cli", *args]
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 1.0:
            raise RunFailed("no time left before the invocation limit")
        log = os.path.join(OUT, f"run-{self.workload}-seed{self.seed}-{len(self.records)}.log")
        code, wall, usage = _spawn(cmd, log, timeout)
        if code != 0:
            raise RunFailed(f"exit code {code} (output kept in {log})")
        os.remove(log)
        try:
            kv = _read_kv(os.path.join(self.run_dir, "metrics.kv"))
            rec = {
                "wall_s": wall,
                "loop_s": float(kv["metrics.wall_seconds"]),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "total_events": int(kv["metrics.total_events"]),
                "internal_events": int(kv["metrics.internal_synaptic_events"]),
                "external_events": int(kv["metrics.external_synaptic_events"]),
                "raster_sha256": kv["metrics.raster_sha256"],
            }
            if traced:
                with open(spans_path) as fh:
                    rec["layers"] = layer_metrics(json.load(fh), rec, self.n_ranks)
        except (OSError, KeyError, ValueError) as err:
            raise RunFailed(f"unreadable output: {err!r}") from None
        return rec

    def reference(self, refs):
        """Pinned output for the default seed; otherwise desk-tcp2 is held
        to a 1-rank desk run of the same seed, and the other workloads to
        the first run of this invocation."""
        if self.seed == refs["seed"] and refs["simulated_seconds"] == SIM_SECONDS:
            pin = refs[self.ref_key]
            self.expected = (pin["raster_sha256"], pin["total_events"])
        elif self.workload == "desk-tcp2":
            rec = self.execute(extra=WORKLOADS["desk"][0])
            self.expected = (rec["raster_sha256"], rec["total_events"])

    def check(self, rec):
        got = (rec["raster_sha256"], rec["total_events"])
        if self.expected is None:
            self.expected = got
        if got != self.expected:
            raise Mismatch(f"output {got} != reference {self.expected}")
        if "layers" in rec:
            counted = (rec["layers"].pop("_internal_counted"),
                       rec["layers"].pop("_external_counted"))
            if counted != (rec["internal_events"], rec["external_events"]):
                raise Mismatch(f"events counted at layer boundaries {counted} != "
                               f"metrics.kv {rec['internal_events'], rec['external_events']}")

    def attempt(self, traced=False):
        """Run once and record the outcome; a failure never stops the loop."""
        entry = {"traced": traced}
        try:
            rec = self.execute(traced)
            self.check(rec)
            entry.update(rec, ok=True)
        except RunFailed as err:
            entry.update(ok=False, mismatch=False, reason=str(err))
        except Mismatch as err:
            entry.update(ok=False, mismatch=True, reason=str(err))
        if not entry["ok"]:
            print(f"run {len(self.records)} failed: {entry['reason']}", file=sys.stderr)
        self.records.append(entry)


def layer_metrics(doc, rec, n_ranks):
    """Per-layer figures of one traced run, from its spans.

    A span's self time is its duration minus its children's durations.
    """
    spans, facts = doc["spans"], doc["facts"]
    header = facts["frame_header_bytes"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    incl = defaultdict(float)      # (name, rank) -> seconds
    self_s = defaultdict(float)    # (name, rank) -> seconds, children excluded
    calls = defaultdict(int)       # (name, rank)
    counts = defaultdict(int)      # (name, rank) -> bytes or events
    nonempty = defaultdict(int)    # rank -> frames carrying spikes
    step_start = {}                # thread -> start of its open step
    step_ms, opens = [], []
    for i, (name, start, end, parent, rank, thread, count) in enumerate(spans):
        incl[name, rank] += (end - start) / 1e9
        self_s[name, rank] += (end - start - child_ns[i]) / 1e9
        calls[name, rank] += 1
        counts[name, rank] += count
        if name == "distributed.send" and count > header:
            nonempty[rank] += 1
        elif name == "distributed.transport_open":
            opens.append((start, end))
        elif name == "engine.step":
            step_start[thread] = start
        elif name == "engine.advance" and thread in step_start:
            step_ms.append((end - step_start.pop(thread)) / 1e6)

    def total(table, name):
        return sum(v for (n, _), v in table.items() if n == name)

    phase_s = [sum(v for (n, r), v in self_s.items() if n in LOOP_PHASES and r == k)
               for k in range(n_ranks)]
    out = {
        "network.build_s": total(incl, "network.build"),
        "network.synapses": facts["network.synapses"],
        "network.bytes": facts["network.bytes"],
        "distributed.partition_s": total(incl, "distributed.partition"),
        "distributed.transport_open_s":
            (max(e for _, e in opens) - min(s for s, _ in opens)) / 1e9 if opens else 0.0,
        "engine.internal_events": rec["internal_events"],
        "engine.external_events": rec["external_events"],
        "engine.raster_write_s": total(incl, "engine.raster_write"),
        "engine.checksum_s": total(incl, "engine.checksum"),
        "engine.phase_sum_ratio": statistics.fmean(phase_s) / rec["loop_s"],
        "plasticity.init_s": total(incl, "plasticity.init"),
        "_step_ms": step_ms,
        "_internal_counted": total(counts, "engine.accumulate"),
        "_external_counted": total(counts, "engine.stimulus"),
    }
    for r in RANKS:
        frames, sent = calls["distributed.send", r], counts["distributed.send", r]
        out.update({
            f"distributed.table_bytes.r{r}": facts.get(f"distributed.table_bytes.r{r}", 0),
            f"distributed.exchange_s.r{r}": incl["distributed.exchange", r],
            f"distributed.send_s.r{r}": incl["distributed.send", r],
            f"distributed.recv_wait_s.r{r}": incl["distributed.recv_wait", r],
            f"distributed.frames.r{r}": frames,
            f"distributed.bytes.r{r}": sent,
            f"distributed.spikes_sent.r{r}": (sent - header * frames) // 4,
            f"distributed.nonempty_frame_ratio.r{r}": nonempty[r] / frames if frames else 0.0,
            f"engine.stimulus_s.r{r}": self_s["engine.stimulus", r],
            f"engine.gather_s.r{r}": self_s["engine.deliver", r],
            f"engine.accumulate_s.r{r}": self_s["engine.accumulate", r],
            f"engine.drain_s.r{r}": self_s["engine.drain", r],
            f"neurons.integrate_s.r{r}": self_s["neurons.integrate", r],
            f"plasticity.stdp_s.r{r}": self_s["plasticity.stdp", r],
        })
    return out


def end_to_end(recs):
    """Medians over the passing untraced runs."""
    def med(f):
        return statistics.median(f(r) for r in recs)
    return {
        "wall_s": med(lambda r: r["wall_s"]),
        "setup_s": med(lambda r: r["wall_s"] - r["loop_s"]),
        "loop_s": med(lambda r: r["loop_s"]),
        "events_per_s": med(lambda r: r["total_events"] / r["loop_s"]),
        "events_per_s_e2e": med(lambda r: r["total_events"] / r["wall_s"]),
        "cpu_ns_per_event": med(lambda r: r["cpu_s"] * 1e9 / r["total_events"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def per_layer(traced, plain):
    """Medians over the passing traced runs; step percentiles pool all steps."""
    layers = [r["layers"] for r in traced]
    out = {k: statistics.median(l[k] for l in layers) for k in PER_LAYER
           if k in layers[0]}
    cuts = statistics.quantiles([ms for l in layers for ms in l["_step_ms"]], n=100)
    out["engine.step_ms_p50"], out["engine.step_ms_p99"] = cuts[49], cuts[98]
    out["trace.overhead_ratio"] = (statistics.median(r["loop_s"] for r in traced)
                                   / statistics.median(r["loop_s"] for r in plain))
    return out


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="build and stimulus seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "spikebench", "cli.py")):
        print(f"error: no program to measure: {SRC}/spikebench is missing", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)
    seed = refs["seed"] if args.seed is None else args.seed
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)

    runner = Runner(args.workload, seed, start + HARD_LIMIT_S)
    try:
        runner.reference(refs)
    except RunFailed as err:
        print(f"error: reference run failed: {err}", file=sys.stderr)
        return 1
    # start another run (or untraced/traced pair) only while it should end in time
    kinds, least = ([False, True], MIN_PAIRS) if args.trace else ([False], MIN_RUNS)
    durations = []
    while True:
        elapsed = time.monotonic() - start
        need = statistics.median(durations) if durations else 0.0
        if len(durations) >= least and elapsed + need > args.seconds:
            break
        if elapsed + need > HARD_LIMIT_S:
            break
        t0 = time.monotonic()
        for traced in kinds:
            runner.attempt(traced)
        durations.append(time.monotonic() - t0)

    records = runner.records
    passed = [r for r in records if r["ok"]]
    plain = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    failed = len(records) - len(passed)
    if not plain or (args.trace and not traced):
        print("error: no run passed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(traced, plain), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END

    print(f"workload {args.workload}  seed {seed}  {SIM_SECONDS} simulated s  "
          f"{len(plain)} untraced + {len(traced)} traced runs passed")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    print(f"  {'fail_ratio':<40} {failed / len(records):>16.6g} "
          f"({failed} failed / {len(records)} attempted)")
    print("env " + json.dumps(env))
    result = {
        "correct": not any(r.get("mismatch") for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": seed,
                   "simulated_seconds": SIM_SECONDS, "result": result,
                   "runs": [{k: v for k, v in r.items() if k != "layers"} for r in records]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

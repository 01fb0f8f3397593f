"""Run `spikebench run` in this process with every layer boundary traced.

Usage:  python3 bench/trace_run.py --spans FILE -- <spikebench CLI args>

The program is not modified.  Before the CLI starts, each layer's entry
point is wrapped at the module or class attribute that its caller looks
up at call time, so the program's own code calls the wrapper.  Every call
records one span (name, start, end, parent, rank, thread, count) in a
per-thread list in memory; the spans and a few computed sizes ("facts")
are written to FILE as JSON once the run has ended.
"""

import argparse
import functools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spikebench import cli, distributed, engine, network, plasticity, rng  # noqa: E402

PROCESS = -1  # rank of spans outside any rank (build, partition, raster I/O)


class Tracer:
    """In-memory span recorder.

    Each thread appends to its own list, so rank threads never contend;
    a span's parent is the innermost span open on the same thread.
    """

    def __init__(self):
        self.facts = {}
        self._threads = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.rank = [], [], PROCESS
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
        return local

    def wrap(self, name, fn, rank_of=None, count_of=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``rank_of(args)`` names the rank the call works for; calls without
        it inherit the rank last set on their thread.  ``count_of(args,
        result)`` gives the units of work the call did (bytes, events).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread_state()
            if rank_of is not None:
                local.rank = rank_of(args)
            spans, stack = local.spans, local.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = [name, start, end, parent, local.rank, 0]
            if count_of is not None:
                spans[idx][5] = count_of(args, result)
            return result

        return traced

    def dump(self, path):
        """Write all spans with parents renumbered to global indices."""
        rows = []
        for thread, spans in self._threads:
            base = len(rows)
            for name, start, end, parent, rank, count in spans:
                rows.append([name, start, end, base + parent if parent >= 0 else -1,
                             rank, thread, count])
        with open(path, "w") as fh:
            json.dump({"facts": self.facts, "spans": rows}, fh)


def _nbytes(obj, names):
    return sum(int(getattr(obj, n).nbytes) for n in names if getattr(obj, n) is not None)


def install(tracer):
    """Wrap every traced boundary of the program in place."""
    part_rank = lambda a: a[0].part.rank  # noqa: E731  (methods of Engine, Communicator)

    def network_facts(args, net):
        tracer.facts["network.synapses"] = net.total_synapses
        tracer.facts["network.bytes"] = _nbytes(
            net, ("offsets", "targets", "weights", "delay_steps"))
        return net.total_synapses

    def partition_facts(args, result):
        for part in result[1]:
            table = _nbytes(part, ("local_gids", "local_excitatory", "source_excitatory",
                                   "in_offsets", "in_targets", "in_weights", "in_delays",
                                   "gid_to_local"))
            table += sum(int(a.nbytes) for a in part.peer_sources.values())
            tracer.facts[f"distributed.table_bytes.r{part.rank}"] = table
        return len(result[1])

    w = tracer.wrap
    network.build_network = w("network.build", network.build_network, count_of=network_facts)
    distributed.partition = w("distributed.partition", distributed.partition,
                              count_of=partition_facts)

    tracer.facts["frame_header_bytes"] = distributed.HEADER_SIZE
    tcp = distributed.TcpTransport
    tcp.__init__ = w("distributed.transport_open", tcp.__init__, rank_of=lambda a: a[1])
    tcp.send = w("distributed.send", tcp.send, rank_of=lambda a: a[0].rank,
                 count_of=lambda a, r: len(a[2]))
    tcp.recv = w("distributed.recv_wait", tcp.recv, rank_of=lambda a: a[0].rank)
    comm = distributed.Communicator
    comm.exchange = w("distributed.exchange", comm.exchange, rank_of=part_rank)

    eng = engine.Engine
    eng.step = w("engine.step", eng.step, rank_of=part_rank)
    eng.deliver = w("engine.deliver", eng.deliver, rank_of=part_rank)
    eng.advance = w("engine.advance", eng.advance)
    ring = engine.DelayRing
    ring.drain = w("engine.drain", ring.drain)
    ring.accumulate = w("engine.accumulate", ring.accumulate,
                        count_of=lambda a, r: len(a[1]))
    rng.poisson_keyed_batch = w("engine.stimulus", rng.poisson_keyed_batch,
                                count_of=lambda a, r: int(r.sum()))
    engine.step_adaptive_lif_batch = w("neurons.integrate", engine.step_adaptive_lif_batch)
    engine.save_raster_csv = w("engine.raster_write", engine.save_raster_csv)
    engine.save_raster_binary = w("engine.raster_write", engine.save_raster_binary)
    engine.raster_checksum = w("engine.checksum", engine.raster_checksum)

    stdp = plasticity.StdpState
    stdp.__init__ = w("plasticity.init", stdp.__init__)
    stdp.process_step = w("plasticity.stdp", stdp.process_step)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file for the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments of `spikebench`, after `--`")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

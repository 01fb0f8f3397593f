"""The layer boundaries that bench/trace_run.py wraps stay where it looks.

trace_run.py replaces module and class attributes of the program before
the CLI starts; if one of them moves or stops being called, traced
benchmark runs lose that layer's figures.  One short traced run that
touches every layer pins them all.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPAN_NAMES = {
    "network.build", "distributed.partition", "distributed.transport_open",
    "distributed.send", "distributed.recv_wait", "distributed.exchange",
    "engine.step", "engine.deliver", "engine.advance", "engine.drain",
    "engine.accumulate", "engine.stimulus", "neurons.integrate",
    "engine.raster_write", "engine.checksum", "plasticity.init", "plasticity.stdp",
}


def test_traced_two_rank_tcp_stdp_run_records_every_layer(tmp_path):
    spans_path = tmp_path / "spans.json"
    cmd = [
        sys.executable, os.path.join(ROOT, "bench", "trace_run.py"),
        "--spans", str(spans_path), "--",
        "run", "--config", "small-1k", "--ranks", "2", "--transport", "tcp",
        "--set", "stdp.enabled=true", "--set", "run.simulated_seconds=0.1",
        "--out", str(tmp_path / "out"),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    doc = json.loads(spans_path.read_text())
    names = {row[0] for row in doc["spans"]}
    assert SPAN_NAMES <= names, sorted(SPAN_NAMES - names)
    # per-rank spans carry the rank they ran for
    assert {row[4] for row in doc["spans"] if row[0] == "engine.step"} == {0, 1}
    assert {"distributed.table_bytes.r0", "distributed.table_bytes.r1"} <= set(doc["facts"])

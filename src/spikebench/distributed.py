"""Partitioning, spike exchange, and running a simulation.

Columns are assigned to ranks round-robin in row-major order.  Spikes
travel as bare source ids; each rank holds, for every source that
projects onto it, that source's synapses with rank-local targets
(replicated incoming tables built at partition time), and expands
received ids through them.  One frame (possibly empty) flows along every
edge of the static communication graph every step; the empty frames
double as the step barrier.

Wire format (all little-endian):

    magic   4 bytes  "DPSN"
    version 1 byte   = 1
    sender  u16      rank of the sending side
    step    u32
    count   u32
    payload count * u32 source ids

One transport, `TcpTransport`, carries the frames of every run over one
connected duplex stream socket per coupled rank pair, so delivery is
per-pair FIFO and reliable.  The ``transport`` of a run only says how
those links are made: ``memory`` joins each pair of ranks of this
process by an AF_UNIX socket pair, ``tcp`` by TCP over loopback.

Every run goes through `run_simulation`.  It runs every rank of a run
as a thread of this process, or, given ``rank`` and ``cluster``, just
that rank, talking TCP to the processes that run the others; either way
`partition` builds the tables of the ranks run here, no others.  It opens
every link before any rank starts: by `loopback_links` for thread
ranks, by a rendezvous from a `rank host:port` cluster file for a
cluster rank.  Each rank closes its own transport; closing is the stop
signal, so the peers of a failed rank fail at their next receive.
"""

import contextlib
import math
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from .engine import (MAX_STEPS, Engine, StimulusSpec, _source_blocks, _unpack, merge_ranks,
                     step_count)
from .errors import (ConfigError, ExchangeError, FrameCorruptionError, ProtocolViolationError,
                     read_input, require)
from .neurons import AdaptiveLifParams
from .network import Network
from .plasticity import StdpParams, StdpState

__all__ = [
    "RankPartition",
    "partition",
    "encode_frame",
    "decode_frame",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "TcpTransport",
    "loopback_links",
    "rendezvous",
    "Communicator",
    "parse_cluster_file",
    "check_run_args",
    "run_simulation",
]

TRANSPORTS = ("memory", "tcp")

FRAME_MAGIC = b"DPSN"
FRAME_VERSION = 1
_HEADER = struct.Struct("<4sBHII")
HEADER_SIZE = _HEADER.size  # 15 bytes
_READ_CHUNK = 1 << 16  # most bytes one socket read asks for


@dataclass
class RankPartition:
    """One rank's view of the network.

    ``in_offsets[s]:in_offsets[s+1]`` indexes, for ANY global source s,
    the synapses of s that target neurons owned by this rank.  Each is one
    int32 word ``delay * n_local + target``: ``target`` is a rank-local
    index into ``local_gids``, ``delay`` is in steps, and the word is the
    synapse's cell in a delay ring read from its cursor.  Its weight is
    ``source_weights[s]``, unless STDP gives it its own in ``in_weights``.
    ``peer_sources[r]`` lists, per outgoing peer, which local sources must
    be announced to rank r; ``owner`` gives any neuron's rank.  At one
    rank ``in_offsets`` and ``in_words`` are the network's own arrays; at
    more, ``partition`` fills
    ``in_words`` in place, allocated once at its final length.  The other
    per-synapse views below are derived on demand.
    """

    rank: int
    n_ranks: int
    neurons_per_column: int
    model: str
    n_slots: int
    local_gids: np.ndarray            # int64, ascending
    local_excitatory: np.ndarray      # bool per local neuron
    source_excitatory: np.ndarray     # bool per global neuron
    in_offsets: np.ndarray            # int64, n_global + 1
    in_words: np.ndarray              # int32, delay * n_local + local target
    source_weights: np.ndarray        # float64 per global neuron
    in_weights: Optional[np.ndarray] = None  # float64 per plastic synapse, STDP only
    out_peers: List[int] = field(default_factory=list)
    in_peers: List[int] = field(default_factory=list)
    peer_sources: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_local(self) -> int:
        return len(self.local_gids)

    def stored_bytes(self) -> int:
        """Bytes of the arrays this rank stores: its fields, never a
        derived view."""
        arrays = [getattr(self, f.name) for f in fields(self)]
        arrays += self.peer_sources.values()
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def owner(self, gids: np.ndarray) -> np.ndarray:
        """Rank of each neuron id, by the one rule ``partition`` uses."""
        return _owner(gids, self.neurons_per_column, self.n_ranks)

    @property
    def in_targets(self) -> np.ndarray:
        """Rank-local target of each synapse (int32), derived; no run reads it."""
        return self.in_words % self.n_local

    @property
    def in_delays(self) -> np.ndarray:
        """Delay of each synapse in steps (int16), derived; no run reads it."""
        return (self.in_words // self.n_local).astype(np.int16)

    @property
    def gid_to_local(self) -> np.ndarray:
        """Rank-local index of each global neuron (int32, -1 off-rank),
        derived; no run reads it."""
        out = np.full(len(self.in_offsets) - 1, -1, dtype=np.int32)
        out[self.local_gids] = np.arange(self.n_local, dtype=np.int32)
        return out


def _owner(gids: np.ndarray, neurons_per_column: int, n_ranks: int) -> np.ndarray:
    # columns go to ranks round-robin in row-major order
    return (gids // neurons_per_column) % n_ranks


def partition(net: Network, n_ranks: int,
              rank: Optional[int] = None) -> Tuple[np.ndarray, List[RankPartition]]:
    """Split the network over ``n_ranks`` ranks -> (column_to_rank, parts).

    ``parts`` holds every rank's part, or only ``rank``'s if given.  The
    union of the per-rank incoming tables is exactly the full synapse
    multiset, and every per-rank structure depends only on (network,
    n_ranks), never on construction order or on which ranks are built.

    At one rank the network's own ``offsets`` and ``words`` are the
    table, shared without a copy.  Otherwise each built rank's
    ``in_words`` is allocated once at its final length (the build's
    synapse counts of the rank's columns), then filled in one pass over
    blocks of whole sources, in source order; no temporary is sized to the
    network's synapse count.  The pass also records which ranks each
    source has synapses on, for the built ranks' peer lists.
    """
    check_run_args(n_columns=net.spec.n_columns, n_ranks=n_ranks)
    n, npc = net.n_neurons, net.spec.neurons_per_column
    gids = np.arange(n, dtype=np.int64)
    neuron_rank = _owner(gids, npc, n_ranks).astype(np.int32)
    column_to_rank = neuron_rank[::npc].copy()
    exc = np.asarray(net.is_excitatory(gids))
    source_weights = net.source_weights()
    built = range(n_ranks) if rank is None else [rank]
    local_gids = [np.flatnonzero(neuron_rank == r) for r in range(n_ranks)]
    offsets, net_words = net.offsets, net.words
    if n_ranks == 1:  # the network's words are delay * n + target already
        in_offsets, in_words = {0: offsets}, {0: net_words}
    else:
        # each gid is local to exactly one rank, so one table serves them all
        gid_to_local = np.empty(n, dtype=np.int32)
        for lg in local_gids:
            gid_to_local[lg] = np.arange(len(lg), dtype=np.int32)
        in_words = {r: np.empty(int(net.column_synapses[column_to_rank == r].sum()),
                                dtype=np.int32) for r in built}
        in_offsets = {r: np.zeros(n + 1, dtype=np.int64) for r in built}
        # reach[r, s]: source s has synapses on rank r
        reach = np.zeros((n_ranks, n), dtype=bool)
        filled = dict.fromkeys(built, 0)
        for s0, s1 in _source_blocks(offsets):
            a, b = int(offsets[s0]), int(offsets[s1])
            bounds = offsets[s0:s1 + 1] - a   # block-relative start, then each source's end
            delays, targets = _unpack(net_words[a:b], n)
            local = gid_to_local.take(targets)
            block_rank = neuron_rank.take(targets)
            for r in range(n_ranks):
                # synapses are source-ordered, so the rank-r synapses of
                # each source are the entries of sel up to its block end
                sel = np.flatnonzero(block_rank == r)
                cut = np.searchsorted(sel, bounds)
                np.greater(cut[1:], cut[:-1], out=reach[r, s0:s1])
                if r not in filled:
                    continue
                n_local, pos = len(local_gids[r]), filled[r]
                words = local.take(sel)
                words += np.multiply(delays.take(sel), n_local, dtype=np.int32)
                in_words[r][pos:pos + len(words)] = words
                in_offsets[r][s0 + 1:s1 + 1] = pos + cut[1:]
                filled[r] = pos + len(words)
        # local spikes never travel
        reach[neuron_rank, gids] = False

    parts = [
        RankPartition(
            rank=r,
            n_ranks=n_ranks,
            neurons_per_column=npc,
            model=net.model,
            n_slots=net.n_slots,
            local_gids=local_gids[r],
            local_excitatory=exc[local_gids[r]],
            source_excitatory=exc,
            in_offsets=in_offsets[r],
            in_words=in_words[r],
            source_weights=source_weights,
        )
        for r in built
    ]

    # communication graph: a rank sends each peer its sources that reach
    # the peer, and hears from the owners of the sources that reach it
    if n_ranks > 1:
        for part in parts:
            sends = reach[:, part.local_gids]
            part.out_peers = np.flatnonzero(sends.any(axis=1)).tolist()
            part.peer_sources = {p: part.local_gids[sends[p]] for p in part.out_peers}
            part.in_peers = np.unique(neuron_rank[reach[part.rank]]).tolist()
    return column_to_rank, parts


def encode_frame(sender_rank: int, step: int, spikes) -> bytes:
    """Serialize one spike frame."""
    spikes = np.asarray(spikes, dtype="<u4")
    if spikes.size >= 2**32:
        raise ConfigError(["frame spike count exceeds u32"])
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, sender_rank, step, spikes.size)
    return header + spikes.tobytes()


def _decode_header(buf: bytes) -> Tuple[int, int, int]:
    """Parse and validate a frame's header -> (sender, step, count)."""
    if len(buf) < HEADER_SIZE:
        raise FrameCorruptionError(f"frame shorter than the {HEADER_SIZE}-byte header")
    magic, version, sender, step, count = _HEADER.unpack_from(buf)
    if magic != FRAME_MAGIC:
        raise FrameCorruptionError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameCorruptionError(f"unsupported frame version {version}")
    return sender, step, count


def decode_frame(buf: bytes) -> Tuple[int, int, np.ndarray]:
    """Parse and validate one spike frame -> (sender, step, read-only u32 ids)."""
    sender, step, count = _decode_header(buf)
    expected = HEADER_SIZE + 4 * count
    if len(buf) != expected:
        raise FrameCorruptionError(
            f"frame length {len(buf)} does not match declared count {count} "
            f"(expected {expected})"
        )
    return sender, step, np.frombuffer(buf, dtype="<u4", offset=HEADER_SIZE)


def parse_cluster_file(path) -> Dict[int, Tuple[str, int]]:
    """Read `rank host:port` lines into {rank: (host, port)}.

    Every bad line gets its own diagnostic: a malformed line, an empty
    host (which would listen on every interface), a port outside 1-65535,
    a rank named twice.
    """
    cluster = {}
    problems = []
    for lineno, line in enumerate(read_input(path, "cluster file").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        try:
            rank_s, addr = line.split()
            host, port_s = addr.rsplit(":", 1)
            rank, port = int(rank_s), int(port_s)
        except ValueError:
            problems.append(f"{where}: expected 'rank host:port', got {line!r}")
            continue
        if not host:
            problems.append(f"{where}: no host before ':{port_s}'")
        if not 1 <= port <= 65535:
            problems.append(f"{where}: port {port} outside [1, 65535]")
        if rank in cluster:
            problems.append(f"{where}: rank {rank} given twice")
        cluster[rank] = (host, port)
    if problems:
        raise ConfigError(problems)
    return cluster


class TcpTransport:
    """Frames over one connected duplex stream socket per coupled peer.

    ``socks`` is {peer rank: socket}, made by ``loopback_links`` (AF_UNIX
    socket pairs or TCP) or ``rendezvous`` (TCP); the transport owns them,
    and ``close`` closes them.  Frames are length-delimited by the
    header's count field.
    """

    def __init__(self, rank: int, socks: Dict[int, socket.socket]):
        self.rank = rank
        self._socks = socks
        for sock in socks.values():  # no Nagle delay on the small per-step frames
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @staticmethod
    def _read_exact(sock: socket.socket, count: int, context: str = "frame") -> bytes:
        # bounded reads, so a count off the wire allocates no more than arrives
        chunks, got = [], 0
        while got < count:
            try:
                chunk = sock.recv(min(count - got, _READ_CHUNK))
            except OSError as err:  # a timeout too
                raise ExchangeError(f"{err} while reading {context}") from None
            if not chunk:
                raise ExchangeError(f"peer disconnected while reading {context}")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def send(self, to_rank: int, frame: bytes) -> None:
        try:
            self._socks[to_rank].sendall(frame)
        except OSError as err:
            raise ExchangeError(
                f"rank {self.rank} lost rank {to_rank}: {err}", rank=to_rank
            ) from None

    def recv(self, from_rank: int, timeout: float) -> bytes:
        sock = self._socks[from_rank]
        if sock.gettimeout() != timeout:  # settimeout costs two fcntl calls
            sock.settimeout(timeout)
        try:
            header = self._read_exact(sock, HEADER_SIZE)
            count = _decode_header(header)[2]  # checked before it sizes a read
            return header + self._read_exact(sock, 4 * count)
        except ExchangeError as err:
            raise ExchangeError(
                f"rank {self.rank} lost rank {from_rank}: {err}", rank=from_rank
            ) from None

    def close(self) -> None:
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass


def loopback_links(parts: List[RankPartition], timeout: float, transport: str
                   ) -> Dict[int, Dict[int, socket.socket]]:
    """Link all ranks of a run, in this process -> {rank: {peer: socket}}.

    ``transport`` "memory" joins each coupled pair by an AF_UNIX socket
    pair; "tcp" by one loopback listener that serves every pair in turn,
    connect then accept, so the owner of each socket is known without a
    hello.  If a link fails, every socket made so far is closed.
    """
    check_run_args(transport=transport)
    links = {part.rank: {} for part in parts}
    server = (socket.create_server(("127.0.0.1", 0)) if transport == "tcp"
              else contextlib.nullcontext())
    with server as listener, contextlib.ExitStack() as made:
        if listener is not None:
            listener.settimeout(timeout)
        for part in parts:
            for peer in part.out_peers:  # each in-peer is another part's out-peer
                if peer in links[part.rank]:
                    continue
                if listener is None:
                    ends = [made.enter_context(end) for end in socket.socketpair()]
                else:
                    ends = [made.enter_context(socket.create_connection(
                        listener.getsockname(), timeout=timeout))]
                    ends.append(made.enter_context(listener.accept()[0]))
                for end in ends:
                    end.settimeout(timeout)
                links[part.rank][peer], links[peer][part.rank] = ends
        made.pop_all()
    return links


def _connect(rank: int, peer: int, addr, deadline: float, timeout: float) -> socket.socket:
    """Connect to rank ``peer`` at ``addr``, retrying until it listens or
    ``deadline`` passes."""
    while True:
        try:
            return socket.create_connection(addr, timeout=timeout)
        except OSError as err:
            if time.monotonic() >= deadline:
                raise ExchangeError(
                    f"rank {rank} could not reach rank {peer} at {addr}: {err}", rank=peer
                ) from None
            time.sleep(0.05)


def rendezvous(rank: int, cluster: Dict[int, Tuple[str, int]], peers: List[int],
               timeout: float) -> Dict[int, socket.socket]:
    """Link one rank of a multi-process run to its ``peers`` -> {peer: socket}.

    For each coupled pair a < b, b connects to ``cluster[a]`` and announces
    itself with a u16 rank hello; a accepts.  The whole rendezvous waits at
    most ``timeout``.  If it fails, every socket it made is closed.
    """
    deadline = time.monotonic() + timeout
    waiting = {p for p in peers if p > rank}
    socks = {}
    # listening before connecting lets a higher rank's connect queue
    listener = contextlib.nullcontext()
    if waiting:
        try:
            listener = socket.create_server(cluster[rank], backlog=len(waiting))
        except OSError as err:
            raise ExchangeError(
                f"rank {rank} could not listen at {cluster[rank]}: {err}", rank=rank
            ) from None
    with listener, contextlib.ExitStack() as made:
        for peer in sorted({p for p in peers if p < rank}):
            socks[peer] = made.enter_context(
                _connect(rank, peer, cluster[peer], deadline, timeout))
            socks[peer].sendall(struct.pack("<H", rank))
        while waiting:
            # at least a millisecond: a zero timeout would make accept non-blocking
            listener.settimeout(max(deadline - time.monotonic(), 1e-3))
            try:
                conn = made.enter_context(listener.accept()[0])
            except socket.timeout:
                raise ExchangeError(
                    f"rank {rank} timed out accepting peers {sorted(waiting)}",
                    rank=min(waiting)) from None
            conn.settimeout(timeout)
            peer = struct.unpack("<H", TcpTransport._read_exact(conn, 2, context="rank hello"))[0]
            if peer not in waiting:
                raise ProtocolViolationError(
                    f"unexpected hello from rank {peer} at rank {rank}")
            waiting.discard(peer)
            socks[peer] = conn
        made.pop_all()
    return socks


class Communicator:
    """Per-step spike exchange for one rank over a transport."""

    def __init__(self, part: RankPartition, transport, timeout: float = 30.0):
        self.part = part
        self.transport = transport
        self.timeout = timeout
        self._last_step_from = {p: -1 for p in part.in_peers}
        self._peers = sorted(set(part.out_peers) | set(part.in_peers))
        # per out-peer, whether each local neuron projects onto it
        self._sends_to = {peer: np.isin(part.local_gids, part.peer_sources[peer])
                          for peer in part.out_peers}

    def exchange(self, step: int, spiked_gids: np.ndarray) -> np.ndarray:
        """Send this step's local spikes, block for every incoming peer's
        frame for the same step, and return the union of remote spikes."""
        part = self.part
        # Peers go in ascending rank order, and with each peer the lower rank
        # sends first and the higher rank receives first.  Every rank thus
        # meets its pairs in one global order, so a send that fills the
        # link's buffers always has its receiver at the other end: no two
        # ranks can block on each other, whatever the frame size.
        remote = []
        local = np.searchsorted(part.local_gids, spiked_gids)  # rank-local indices
        for peer in self._peers:
            if part.rank < peer:
                self._send(peer, step, spiked_gids, local)
            if peer in self._last_step_from:
                spikes = self._recv(peer, step)
                if len(spikes):
                    remote.append(spikes)
            if part.rank > peer:
                self._send(peer, step, spiked_gids, local)
        if not remote:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(remote)

    def _send(self, peer: int, step: int, spiked_gids: np.ndarray, local: np.ndarray) -> None:
        """Send ``peer`` the spikes of the sources that project onto it
        (``local``: the rank-local index of each spiked gid)."""
        sends = self._sends_to.get(peer)
        if sends is None:  # an in-peer only: nothing of ours reaches it
            return
        outgoing = spiked_gids[sends[local]] if len(spiked_gids) else spiked_gids
        self.transport.send(peer, encode_frame(self.part.rank, step, outgoing))

    def _recv(self, peer: int, step: int) -> np.ndarray:
        """Receive and check ``peer``'s frame for ``step`` -> its source ids."""
        part = self.part
        try:
            frame = self.transport.recv(peer, self.timeout)
        except ExchangeError as err:
            raise ExchangeError(
                f"rank {part.rank} missing frame from rank {peer} at step {step}: {err}",
                rank=peer, step=step,
            ) from None
        sender, got_step, spikes = decode_frame(frame)
        if sender != peer:
            raise ProtocolViolationError(
                f"frame on pair ({peer}->{part.rank}) claims sender {sender}")
        if got_step != step:
            raise ProtocolViolationError(
                f"rank {part.rank} expected step {step} from rank {peer}, got {got_step}")
        if got_step <= self._last_step_from[peer]:
            raise ProtocolViolationError(f"non-increasing step {got_step} from rank {peer}")
        self._last_step_from[peer] = got_step
        if len(spikes):
            spikes = spikes.astype(np.int64)  # the one copy out of the frame
            self._validate_remote(peer, spikes)
        return spikes

    def _validate_remote(self, peer: int, spikes: np.ndarray) -> None:
        """Check received source ids (int64): each must be a neuron that
        ``peer`` owns and that has synapses on this rank."""
        part, offsets = self.part, self.part.in_offsets
        unknown = spikes >= len(offsets) - 1
        if unknown.any():
            raise ProtocolViolationError(
                f"unknown source id {spikes[unknown.argmax()]} from rank {peer}")
        owners = part.owner(spikes)
        if (owners != peer).any():
            i = (owners != peer).argmax()
            raise ProtocolViolationError(
                f"source {spikes[i]} from rank {peer} is a neuron of rank {owners[i]}")
        empty = offsets.take(spikes + 1) == offsets.take(spikes)
        if empty.any():
            raise ProtocolViolationError(f"source {spikes[empty.argmax()]} from rank {peer} "
                                         f"has no synapses on rank {part.rank}")


def _rank_loop(engine: Engine, comm: Communicator, n_steps: int) -> None:
    for t in range(n_steps):
        spiked = engine.step(t)
        if comm.part.out_peers or comm.part.in_peers:
            remote = comm.exchange(t, spiked)
            merged = np.sort(np.concatenate([spiked, remote])) if len(remote) else spiked
        else:
            merged = spiked
        engine.deliver(t, merged)
        engine.advance()


def check_run_args(*, n_columns: Optional[int] = None, dt_ms: Optional[float] = 1.0,
                   seconds: Optional[float] = None, n_ranks: Optional[int] = 1,
                   transport: Optional[str] = "memory", timeout: Optional[float] = 30.0,
                   rank: Optional[int] = None,
                   cluster: Optional[Dict[int, Tuple[str, int]]] = None) -> None:
    """Refuse ``run_simulation``'s arguments before any work: one
    ConfigError listing every rule they break, each naming its config key
    or CLI flag.  An argument of None is unknown and skips each rule that
    reads it; the run's length is checked only at a ``dt_ms`` above 0 (the
    build refuses any other).  ``rank`` and ``cluster`` go together: a
    cluster names every rank's address, and ``rank`` says which runs here.
    """
    timed = seconds is not None and 0 < seconds < math.inf
    ranked = n_ranks is not None and n_ranks >= 1
    n_steps = (step_count(seconds, dt_ms) if timed and dt_ms is not None and 0 < dt_ms < math.inf
               else None)
    rows = [("run.simulated_seconds:", seconds, seconds is None or timed, "be > 0"),
            ("run.simulated_seconds:", seconds, n_steps is None or n_steps < MAX_STEPS,
             f"be fewer than 2**32 steps of run.dt_ms = {dt_ms} ms"),
            ("run.ranks:", n_ranks, n_ranks is None or ranked, "be >= 1"),
            ("run.timeout_seconds:", timeout, timeout is None or 0 < timeout < math.inf,
             "be > 0")]
    problems = []
    if n_steps == 0:
        problems.append(f"run.simulated_seconds: {seconds} s rounds to 0 steps of "
                        f"run.dt_ms = {dt_ms} ms")
    if ranked and n_columns is not None and n_ranks > n_columns:
        problems.append(f"run.ranks: {n_ranks} ranks exceed the grid's {n_columns} columns")
    if transport is not None and transport not in TRANSPORTS:
        problems.append(f"run.transport: expected one of {TRANSPORTS}, got {transport!r}")
    if rank is not None and cluster is None:
        problems.append(f"rank {rank} needs a cluster (CLI: --cluster FILE)")
    if cluster is not None and rank is None:
        problems.append("a cluster needs the rank to run here (CLI: --rank R)")
    if None not in (rank, n_ranks) and not 0 <= rank < n_ranks:
        problems.append(f"rank {rank} outside [0, {n_ranks})")
    if None not in (cluster, n_ranks):
        missing = [r for r in range(n_ranks) if r not in cluster]
        if missing:
            problems.append(f"cluster has no address for ranks {missing}")
        problems += [f"cluster rank {r} outside [0, {n_ranks})"
                     for r in sorted(cluster) if not 0 <= r < n_ranks]
    require(rows, problems)


def run_simulation(net: Network, *, seconds: float, stim: StimulusSpec,
                   n_ranks: int = 1, transport: str = "memory",
                   lif_params: Optional[AdaptiveLifParams] = None,
                   stdp_params: Optional[StdpParams] = None, timeout: float = 30.0,
                   rank: Optional[int] = None,
                   cluster: Optional[Dict[int, Tuple[str, int]]] = None):
    """Run the benchmark with ``n_ranks`` ranks, each a thread of this process.

    Without ``rank``, every rank runs here, each pair of ranks linked
    before any rank starts: by an AF_UNIX socket pair for transport
    "memory", by TCP over loopback for "tcp".  With ``rank``, only that
    rank is partitioned and run here, over TCP to the other processes of
    ``cluster`` ({rank: (host, port)}), linked by a rendezvous.  Each rank
    times its own loop.  Returns (the run's RunMetrics, (steps, gids)
    raster sorted by (step, id), per-rank metrics list, and the parts of
    the ranks run here), merged by ``merge_ranks``; the run's metrics also
    time the partition, the STDP states and the links.
    """
    check_run_args(n_columns=net.spec.n_columns, dt_ms=net.dt_ms, seconds=seconds,
                   n_ranks=n_ranks, transport=transport, timeout=timeout, rank=rank,
                   cluster=cluster)
    n_steps = step_count(seconds, net.dt_ms)
    t0 = time.perf_counter_ns()
    _, parts = partition(net, n_ranks, rank=rank)
    partition_ns = time.perf_counter_ns() - t0
    plastic = stdp_params is not None and stdp_params.enabled
    t0 = time.perf_counter_ns()
    stdps = [StdpState(p, stdp_params, net.dt_ms) if plastic else None for p in parts]
    stdp_ns = time.perf_counter_ns() - t0 if plastic else 0
    engines = [Engine(p, stim, dt_ms=net.dt_ms, lif_params=lif_params, n_steps=n_steps,
                      stdp=stdp) for p, stdp in zip(parts, stdps)]

    t0 = time.perf_counter_ns()
    if rank is not None:
        links = {rank: rendezvous(rank, cluster, parts[0].out_peers + parts[0].in_peers,
                                  timeout)}
    else:
        links = loopback_links(parts, timeout, transport)
    link_ns = time.perf_counter_ns() - t0
    walls = [0.0] * len(engines)
    failures = []
    # every rank starts its timer once all are ready, so no rank's loop
    # time holds a wait for a peer thread that has not yet started
    start = threading.Barrier(len(engines))

    def worker(i):
        # the rank's one owner: wraps its links, runs, and closes them on
        # the way out, which stops any peer waiting on it
        part, endpoint = parts[i], None
        try:
            endpoint = TcpTransport(part.rank, links[part.rank])
            comm = Communicator(part, endpoint, timeout=timeout)
            start.wait()
            t0 = time.perf_counter()
            _rank_loop(engines[i], comm, n_steps)
            walls[i] = time.perf_counter() - t0
        except BaseException as err:  # propagate to the caller
            # recorded before the abort frees the peers at the barrier, so
            # a rank that fails there leaves its own error first
            failures.append(err)
            start.abort()
        finally:
            if endpoint is not None:
                endpoint.close()
            else:  # no transport took the links, so they are still the worker's
                for sock in links[part.rank].values():
                    sock.close()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(len(engines))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if failures:
        raise failures[0]

    per_rank = [e.metrics(wall) for e, wall in zip(engines, walls)]
    merged, raster = merge_ranks(zip(per_rank, (e.raster() for e in engines)))
    merged.setup_seconds.update(partition=partition_ns / 1e9, stdp_init=stdp_ns / 1e9,
                                link=link_ns / 1e9)
    return merged, raster, per_rank, parts

"""The package's one owner of fork, pipe, kill and reap.  A child runs one
function against a pipe and ends in ``os._exit``.  Leaving the block on an
error kills every child with SIGKILL; leaving it in any way closes every
pipe and reaps every child.  A failed child prints its traceback on stderr
and sends the last line of its exception over a second pipe, which the
block's error quotes.  ``worker_count`` is the one rule for how many
processes may share a piece of work, and ``balanced_ranges`` splits it."""

import os
import signal
import sys
import threading
import traceback
import warnings

import numpy as np

from .errors import SpikebenchError

# A forked worker costs about 2 ms, and afterwards each page this process
# had at the fork faults once when it is first written again: 400-1,100
# faults in the first loop of a long-lived process.  A share under this
# many synapses (about 30 ms of building, 7 ms of STDP transpose) is not
# worth one.
_MIN_WORKER_SYNAPSES = 500_000


def worker_count(items: float, most: int) -> int:
    """Processes that share work on ``items`` synapses: one per CPU this
    process may run on, at most ``most`` and one per
    ``_MIN_WORKER_SYNAPSES``.  Without ``fork``, or with other Python
    threads running (a forked child holds only the forking thread), the
    work stays in this process."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), most,
                      int(items // _MIN_WORKER_SYNAPSES)))


def balanced_ranges(weights: np.ndarray, n_parts: int) -> list:
    """Split the items into ``n_parts`` contiguous non-empty ranges of
    about equal total weight -> range bounds, from 0 to the item count."""
    n = len(weights)
    before = np.concatenate(([0.0], np.cumsum(weights)))
    bounds = [0]
    for part in range(1, n_parts):
        at = int(np.abs(before - before[-1] * part / n_parts).argmin())
        bounds.append(min(max(at, bounds[-1] + 1), n - (n_parts - part)))
    return bounds + [n]


class _Ended(Exception):
    """A child's output (args[0]) ended before the parent read all it expected."""


class Children:
    """A ``with`` block that owns the children it forks."""

    def __enter__(self):
        self._children = []  # (name, pid, output read end, error read end)
        return self

    def fork(self, what: str, run):
        """Fork a child that runs ``run(out)``, ``out`` a pipe's write end ->
        the pipe's buffered read end; ``what`` names the child in errors."""
        fds = os.pipe() + os.pipe()  # output (read, write), error text (read, write)
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns at a fork while other OS threads run (numpy's
                # BLAS pool); a child calls no BLAS, and callers fork threadless
                warnings.filterwarnings("ignore", category=DeprecationWarning,
                                        message=r"This process .* is multi-threaded")
                pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if pid:
            os.close(fds[1])
            os.close(fds[3])
            self._children.append((what, pid, open(fds[0], "rb"), open(fds[2], "rb")))
            return self._children[-1][2]
        code = 1  # the child: it never returns into the caller
        try:
            os.close(fds[0])
            for _, _, output, _ in self._children:  # so that only the parent reads
                output.close()
            out = open(fds[1], "wb")
            run(out)
            out.close()
            code = 0
        except BaseException as err:
            traceback.print_exc()
            sys.stderr.flush()
            # before the output ends; one page, so that the write cannot block
            line = traceback.format_exception_only(type(err), err)[-1].strip()
            os.write(fds[3], line.encode(errors="replace")[:4096])
        finally:
            os._exit(code)

    def read(self, output, array) -> None:
        """Fill ``array`` from a child's ``output``.  If the output ends
        first, the child has failed, and the block raises its error."""
        if output.readinto(array) != array.nbytes:
            raise _Ended(output)

    def __exit__(self, exc_type, exc, tb):
        ended = exc.args[0] if isinstance(exc, _Ended) else None
        failed = None
        try:
            for _, pid, output, _ in self._children:
                if exc is not None and output is not ended:  # that one has exited
                    os.kill(pid, signal.SIGKILL)
                output.close()  # a child still writing stops
            for what, pid, output, errors in self._children:
                message = errors.read().decode(errors="replace")
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if failed is None and (output is ended or (exc is None and code)):
                    failed = (f"{what} failed in a worker process (exit status {code})"
                              + (f": {message}" if message else ""))
        finally:
            for _, _, output, errors in self._children:
                output.close()
                errors.close()
        if failed:
            raise SpikebenchError(failed) from None

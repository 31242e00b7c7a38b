"""Shares of a pair list folded in forked processes, one per CPU.

:func:`circledepth.depth._map_chunks` cuts the pairs into shares and
imports this module only when it runs more than one process, so a serial
run never pays for these imports.  The calling process folds the first
share itself and forks a :class:`Child` for each of the others, each pinned
to a CPU of its own: the scheduler would otherwise keep a short-lived child
on its parent's CPU.  Fork, not a fresh interpreter, because a child then
starts with the set and the task it needs, and nothing is pickled on the way
in; the CLI that forks runs no other thread.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from contextlib import suppress

BLOCKS = 4  # the caller's share is folded in this many blocks


def _pin(cpus: set[int] | None) -> None:
    # Best effort: where the mask cannot be set the scheduler places the process.
    if cpus is not None:
        with suppress(AttributeError, OSError):
            os.sched_setaffinity(0, cpus)


def outcome(task, share: list) -> bytes:
    """``task(share)`` pickled as ``(True, result)``, or ``(False, error)``."""
    try:
        result = (True, task(share))
    except BaseException as exc:
        result = (False, exc)
    return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


class Child:
    """A forked process that runs ``task(share)`` pinned to ``cpus`` and
    writes its :func:`outcome` to a pipe, which :meth:`read` takes in.

    The child leaves only through ``os._exit``, so nothing it inherited
    (buffered output, ``atexit`` handlers, the caller's ``finally`` blocks)
    runs twice; one that fails before its outcome is written exits nonzero.
    """

    def __init__(self, task, share: list, cpus: set[int] | None):
        self.received = bytearray()
        self.fd, out = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(self.fd)
            os.close(out)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self.fd)
                _pin(cpus)
                with open(out, "wb") as pipe:
                    pipe.write(outcome(task, share))
                status = 0
            finally:
                os._exit(status)
        os.close(out)

    def fileno(self) -> int:
        return self.fd

    def read(self) -> bool:
        """Take in what the child has written; at the end of the pipe reap
        it, keep its result as ``result`` or raise its error, and return True."""
        data = os.read(self.fd, 1 << 20)
        if data:
            self.received += data
            return False
        os.close(self.fd)
        self.fd = None
        status = self._wait()
        if not self.received:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker process ended with exit code {code} before sending a result")
        ok, self.result = pickle.loads(self.received)
        if not ok:
            raise self.result
        return True

    def kill(self) -> None:
        """SIGKILL the child and reap it, unless it is reaped already."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._wait()
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def _wait(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status


def _collect(pending: list[Child], timeout: float | None) -> list[Child]:
    """Read the children's pipes until none is ready within ``timeout``, or
    with None until every child is done; return the children not done."""
    while pending:
        ready = select.select(pending, [], [], timeout)[0]
        if not ready:
            break
        pending = [child for child in pending if child not in ready or not child.read()]
    return pending


def map_shares(task, shares: list[list]) -> list:
    """``task`` over ``shares``, one process each, results in share order;
    there are no more shares than CPUs this process may run on.

    This process folds the first share in :data:`BLOCKS` blocks and reads
    the children's pipes between them, so a child's error ends the map
    within one block.  Any error, or an interrupt, kills and reaps every
    child before it propagates; this process's CPU mask is restored in any
    case.
    """
    mine, *others = shares
    try:
        mask = os.sched_getaffinity(0)
        pins = [{cpu} for cpu in sorted(mask)[: len(shares)]]
    except AttributeError:  # platforms without CPU affinity
        mask, pins = None, [None] * len(shares)
    children: list[Child] = []
    results = []
    try:
        for share, pin in zip(others, pins[1:], strict=True):
            children.append(Child(task, share, pin))
        _pin(pins[0])
        pending = children
        size = -(-len(mine) // BLOCKS)
        for i in range(0, len(mine), size):
            results.append(task(mine[i : i + size]))
            pending = _collect(pending, 0)
        _collect(pending, None)
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        _pin(mask)
    return results + [child.result for child in children]

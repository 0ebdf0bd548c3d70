"""Forked helper processes: the workers of the parallel run scan.

A child runs one function on the write end of a pipe and ends with
``os._exit``; it touches nothing the parent will read except that pipe.
The parent kills and reaps every child it started on every exit path, so
none outlives the call that made it.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import IO, Callable, Iterable, NamedTuple

import numpy as np


class Child(NamedTuple):
    pid: int
    pipe: IO[bytes]  # the read end of the child's pipe


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform: work serially
        return 1


def may_fork() -> bool:
    """Whether this process may fork: ``os.fork`` exists and no other
    Python thread runs, whose locks a child could inherit held."""
    return hasattr(os, "fork") and threading.active_count() == 1


def start(work: Callable[[int], object]) -> Child | None:
    """Fork a child that runs ``work`` on the write end of a new pipe and
    exits with status 0 if it returns, 1 if it raises; None if the fork is
    refused or no descriptor is left for the pipe."""
    try:
        read, write = os.pipe()
    except OSError:  # out of descriptors: the caller works serially
        return None
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the caller works serially
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            work(write)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return Child(pid, open(read, "rb"))


def reap(children: Iterable[Child]) -> None:
    """Close each child's pipe, kill the child if it still runs and wait
    for it."""
    for pid, pipe in children:
        pipe.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)


def read_into(pipe: IO[bytes], column: np.ndarray) -> np.ndarray:
    """``column``, filled from ``pipe``; EOFError if the pipe ends first."""
    view = memoryview(column).cast("B")
    if pipe.readinto(view) != len(view):
        raise EOFError("a child's pipe ended early")
    return column

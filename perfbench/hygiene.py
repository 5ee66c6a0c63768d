"""Process and shared-memory hygiene for benchmark runs.

The sharded serving tier forks shard workers and gives each a
``/dev/shm/repro-shard<k>-<dispatcher pid>-<tag>`` arena.  A run that
ends normally has joined the workers and unlinked the arenas;
:func:`cleanup` then removes whatever is left.  A run cut by a hang
(see the deadlock note in ``README.md``) still has a live tier whose
collector thread respawns any worker that dies, so :func:`abandon`
freezes the workers, unlinks the arenas, prints the result, and kills
the workers and exits without letting another thread run.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

SHM_DIR = Path("/dev/shm")


def child_pids() -> set[int]:
    """Direct children of this process, from ``/proc``."""
    pids: set[int] = set()
    me = os.getpid()
    try:
        tasks = os.listdir(f"/proc/{me}/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            text = Path(f"/proc/{me}/task/{task}/children").read_text()
        except OSError:
            continue
        pids.update(int(pid) for pid in text.split())
    return pids


def own_segments() -> list[Path]:
    """Shared-memory arenas created by serving tiers this process ran."""
    return sorted(SHM_DIR.glob(f"repro-shard*-{os.getpid()}-*"))


def unlink_segments() -> int:
    unlinked = 0
    for segment in own_segments():
        try:
            segment.unlink()
            unlinked += 1
        except FileNotFoundError:
            pass
    return unlinked


def abandon(line: str) -> None:
    """Leave a run whose serving tier is stuck: print ``line`` and exit 0.

    Children are stopped before anything else, because a dead worker
    would make the tier's collector fork a replacement.  Once the result
    is printed, the interpreter's thread switching is held off, so no
    other thread runs between killing the children and ``os._exit``;
    the killed children are reaped by init.
    """
    children = child_pids()
    for pid in children:
        os.kill(pid, signal.SIGSTOP)
    unlinked = unlink_segments()
    print(f"perfbench: abandoned a stuck run; killed {len(children)} child process(es), "
          f"unlinked {unlinked} shm segment(s)")
    print(line, flush=True)
    sys.setswitchinterval(1e6)
    for pid in children:
        os.kill(pid, signal.SIGKILL)
    os._exit(0)


def cleanup() -> tuple[int, int]:
    """Kill and reap leftover children, unlink this process's arenas.

    Shard workers go first: they hold the resource tracker's pipe open,
    so the tracker (also a child, started by the first shared-memory
    segment) can only be stopped and reaped after them.  Returns the
    number of processes killed and segments unlinked.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    killed = 0
    for pid in child_pids() - {getattr(tracker, "_pid", None)}:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            killed += 1
        except (ProcessLookupError, ChildProcessError):
            pass
    unlinked = unlink_segments()
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    return killed, unlinked

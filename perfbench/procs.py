"""Process bookkeeping from /proc: descendants, summed PSS, kill-and-reap.

Linux only, standard library only, so the supervisor can use it without
importing Ray.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Orphaned descendants (a Ray worker whose raylet died) are re-parented
    to this process instead of PID 1, so they stay findable and killable."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _parents() -> dict[int, int]:
    """pid -> ppid for every visible process (zombies included)."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:  # exited while we listed
            continue
        # the command name is parenthesised and may hold spaces
        fields = stat[stat.rfind(b")") + 2:].split()
        out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> list[int]:
    """Every live descendant pid of ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    found, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        found.append(pid)
        todo.extend(children.get(pid, []))
    return found


def pss_kb(pid: int) -> int:
    """Proportional set size of one process, 0 if it is gone. PSS splits
    each shared page (object-store mappings, shared libraries) among the
    processes mapping it, so a sum over processes counts it once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakPss:
    """Samples the summed PSS of ``root`` and its descendants on a thread
    until ``stop()``; ``peak_mb`` is the largest sum seen."""

    def __init__(self, root: int, interval_s: float = 0.5):
        self.root = root
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        total = sum(pss_kb(p) for p in [self.root, *descendants(self.root)])
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakPss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def reap() -> None:
    """Collect every exited child (orphans re-parented to a subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_descendants(root: int, grace_s: float = 5.0) -> int:
    """SIGTERM, then SIGKILL, every descendant of ``root``; wait until none
    is left. Returns how many were alive at the start."""
    first = live_descendants(root)
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        for pid in descendants(root):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + wait_s
        while time.monotonic() < end:
            reap()
            if not _live(descendants(root)):
                return len(first)
            time.sleep(0.05)
    reap()
    return len(first)


def _live(pids: list[int]) -> list[int]:
    """Drop zombies: they have exited and wait only to be reaped."""
    live = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        if stat[stat.rfind(b")") + 2:stat.rfind(b")") + 3] != b"Z":
            live.append(pid)
    return live


def live_descendants(root: int) -> list[int]:
    return _live(descendants(root))

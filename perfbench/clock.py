"""Wall time corrected for the machine's momentary speed.

On a shared host the same code can run at very different speeds from one
second to the next: on the 2-vCPU Xeon VM this benchmark was written on, a
fixed pure-Python loop took either about 3.8 ms or about 6.4 ms, switching
every few seconds, and one process could spend a whole 10-second run in
either state. Medians over a run cannot remove a slowdown that lasts the
whole run, so end-to-end times of single-process work are corrected:

* every ``INTERVAL`` seconds a ``SIGALRM`` handler runs a fixed probe (a
  small dict-counting loop) and records how long it took;
* a timed span's corrected time is its wall time minus the probes run inside
  it, times ``REFERENCE_PROBE_S`` over the median probe time around the span.

The result reads as seconds on this machine in its fast state. The raw wall
times are kept beside it.

Calls that run on forked pool workers are corrected by ``PoolClock``: each
worker probes its own speed the same way and writes its probe times when it
exits; the call's wall time, less the workers' mean probe time, is scaled by
the workers' mean speed (the two vCPUs are often in different states). A
probe in the parent would compete with the workers for the CPUs.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from multiprocessing import util
from pathlib import Path

INTERVAL = 0.05
# Probe time in the fast state on the machine described above.
REFERENCE_PROBE_S = 3.0e-4
_WORDS = [f"w{i}" for i in range(3000)]


def _probe() -> None:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1


class SpeedClock:
    """Context manager that samples machine speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        _probe()
        self.starts.append(start)
        self.lengths.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Corrected duration of the span [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        net = end - start - sum(self.lengths[lo:hi])
        near = self.lengths[
            bisect.bisect_left(self.starts, start - INTERVAL):
            bisect.bisect_right(self.starts, end + INTERVAL)
        ]
        if not near:  # the timer has not fired yet: use the closest probe
            near = self.lengths[max(lo - 1, 0):lo + 1]
        if not near:
            return net
        return net * REFERENCE_PROBE_S / statistics.median(near)

    def timed(self, fn, *args, **kwargs):
        """Call fn; returns (result, corrected seconds, wall seconds)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, self.corrected(start, end), end - start


class PoolClock:
    """Times calls whose work runs on forked pool workers (see above)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.active = False  # read by workers as it was when they forked
        self.lengths: list[float] = []
        util.register_after_fork(self, PoolClock._in_worker)

    def __enter__(self):
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False

    def _in_worker(self):
        if self.active:
            clock = SpeedClock().__enter__()
            util.Finalize(None, self._spill, args=(clock,), exitpriority=100)

    def _spill(self, clock: SpeedClock):
        path = self.spill_dir / f"probes-{os.getpid()}.json"
        path.write_text(json.dumps(clock.lengths))

    def timed(self, fn, *args, **kwargs):
        """Call fn; returns (result, corrected seconds, wall seconds)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        paths = sorted(self.spill_dir.glob("probes-*.json"))
        workers = [w for w in (json.loads(p.read_text()) for p in paths) if w]
        for path in paths:
            path.unlink()
        if not workers:
            return result, wall, wall
        self.lengths += [length for w in workers for length in w]
        speed = statistics.mean(REFERENCE_PROBE_S / statistics.median(w) for w in workers)
        probing = statistics.mean(sum(w) for w in workers)
        return result, (wall - probing) * speed, wall

"""Host pace: a fixed reference computation timed alongside the workload.

The benchmark runs on a few cores of a shared host whose speed drifts: on
a 2-core x86-64 container the same pure-Python work took anywhere from
1.0x to 2x as long from one minute to the next, and CPU time drifted
with wall time, so it is not preemption a run could filter out.  A median
over one run cannot remove a slowdown that lasts the whole run, so the
timings a run is judged on are also reported in *reference milliseconds*:
the calling thread's CPU time scaled by :data:`REFERENCE_MS` over the time
the reference work took next to it, plus the time off the CPU (fsync,
sleeps, other threads holding the interpreter) as measured, since that
does not run at the host's compute pace.  On a host running at
the reference pace the two agree; when the host computes 1.5x slower, the
CPU time grows by 1.5x and the scale takes it back out.

The reference work is benchmark code only (deep copy, JSON round trip and
dictionary reads over a fixed set of CAP-shaped documents, the mix the
server's hot paths are made of), so no change to the program moves it.
It runs with the garbage collector off and frees everything it allocates,
so it neither pays for collecting the program's heap nor moves the
program's collection schedule.  Callers take a sample before each request
they time; a span of work is scaled by the median of the samples taken
during it, widened to at least :data:`WINDOW` samples.
"""

from __future__ import annotations

import copy
import gc
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: The reference work's median time on a quiet 2-core x86-64 container.
REFERENCE_MS = 2.0
#: Fewest samples a scale is taken over.
WINDOW = 15

_DOCUMENTS = [
    {
        "sensors": [f"s{i:03d}", f"s{i + 1:03d}", f"s{i + 7:03d}"],
        "attributes": ["no2", "pm25"],
        "delays": [0, i % 3, 2],
        "support": i % 17 + 10,
        "intervals": [[i, i + 3], [i + 9, i + 12]],
    }
    for i in range(120)
]


def reference_work() -> int:
    documents = json.loads(json.dumps(copy.deepcopy(_DOCUMENTS), sort_keys=True))
    total = 0
    for document in documents:
        for i in range(40):
            total += (i * document["support"]) % 7
    return total


@dataclass
class Timing:
    """One timed span, less the samples taken inside it: wall and thread CPU seconds."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    first: int = 0
    last: int = 0


class Pace:
    """Reference-work samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            enabled = gc.isenabled()
            gc.disable()
            try:
                started = time.perf_counter()
                cpu_started = time.thread_time()
                reference_work()
                cpu = time.thread_time() - cpu_started
                elapsed = time.perf_counter() - started
            finally:
                if enabled:
                    gc.enable()
            self.samples_ms.append(elapsed * 1000.0)
            self.spent_s += elapsed
            self.spent_cpu_s += cpu

    @contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time a block, leaving out the samples taken inside it."""
        timing = Timing(first=len(self.samples_ms))
        spent, spent_cpu = self.spent_s, self.spent_cpu_s
        started, cpu_started = time.perf_counter(), time.thread_time()
        try:
            yield timing
        finally:
            cpu = time.thread_time() - cpu_started - (self.spent_cpu_s - spent_cpu)
            timing.wall_s = time.perf_counter() - started - (self.spent_s - spent)
            timing.cpu_s = min(max(cpu, 0.0), timing.wall_s)
            timing.last = len(self.samples_ms)

    def scale(self, first: int, last: int) -> float:
        """:data:`REFERENCE_MS` over the median sample of ``[first, last)``, widened to :data:`WINDOW`."""
        count = len(self.samples_ms)
        if count == 0:
            raise ValueError("no pace samples were taken")
        first, last = max(0, first), min(count, max(last, first))
        while last - first < min(WINDOW, count):
            if first > 0:
                first -= 1
            if last < count and last - first < WINDOW:
                last += 1
        return REFERENCE_MS / statistics.median(self.samples_ms[first:last])

    def reference_s(self, timing: Timing) -> float:
        """``timing`` in reference seconds: its CPU time scaled, its off-CPU time as measured."""
        off_cpu = timing.wall_s - timing.cpu_s
        return timing.cpu_s * self.scale(timing.first, timing.last) + off_cpu

"""Wall time converted to reference seconds, for a noisy shared host.

On a host whose speed drifts with its neighbours' load (tens of percent
within minutes), a raw wall-clock rate mostly measures the neighbours.
:class:`HostClock` runs a short fixed pure-Python loop between slices
of the measured work and converts the measured wall time to *reference
seconds*: the time a host that runs the loop in
:data:`REFERENCE_CHUNK_S` would have taken.  A program that gets slower
still reads slower; a host that gets slower does not.

The calibration runs between slices, never inside one, and its own time
is excluded from the measured time.
"""

import contextlib
import gc
import heapq
import time

#: Iterations of one calibration chunk, and the chunk's duration on the
#: reference host.
CHUNK_ITERATIONS = 8000
REFERENCE_CHUNK_S = 0.010
#: Wall seconds of measured work between two calibration chunks.
CALIBRATE_EVERY_S = 0.05


def reference_work(iterations=CHUNK_ITERATIONS):
    """Interpreter work of the simulator's kind: calls, a heap, dicts."""
    heap = []
    table = {}
    total = 0
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 255] = table.get((i * 31) & 255, 0) + i
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return total + len(table)


class HostClock:
    """Measured wall time, and the host speed it was measured at."""

    def __init__(self):
        self.busy_s = 0.0
        self.calibration_s = 0.0
        self.chunks = 0
        self._last = time.perf_counter()

    def calibrate(self):
        """Time one calibration chunk, with the collector held off so
        that the size of the measured program's heap does not count."""
        gc.disable()
        try:
            started = time.perf_counter()
            reference_work()
            ended = time.perf_counter()
        finally:
            gc.enable()
        self.calibration_s += ended - started
        self.chunks += 1
        self._last = ended

    def tick(self, *_ignored):
        """Calibrate if due; call between slices of measured work."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    @contextlib.contextmanager
    def timed(self):
        """Count the block's wall time, less calibration, as measured."""
        started = time.perf_counter()
        calibrated = self.calibration_s
        try:
            yield
        finally:
            self.busy_s += (time.perf_counter() - started
                            - (self.calibration_s - calibrated))

    def speed(self):
        """Host speed relative to the reference host (1.0 = as fast)."""
        if not self.chunks:
            self.calibrate()
        return REFERENCE_CHUNK_S / (self.calibration_s / self.chunks)

    def reference_s(self, wall_s=None):
        """*wall_s* (default: the measured time) in reference seconds."""
        return (self.busy_s if wall_s is None else wall_s) * self.speed()

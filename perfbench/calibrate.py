"""A fixed calibration kernel that measures the host's current speed.

The benchmark machine's speed drifts: on the 2-core machine this
benchmark was tuned on, the same pass took up to 1.8x longer from one
minute to the next, with no change in the program.  The kernel below
imitates the simulator's mix of work: a heap-ordered event loop, method
calls on small Python objects, and numpy gathers, compares, copies and
block upscales on a 160x90 frame.  It uses numpy and the standard
library only, never the program under test, so no change to the
program can move it.

The benchmark runs the kernel before and after every timed pass.  It
scales the pass's host times by ``REFERENCE_S`` over the mean of the two
kernel times, i.e. it reports them as they would read on a host where
the kernel takes ``REFERENCE_S``.  On the tuning machine this cut the
run-to-run spread of the pass times by two thirds.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

import numpy as np

#: Kernel time, in seconds, of the reference host that scaled timings
#: refer to (roughly the tuning machine on a quiet minute).
REFERENCE_S = 0.2

#: Events per kernel run.
EVENTS = 8000

_HEIGHT, _WIDTH = 90, 160


class _Frame:
    """One small framebuffer with a sampled previous-frame compare."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.pixels = rng.integers(0, 256, (_HEIGHT, _WIDTH, 3),
                                   dtype=np.uint8)
        self.previous = self.pixels.copy()
        self.samples = np.arange(0, _HEIGHT * _WIDTH, 13)
        self.changes = 0

    def render(self, rng: np.random.Generator, now: float) -> None:
        block = rng.integers(0, 256, (12, 20, 3), dtype=np.uint8)
        upscaled = np.repeat(np.repeat(block, 4, axis=0), 4, axis=1)
        row = int(now * 7) % 40
        self.pixels[row:row + 48, 20:100] = upscaled

    def compare(self) -> None:
        current = np.take(self.pixels.reshape(-1, 3), self.samples, axis=0)
        previous = np.take(self.previous.reshape(-1, 3), self.samples,
                           axis=0)
        if not (current == previous).all():
            self.changes += 1
        np.copyto(self.previous, self.pixels)


def host_speed(processes: int = 1) -> float:
    """Kernel seconds with ``processes`` copies running at once.

    A pass that keeps a worker pool busy runs on every core, so it is
    calibrated with one kernel per worker, each in its own interpreter,
    and the mean of their times.
    """
    if processes <= 1:
        return kernel()
    children = [subprocess.Popen([sys.executable, __file__],
                                 stdout=subprocess.PIPE, text=True)
                for _ in range(processes)]
    times = []
    try:
        for child in children:
            out, _ = child.communicate(timeout=60)
            if child.returncode != 0:
                raise RuntimeError("calibration kernel failed")
            times.append(float(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return sum(times) / len(times)


def kernel(events: int = EVENTS) -> float:
    """Run the kernel once; its wall time in seconds."""
    rng = np.random.default_rng(7)
    frames = [_Frame(rng) for _ in range(4)]
    queue = [(0.0, index, index % 4) for index in range(8)]
    heapq.heapify(queue)
    sequence = len(queue)
    log = []
    started = time.perf_counter()
    for _ in range(events):
        now, _, kind = heapq.heappop(queue)
        frame = frames[kind]
        if sequence % 5 == 0:
            frame.render(rng, now)
        frame.compare()
        log.append((now, kind, frame.changes))
        sequence += 1
        heapq.heappush(queue, (now + 1.0 / (30 + 30 * kind), sequence,
                               kind))
    return time.perf_counter() - started


if __name__ == "__main__":
    print(kernel())

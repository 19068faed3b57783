"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

The benchmark runs on small shared virtual machines whose speed drifts by
up to 1.7x, for seconds or for minutes, as neighbours come and go; there is
no steal time, the same instructions simply take longer.  No statistic of a
run's own timings removes a slowdown that lasts the whole run.  So a run also
times this kernel, interleaved with its tasks, and scales every time it
reports by REFERENCE_S / (the kernel's mean time in the run): the times read
as if the machine ran at the speed it had when REFERENCE_S was measured.

The kernel is benchmark code and never calls gracecolor, so a change to the
program cannot move it.  It does the kind of work the program does, in
three parts: a backtracking search over bitmask domains with list copies
(like the graceful solver and, with bitmasks, the 3-AP search), a
backtracking search over sets, and formatting and parsing text (like the
command line).  Over five
minutes on a 2-vCPU VM (Intel Xeon, CPython 3.11), slices of the solver, of
the 3-AP engine and of CLI calls spread 11-13 % between 25-second windows
(interquartile range over median), and 1.3-4.8 % once divided by the
interleaved time of kernels like these parts.  A kernel with a 2 MB working
set of dict lookups tracked them worst (5-7 %), so none is used here.
"""

from __future__ import annotations

import statistics
import time

# Mean time of kernel() over a run on an Intel Xeon, 2 vCPUs, CPython 3.11.
REFERENCE_S = 0.0045
INTERVAL_S = 0.1  # run the kernel at most this often between tasks
WARMUP = 3  # untimed calls first: the interpreter specialises code as it runs

# Wheel W_8: hub 0, rim 1..8.  Its graceful colorings with 12 colors.
_WHEEL = [list(range(1, 9))] + [[0, i % 8 + 1, (i - 2) % 8 + 1] for i in range(1, 9)]
_PALETTE = 12
_COLORINGS = 2500


def _graceful_colorings(limit: int) -> int:
    """Graceful colorings of _WHEEL found by a domain-filtering search, up to limit."""
    n, k = len(_WHEEL), _PALETTE
    colors = [0] * n
    found = 0

    def extend(x: int, domains: list[int]) -> bool:
        nonlocal found
        if x == n:
            found += 1
            return found >= limit
        dom = domains[x]
        while dom:
            bit = dom & -dom
            dom ^= bit
            c = bit.bit_length() - 1
            colors[x] = c
            narrowed = list(domains)
            alive = True
            for v in _WHEEL[x]:
                if colors[v]:
                    continue
                mask = narrowed[v] & ~bit
                for w in _WHEEL[x]:
                    cw = colors[w]
                    if cw and w != v:
                        d = abs(c - cw)
                        if c - d >= 1:
                            mask &= ~(1 << (c - d))
                        if c + d <= k:
                            mask &= ~(1 << (c + d))
                narrowed[v] = mask
                if not mask:
                    alive = False
                    break
            if alive and extend(x + 1, narrowed):
                return True
            colors[x] = 0
        return False

    extend(0, [(1 << (k + 1)) - 2] * n)
    return found


def _queens(n: int) -> int:
    cols, diag, anti = set(), set(), set()

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for col in range(n):
            if col in cols or row + col in diag or row - col in anti:
                continue
            cols.add(col)
            diag.add(row + col)
            anti.add(row - col)
            found += place(row + 1)
            cols.discard(col)
            diag.discard(row + col)
            anti.discard(row - col)
        return found

    return place(0)


def kernel() -> None:
    if _graceful_colorings(_COLORINGS) != _COLORINGS:
        raise AssertionError("calibration kernel found too few colorings")
    if _queens(7) != 40:
        raise AssertionError("calibration kernel miscounted")
    text = "\n".join(f"{i} {i * 7 % 101}" for i in range(400))
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()]
    if sum(v for _, v in pairs) != sum(i * 7 % 101 for i in range(400)):
        raise AssertionError("calibration kernel misparsed")


class Gauge:
    """Interleaved kernel timings of one run; tick() between tasks."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        for _ in range(WARMUP):
            kernel()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def tick(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.mean(self.samples)

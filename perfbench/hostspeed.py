"""Host-speed normalisation of measured times.

On a shared host the same pure-Python work can take twice as long for
minutes at a time, and CPU time stretches with wall time, so raw timings of
two runs a few minutes apart differ by more than any bound worth setting.
``calibrate`` times a fixed pure-Python job that does not touch the program
(string splitting, dict counting, tuple building, sorting) right around each
measured interval. ``normalise`` then rescales the interval's CPU time to
the speed at which the job takes ``NOMINAL_S`` and keeps its off-CPU
(waiting) time as measured: a CPU-bound pass is rescaled, a pass that
sleeps on a fake network is almost untouched.
"""
import time
from contextlib import contextmanager

NOMINAL_S = 0.010
REPEATS = 3
_WORDS = (
    "derive the gradient of 42 cross entropy losses step by step and reply "
    "with one integer while the quick brown fox reads 7 units of CO2 data "
).split() * 12


def _job() -> int:
    counts = {}
    for rep in range(96):
        for i, word in enumerate(_WORDS):
            key = (word.lower(), (i + rep) & 7)
            counts[key] = counts.get(key, 0) + len(word)
    return len(sorted(counts.items()))


def calibrate() -> float:
    """Median seconds of the reference job, run ``REPEATS`` times now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def normalise(wall: float, cpu: float, calibration: float) -> float:
    """``wall`` seconds, with its CPU part rescaled to the nominal speed.

    CPU time counts every thread of the process, so it can exceed the wall
    time (numpy's import starts threads); then all of ``wall`` is rescaled."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * NOMINAL_S / calibration


class StageTimer:
    """Times the named stages of one pass, each between two calibrations.

    A stage may be entered several times; its times add up. Entering it
    once per chunk of work keeps each timed interval short, so that the
    calibrations around it meet the same host speed as the work."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self._calibration = calibrate()

    @contextmanager
    def stage(self, name: str):
        t0, c0 = time.perf_counter(), time.process_time()
        yield
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = calibrate()
        self.wall[name] = self.wall.get(name, 0.0) + wall
        self.norm[name] = self.norm.get(name, 0.0) + normalise(
            wall, cpu, (self._calibration + after) / 2
        )
        self._calibration = after

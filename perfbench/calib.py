"""Sample how fast the machine runs while a timed region runs, and scale times by it.

On a shared machine the same ``zonalkit verify`` call can take 50% longer a
few seconds later, because other tenants take the CPU's cycles and caches;
CPU time moves with wall time, so it is no way around this.  ``Speedometer``
runs a fixed probe every ``INTERVAL_S`` on a timer signal, in between the
program's own bytecodes: a sparse polynomial product on a dict with packed
integer exponent keys and integer coefficients, the kind of work in the
program's hot loops, that imports nothing from zonalkit, so a change to the
program cannot move it.  The mean of ``REF_PROBE_S / probe time`` over a
region is the machine's speed during it, as a share of the reference speed;
a time scaled by it is the time the region would have taken at that speed.
"""

from __future__ import annotations

import glob
import json
import multiprocessing.util as mp_util
import os
import signal
import statistics
import time

# One probe's time at the reference speed: about the fast end of what a
# probe takes on the 2-vCPU machine the reference figures come from.
REF_PROBE_S = 0.0004
INTERVAL_S = 0.02

_BITS = 7  # bits per packed exponent, as in zonalkit.radialexpr


def _poly(size: int, offset: int) -> dict[int, int]:
    terms: dict[int, int] = {}
    for i in range(size):
        exps = (i % 6, i // 6 % 5, i // 30 + offset, (i * offset) % 4)
        key = sum(e << (_BITS * j) for j, e in enumerate(exps))
        terms[key] = terms.get(key, 0) + (-1) ** i * (3 ** 40 + i * offset) * (i + 1)
    return terms


_P, _Q = _poly(32, 1), _poly(30, 2)


def probe() -> float:
    """Seconds that the fixed probe takes now."""
    t0 = time.perf_counter()
    out: dict[int, int] = {}
    get = out.get
    for kp, cp in _P.items():
        for kq, cq in _Q.items():
            k = kp + kq
            out[k] = get(k, 0) + cp * cq
    return time.perf_counter() - t0


class Speedometer:
    """Probe the machine every ``INTERVAL_S`` of wall time between start and stop.

    The probes run in the main thread from a SIGALRM handler, so they
    interrupt whatever it is doing; ``window`` reports the share of time
    they took, so that it can be taken out.  Given ``worker_dir``, every
    multiprocessing worker forked while the speedometer runs probes itself
    and writes its samples there when it exits: the speed of a process-pool
    call is then the speed its workers saw, not that of a parent waiting for
    a CPU next to them.
    """

    def __init__(self, worker_dir: str | None = None) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic start, seconds)
        self.worker_samples: list[tuple[float, float]] = []
        self.running = False
        self._worker_dir = worker_dir
        if worker_dir:
            mp_util.register_after_fork(self, Speedometer._in_worker)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), probe()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def _in_worker(self) -> None:
        if self.running:  # the timer itself is not inherited
            self.samples = []
            self.start()
            mp_util.Finalize(None, self._write, exitpriority=100)

    def _write(self) -> None:
        self.stop()
        name = f"probes-{os.getpid()}-{time.monotonic_ns()}.json"
        with open(os.path.join(self._worker_dir, name), "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)

    def collect(self) -> None:
        """Read the samples the exited workers wrote."""
        for path in glob.glob(os.path.join(self._worker_dir or "", "probes-*.json")):
            with open(path, encoding="utf-8") as fh:
                self.worker_samples += [tuple(s) for s in json.load(fh)]
            os.remove(path)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """Mean speed in [t0, t1), and the share of the time the probes took.

        Workers' probes are used where there are any; otherwise this
        process's own.
        """
        probes = ([d for t, d in self.worker_samples if t0 <= t < t1]
                  or [d for t, d in self.samples if t0 <= t < t1])
        if not probes:
            return 1.0, 0.0
        return (statistics.fmean(REF_PROBE_S / d for d in probes),
                statistics.fmean(probes) / INTERVAL_S)

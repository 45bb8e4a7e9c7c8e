"""One run of one workload in a fresh process: ``python3 -m perfbench.child``.

``perfbench/run.py`` starts this module once per measurement, from the
root of the checkout, and reads the JSON object it prints last.  Modes:

* ``probe`` -- imports and set-up only; stops where the first unit
  would start (the warm-up and the ``setup_s`` samples);
* ``measure`` -- the whole fixed list of units, untraced, then the
  output checks;
* ``trace`` -- the same with every layer entry point wrapped by
  :class:`perfbench.tracer.Tracer`; spans are written to ``--spans``.

Untraced runs also sample the host's speed (:class:`HostSpeed`), so the
runner can state set-up and unit times at a reference host speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import struct
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds between two host-speed samples.
SAMPLE_EVERY_S = 0.05
#: How long one sample takes on the reference host the times are scaled to.
REFERENCE_SAMPLE_S = 0.00035

_WORD = struct.Struct("<i")
_OPS = tuple((lambda a, b, m=m: (a * m + b) & 0xFFFF) for m in range(1, 9))


def sample_work() -> int:
    """A fixed slice of pure-Python work that runs no repro code.

    It mixes what an interpreter written in Python does: dict lookups,
    string building, closure calls and packed reads and writes.
    """
    table: dict[int, int] = {}
    buffer = bytearray(8)
    total = 1
    for value in range(300):
        key = value % 17
        table[key] = table.get(key, 0) + len(str(value))
        total = _OPS[value & 7](total, value)
        _WORD.pack_into(buffer, 0, total)
        total ^= _WORD.unpack_from(buffer, 0)[0] >> 3
    return total + sum(table.values())


class HostSpeed:
    """How fast this host runs Python while the workload runs.

    The speed of a shared host drifts by tens of percent within a minute,
    and CPU time drifts with it, so neither says how fast the program
    is.  Every 50 ms a ``SIGALRM`` handler times :func:`sample_work`
    between the program's bytecodes.  A wall time measured alongside,
    less :meth:`spent` on sampling, times :meth:`scale` is the time the
    reference host would have taken.  A change to the program moves that
    figure as it moves the wall time; a change in the host's speed moves
    the samples as well, and largely cancels out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        sample_work()
        self.samples.append(time.perf_counter() - started)

    def scale(self, since: int = 0, until: int | None = None) -> float:
        """Reference seconds per second while ``samples[since:until]`` were drawn."""
        samples = self.samples[since:until]
        return REFERENCE_SAMPLE_S / statistics.mean(samples) if samples else 1.0

    def spent(self, since: int = 0, until: int | None = None) -> float:
        """Seconds spent drawing ``samples[since:until]``."""
        return sum(self.samples[since:until])


def run(cls, seed: int, mode: str, workdir: str, spans_path: str | None = None) -> dict:
    """Run workload class *cls* in this process and return its record."""
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    speed = HostSpeed()
    if mode != "trace":
        speed.start()
    try:
        return _run(cls, seed, mode, workdir, spans_path, speed)
    finally:
        speed.stop()


def _run(cls, seed: int, mode: str, workdir: str, spans_path: str | None, speed: HostSpeed) -> dict:
    started = time.perf_counter()
    for module in cls.modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    tracer = None
    if mode == "trace":
        from perfbench.tracer import Tracer

        tracer = Tracer(run_id=f"{cls.name}-{seed}-{os.getpid()}")
        tracer.install()
    build_start = time.perf_counter()
    build_sample = len(speed.samples)
    workload = cls(seed, workdir, ROOT)
    workload.build()
    first_unit = time.perf_counter()
    first_sample = len(speed.samples)
    record = {
        "import_s": imported - started,
        "build_s": first_unit - build_start,
        "first_unit_monotonic": time.monotonic(),
        "setup_scale": speed.scale(until=first_sample),
        "setup_sampled_s": speed.spent(until=first_sample),
    }
    if mode == "probe":
        return record
    marks: list[float] = []
    error = None
    try:
        workload.run(lambda offset: marks.append(time.perf_counter()))
    except Exception:  # the run reports the failure instead of dying
        error = traceback.format_exc()
    end = time.perf_counter()
    units_s = (end - first_unit - speed.spent(first_sample)) * speed.scale(first_sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = Counter(f"{layer}.{name}" for name, layer, *_ in tracer.spans)
    attempted = max(workload.attempted, 1)
    identity = counts = None
    if error is None:
        workload.verify()
        identity = workload.identity()
        counts = workload.counts()
    record.update(
        units_wall_s=end - first_unit,
        units_s=units_s,
        window_s=end - build_start - speed.spent(build_sample),
        attempted=attempted,
        failed=attempted if error else min(workload.failed, attempted),
        mismatches=workload.mismatches,
        error=error,
        identity=identity,
        peak_rss_mb=peak_rss_mb,
        seed_walls=[b - a for a, b in zip(marks, marks[1:] + [end])],
    )
    if tracer is not None:
        from perfbench.tracer import layer_metrics

        record["bindings"] = tracer.bindings
        record["layers"] = layer_metrics(tracer, record["window_s"], counts or {})
        if spans_path:
            tracer.dump(spans_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    from perfbench.workloads import WORKLOADS

    record = run(WORKLOADS[args.workload], args.seed, args.mode, args.workdir, args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

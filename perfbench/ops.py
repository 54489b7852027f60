"""The closed loop that every workload runs.

One client: the next operation starts when the previous one has ended.
Operation k uses input k mod n, so inputs repeat in rounds. In a traced
run each input runs twice in a row, untraced and traced, so the tracing
overhead compares like with like; which of the two goes first alternates
from input to input, because the second run of an input finds warm
caches.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Ops:
    times: list[float] = field(default_factory=list)  # untraced operations, seconds
    traced: list[tuple[int, float]] = field(default_factory=list)  # (input index, seconds)
    outputs: dict[int, str] = field(default_factory=dict)  # input index -> first output
    changed: int = 0  # later outputs that differ from the first one for the same input
    attempted: int = 0
    failed: int = 0

    def trace_overhead_s(self) -> float:
        """Traced minus untraced time of the same input: the mean of the
        median over the pairs run untraced first and the median over the
        pairs run traced first, so that the order cancels."""
        diffs = [t - u for u, (_, t) in zip(self.times, self.traced)]
        return (statistics.median(diffs[0::2]) + statistics.median(diffs[1::2])) / 2


class CpuRotation:
    """Moves the given processes, together, to the next CPU before each
    operation.

    Where the cores are shared with other tenants of a virtual machine,
    each core can run fast or slow for seconds at a time. A process the
    scheduler leaves on one core takes that core's speed for a whole run;
    rotating over the allowed CPUs makes every run see their average.
    The client and the server of a closed loop share the CPU: only one of
    them runs at a time, and a reply that wakes a process on another CPU
    waits for the host to schedule that idle virtual CPU, a delay that
    follows the host's load (on a 2-vCPU virtual machine, 100 lookups
    through EndpointTranslator took 2.7 ms a call, IQR/median 0.30 over
    30 blocks, on different CPUs, and 2.2 ms, IQR/median 0.12, on the
    same CPU). Every thread of a process moves, and threads it starts
    later inherit the CPU of the thread that starts them; pid 0 stands
    for the calling thread alone.
    """

    def __init__(self, pids: list[int]):
        self._pids = pids
        self._cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self._turn = 0

    def next(self) -> None:
        if len(self._cpus) < 2:
            return
        cpu = {self._cpus[self._turn % len(self._cpus)]}
        for pid in self._pids:
            _pin(pid, cpu)
        self._turn += 1

    def release(self) -> None:
        if len(self._cpus) >= 2:
            for pid in self._pids:
                _pin(pid, self._cpus)


def _pin(pid: int, cpus) -> None:
    """Set the CPUs of every thread of process `pid`. sched_setaffinity
    acts on one thread, so each of /proc/<pid>/task is set; a thread that
    ends meanwhile is skipped."""
    try:
        threads = [0] if pid == 0 else [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except FileNotFoundError:  # the process has ended
        return
    for tid in threads:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:
            pass


def run_ops(
    op, inputs: int, seconds: float, min_inputs: int, tracer=None, instrument=None, pids=(0,)
) -> Ops:
    """Call op(index) -> (seconds, output text) until `seconds` have
    passed and inputs 0..min_inputs-1 have all run.

    With a tracer, instrument() runs before each traced operation and
    tracer.restore() after it; the traced operation's spans carry its
    sequence number as operation id. The processes in `pids` (0 is this
    one) move together to the next CPU before each operation.
    """
    out = Ops()
    rotation = CpuRotation(list(pids))
    step = 2 if tracer else 1
    deadline = time.perf_counter() + seconds
    k = 0
    try:
        while k < min_inputs * step or time.perf_counter() < deadline:
            index = (k // step) % inputs
            traced = tracer is not None and k % 2 != (k // 2) % 2
            k += 1
            out.attempted += 1
            rotation.next()
            try:
                if traced:
                    tracer.op_id = k
                    instrument()
                    try:
                        elapsed, _ = tracer.call("bench.op", op, index)
                    finally:
                        tracer.restore()
                        tracer.op_id = 0
                    out.traced.append((index, elapsed))
                    continue
                elapsed, text = op(index)
            except Exception as exc:  # a failed operation is counted and the loop goes on
                out.failed += 1
                print(f"operation on input {index} failed: {exc!r}", flush=True)
                continue
            out.times.append(elapsed)
            first = out.outputs.setdefault(index, text)
            if text != first:
                out.changed += 1
    finally:
        rotation.release()
    return out

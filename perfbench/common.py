"""Small helpers shared by the workloads: statistics, spans, processes."""

from __future__ import annotations

import bisect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
HOOK_DIR = os.path.join(HERE, "hook")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (inclusive method; the maximum below 2)."""
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


#: How long one :func:`probe_s` takes on the reference host (the fast
#: phase of a 2-vCPU host). Study times and set-up times are reported
#: at this host speed; see README.md, "Host noise".
PROBE_REFERENCE_S = 0.025


def probe_s() -> float:
    """Seconds for one fixed chunk of pure-Python and NumPy work.

    The chunk calls no program code, so a change to the program cannot
    move it; only the host's speed does. Its arrays have the shape of
    one paper-grid study slice, so it meets the same cache and memory
    pressure as the study.
    """
    import numpy as np

    began = time.perf_counter()
    counts = {}
    for i in range(60000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    a = np.linspace(1.0, 2.0, 267 * 891).reshape(267, 891)
    b = a[::-1].copy()
    for _ in range(12):
        (a * b + np.sqrt(a)).sum()
    return time.perf_counter() - began


def host_factor(probes: Sequence[float]) -> float:
    """Reference over measured probe time: multiply a duration by this
    (divide a rate by it) to state it at the reference host speed."""
    return PROBE_REFERENCE_S / median(probes)


def child_env(root: str, trace_dir: str = "") -> Dict[str, str]:
    """Environment for a program process started from the checkout.

    The program runs from ``src`` of the checkout; temporary files stay
    inside the benchmark's work directory. With *trace_dir*, the hook
    directory goes on the path so ``sitecustomize`` installs tracing.
    """
    env = dict(os.environ)
    paths = [os.path.join(root, "src")]
    if trace_dir:
        paths.insert(0, HOOK_DIR)
        env["GPUSCALE_TRACE_DIR"] = trace_dir
    else:
        env.pop("GPUSCALE_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (VmHWM) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def process_cpu_s(pids: Iterable[int]) -> float:
    """User plus system CPU time of live processes, in seconds."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the command name, which may hold spaces;
            # utime and stime are fields 14 and 15 of the whole line.
            fields = handle.read().rpartition(")")[2].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


#: Host steal above this share of CPU time over a timed run gets a
#: warning on standard error: the run's times are not comparable.
STEAL_WARN_PCT = 5.0


def host_cpu() -> tuple:
    """Host-wide (steal, total) CPU time in ticks, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple, after: tuple, label: str) -> float:
    """Share of host CPU time stolen by the hypervisor between two
    :func:`host_cpu` readings; warns on standard error above
    :data:`STEAL_WARN_PCT`."""
    total = after[1] - before[1]
    share = 100.0 * (after[0] - before[0]) / total if total else 0.0
    if share > STEAL_WARN_PCT:
        print(f"{label}: host steal {share:.1f}% of CPU time during the "
              "timed run; its times are not comparable", file=sys.stderr)
    return share


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def load_spans(directory: str) -> List[List[list]]:
    """Every process's span list written under *directory*."""
    processes = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                processes.append(json.load(handle)["spans"])
    return processes


class SpanTable:
    """Calls, total duration and total self time per span name."""

    def __init__(self, processes: Iterable[Iterable[list]]):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        for spans in processes:
            for name, start, end, child in spans:
                self.calls[name] += 1
                self.total_ns[name] += end - start
                self.self_ns[name] += end - start - max(child, 0)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def total_ms(self, *names: str) -> float:
        return sum(self.total_ns.get(n, 0) for n in names) / 1e6

    def mean_self_ms(self, name: str) -> float:
        calls = self.count(name)
        return self.self_ms(name) / calls if calls else 0.0

    def mean_total_ms(self, name: str) -> float:
        calls = self.count(name)
        return self.total_ms(name) / calls if calls else 0.0


def queue_wait_ms(processes: Iterable[Iterable[list]]) -> float:
    """Mean time from ``MicroBatcher.submit`` to its batch's evaluation.

    A batcher evaluates one batch at a time, so the batch that answered
    a submit is the first evaluation starting after the submit began
    and ending before it returned.
    """
    waits = []
    for spans in processes:
        evaluations = sorted(
            (start, end) for name, start, end, _ in spans
            if name == "batcher.evaluate"
        )
        starts = [start for start, _ in evaluations]
        for name, start, end, _ in spans:
            if name != "batcher.submit":
                continue
            i = bisect.bisect_left(starts, start)
            if i < len(evaluations) and evaluations[i][1] <= end:
                waits.append(evaluations[i][0] - start)
    return statistics.fmean(waits) / 1e6 if waits else 0.0


def result(correct: bool, attempted: int, failed: int,
           metrics: Dict[str, tuple]) -> dict:
    """The result object; ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }

"""The served workloads: ``gpuscale serve`` driven open loop.

``serve-points`` starts one server process and sends seeded point
queries (catalog kernels x paper-grid configurations). ``serve-grids``
starts a ``--workers 2`` fleet on an empty cache directory and sends a
seeded mix over Zipf-drawn kernels x the four families: full-surface
``/v1/simulate`` grids, ``/v1/classify``, ``/v1/optimize`` (objective
and frontier) and a few ``/v1/coschedule`` pair surfaces.

A run starts the server several times (``setup_s`` is the median
launch-to-ready time), then alternates fixed-rate ``low`` and ``high``
blocks with a capacity ladder, all from one continuous request stream.
The rates and latency limits are constants of the workload, never
derived from what the run measures. Correctness is checked after the
server has stopped: sampled responses must be bit-exact against direct
in-process engine calls.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import common
import loadgen


@dataclass(frozen=True)
class Plan:
    """Fixed load settings of one served workload."""

    workers: int
    low_rps: float
    high_rps: float
    #: Latency limit on p90 (ms) for the capacity ladder.
    limit_ms: float
    #: Duration of one capacity-ladder step (s).
    step_s: float


PLANS = {
    "serve-points": Plan(workers=1, low_rps=50.0, high_rps=200.0,
                         limit_ms=10.0, step_s=0.5),
    "serve-grids": Plan(workers=2, low_rps=30.0, high_rps=75.0,
                        limit_ms=40.0, step_s=0.7),
}

#: Cold starts per run; ``setup_s`` is the median of their times, each
#: stated at the reference host speed by a probe taken just before it,
#: as in the study. Latencies and CPU times are reported as measured:
#: they do not follow the host probe (see README.md, "Host noise").
COLD_STARTS = 7

#: Each run alternates low and high blocks with a ladder this often.
CYCLES = 3

#: Shares of one cycle spent in the low block, the high block and the
#: capacity ladder.
LOW_SHARE, HIGH_SHARE, LADDER_SHARE = 0.25, 0.25, 0.5

#: Rate multiplier between capacity-ladder steps before the first miss.
LADDER_RATIO = 1.4

#: Host probes a traced run takes, to report the host's speed.
PROBES = 9

#: Stream positions whose responses the correctness gate checks.
GATE_SAMPLE = 240

#: Zipf exponent of kernel popularity in ``serve-grids``.
ZIPF_S = 1.1

HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------


def _encode(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


def point_stream(seed: int, count: int):
    """Seeded point queries: catalog kernels x paper-grid configs."""
    from repro.suites import all_kernels
    from repro.sweep import PAPER_SPACE

    rng = random.Random(seed)
    names = [kernel.full_name for kernel in all_kernels()]
    specs = []
    for _ in range(count):
        payload = {
            "version": 1,
            "kernel": rng.choice(names),
            "config": {
                "cu_count": rng.choice(PAPER_SPACE.cu_counts),
                "engine_mhz": rng.choice(PAPER_SPACE.engine_mhz),
                "memory_mhz": rng.choice(PAPER_SPACE.memory_mhz),
            },
        }
        specs.append(("/v1/simulate", payload))
    return specs


def grid_stream(seed: int, count: int):
    """Seeded surface queries over Zipf-drawn kernels x families."""
    from repro.gpu.uarch import family_names
    from repro.suites import all_kernels

    rng = random.Random(seed)
    names = [kernel.full_name for kernel in all_kernels()]
    rng.shuffle(names)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(names))]
    families = sorted(family_names())
    kinds = ("simulate", "classify", "optimize", "frontier", "coschedule")
    kind_weights = (0.46, 0.2, 0.16, 0.16, 0.02)
    objectives = ("min_edp", "min_energy", "max_perf")
    specs = []
    for _ in range(count):
        kind = rng.choices(kinds, kind_weights)[0]
        kernel = rng.choices(names, weights)[0]
        family = rng.choice(families)
        if kind == "coschedule":
            payload = {"version": 1, "kernel_a": kernel,
                       "kernel_b": rng.choices(names, weights)[0],
                       "space": family}
        else:
            payload = {"version": 1, "kernel": kernel, "space": family}
        if kind == "optimize":
            payload["objective"] = rng.choice(objectives)
        elif kind == "frontier":
            payload["frontier"] = True
        path = "/v1/" + ("optimize" if kind == "frontier" else kind)
        specs.append((path, payload))
    return specs


def stream_length(plan: Plan, seconds: float) -> int:
    """Arrivals a run can use at most: blocks plus a full ladder."""
    cycle = seconds / CYCLES
    blocks = (plan.low_rps * LOW_SHARE + plan.high_rps * HIGH_SHARE) * cycle
    steps = int(cycle * LADDER_SHARE / plan.step_s)
    ladder = sum(
        plan.high_rps * LADDER_RATIO ** k * plan.step_s + 1
        for k in range(steps)
    )
    return int(CYCLES * (blocks + ladder + 2)) + 16


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------


class Server:
    """One ``gpuscale serve`` process (and its workers)."""

    def __init__(self, root: str, work: str, plan: Plan, name: str,
                 trace_dir: str = ""):
        self.root, self.plan = root, plan
        self.cache_dir = os.path.join(work, f"cache-{name}")
        self.log_path = os.path.join(work, f"{name}.log")
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch; return seconds until healthy and warmed up."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        began = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--host", HOST, "--port", "0",
                 "--workers", str(self.plan.workers),
                 "--cache-dir", self.cache_dir],
                cwd=self.root,
                env=common.child_env(self.root, self.trace_dir),
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self._ready_line(began + 60.0)
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        while self.get("/healthz")[0] != 200:
            if time.perf_counter() > began + 60.0:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)
        status, body = self.post("/v1/simulate", {
            "version": 1, "kernel": "shoc/triad.triad",
            "config": {"cu_count": 44, "engine_mhz": 1000.0,
                       "memory_mhz": 1250.0},
        })
        if status != 200:
            raise RuntimeError(f"warm-up request failed: {body[:200]!r}")
        return time.perf_counter() - began

    def _ready_line(self, deadline: float) -> bytes:
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                return stdout.readline()
            if self.process.poll() is not None:
                break
        return b""

    def _request(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            connection.request(
                method, path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str):
        return self._request("GET", path)

    def post(self, path: str, payload):
        return self._request("POST", path, payload)

    def pids(self) -> List[int]:
        """The server process and its engine workers."""
        health = json.loads(self.get("/healthz")[1])
        return [self.process.pid] + [
            worker["pid"] for worker in health.get("workers", [])
        ]

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then wait; kill if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None


def scrape(text: str) -> Dict[str, float]:
    """Fleet-wide (or single-process) sums from a ``/metrics`` body.

    Keys are ``name`` or ``name{label=value}`` for each non-``worker``
    label, summed over the series of the aggregate view.
    """
    fleet = 'worker="fleet"' in text
    totals: Dict[str, float] = {}
    pattern = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = dict(
            part.strip().split("=", 1)
            for part in (labels or "").split(",") if part.strip()
        )
        worker = pairs.pop("worker", None)
        if fleet and worker != '"fleet"':
            continue
        totals[name] = totals.get(name, 0.0) + float(value)
        for key, label in pairs.items():
            label = label.strip('"')
            series = f"{name}{{{key}={label}}}"
            totals[series] = totals.get(series, 0.0) + float(value)
    return totals


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def _passes(block: loadgen.Block, plan: Plan) -> bool:
    return (
        block.failed == 0
        and block.completed > 0
        and 1e3 * common.p90(block.latencies_s) <= plan.limit_ms
    )


async def _ladder(connections, cursor, plan, budget_s, keep):
    """Highest achieved rate whose p90 meets the limit with no misses.

    Starts at the ``high`` rate and multiplies by ``LADDER_RATIO`` until
    a step misses, then bisects (geometrically) between the highest
    passing and the lowest missing rate for the steps left. If the
    first step misses, the ladder walks down instead.
    """
    rate, best, lowest_miss = plan.high_rps, None, None
    blocks = []
    for _ in range(max(1, int(budget_s / plan.step_s))):
        block = await connections.run_block(cursor, rate, plan.step_s, keep)
        blocks.append(block)
        if _passes(block, plan):
            if best is None or rate > best[0]:
                best = (rate, block.achieved_rps)
            rate = (rate * LADDER_RATIO if lowest_miss is None
                    else math.sqrt(rate * lowest_miss))
        else:
            lowest_miss = rate if lowest_miss is None else min(
                lowest_miss, rate)
            rate = (math.sqrt(best[0] * lowest_miss) if best
                    else rate / LADDER_RATIO)
    return (best[1] if best else 0.0), blocks


async def _timed(servers, cursors, plan, seconds, keep, ladder):
    """Alternate low/high blocks (and ladders) over *servers* in turn.

    Each result also holds ``cpu_s``, the CPU time the server and its
    workers spent during its low and high blocks.
    """
    results = [{"low": [], "high": [], "capacity": [], "other": [],
                "cpu_s": 0.0} for _ in servers]
    pids = [server.pids() for server in servers]
    pools = []
    for server in servers:
        pool = loadgen.Connections(HOST, server.port, _connections())
        await pool.open()
        pools.append(pool)
    cycle = seconds / CYCLES
    try:
        for c in range(CYCLES):
            order = ("low", "high") if c % 2 == 0 else ("high", "low")
            for level in order:
                rate = plan.low_rps if level == "low" else plan.high_rps
                share = LOW_SHARE if level == "low" else HIGH_SHARE
                for out, pool, cursor, ids in zip(results, pools, cursors,
                                                  pids):
                    began = common.process_cpu_s(ids)
                    out[level].append(await pool.run_block(
                        cursor, rate, cycle * share / len(servers), keep))
                    out["cpu_s"] += common.process_cpu_s(ids) - began
            if ladder:
                for out, pool, cursor in zip(results, pools, cursors):
                    capacity, blocks = await _ladder(
                        pool, cursor, plan, cycle * LADDER_SHARE, keep)
                    out["capacity"].append(capacity)
                    out["other"].extend(blocks)
    finally:
        for pool in pools:
            await pool.close()
    return results


def _connections() -> int:
    """At most one connection per core, and at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def _flatten(blocks, attr):
    return [value for block in blocks for value in getattr(block, attr)]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def gate(specs, bodies: Dict[int, bytes]) -> List[str]:
    """Sampled responses against direct in-process engine calls."""
    import numpy as np

    from repro.gpu.config import HardwareConfig
    from repro.gpu.simulator import GpuSimulator
    from repro.gpu.uarch import get_family
    from repro.suites import kernel_by_name
    from repro.sweep.dataset import KernelRecord, ScalingDataset
    from repro.taxonomy import classify

    simulator = GpuSimulator("interval")
    problems = []
    for index in sorted(bodies):
        path, payload = specs[index]
        answer = json.loads(bodies[index])
        if path == "/v1/simulate" and "config" in payload:
            config = payload["config"]
            expected = simulator.simulate(
                kernel_by_name(payload["kernel"]),
                HardwareConfig(config["cu_count"], config["engine_mhz"],
                               config["memory_mhz"]),
            )
            if (answer["items_per_second"] != expected.items_per_second
                    or answer["time_s"] != expected.time_s):
                problems.append(f"point {index} differs: {payload}")
        elif path in ("/v1/simulate", "/v1/classify"):
            space = get_family(payload["space"]).space
            kernel = kernel_by_name(payload["kernel"])
            expected = np.asarray(
                simulator.simulate_grid(kernel, space).items_per_second
            )
            if path == "/v1/simulate":
                if not np.array_equal(
                        np.asarray(answer["items_per_second"]), expected):
                    problems.append(f"grid {index} differs: {payload}")
                continue
            dataset = ScalingDataset(
                space, [KernelRecord.from_full_name(kernel.full_name)],
                expected[np.newaxis, ...],
            )
            category = classify(dataset).labels[0].category.value
            if answer["category"] != category:
                problems.append(f"classify {index} differs: {payload}")
    return problems


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(root: str, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    plan = PLANS[workload]
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(root, work, workload, plan, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def _run(root, work, workload, plan, seed, seconds, trace) -> dict:
    make = point_stream if workload == "serve-points" else grid_stream
    specs = make(seed, stream_length(plan, seconds))
    stream = [_encode(path, payload) for path, payload in specs]
    keep = frozenset(random.Random(seed ^ 0x5EED).sample(
        range(len(stream)), min(GATE_SAMPLE, len(stream))))

    if trace:
        return _traced(root, work, plan, specs, stream, keep, seconds)

    setups = []
    for attempt in range(COLD_STARTS):
        server = Server(root, work, plan, f"server{attempt}")
        try:
            factor = common.host_factor([common.probe_s()])
            setups.append(server.start() * factor)
        except BaseException:
            server.stop()
            raise
        if attempt < COLD_STARTS - 1:
            server.stop()
    try:
        host = common.host_cpu()
        (result,) = asyncio.run(_timed(
            [server], [loadgen.Cursor(stream)], plan, seconds, keep, True))
        steal = common.steal_pct(host, common.host_cpu(), workload)
        rss_mb = common.peak_rss_mb(server.pids())
        counts = scrape(server.get("/metrics")[1].decode())
    finally:
        server.stop()
    hits, misses = _cache_events(counts)
    print(f"{workload}: cache hits {hits:.0f}, misses {misses:.0f}; "
          f"host steal {steal:.1f}%", file=sys.stderr)

    blocks = result["low"] + result["high"] + result["other"]
    attempted = sum(block.scheduled for block in blocks)
    failed = sum(block.failed for block in blocks)
    bodies = {k: v for block in blocks for k, v in block.bodies.items()}
    problems = gate(specs, bodies)
    for problem in problems:
        print(f"{workload}: correctness: {problem}", file=sys.stderr)
    # Points answered per CPU-second of the server and its workers in
    # the fixed-rate blocks: the offered load is fixed there, so this
    # follows the program's cost per point (engine, cache, encoding).
    fixed = result["low"] + result["high"]
    sizes = _points(specs)
    points = sum(sizes[i] for block in fixed for i in block.answered)
    low = _flatten(result["low"], "latencies_s")
    high = _flatten(result["high"], "latencies_s")
    return common.result(not problems, attempted, failed, {
        "setup_s": (common.median(setups), "s"),
        "rss_mb": (rss_mb, "MB"),
        "pts_per_s": (points / result["cpu_s"], "1/s"),
        "p50_ms_low": (1e3 * common.median(low), "ms"),
        "p90_ms_low": (_block_p90_ms(result["low"]), "ms"),
        "p50_ms_high": (1e3 * common.median(high), "ms"),
        "p90_ms_high": (_block_p90_ms(result["high"]), "ms"),
        # Each ladder lands on one of a few discrete rates near the knee;
        # their mean moves less between runs than their median.
        "capacity_rps": (statistics.fmean(result["capacity"]), "1/s"),
    })


def _cache_events(counts) -> tuple:
    """(hits, misses) of the sweep cache from scraped ``/metrics``."""
    return (counts.get("gpuscale_cache_events_total{outcome=hit}", 0.0),
            counts.get("gpuscale_cache_events_total{outcome=miss}", 0.0))


def _block_p90_ms(blocks) -> float:
    """Median over *blocks* of each block's p90 latency (ms).

    A burst of host steal time lasting seconds fills the tail of the
    blocks it lands on; taking the median block keeps one such burst
    from setting the whole run's p90.
    """
    return 1e3 * common.median(
        [common.p90(block.latencies_s) for block in blocks]
    )


def _points(specs) -> List[int]:
    """Configuration points each request of the stream asks for: one
    for a point query, the whole family grid for a surface query."""
    from repro.gpu.uarch import get_family

    return [
        get_family(payload["space"]).space.size if "space" in payload
        else 1
        for _path, payload in specs
    ]


def _traced(root, work, plan, specs, stream, keep, seconds) -> dict:
    """Per-layer run: a traced and an untraced server, blocks alternated.

    Both servers get the same stream from its start; the difference in
    their low-rate median latency is the tracing overhead.
    """
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    probes = [common.probe_s() for _ in range(PROBES)]
    plain = Server(root, work, plan, "plain")
    traced = Server(root, work, plan, "traced", trace_dir)
    try:
        plain.start()
        traced.start()
        host = common.host_cpu()
        results = asyncio.run(_timed(
            [plain, traced],
            [loadgen.Cursor(stream), loadgen.Cursor(stream)],
            plan, seconds, keep, False))
        steal = common.steal_pct(host, common.host_cpu(), "traced run")
        counts = scrape(traced.get("/metrics")[1].decode())
    finally:
        plain.stop()
        traced.stop()
    plain_result, traced_result = results
    blocks = traced_result["low"] + traced_result["high"]
    everything = blocks + plain_result["low"] + plain_result["high"]
    attempted = sum(block.scheduled for block in everything)
    failed = sum(block.failed for block in everything)
    bodies = {k: v for block in everything for k, v in block.bodies.items()}
    problems = gate(specs, bodies)
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)

    processes = common.load_spans(trace_dir)
    spans = common.SpanTable(processes)
    requests = sum(block.completed for block in blocks) or 1
    served = counts.get("gpuscale_request_latency_seconds_count", 0.0)
    request_ms = (1e3 * counts.get("gpuscale_request_latency_seconds_sum",
                                   0.0) / served if served else 0.0)
    submit = "router.submit" if plan.workers > 1 else "batcher.submit"
    # Router-side submits only: worker processes have no router spans,
    # and a single process has exactly one batcher.
    submit_ms = spans.total_ms(submit) / served if served else 0.0
    hits, misses = _cache_events(counts)
    batches = counts.get("gpuscale_batch_size_count", 0.0)
    plain_low = common.median(_flatten(plain_result["low"], "latencies_s"))
    traced_low = common.median(_flatten(traced_result["low"],
                                        "latencies_s"))
    client_ms = 1e3 * statistics.fmean(_flatten(blocks, "send_s"))
    worker_submit_ms = (
        spans.mean_total_ms("batcher.submit") if plan.workers > 1 else 0.0
    )
    metrics = {
        "gpu.study_ms": (spans.mean_self_ms("gpu.study"), "ms"),
        "gpu.grid_ms": (spans.mean_self_ms("gpu.grid"), "ms"),
        "gpu.point_us": (1e3 * spans.mean_self_ms("gpu.point"), "us"),
        "gpu.calls.point": (counts.get(
            "gpuscale_engine_calls_total{shape=point}", 0.0) / requests,
            "count"),
        "gpu.calls.grid": ((counts.get(
            "gpuscale_engine_calls_total{shape=grid}", 0.0) + counts.get(
            "gpuscale_engine_calls_total{shape=energy}", 0.0)) / requests,
            "count"),
        "gpu.calls.study": (counts.get(
            "gpuscale_engine_calls_total{shape=study}", 0.0) / requests,
            "count"),
        "kernels.fingerprint_ms": (
            spans.mean_self_ms("kernels.fingerprint"), "ms"),
        "kernels.pack_ms": (spans.mean_self_ms("kernels.pack"), "ms"),
        "kernels.fingerprint_calls": (
            spans.count("kernels.fingerprint") / requests, "count"),
        "taxonomy.classify_req_ms": (
            spans.mean_self_ms("taxonomy.classify"), "ms"),
        "cache.load_ms": (spans.mean_self_ms("cache.load"), "ms"),
        "cache.store_ms": (spans.mean_self_ms("cache.store"), "ms"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else
                            0.0, "ratio"),
        "power.surfaces_ms": (spans.mean_self_ms("power.surfaces"), "ms"),
        "coschedule.pair_surface_ms": (
            spans.mean_self_ms("coschedule.pair_surface"), "ms"),
        "schema.parse_us": (1e3 * spans.mean_self_ms("schema.parse"), "us"),
        "batcher.queue_wait_ms": (common.queue_wait_ms(processes), "ms"),
        "batcher.batch_size_mean": (
            counts.get("gpuscale_batch_size_sum", 0.0) / batches
            if batches else 0.0, "count"),
        "batcher.batches": (batches, "count"),
        "server.request_ms": (request_ms, "ms"),
        "server.self_ms": (request_ms - submit_ms, "ms"),
        "client.wire_ms": (client_ms - request_ms, "ms"),
        "router.roundtrip_ms": (
            spans.mean_total_ms("router.submit") - worker_submit_ms
            if plan.workers > 1 else 0.0, "ms"),
        "transport.frames": (
            spans.count("transport.send_frame") / requests, "count"),
        "transport.shm_frames": (
            spans.count("transport.encode_result.grid-shm") / requests,
            "count"),
        "loadgen.late_ms_p90": (
            1e3 * common.p90(_flatten(everything, "late_s")), "ms"),
        "loadgen.unsent": (sum(b.unsent for b in everything), "count"),
        "trace.overhead_ms": (1e3 * (traced_low - plain_low), "ms"),
        "trace.overhead_pct": (
            100.0 * (traced_low - plain_low) / plain_low
            if plain_low else 0.0, "%"),
        "host.probe_ms": (1e3 * common.median(probes), "ms"),
        "host.steal_pct": (steal, "%"),
    }
    return common.result(not problems, attempted, failed, metrics)

"""The ``study`` workload: the paper's offline pipeline, closed loop.

One caller in one process runs rounds of the full 267-kernel study on
each family's canonical grid through ``SweepRunner(grid_mode="study")``
and classifies every dataset with ``taxonomy.classify``. The parent
(:func:`run`) starts the study process several times: each start is a
cold start (interpreter, imports, catalog, first round) and counts
toward ``setup_s``; the last one goes on to the timed rounds.

Run as a script, this file is that study process (``--child``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time

import common

#: Cold starts per run; ``setup_s`` is the median of their times, each
#: stated at the reference host speed by a probe taken just before it.
COLD_STARTS = 7

#: ``low`` and ``high`` latencies are those of the smallest and the
#: largest family grid.
LOW_FAMILY, HIGH_FAMILY = "kaveri", "hawaii"

#: Spans that enclose all the work of one family study; a traced run
#: fails unless each records exactly one call per traced study.
TOP_LEVEL = ("sweep.run", "taxonomy.classify")

#: Kernels per family checked bit-exact against the scalar oracle.
ORACLE_SAMPLE = 4


def _start(root: str, argv):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", *argv],
        cwd=root,
        env=common.child_env(root),
        stdout=subprocess.PIPE,
        text=True,
    )


def _wait_ready(process) -> None:
    line = process.stdout.readline()
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"study process did not start: {line!r}")


def run(root: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = ["--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    setups = []
    for attempt in range(COLD_STARTS):
        factor = common.host_factor([common.probe_s()])
        began = time.perf_counter()
        measure = attempt == COLD_STARTS - 1
        process = _start(root, argv + (["--measure"] if measure else []))
        try:
            _wait_ready(process)
            setups.append((time.perf_counter() - began) * factor)
            if measure:
                host = common.host_cpu()
                out, _ = process.communicate(timeout=seconds + 120)
                steal = common.steal_pct(host, common.host_cpu(), "study")
                print(f"study: host steal {steal:.1f}%", file=sys.stderr)
            else:
                process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"study process exited {process.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    gate = report["gate"]
    for problem in gate["problems"]:
        print(f"study: correctness: {problem}", file=sys.stderr)
    attempted = len(report["round_flags"]) * report["families"]
    correct = gate["ok"]
    if trace:
        metrics = _layer_metrics(report)
        metrics["host.steal_pct"] = (steal, "%")
        table = common.SpanTable([report["spans"]])
        studies = _traced_studies(report)
        for name in TOP_LEVEL:
            if table.count(name) != studies:
                print(f"study: {table.count(name)} {name} spans for "
                      f"{studies} traced family studies", file=sys.stderr)
                correct = False
    else:
        metrics = _end_to_end(report, common.median(setups))
    return common.result(correct, attempted, 0, metrics)


def _end_to_end(report, setup_s):
    """Study metrics, every duration stated at the reference host speed.

    The host runs this process 1.3-1.8x slower for minutes at a time;
    the probe rounds interleaved with the study rounds slow down by the
    same factor, so scaling by them keeps runs comparable.
    """
    probes = report["probes"]
    # Round i ran between probes i and i + 1.
    factors = [common.host_factor(probes[i:i + 2])
               for i in range(len(probes) - 1)]
    rounds = [dt * factors[i] for i, dt in report["rounds"]]
    points = report["points_per_round"]
    low = [dt * factors[i] for fam, dt, _, i in report["studies"]
           if fam == LOW_FAMILY]
    high = [dt * factors[i] for fam, dt, _, i in report["studies"]
            if fam == HIGH_FAMILY]
    round_s = common.median(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "rss_mb": (report["rss_mb"], "MB"),
        "pts_per_s": (points / round_s, "1/s"),
        "p50_ms_low": (1e3 * common.median(low), "ms"),
        "p90_ms_low": (1e3 * common.p90(low), "ms"),
        "p50_ms_high": (1e3 * common.median(high), "ms"),
        "p90_ms_high": (1e3 * common.p90(high), "ms"),
        "capacity_rps": (report["families"] / round_s, "1/s"),
    }


def _traced_studies(report) -> int:
    traced = sum(1 for _dt, was_traced in report["round_flags"]
                 if was_traced)
    return traced * report["families"]


def _layer_metrics(report):
    """Per-layer self times per family study, from the traced rounds.

    ``trace.attributed_pct`` is the share of the traced rounds' own
    wall time that the layer spans cover: work done outside every
    wrapped call (the loop itself, a layer that lost its span) lowers
    it. The overhead compares traced with untraced rounds.
    """
    table = common.SpanTable([report["spans"]])
    traced = [dt for dt, was_traced in report["round_flags"] if was_traced]
    plain = [dt for dt, was_traced in report["round_flags"]
             if not was_traced]
    studies = max(_traced_studies(report), 1)
    covered_ms = sum(table.self_ms(name) for name in table.calls)
    untraced_ms = 1e3 * common.median(plain) / report["families"]
    traced_ms = 1e3 * common.median(traced) / report["families"]
    overhead_ms = traced_ms - untraced_ms
    return {
        "kernels.fingerprint_ms": (
            table.self_ms("kernels.fingerprint") / studies, "ms"),
        "kernels.pack_ms": (table.self_ms("kernels.pack") / studies, "ms"),
        "kernels.fingerprint_calls": (
            table.count("kernels.fingerprint") / studies, "count"),
        "gpu.study_ms": (table.self_ms("gpu.study") / studies, "ms"),
        "gpu.calls.study": (table.count("gpu.study") / studies, "count"),
        "sweep.assemble_ms": (table.self_ms("sweep.run") / studies, "ms"),
        "taxonomy.classify_ms": (
            table.self_ms("taxonomy.classify") / studies, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.overhead_pct": (100.0 * overhead_ms / untraced_ms, "%"),
        "trace.attributed_pct": (
            100.0 * covered_ms / (1e3 * sum(traced)), "%"),
        "host.probe_ms": (1e3 * common.median(report["probes"]), "ms"),
    }


# ----------------------------------------------------------------------
# The study process
# ----------------------------------------------------------------------


def _child(args) -> int:
    import numpy as np

    from repro.gpu.uarch import list_families
    from repro.suites import all_kernels
    import repro.taxonomy as taxonomy
    from repro.sweep import SweepRunner

    kernels = all_kernels()
    families = list(list_families())
    runner = SweepRunner(grid_mode="study")
    rng = random.Random(args.seed)
    last = {}

    def one_round(record):
        order = families[:]
        rng.shuffle(order)
        for family in order:
            began = time.perf_counter()
            dataset = runner.run(kernels, family.space)
            # Looked up on the module at each call so that a traced
            # round reaches the installed wrapper.
            result = taxonomy.classify(dataset)
            record.append((family.name, time.perf_counter() - began))
            last[family.name] = (dataset, result)

    one_round([])
    print("ready", flush=True)
    if not args.measure:
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, common.HOOK_DIR)
        import gpuscale_trace

        tracer = gpuscale_trace.Tracer()
    studies, round_flags, probes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        probes.append(common.probe_s())
        traced = tracer is not None and len(round_flags) % 2 == 1
        if traced:
            tracer.install()
        record = []
        began = time.perf_counter()
        one_round(record)
        round_flags.append((time.perf_counter() - began, traced))
        if traced:
            tracer.uninstall()
        studies.extend(
            (name, dt, traced, len(round_flags) - 1) for name, dt in record
        )
        if time.perf_counter() >= deadline:
            probes.append(common.probe_s())
            break

    gate = _gate(args.seed, kernels, families, last, np)
    rounds = [(i, dt) for i, (dt, was_traced) in enumerate(round_flags)
              if not was_traced]
    print(json.dumps({
        "families": len(families),
        "points_per_round": sum(
            len(kernels) * family.space.size for family in families
        ),
        "rounds": rounds,
        "probes": probes,
        "round_flags": round_flags,
        "studies": [s for s in studies if not s[2]],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "gate": gate,
        "spans": tracer.spans if tracer is not None else [],
    }))
    return 0


def _gate(seed, kernels, families, last, np):
    """Correctness, outside the timed rounds.

    The hawaii taxonomy counts must equal the published table
    (``artifacts/T3.json``), and a seeded sample of rows per family
    must be bit-exact against the scalar one-point-at-a-time oracle.
    """
    from repro.sweep import SweepRunner

    problems = []
    with open(os.path.join("artifacts", "T3.json")) as handle:
        expected = json.load(handle)["counts"]
    _dataset, result = last["hawaii"]
    counts = {c.value: n for c, n in result.category_counts().items()}
    if counts != expected:
        problems.append(f"hawaii taxonomy counts {counts} != {expected}")
    oracle = SweepRunner(grid_mode="scalar")
    rng = random.Random(seed ^ 0x5EED)
    checked = 0
    for family in families:
        dataset, _result = last[family.name]
        rows = sorted(rng.sample(range(len(kernels)), ORACLE_SAMPLE))
        reference = oracle.run([kernels[i] for i in rows], family.space)
        for j, row in enumerate(rows):
            checked += 1
            if not np.array_equal(dataset.perf[row], reference.perf[j]):
                problems.append(
                    f"{family.name}: {kernels[row].full_name} differs "
                    "from the scalar oracle"
                )
    return {"ok": not problems, "checked": checked, "problems": problems}


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--measure", action="store_true")
    sys.exit(_child(parser.parse_args()))

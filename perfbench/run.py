"""Run one benchmark workload and print its result as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics. The exit code is
non-zero when the correctness gate fails or the checkout holds no
program to measure. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


WORKLOADS = ("study", "serve-points", "serve-grids")

#: Units of the per-layer metrics, in the order they are reported.
#: A traced run reports every one of them; a layer its workload does
#: not reach reads 0.
PER_LAYER = {
    "kernels.fingerprint_ms": "ms",
    "kernels.pack_ms": "ms",
    "kernels.fingerprint_calls": "count",
    "gpu.study_ms": "ms",
    "gpu.grid_ms": "ms",
    "gpu.point_us": "us",
    "gpu.calls.point": "count",
    "gpu.calls.grid": "count",
    "gpu.calls.study": "count",
    "sweep.assemble_ms": "ms",
    "taxonomy.classify_ms": "ms",
    "taxonomy.classify_req_ms": "ms",
    "cache.load_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "power.surfaces_ms": "ms",
    "coschedule.pair_surface_ms": "ms",
    "schema.parse_us": "us",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.batches": "count",
    "server.request_ms": "ms",
    "server.self_ms": "ms",
    "client.wire_ms": "ms",
    "router.roundtrip_ms": "ms",
    "transport.frames": "count",
    "transport.shm_frames": "count",
    "loadgen.late_ms_p90": "ms",
    "loadgen.unsent": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
    "host.probe_ms": "ms",
    "host.steal_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program under ./src/repro; run this from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload == "study":
        import study

        result = study.run(root, args.seed, args.seconds, bool(args.trace))
    else:
        import serve

        result = serve.run(root, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if args.trace:
        reported = result["metrics"]
        result["metrics"] = {
            name: reported.get(name, {"value": 0.0, "unit": unit})
            for name, unit in PER_LAYER.items()
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())

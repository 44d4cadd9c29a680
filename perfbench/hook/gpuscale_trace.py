"""In-memory span tracing around the public functions of each layer.

The benchmark's traced runs wrap the functions listed in ``TARGETS``
from outside the program: the study process calls :func:`install`
itself, and ``sitecustomize.py`` beside this file installs the
wrappers in every server and fleet-worker process that starts with
``GPUSCALE_TRACE_DIR`` set (spawned workers inherit the environment).

A synchronous span records its own duration and the time its child
spans on the same thread covered, so its self time is exact. A
coroutine span (``submit`` on the batcher and the fleet router) runs
interleaved with other requests on one event loop, so it records its
duration only. Spans stay in memory and are written as one JSON file
per process when the process exits, or when :func:`dump` is called.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name). Methods are patched on their
#: class; module-level functions are patched in their module and in
#: every loaded ``repro`` module that imported them by name.
TARGETS = (
    ("repro.kernels.pack", "catalog_fingerprint", "kernels.fingerprint"),
    ("repro.kernels.pack", "memoized_pack", "kernels.pack"),
    ("repro.kernels.pack", "KernelPack.from_kernels", "kernels.pack"),
    ("repro.gpu.interval_batch", "BatchIntervalModel.simulate_study",
     "gpu.study"),
    ("repro.gpu.interval_batch", "BatchIntervalModel.simulate_grid",
     "gpu.grid"),
    ("repro.gpu.simulator", "GpuSimulator.simulate", "gpu.point"),
    ("repro.sweep.runner", "SweepRunner.run", "sweep.run"),
    ("repro.taxonomy.classifier", "classify", "taxonomy.classify"),
    ("repro.sweep.cache", "SweepCache.load", "cache.load"),
    ("repro.sweep.cache", "SweepCache.store", "cache.store"),
    ("repro.power.energy", "EnergyModel.surfaces", "power.surfaces"),
    ("repro.coschedule.model", "CoScheduleModel.pair_surface",
     "coschedule.pair_surface"),
    ("repro.service.schema", "parse_simulate", "schema.parse"),
    ("repro.service.schema", "parse_classify", "schema.parse"),
    ("repro.service.schema", "parse_optimize", "schema.parse"),
    ("repro.service.schema", "parse_coschedule", "schema.parse"),
    ("repro.service.batcher", "MicroBatcher.submit", "batcher.submit"),
    ("repro.service.batcher", "MicroBatcher._evaluate",
     "batcher.evaluate"),
    ("repro.service.router", "FleetExecutor.submit", "router.submit"),
    ("repro.service.transport", "send_frame", "transport.send_frame"),
    ("repro.service.transport", "encode_result",
     "transport.encode_result"),
)


class Tracer:
    """Collects spans for one process.

    Each span is ``(name, start_ns, end_ns, child_ns)``; ``child_ns``
    is ``-1`` for coroutine spans, whose children are not attributed.
    ``encode_result`` spans carry the wire kind in the name suffix so
    shared-memory frames can be counted.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        (name, start, time.perf_counter_ns(), -1)
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0)
            start = time.perf_counter_ns()
            label = name
            try:
                result = fn(*args, **kwargs)
                if name == "transport.encode_result":
                    label = f"{name}.{result[0]}"
                return result
            finally:
                end = time.perf_counter_ns()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                self.spans.append((label, start, end, child))

        return traced

    def install(self):
        """Patch every target that exists in this checkout."""
        for module_name, path, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, span))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(raw.__func__, span))
            else:
                patched = self.wrap(raw, span)
            self._replace(owner, attr, raw, patched, every_module=not
                          owner_name)

    def _replace(self, owner, attr, raw, patched, every_module):
        setattr(owner, attr, patched)
        self._patched.append((owner, attr, raw))
        if not every_module:
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, patched)
                    self._patched.append((module, key, raw))

    def uninstall(self):
        """Restore every patched attribute."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def dump(self, path):
        """Write the recorded spans as JSON."""
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def install_from_environment():
    """Trace this process when ``GPUSCALE_TRACE_DIR`` names a directory."""
    directory = os.environ.get("GPUSCALE_TRACE_DIR")
    if not directory:
        return None
    tracer = Tracer()
    tracer.install()
    atexit.register(
        tracer.dump,
        os.path.join(directory, f"spans-{os.getpid()}.json"),
    )
    return tracer

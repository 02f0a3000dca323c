"""The traced run's instruments: spans, a stack sampler, and layer rollups.

Everything is recorded from the benchmark's own files.  :func:`install`
wraps the public seams a sweep point passes through —
``SweepRunner.run_point`` / ``lookup`` / ``install``, the runner's
``simulate`` and ``EnergyModel`` and ``Workload.streams`` — with span
recorders, for the traced run only.  Forked socket workers inherit the
wrappers; they flush their spans and samples after every point, because
the backend terminates them at sweep end instead of letting them exit.

Per-layer self time comes from :class:`Sampler`, a thread that reads the
target thread's stack every ``interval`` seconds and charges the time
since its previous sample to the layer of the innermost ``repro`` frame.
CPython lets the sampler run only where the target thread checks for
pending work (function entry, backward jumps, returns from C calls), so
time in straight-line code is charged to the next such check; the
``control`` script measures how far that moves the ``workloads`` layer.
The sampler also shortens the interpreter's switch interval, so that it
is let in at the next such check rather than when the target thread
next blocks: with the default 5 ms, a server that blocks in ``select``
between sub-millisecond requests would only ever be sampled at its I/O.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

import common

_REPRO = os.path.join(os.path.realpath(common.SRC), "repro") + os.sep

#: switch interval while a sampler runs (CPython's default is 5 ms)
SWITCH_INTERVAL_S = 1e-5

#: file (relative to ``src/repro``) → layer, for files split off a package
_FILE_LAYERS = {
    "hierarchy/l1.py": "l1",
    "cache/write_buffer.py": "l1",
    "harness/query.py": "query",
    "harness/figures.py": "query",
    "serving/wire.py": "query",
    "harness/result_cache.py": "result_cache",
}

#: top-level package → layer
_PACKAGE_LAYERS = {
    "workloads": "workloads",
    "traces": "workloads",
    "cpu": "cpu",
    "sim": "sim",
    "hierarchy": "l2",
    "cache": "l2",
    "coherence": "coherence",
    "core": "decay",
    "power": "energy",
    "thermal": "energy",
    "harness": "harness",
    "scenarios": "harness",
    "serving": "serving",
}

def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a source file, ``None`` outside ``src/repro``."""
    path = os.path.realpath(filename)
    if not path.startswith(_REPRO):
        return None
    rel = path[len(_REPRO):].replace(os.sep, "/")
    if rel in _FILE_LAYERS:
        return _FILE_LAYERS[rel]
    if rel.startswith("harness/backends/"):
        return "backend"
    return _PACKAGE_LAYERS.get(rel.split("/", 1)[0], "harness")


class Sampler(threading.Thread):
    """Charges wall time to the layer of the target thread's stack."""

    def __init__(self, target_ident: int, interval: float = 0.002) -> None:
        super().__init__(daemon=True, name="perfbench-sampler")
        self.target = target_ident
        self.interval = interval
        self.totals: Dict[str, float] = {}
        self.samples = 0
        self._bucket: Dict[str, float] = {}
        self._layers: Dict[str, Optional[str]] = {}
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)

    def _classify(self, frame) -> str:
        top = frame
        while frame is not None:
            name = frame.f_code.co_filename
            layer = self._layers.get(name, "?")
            if layer == "?":
                layer = self._layers[name] = layer_of_file(name)
            if layer is not None:
                return layer
            frame = frame.f_back
        # no repro frame: a server blocked in its selector is idle
        return "idle" if top.f_code.co_name in ("select", "poll") else "other"

    def run(self) -> None:
        last = time.perf_counter()
        while not self._stop_event.wait(self.interval):
            frame = sys._current_frames().get(self.target)
            now = time.perf_counter()
            if frame is None:
                last = now
                continue
            layer = self._classify(frame)
            with self._lock:
                self._bucket[layer] = self._bucket.get(layer, 0.0) + now - last
                self.totals[layer] = self.totals.get(layer, 0.0) + now - last
                self.samples += 1
            last = now

    def take(self) -> Dict[str, float]:
        """Return and reset the time charged since the previous ``take``."""
        with self._lock:
            out, self._bucket = self._bucket, {}
        return out

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5)
        sys.setswitchinterval(self._switch_interval)


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self, flush_dir: Optional[str] = None) -> None:
        self.pid = os.getpid()
        self.flush_dir = flush_dir
        self.spans: List[dict] = []
        self.points: List[dict] = []
        self.streams_built = 0
        self.sampler: Optional[Sampler] = None
        self._current: Optional[dict] = None

    # -- per-process state --------------------------------------------
    def _ensure_process(self) -> None:
        """A forked worker starts with empty buffers and its own sampler."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.points = [], []
            self.streams_built = 0
            self.sampler = None
        if self.sampler is None:
            self.sampler = Sampler(threading.get_ident())
            self.sampler.start()

    def stop(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
            self.sampler = None

    def span(self, name: str, ident: str, parent: Optional[str], start: float,
             end: float) -> None:
        self.spans.append({"name": name, "id": ident, "parent": parent,
                           "start": start, "end": end, "pid": os.getpid()})

    def _flush(self, record: dict, spans: List[dict]) -> None:
        """Append one finished point to this worker's file."""
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"point": record, "spans": spans}) + "\n")


def install(flush_dir: Optional[str] = None) -> Tracer:
    """Wrap the point seams with span recorders; call once per process.

    The wrappers replace class and module attributes, so they apply to
    every runner in this process and in the workers it forks.
    """
    tracer = Tracer(flush_dir)

    from repro.harness import runner as runner_mod
    from repro.sim.simulator import Simulator
    from repro.workloads.trace import Workload

    SweepRunner = runner_mod.SweepRunner
    orig_run_point = SweepRunner.run_point
    orig_lookup = SweepRunner.lookup
    orig_install = SweepRunner.install
    orig_streams = Workload.streams
    BaseEnergy = runner_mod.EnergyModel

    def run_point(self, point):
        tracer._ensure_process()
        key = self.point_key(point)
        spans_before = len(tracer.spans)
        built_before = tracer.streams_built
        tracer.sampler.take()
        rec = tracer._current = {"key": key, "scheduler": None}
        t0 = time.perf_counter()
        try:
            return orig_run_point(self, point)
        finally:
            t1 = time.perf_counter()
            tracer._current = None
            tracer.span("point", key, None, t0, t1)
            rec["layers"] = tracer.sampler.take()
            rec["streams_built"] = tracer.streams_built - built_before
            tracer.points.append(rec)
            if tracer.flush_dir is not None:
                tracer._flush(rec, tracer.spans[spans_before:])

    def lookup(self, point):
        t0 = time.perf_counter()
        try:
            return orig_lookup(self, point)
        finally:
            parent = tracer._current["key"] if tracer._current else None
            tracer.span("lookup", self.point_key(point), parent, t0,
                        time.perf_counter())

    def install_(self, point, res, energy, write_cache=True, provenance=None):
        t0 = time.perf_counter()
        try:
            return orig_install(self, point, res, energy,
                                write_cache=write_cache, provenance=provenance)
        finally:
            parent = tracer._current["key"] if tracer._current else None
            tracer.span("install", self.point_key(point), parent, t0,
                        time.perf_counter())

    def simulate(cfg, workload, **kwargs):
        sim = Simulator(cfg)
        t0 = time.perf_counter()
        try:
            return sim.run(workload, **kwargs)
        finally:
            cur = tracer._current
            sched = sim.system.scheduler
            if cur is not None:
                cur["scheduler"] = {"fires": sched.fires, "pops": sched.pops,
                                    "refreshes": sched.refreshes}
            tracer.span("simulate", cur["key"] if cur else "?",
                        cur["key"] if cur else None, t0, time.perf_counter())

    class EnergyModel(BaseEnergy):
        def evaluate(self, res, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return super().evaluate(res, *args, **kwargs)
            finally:
                cur = tracer._current
                tracer.span("energy", cur["key"] if cur else "?",
                            cur["key"] if cur else None, t0,
                            time.perf_counter())

    def streams(self, n_cores):
        tracer.streams_built += 1
        return orig_streams(self, n_cores)

    SweepRunner.run_point = run_point
    SweepRunner.lookup = lookup
    SweepRunner.install = install_
    runner_mod.simulate = simulate
    runner_mod.EnergyModel = EnergyModel
    Workload.streams = streams
    return tracer


def read_worker_files(flush_dir: str) -> List[dict]:
    """Every point record flushed by forked workers."""
    out: List[dict] = []
    for name in sorted(os.listdir(flush_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(flush_dir, name)) as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out

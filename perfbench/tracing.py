"""Span tracing from outside the program, for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :class:`Tracer` keeps
spans in memory; :func:`install` replaces a fixed set of public entry
points (classes' methods and module functions) with wrappers that open
a span around the original call, and the returned undo list puts every
original back.  The layers that have no per-call public boundary
(``core``, ``ahb``, ``ddr``, ``kernel``, ``rtl``) are measured by a
deterministic profiler that is switched on only inside platform
``run()`` spans; :func:`module_self_times` folds its rows into
``<pkg>/<module>`` self times.

A span is ``(id, name, start, end, parent, request, pid)``; times are
``time.perf_counter`` seconds, which is the system-wide monotonic
clock on Linux, so spans written by the server and its pool workers
line up with the load generator's.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, int, str, int]

#: Source files of the measured program, ``.../src/repro/``.
REPRO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro", ""
)


class Tracer:
    """In-memory spans and counts of one process.

    Any thread may open spans (appends are atomic); each count is
    updated by one thread only, as the wrappers below arrange.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._reset()

    def _reset(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.profiler = cProfile.Profile()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether the calling thread is inside an open span *name*."""
        return any(open_name == name for _sid, open_name in self._stack())

    def adopt_process(self) -> None:
        """Forget what a forked-from parent had recorded."""
        if os.getpid() != self._pid:
            self._reset()

    def set_request(self, request: str) -> None:
        """Tag the calling thread's following spans with *request*."""
        self._local.request = request

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (
                    sid,
                    name,
                    start,
                    end,
                    parent,
                    getattr(self._local, "request", ""),
                    self._pid,
                )
            )

    def profiled(self, func: Callable, *args, **kwargs):
        """Run *func* with the deterministic profiler switched on."""
        self.profiler.enable()
        try:
            return func(*args, **kwargs)
        finally:
            self.profiler.disable()

    def drain(self) -> Dict[str, object]:
        """Spans, counts and profile rows so far, then start afresh."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "modules": module_self_times(self.profiler),
        }
        self.spans = []
        self.counts = Counter()
        self.profiler = cProfile.Profile()
        return payload


# -- installing wrappers ------------------------------------------------------

Undo = List[Tuple[object, str, object]]


def wrap(
    undo: Undo,
    owner: object,
    attr: str,
    make: Callable[[Callable], Callable],
) -> None:
    """Replace ``owner.attr`` by ``make(original)``; remember the undo.

    Class methods stay class methods.  The replacement keeps the
    original's ``__module__``/``__qualname__`` (``functools.wraps``),
    so module functions still pickle by reference into pool workers.
    """
    raw = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw
    replacement = functools.wraps(original)(make(original))
    setattr(owner, attr, classmethod(replacement) if is_classmethod else replacement)
    undo.append((owner, attr, raw))


def uninstall(undo: Undo) -> None:
    """Put every wrapped attribute back, newest first."""
    while undo:
        owner, attr, raw = undo.pop()
        setattr(owner, attr, raw)


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        return lambda *args, **kwargs: tracer.call(name, original, *args, **kwargs)

    return make


def _note_run(tracer: Tracer, platform, result) -> None:
    """Work counts of one finished platform run, from public results."""
    counts = tracer.counts
    counts["ahb.sim_cycles"] += result.cycles
    counts["ahb.transactions"] += result.transactions
    counts["core.wb_absorbed"] += getattr(result, "absorbed_writes", 0)
    counts["core.filter_narrowed"] += sum(
        entry["narrowed"]
        for entry in getattr(result, "filter_stats", {}).values()
    )
    engine = getattr(platform, "engine", None)
    if engine is not None:  # RTL: the cycle kernel and its arbiter FSM
        counts["kernel.cycles"] += engine.cycle
        counts["kernel.cycles_skipped"] += engine.cycles_skipped
        counts["core.arb_rounds"] += platform.arbiter.decision.rounds
        return
    arbiter = getattr(platform.bus, "arbiter", None)
    if arbiter is not None:  # AHB+ TLM (the plain bus has no filters)
        counts["core.arb_rounds"] += arbiter.rounds
    activates, hits, conflicts = platform.ddrc.timeline.stats()
    counts["ddr.activates"] += activates
    counts["ddr.row_hits"] += hits
    counts["ddr.row_conflicts"] += conflicts


def install(tracer: Tracer) -> Undo:
    """Wrap the public entry points every workload calls into.

    Spans: ``Workload.build_masters``, ``PlatformBuilder.build``, every
    platform's ``run()`` (profiled), ``SweepRunner.run`` (and the
    collector it is handed), ``RunRecord.from_run``, ``point_key`` and
    ``stable_hash`` as the records module uses them.
    """
    from repro.core.platform import PlainPlatform, TlmPlatform
    from repro.exec import records, runner
    from repro.rtl.platform import RtlPlatform
    from repro.system.platform import PlatformBuilder
    from repro.traffic.workloads import Workload

    undo: Undo = []

    def build_masters(original: Callable) -> Callable:
        def traced(workload, *args, **kwargs):
            tracer.counts["traffic.items"] += workload.total_transactions
            return tracer.call("traffic.gen", original, workload, *args, **kwargs)

        return traced

    def build(original: Callable) -> Callable:
        def traced(*args, **kwargs):
            tracer.counts["system.builds"] += 1
            return tracer.call("system.build", original, *args, **kwargs)

        return traced

    def run(original: Callable) -> Callable:
        def traced(platform, *args, **kwargs):
            result = tracer.call(
                "platform.run", tracer.profiled, original, platform, *args, **kwargs
            )
            _note_run(tracer, platform, result)
            return result

        return traced

    def sweep_run(original: Callable) -> Callable:
        def traced(self, grid, collect=None, *args, **kwargs):
            # Pool backends pickle the collector by reference; only the
            # in-process one can take a wrapped collector.
            if collect is not None and self.backend == "serial":
                collect = functools.partial(tracer.call, "exec.collect", collect)
            records_ = tracer.call(
                "exec.run", original, self, grid, collect, *args, **kwargs
            )
            tracer.counts["exec.points"] += len(records_)
            tracer.counts["exec.point_s"] += sum(r.wall_seconds for r in records_)
            return records_

        return traced

    wrap(undo, Workload, "build_masters", build_masters)
    wrap(undo, PlatformBuilder, "build", build)
    for platform_cls in (TlmPlatform, PlainPlatform, RtlPlatform):
        wrap(undo, platform_cls, "run", run)
    wrap(undo, runner.SweepRunner, "run", sweep_run)
    wrap(undo, records.RunRecord, "from_run", spanned(tracer, "exec.collect"))
    wrap(undo, records, "point_key", spanned(tracer, "canonical.key"))
    wrap(undo, records, "stable_hash", spanned(tracer, "canonical.key"))
    return undo


def install_server(tracer: Tracer, worker_dir: str) -> Undo:
    """Wrap the serving layer too; pool workers flush to *worker_dir*.

    Called in the server process before ``repro.serve``'s ``main``:
    worker processes fork from it and inherit every wrapper.  A worker
    appends its spans, counts and profile rows to its own file after
    each point, because pool workers are terminated, not exited.
    """
    from repro.exec import runner
    from repro.exec.records import RunRecord
    from repro.serve import server
    from repro.serve.journal import Journal
    from repro.serve.store import ResultStore

    undo = install(tracer)
    accepted: Dict[str, float] = {}

    def route(original: Callable) -> Callable:
        requests = itertools.count(1)

        def traced(*args, **kwargs):
            tracer.set_request(f"submit:{next(requests)}")
            return tracer.call("serve.route", original, *args, **kwargs)

        return traced

    def journal(op: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def traced(self, key, *args, **kwargs):
                now = time.perf_counter()
                if op == "accept":
                    accepted[key] = now
                elif op == "start" and key in accepted:
                    tracer.counts["serve.queue_wait_s"] += now - accepted.pop(key)
                return tracer.call(
                    "serve.journal", original, self, key, *args, **kwargs
                )

            return traced

        return make

    def execute(original: Callable) -> Callable:
        def traced(job):
            tracer.adopt_process()
            tracer.set_request(f"point:{job.point.spec.workload.seed}")
            try:
                return original(job)
            finally:
                path = os.path.join(worker_dir, f"worker-{os.getpid()}.jsonl")
                dump(tracer.drain(), path)

        return traced

    def to_dict(original: Callable) -> Callable:
        # The store serialises its records with to_dict too; that part
        # belongs to the store write, not to the wire.
        def traced(record, *args, **kwargs):
            if tracer.inside("serve.store_put"):
                return original(record, *args, **kwargs)
            return tracer.call("serve.wire", original, record, *args, **kwargs)

        return traced

    wrap(undo, server.SweepServer, "route", route)
    wrap(undo, ResultStore, "get", spanned(tracer, "serve.store_get"))
    wrap(undo, ResultStore, "put", spanned(tracer, "serve.store_put"))
    for op in ("accept", "start", "done", "fail"):
        wrap(undo, Journal, f"record_{op}", journal(op))
    # read_message is left out: it blocks until the client's next request.
    for name in ("write_message", "point_from_wire", "point_to_wire"):
        wrap(undo, server, name, spanned(tracer, "serve.wire"))
    wrap(undo, RunRecord, "to_dict", to_dict)
    wrap(undo, server, "point_key", spanned(tracer, "canonical.key"))
    wrap(undo, runner, "_execute", execute)
    return undo


# -- profiler rows ------------------------------------------------------------


def _module_of(filename: str) -> Optional[str]:
    """``.../src/repro/core/bus.py`` -> ``core/bus``; None outside repro."""
    if not filename.startswith(REPRO_DIR) or not filename.endswith(".py"):
        return None
    return filename[len(REPRO_DIR) : -len(".py")].replace(os.sep, "/")


def module_self_times(profiler: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time grouped by ``<pkg>/<module>`` of ``repro``.

    Rows outside ``repro`` (built-ins, dataclass-generated methods,
    the standard library) are charged to the repro modules that called
    them, in proportion to the time each caller spent in them; what no
    repro caller claims stays under ``"other"``.
    """
    profiler.create_stats()
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), row in profiler.stats.items():
        _calls, _prim, tottime, _cum, callers = row
        module = _module_of(filename)
        if module is not None:
            totals[module] += tottime
            continue
        claimed = {
            caller_module: caller_row[2]
            for caller, caller_row in callers.items()
            if (caller_module := _module_of(caller[0])) is not None
        }
        weight = sum(claimed.values()) + sum(
            caller_row[2]
            for caller, caller_row in callers.items()
            if _module_of(caller[0]) is None
        )
        if weight <= 0:
            totals["other"] += tottime
            continue
        for caller_module, share in claimed.items():
            totals[caller_module] += tottime * share / weight
        totals["other"] += tottime * (1 - sum(claimed.values()) / weight)
    return dict(totals)


# -- persistence ----------------------------------------------------------------


def dump(payload: Dict[str, object], path: str) -> None:
    """Append one drained payload to a JSON-lines file."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload) + "\n")


def load(paths: Iterable[str]) -> List[Dict[str, object]]:
    """Every payload appended to *paths*."""
    payloads = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payloads.extend(json.loads(line) for line in handle if line.strip())
    return payloads


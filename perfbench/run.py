"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tlm-speed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing
installed.  ``--trace 1`` alternates an untraced and a traced run of
the workload's fixed pass and reports the per-layer metrics, the
tracing overhead and how much of the wall time the named layers cover.
Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where a traced run writes its spans (one JSON list of span tuples).
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

#: Default workload seed; the derived input seeds never equal the
#: tests' fixed Table-1 seeds (see ``loads.derived_seed``).
DEFAULT_SEED = 2005

#: Times ``setup_s`` sets up in one run (it reports the median).
SETUP_REPEATS = 7

#: Reference-loop timings after the workload has stopped; with the
#: set-ups', the only ones a served run has.
CLOSING_SAMPLES = 10

#: The end-to-end metrics besides ``setup_s`` and ``peak_rss_mb``.  Every
#: workload reports all of them, each from its own operations (see
#: README.md): name -> (samples, percentile).
END_TO_END = {
    "txn_per_s": ("txn_per_s", 50),
    "tlm_kcycles_per_s": ("tlm_kcycles_per_s", 50),
    "op_p50_ms": ("op_ms", 50),
}

#: Figures a workload prints for the reader but does not report, as
#: another workload has no value for them: name -> (samples, statistic),
#: where the statistic is a percentile of the samples or ``"value"`` for
#: a figure the workload computed whole.
DETAILS = {
    "tlm-speed": {},
    "table1": {
        "rtl_kcycles_per_s": ("rtl_kcycles_per_s", 50),
        "timing_err_pct": ("timing_err_pct", "value"),
        "timing_err_max_master_pct": ("timing_err_max_master_pct", "value"),
    },
    "dse-serve": {
        "cold_p50_s": ("cold_s", 50),
        "cold_p90_s": ("cold_s", 90),
    },
}

#: Span name -> the per-layer metric its self time feeds.
SPAN_METRICS = {
    "traffic.gen": "traffic.gen_s",
    "system.build": "system.build_s",
    "exec.collect": "exec.collect_s",
    "serve.route": "serve.route_s",
    "serve.store_get": "serve.store_get_s",
    "serve.store_put": "serve.store_put_s",
    "serve.journal": "serve.journal_s",
    "serve.wire": "serve.wire_s",
    "canonical.key": "canonical.key_s",
}

#: Counts that must repeat exactly from one traced pass to the next.
DETERMINISTIC_COUNTS = (
    "traffic.items",
    "system.builds",
    "ahb.sim_cycles",
    "ahb.transactions",
    "core.arb_rounds",
    "core.filter_narrowed",
    "core.wb_absorbed",
    "ddr.activates",
    "ddr.row_hits",
    "ddr.row_conflicts",
    "kernel.cycles",
    "kernel.cycles_skipped",
    "exec.points",
    "serve.hits",
    "serve.misses",
)


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 with ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def peak_rss_mb() -> float:
    """Max resident set of this process and any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def time_setup(load, repeats: int, calibrate: Callable[[], float]) -> List[float]:
    """Fresh-interpreter import plus ``load.setup()``, *repeats* times.

    ``calibrate()`` times the reference loop after each repeat.  The
    workload stays set up after the last repeat.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    statement = "import " + ", ".join(load.imports)
    times = []
    for attempt in range(repeats):
        if attempt:
            load.close()
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], env=env, check=True)
        load.setup()
        times.append(time.perf_counter() - begin)
        calibrate()
    return times


# -- the untraced run -------------------------------------------------------------


def _statistic(name: str, out, source: str, stat) -> Optional[float]:
    """One figure of *out*, printed with how it was taken; None if absent."""
    if stat == "value":
        if source not in out.values:
            return None
        value = out.values[source]
        print(f"  {name:<26} {value:>12.4f}   over the run's seed sets")
        return value
    samples = out.samples.get(source, [])
    if not samples:
        return None
    value = percentile(samples, stat)
    tail = tail_percentile(len(samples))
    detail = f"p{stat} of n={len(samples)}"
    if stat == 50 and tail is not None:
        if name.endswith("_per_s"):  # for a rate the slow tail is low
            tail = 100 - tail
        detail += f", slow-tail p{tail} {percentile(samples, tail):.4f}"
    print(f"  {name:<26} {value:>12.4f}   {detail}")
    return value


def measured(load, seconds: float) -> Tuple[Dict[str, float], object]:
    """End-to-end metrics of one untraced run; prints the detail.

    Host times are reported at the reference host's speed (see
    ``hostspeed.py``); the detail lines give them as measured.
    """
    from perfbench.hostspeed import NOMINAL_S, HostSpeed

    host = HostSpeed()
    try:
        setup = time_setup(load, SETUP_REPEATS, lambda: host.sample(warm=True))
        out = load.measure(seconds, host)
    finally:
        load.close()
    for _ in range(CLOSING_SAMPLES):
        host.sample(warm=True)
    scale = host.scale()
    print(
        f"  reference loop: median {statistics.median(host.times) * 1e3:.3f} ms "
        f"of n={len(host.times)}, {NOMINAL_S * 1e3:g} ms on the reference host; "
        f"host times are reported x{scale:.4f}, rates /{scale:.4f}"
    )
    print("  as measured on this host:")
    setup_s = statistics.median(setup)
    print(f"  {'setup_s':<26} {setup_s:>12.4f}   median of {len(setup)}")
    metrics = {"setup_s": setup_s * scale, "peak_rss_mb": peak_rss_mb()}
    for name, (source, stat) in END_TO_END.items():
        value = _statistic(name, out, source, stat)
        if value is not None:
            metrics[name] = value / scale if name.endswith("_per_s") else value * scale
    print(f"  {'peak_rss_mb':<26} {metrics['peak_rss_mb']:>12.4f}")
    if DETAILS[load.name]:
        print("  also measured, not reported:")
    for name, (source, stat) in DETAILS[load.name].items():
        _statistic(name, out, source, stat)
    counts = " ".join(f"{key}={value}" for key, value in sorted(out.counts.items()))
    print(f"  work counts: {counts}")
    print("  reported: " + " ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
    return metrics, out


# -- the traced run ---------------------------------------------------------------


def _self_times(spans) -> Dict[str, float]:
    """Per span name: duration minus what its child spans cover."""
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for _sid, _name, start, end, parent, _request, pid in spans:
        if parent:
            child_time[(pid, parent)] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _request, pid in spans:
        totals[name] += (end - start) - child_time.get((pid, sid), 0.0)
    return totals


def layer_times(payloads) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer self times of one traced pass, and per-package totals.

    Profiler rows are scaled so that, per process, they add up to the
    time of the ``platform.run`` spans they were recorded in.  Pool
    workers run points on behalf of the server's ``exec.run`` span, so
    their root spans come off its self time, as children's would.
    """
    spans = [tuple(span) for payload in payloads for span in payload["spans"]]
    selfs = _self_times(spans)
    times: Dict[str, float] = defaultdict(float)
    packages: Dict[str, float] = defaultdict(float)
    for name, metric in SPAN_METRICS.items():
        times[metric] = selfs.get(name, 0.0)
        packages[name.split(".")[0]] += times[metric]
    times["exec.run_s"] = sum(s[3] - s[2] for s in spans if s[1] == "exec.run")
    server_pids = {s[6] for s in spans if s[1] == "serve.route"}
    worker_roots = sum(
        s[3] - s[2]
        for s in spans
        if server_pids and s[4] == 0 and s[6] not in server_pids
    )
    packages["exec"] += max(0.0, selfs.get("exec.run", 0.0) - worker_roots)
    for payload in payloads:
        run_time = sum(s[3] - s[2] for s in payload["spans"] if s[1] == "platform.run")
        profiled = sum(payload["modules"].values())
        scale = run_time / profiled if profiled else 0.0
        for module, seconds in payload["modules"].items():
            times[module.replace("/", ".") + ".self_s"] += seconds * scale
            packages[module.split("/")[0]] += seconds * scale
    return times, packages


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced(load, seconds: float) -> Tuple[Dict[str, float], int, int, List[str]]:
    """Per-layer metrics: untraced/traced pass pairs until *seconds*."""
    ratios: List[float] = []
    totals: Dict[str, float] = defaultdict(float)
    packages: Dict[str, float] = defaultdict(float)
    busy = 0.0
    spans: List[tuple] = []
    reference: Optional[Dict[str, float]] = None
    attempted = failed = 0
    problems: List[str] = []
    begin = time.perf_counter()
    try:
        load.setup()
        while not ratios or time.perf_counter() - begin < seconds:
            plain = load.run_pass(traced=False)
            spanned = load.run_pass(traced=True)
            ratios.append(spanned.wall / plain.wall)
            counts: Dict[str, float] = defaultdict(float)
            for payload in spanned.payloads:
                for key, value in payload["counts"].items():
                    counts[key] += value
            counts.update(spanned.out.counts)
            times, layers = layer_times(spanned.payloads)
            deterministic = {key: counts.get(key, 0) for key in DETERMINISTIC_COUNTS}
            if reference is None:
                reference = deterministic
            elif deterministic != reference:
                failed += 1
                problems.append(f"work counts changed between passes: {deterministic}")
            for key, value in {**counts, **times}.items():
                totals[key] += value
            for key, value in layers.items():
                packages[key] += value
            busy += spanned.busy
            for payload in spanned.payloads:
                spans.extend(payload["spans"])
            for result in (plain.out, spanned.out):
                attempted += result.attempted
                failed += result.failed
                problems.extend(result.problems)
    finally:
        load.close()
    passes = len(ratios)
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{load.name}-seed{load.seed}.spans.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    print(f"  {len(spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    metrics = defaultdict(float, {k: v / passes for k, v in totals.items()})
    metrics["exec.dispatch_s"] = (
        metrics["exec.run_s"] - metrics["exec.point_s"] / load.workers
    )
    metrics["ddr.row_hit_ratio"] = _share(
        metrics["ddr.row_hits"], metrics["ddr.row_hits"] + metrics["ddr.activates"]
    )
    metrics["kernel.skip_ratio"] = _share(
        metrics["kernel.cycles_skipped"], metrics["kernel.cycles"]
    )
    metrics["serve.hit_ratio"] = _share(
        metrics["serve.hits"], metrics["serve.hits"] + metrics["serve.misses"]
    )
    metrics["trace.overhead"] = statistics.median(ratios)
    covered = sum(value for key, value in packages.items() if key != "other")
    metrics["trace.covered_share"] = _share(covered, busy)
    metrics["trace.unattributed_s"] = (busy - covered) / passes
    metrics["error_rate"] = _share(failed, attempted)
    print(
        f"  {passes} untraced/traced pass pairs; "
        f"overhead {metrics['trace.overhead']:.3f}x (median)"
    )
    print(f"  self time per pass by layer (busy {busy / passes:.4f} s per pass):")
    for layer, value in sorted(packages.items(), key=lambda item: -item[1]):
        print(f"    {layer:<12} {value / passes:>10.4f} s  {value / busy:>7.1%}")
    print(
        f"    {'unattributed':<12} {metrics['trace.unattributed_s']:>10.4f} s"
        f"  {1 - metrics['trace.covered_share']:>7.1%}"
    )
    print("  work counts per pass: " + " ".join(
        f"{key}={metrics.get(key, 0):g}" for key in DETERMINISTIC_COUNTS
    ))
    return metrics, attempted, failed, problems


# -- entry point ------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so the workload still stops its server.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(config_path):
        print(f"perfbench: no program under {SRC} to measure", file=sys.stderr)
        return 2
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    sys.path[:0] = [SRC, ROOT]
    from perfbench.loads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    load = WORKLOADS[args.workload](args.seed, ROOT)
    print(
        f"perfbench: {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    for notice in load.notices:
        print(f"  NOTICE: {notice}")
    if args.trace:
        wanted = config["per_layer"]
        values, attempted, failed, problems = traced(load, args.seconds)
        # A layer the workload never enters reads zero.
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = config["end_to_end"]
        values, out = measured(load, args.seconds)
        attempted, failed, problems = out.attempted, out.failed, out.problems
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

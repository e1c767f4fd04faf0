"""The benchmark's three workloads.

Each workload turns the benchmark seed into inputs for the program
(specs and grids; the program never sees the seed itself), runs them,
times every operation from outside and checks the outputs.  All three
share one shape:

* ``setup()`` builds the inputs (and, for ``dse-serve``, starts the
  server).  ``setup_s`` times it, after a fresh interpreter's import of
  :attr:`imports`.
* ``measure(seconds, host)`` loops operations until *seconds* have
  passed and every reported statistic has enough samples, timing the
  :class:`~perfbench.hostspeed.HostSpeed` reference loop after each one
  run in-process; it returns a :class:`Measurement`.
* ``run_pass(traced)`` runs one fixed, seed-determined list of
  operations, the unit the traced run compares, with the tracing
  wrappers installed when *traced*.  It returns a :class:`Pass`.
* ``close()`` stops whatever ``setup()`` started.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import tracing
from perfbench.hostspeed import HostSpeed

#: Hard cap on one ``measure``, whatever the sample targets say.
MAX_MEASURE_SECONDS = 120.0


@dataclass
class Measurement:
    """Samples, accuracy figures, work counts and check failures."""

    #: Samples per metric name; a metric's value is their median.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Metrics that are not medians of samples (accuracy figures).
    values: Dict[str, float] = field(default_factory=dict)
    #: Deterministic work counts, printed so two versions compare exactly.
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The first few failed output checks, one line each.
    problems: List[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Pass:
    """One fixed list of operations, untraced or traced."""

    wall: float
    out: Measurement
    #: Drained :class:`~perfbench.tracing.Tracer` payloads (traced only).
    payloads: List[Dict[str, object]] = field(default_factory=list)
    #: Time the user waited, which the layers' self times should cover:
    #: the wall time in-process, the summed round trips when served.
    busy: float = 0.0


def derived_seed(seed: int, *path: object) -> int:
    """A seed for one input of the run, stable across processes.

    Always at least 100, so it never lands on the tests' fixed
    Table-1 seeds (11/22/33).
    """
    rng = random.Random("/".join(str(part) for part in (seed, *path)))
    return rng.randrange(100, 2**31)


class Deadline:
    """Loop condition: go on until *seconds* passed and ``enough()``.

    A run stops at :data:`MAX_MEASURE_SECONDS` whatever ``enough()``
    says; :meth:`check` then counts a failure, because the reported
    percentiles may lack ten samples beyond them.
    """

    def __init__(self, seconds: float, enough: Callable[[], bool]) -> None:
        self.seconds = seconds
        self.enough = enough
        self.begin = time.perf_counter()
        self.capped = False

    def __call__(self) -> bool:
        elapsed = time.perf_counter() - self.begin
        if elapsed >= MAX_MEASURE_SECONDS:
            self.capped = not self.enough()
            return False
        return elapsed < self.seconds or not self.enough()

    def check(self, out: Measurement) -> None:
        if self.capped:
            out.fail(
                f"stopped at the {MAX_MEASURE_SECONDS:g} s cap before every "
                "reported percentile had ten samples beyond it"
            )


class _InProcess:
    """Shared pass logic of the workloads that run in this process."""

    pass_ops = 1
    #: Processes the points of a sweep run on.
    workers = 1
    #: Lines every run prints about how it drives the program.
    notices: Tuple[str, ...] = ()

    def _op(self, index: int, out: Measurement) -> object:
        """Run operation *index* once, checking it into *out*."""
        raise NotImplementedError

    def run_pass(self, traced: bool) -> Pass:
        tracer = tracing.Tracer() if traced else None
        undo = tracing.install(tracer) if tracer is not None else []
        out = Measurement()
        try:
            begin = time.perf_counter()
            for index in range(self.pass_ops):
                if tracer is not None:
                    tracer.set_request(f"op:{index}")
                self._op(index, out)
            wall = time.perf_counter() - begin
        finally:
            tracing.uninstall(undo)
        payloads = [tracer.drain()] if tracer is not None else []
        return Pass(wall, out, payloads, busy=wall)

    def close(self) -> None:
        pass


# -- tlm-speed -------------------------------------------------------------------


class TlmSpeed(_InProcess):
    """Long 4-master Table-1 pattern-a traffic on the method-based TLM."""

    name = "tlm-speed"
    imports = ("repro.system", "repro.traffic.workloads")
    #: Transactions per master of one operation (4 masters).
    transactions = 1000
    pass_ops = 3

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.system.scenarios import paper_topology
        from repro.traffic.workloads import table1_pattern_a

        workload = table1_pattern_a(
            self.transactions, seed=derived_seed(self.seed, self.name)
        )
        self.spec = paper_topology(workload=workload)
        self.offered = workload.total_transactions
        self.cycles: Optional[int] = None

    def _op(self, index: int, out: Measurement):
        """Build and run once; returns (run_s, build+run s, result)."""
        from repro.system.platform import PlatformBuilder

        begin = time.perf_counter()
        platform = PlatformBuilder(self.spec).build("tlm")
        built = time.perf_counter()
        result = platform.run()
        end = time.perf_counter()
        out.attempted += 1
        if self.cycles is None:
            self.cycles = result.cycles
        if result.transactions != self.offered:
            out.fail(
                f"{result.transactions} transactions completed, "
                f"{self.offered} offered"
            )
        elif result.cycles != self.cycles:
            out.fail(f"simulated cycles {result.cycles}, first run {self.cycles}")
        return end - built, end - begin, result

    def measure(self, seconds: float, host: HostSpeed) -> Measurement:
        out = Measurement()
        keep_going = Deadline(
            seconds, lambda: len(out.samples.get("txn_per_s", ())) >= 40
        )
        while keep_going():
            run_s, total_s, result = self._op(out.attempted, out)
            host.sample()
            out.add("tlm_kcycles_per_s", result.cycles / run_s / 1e3)
            out.add("txn_per_s", result.transactions / total_s)
            out.add("op_ms", total_s * 1e3)
        keep_going.check(out)
        out.counts = {"sim_cycles": self.cycles, "transactions": self.offered}
        return out


# -- table1 ----------------------------------------------------------------------


class Table1(_InProcess):
    """Table 1 regenerated through ``run_table1``, RTL and TLM per suite."""

    name = "table1"
    imports = ("repro.analysis.accuracy", "repro.traffic.workloads")
    #: Distinct seed triples one run cycles through.  The accuracy
    #: figures average over all of them, so they repeat exactly.
    distinct = 16
    pass_ops = 2

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.traffic.workloads import (
            table1_pattern_a,
            table1_pattern_b,
            table1_pattern_c,
        )

        self.suites = [
            [
                make(seed=derived_seed(self.seed, self.name, index, make.__name__))
                for make in (table1_pattern_a, table1_pattern_b, table1_pattern_c)
            ]
            for index in range(self.distinct)
        ]

    def _op(self, index: int, out: Measurement):
        """One regeneration; its ``Table1Result``, or None if a check failed."""
        from repro.analysis.accuracy import run_table1
        from repro.errors import SimulationError

        out.attempted += 1
        suites = self.suites[index % self.distinct]
        seeds = ", ".join(f"{w.name} seed {w.seed}" for w in suites)
        try:
            table = run_table1(suites)
        except SimulationError as exc:  # memory images differ
            out.fail(f"{exc} ({seeds})")
            return None
        for suite in table.suites:
            if not suite.functional_match:
                out.fail(f"{suite.workload}: RTL and TLM read data differ ({seeds})")
                return None
        return table

    def measure(self, seconds: float, host: HostSpeed) -> Measurement:
        from repro.exec.runner import SweepRunner

        out = Measurement()
        # The runner's records carry each point's run() wall time, which
        # gives the simulation speed of each model with no timing added.
        # The reference loop runs after each suite, its time taken off
        # the regeneration's.
        runs: List[Tuple[str, int, float]] = []

        def keep_runs(original: Callable) -> Callable:
            def kept(*args, **kwargs):
                records = original(*args, **kwargs)
                runs.extend((r.engine, r.cycles, r.wall_seconds) for r in records)
                host.sample()
                return records

            return kept

        def kcycles_per_s(engine: str) -> float:
            cycles = sum(c for e, c, _wall in runs if e == engine)
            return cycles / sum(w for e, _c, w in runs if e == engine) / 1e3

        tables: Dict[int, object] = {}
        keep_going = Deadline(
            seconds,
            lambda: out.attempted >= self.distinct
            and len(out.samples.get("op_ms", ())) >= 20,
        )
        undo: tracing.Undo = []
        tracing.wrap(undo, SweepRunner, "run", keep_runs)
        try:
            while keep_going():
                index = out.attempted
                runs.clear()
                spent = host.spent
                begin = time.perf_counter()
                table = self._op(index, out)
                elapsed = time.perf_counter() - begin - (host.spent - spent)
                if table is None:
                    continue
                transactions = sum(
                    s.rtl_transactions + s.tlm_transactions for s in table.suites
                )
                out.add("op_ms", elapsed * 1e3)
                out.add("txn_per_s", transactions / elapsed)
                out.add("tlm_kcycles_per_s", kcycles_per_s("tlm"))
                out.add("rtl_kcycles_per_s", kcycles_per_s("rtl"))
                tables.setdefault(index % self.distinct, table)
        finally:
            tracing.uninstall(undo)
        keep_going.check(out)
        suites = [suite for table in tables.values() for suite in table.suites]
        if suites:
            rows: Dict[Tuple[str, int], List[float]] = {}
            for suite in suites:
                for row in suite.rows:
                    rows.setdefault((suite.workload, row.master), []).append(
                        row.error_pct
                    )
            out.values["timing_err_pct"] = sum(
                suite.total_error_pct for suite in suites
            ) / len(suites)
            out.values["timing_err_max_master_pct"] = max(
                sum(errors) / len(errors) for errors in rows.values()
            )
        out.counts = {
            "seed_sets": len(tables),
            "rtl_cycles": sum(suite.rtl_total for suite in suites),
            "tlm_cycles": sum(suite.tlm_total for suite in suites),
            "transactions": sum(suite.rtl_transactions for suite in suites),
        }
        return out


# -- dse-serve -------------------------------------------------------------------


class _Client:
    """One closed-loop client and its seeded submission schedule.

    Like ``ServeClient``, it opens a connection for each submission and
    closes it once the submission ends.  One submission in every
    :attr:`block`, at a seeded place, is cold (a new 4-point seed grid);
    the others are warm re-submissions of one of this client's earlier
    cold grids, so every hit and miss is known ahead.  The share of cold
    grids is exact, as the run's throughput and latencies depend on it.
    """

    block = 5
    #: Transactions per master of one grid point.
    transactions = 40
    scenarios = ("write-heavy", "paper-pattern-b")

    def __init__(self, seed: int, index: int) -> None:
        self.rng = random.Random(f"{seed}/dse-serve/client{index}")
        self.seed_base = derived_seed(seed, "dse-serve") + index * 10**8
        self.cold_grids: List[int] = []  # answered, in order
        self.cold_records: Dict[int, List[dict]] = {}
        self.next_cold = 0
        self.submitted = 0
        self.cold_at = 0
        self.prepared: Optional[Tuple[str, int, bytes]] = self._next()
        self.sock: Optional[socket.socket] = None
        self.buffer = b""
        self.events: List[dict] = []
        self.pending: Tuple[str, int, float] = ("", 0, 0.0)
        self.sent = 0

    def _next(self) -> Tuple[str, int, bytes]:
        place = self.submitted % self.block
        if place == 0:
            self.cold_at = self.rng.randrange(self.block)
        self.submitted += 1
        if not self.cold_grids or place == self.cold_at:
            grid = self.next_cold
            self.next_cold += 1
            return "cold", grid, self._line(grid)
        grid = self.rng.choice(self.cold_grids)
        return "warm", grid, self._line(grid)

    def _line(self, grid: int) -> bytes:
        from repro.serve.protocol import grid_to_wire
        from repro.system import scenario, sweep

        name = self.scenarios[grid % len(self.scenarios)]
        seeds = [self.seed_base + grid * 4 + offset for offset in range(4)]
        points = sweep(
            scenario(name, transactions=self.transactions), axis="seed", values=seeds
        )
        message = {"op": "submit", "points": grid_to_wire(points), "max_cycles": None}
        return (json.dumps(message) + "\n").encode()

    def send(self, address: Tuple[str, int]) -> None:
        """Connect and submit the next grid of the schedule."""
        kind, grid, line = self.prepared or self._next()
        self.prepared = None
        self.events = []
        self.buffer = b""
        self.pending = (kind, grid, time.perf_counter())
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.sendall(line)
        self.sent += 1

    def hang_up(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class DseServe:
    """A ``repro.serve`` daemon driven by two closed-loop clients."""

    name = "dse-serve"
    imports = ("repro.serve", "repro.system")
    notices = (
        "the server runs through perfbench/serve_launcher.py, which resets "
        "SIGTERM to its default in forked pool workers; without that reset "
        "`serve --workers N` hangs under load (Pool.terminate() cannot stop "
        "workers that inherited the drain handler), and this run does not "
        "show that hang",
    )
    #: Submissions per client in one traced-run pass.
    pass_submissions = 40
    #: Round trips one untraced run takes at least.  Warm replies share
    #: the server's GIL with cold bursts, so their tail steadies only
    #: over many samples.
    min_cold = 150
    min_warm = 1500

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.launcher = os.path.join(os.path.dirname(__file__), "serve_launcher.py")
        # A pool smaller than the host, so the server's own threads and
        # the load generator keep a CPU.
        self.workers = max(1, (os.cpu_count() or 2) - 1)
        self.scratch = os.path.join(root, ".perfbench_tmp")
        self.server: Optional[subprocess.Popen] = None
        self.tmp: Optional[str] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    # -- server lifecycle --------------------------------------------------------

    def _start(self, spans_dir: str = "") -> None:
        """Start a server on a fresh, empty store and journal."""
        self.stop()
        os.makedirs(self.scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=self.scratch)
        command = [
            sys.executable,
            self.launcher,
            "--spans",
            spans_dir,
            "serve",
            "--port",
            "0",
            "--store",
            os.path.join(self.tmp, "store.jsonl"),
            "--journal",
            os.path.join(self.tmp, "journal.jsonl"),
            "--workers",
            str(self.workers),
        ]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        banner = self.server.stdout.readline()
        if "listening on " not in banner:
            self.stop()
            raise RuntimeError(f"the server did not start: {banner!r}")
        host, port = banner.split("listening on ")[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """Shut the server down, wait for it, and remove its files."""
        if self.server is not None:
            try:
                self._request("shutdown")
            except OSError:
                pass  # already gone; communicate() still reaps it
            try:
                self.server.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def _request(self, op: str) -> dict:
        with socket.create_connection(self.address, timeout=30) as sock:
            sock.sendall((json.dumps({"op": op}) + "\n").encode())
            with sock.makefile("r", encoding="utf-8") as reader:
                return json.loads(reader.readline())

    def setup(self) -> None:
        self._start()
        self.clients = [_Client(self.seed, index) for index in range(2)]

    def close(self) -> None:
        self.stop()
        if os.path.isdir(self.scratch) and not os.listdir(self.scratch):
            os.rmdir(self.scratch)

    # -- the load generator --------------------------------------------------------

    def _drive(
        self, out: Measurement, keep_going: Callable[[], bool], limit: int = 0
    ) -> float:
        """Run both clients closed-loop; returns the wall time.

        A client stops after *limit* submissions when *limit* is set,
        else once ``keep_going()`` turns false.
        """
        selector = selectors.DefaultSelector()

        def send(client: _Client) -> None:
            client.send(self.address)
            selector.register(client.sock, selectors.EVENT_READ, client)

        begin = time.perf_counter()
        try:
            for client in self.clients:
                send(client)
            active = len(self.clients)
            while active:
                ready = selector.select(timeout=60)
                if not ready:
                    raise RuntimeError("no reply from the server for 60 s")
                for key, _mask in ready:
                    client = key.data
                    if not self._receive(client, out):
                        continue
                    selector.unregister(client.sock)
                    client.hang_up()
                    more = client.sent < limit if limit else keep_going()
                    if more:
                        send(client)
                    else:
                        active -= 1
            return time.perf_counter() - begin
        finally:
            selector.close()
            for client in self.clients:
                client.hang_up()

    def _receive(self, client: _Client, out: Measurement) -> bool:
        """Read what arrived; True once the client's submission ended."""
        chunk = client.sock.recv(1 << 16)
        if not chunk:
            raise RuntimeError("the server closed a client connection")
        client.buffer += chunk
        *lines, client.buffer = client.buffer.split(b"\n")
        ended = False
        for line in lines:
            if not line.strip():
                continue
            event = json.loads(line)
            if event.get("event") in ("done", "overloaded", "draining", "error"):
                self._complete(client, event, out)
                ended = True
            else:
                client.events.append(event)
        return ended

    def _complete(self, client: _Client, event: dict, out: Measurement) -> None:
        """Time one finished submission and check it against the schedule."""
        kind, grid, sent_at = client.pending
        elapsed = time.perf_counter() - sent_at
        out.attempted += 1
        if event["event"] != "done":
            out.fail(f"{kind} grid {grid}: {event['event']}: {event.get('message')}")
            return
        results = [e for e in client.events if e.get("event") == "result"]
        out.counts["transactions"] = out.counts.get("transactions", 0) + sum(
            e["record"]["transactions"] for e in results
        )
        records = [
            {key: value for key, value in e["record"].items() if key != "wall_seconds"}
            for e in results
        ]
        sources = {e.get("source") for e in results}
        if len(records) != 4 or any(record["error"] for record in records):
            out.fail(f"{kind} grid {grid}: error rows or missing records")
            return
        if kind == "cold":
            if sources != {"run"} or event.get("misses") != 4:
                out.fail(f"cold grid {grid} answered from {sorted(sources)}")
                return
            client.cold_records[grid] = records
            client.cold_grids.append(grid)
            out.add("cold_s", elapsed)
            for e in results:  # wall_seconds is the worker's run() time
                record = e["record"]
                out.add(
                    "tlm_kcycles_per_s", record["cycles"] / record["wall_seconds"] / 1e3
                )
        else:
            if sources != {"store"} or event.get("hits") != 4:
                out.fail(f"warm grid {grid} answered from {sorted(sources)}")
                return
            if records != client.cold_records[grid]:
                out.fail(f"warm grid {grid}: records differ from its cold run")
                return
            out.add("op_ms", elapsed * 1e3)
        out.counts[f"{kind}_grids"] = out.counts.get(f"{kind}_grids", 0) + 1

    def measure(self, seconds: float, host: HostSpeed) -> Measurement:
        """The load.  *host* is not sampled here: the loop would hold up
        replies, and samples taken in pauses, with both clients parked,
        tracked the served figures worse than those ``run.py`` takes in
        set-up and after the server has stopped."""
        out = Measurement()
        keep_going = Deadline(
            seconds,
            lambda: len(out.samples.get("cold_s", ())) >= self.min_cold
            and len(out.samples.get("op_ms", ())) >= self.min_warm,
        )
        wall = self._drive(out, keep_going)
        keep_going.check(out)
        out.samples["txn_per_s"] = [out.counts.get("transactions", 0) / wall]
        stats = self._request("status")["stats"]
        out.counts.update(hits=stats["hits"], misses=stats["misses"])
        if stats["shed_submissions"]:
            out.fail(f"{stats['shed_submissions']} submissions shed")
        return out

    def run_pass(self, traced: bool) -> Pass:
        """The first submissions of the schedule on a fresh server."""
        spans_dir = ""
        if traced:
            os.makedirs(self.scratch, exist_ok=True)
            spans_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            self._start(spans_dir)
            self.clients = [_Client(self.seed, index) for index in range(2)]
            out = Measurement()
            wall = self._drive(out, lambda: True, limit=self.pass_submissions)
            stats = self._request("status")["stats"]
            self.stop()  # the server writes its spans as it exits
            out.counts = {
                "serve.hits": stats["hits"],
                "serve.misses": stats["misses"],
                "serve.shed": stats["shed_submissions"],
                "serve.max_queue_depth": stats["max_queue_depth"],
                "serve.retries": 0,  # the load generator never resubmits
            }
            payloads = []
            if traced:
                names = sorted(os.listdir(spans_dir))
                payloads = tracing.load(os.path.join(spans_dir, n) for n in names)
            waited = sum(out.samples.get("cold_s", ())) + sum(
                out.samples.get("op_ms", ())
            ) / 1e3
            return Pass(wall, out, payloads, busy=waited)
        finally:
            if spans_dir:
                shutil.rmtree(spans_dir, ignore_errors=True)


WORKLOADS = {load.name: load for load in (TlmSpeed, Table1, DseServe)}

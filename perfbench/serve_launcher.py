"""Start ``python -m repro.serve`` with the benchmark's tracing wrappers.

Usage::

    python perfbench/serve_launcher.py --spans DIR serve --port 0 ...
    python perfbench/serve_launcher.py --spans "" serve ...   # untraced

Everything after ``--spans DIR`` goes to ``repro.serve``'s ``main``.
With a non-empty *DIR*, the wrappers are installed before ``main``
runs, so the pool workers the server forks inherit them; the server
writes its spans to ``DIR/server.jsonl`` when it stops, each worker to
``DIR/worker-<pid>.jsonl`` after every point.

``serve`` installs a SIGTERM handler that drains the server.  Pool
workers forked from it inherit that handler, so ``Pool.terminate()``,
which the process backend calls after every burst, cannot stop an idle
worker, and the server hangs for good within seconds under a steady
load.  The launcher puts SIGTERM back to its default in every forked
child, which is what the pool expects.  It also asks the kernel to send
the server SIGTERM, which drains it, if the benchmark dies first.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``prctl`` option: signal this process when its parent exits (Linux).
PR_SET_PDEATHSIG = 1


def _stop_with_parent() -> None:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # not Linux: the benchmark's own shutdown still applies
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_dir, serve_args = argv[1], argv[2:]
    _stop_with_parent()
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import tracing
    from repro.serve.__main__ import main as serve_main

    if not spans_dir:
        return serve_main(serve_args)
    tracer = tracing.Tracer()
    tracing.install_server(tracer, spans_dir)
    try:
        return serve_main(serve_args)
    finally:
        tracing.dump(tracer.drain(), os.path.join(spans_dir, "server.jsonl"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

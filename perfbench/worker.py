"""Run one benchmark workload in this (single-threaded) process.

Started by ``run.py``; prints one JSON object on stdout.  ``--t0`` is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
``setup_s`` covers interpreter start, the ``etog`` import, parsing and input
generation.  Passes repeat, at least ``--min-passes`` of them, while another
pass of the mean length so far still ends within ``--budget`` seconds of
set-up.

Untraced passes are timed in reference seconds by a ``SpeedClock`` (see
``speedclock.py``); their raw ``perf_counter`` times are reported next to
them.  ``setup_s`` is raw; ``boot_s``, the part of it before the worker's
first line, lets ``run.py`` take out the host's speed.  Traced passes are timed
raw, because the calibration would land inside the spans, and so are the
untraced passes they are compared with (``--raw-clock``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.monotonic()  # the interpreter is up; etog is not imported yet
SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(workload, tracer=None, clock=None) -> dict:
    """Time every item of one pass, then judge the results untraced.

    Times come from ``clock.now`` if a ``SpeedClock`` is given, else from
    ``perf_counter``; ``raw_wall_s`` is always ``perf_counter`` time.
    """
    from workloads import Pass

    items = workload.items
    results = []
    item_s = []
    now = time.perf_counter if clock is None else clock.now
    if tracer is not None:
        tracer.install()
    try:
        raw_started = time.perf_counter()
        started = now()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = index
            begin = now()
            try:
                result = workload.run_item(item)
            except Exception as exc:  # a raising item is a failed verdict
                result = exc
            item_s.append(now() - begin)
            results.append(result)
        wall_s = now() - started
        raw_wall_s = time.perf_counter() - raw_started
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = Pass()
    workload.check(items, results, tally)
    return {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "item_ms": [s * 1e3 for s in item_s],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fingerprint": tally.fingerprint,
        "counts": tally.counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace the passes; write spans here")
    parser.add_argument("--raw-clock", action="store_true", help="time with perf_counter only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import etog
    import workloads

    if not Path(etog.__file__).resolve().is_relative_to(SRC):
        print(f"etog imported from {etog.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.monotonic() - args.t0, "boot_s": STARTED - args.t0}
    if not args.setup_only:
        tracer = clock = None
        if args.trace_out:
            import tracer as tracing

            tracer = tracing.Tracer()
        elif not args.raw_clock:
            import speedclock

            clock = speedclock.SpeedClock()
            clock.start()
        passes = []
        begin = time.perf_counter()
        try:
            while True:
                passes.append(run_pass(workload, tracer, clock))
                elapsed = time.perf_counter() - begin
                if len(passes) >= args.min_passes and elapsed * (1 + 1 / len(passes)) > args.budget:
                    break
        finally:
            if clock is not None:
                clock.stop()
        out["passes"] = passes
        if clock is not None:
            out["speed_median"] = statistics.median(clock.speeds)
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer.stats, tracer.observed)
            out["spans_total"] = tracer.span_count
            out["spans_kept"] = len(tracer.spans)
            tracer.write_spans(args.trace_out, {"workload": args.workload, "seed": args.seed})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own single-threaded worker process (worker.py).
With ``--trace 0`` the run reports the end-to-end metrics: several fresh
processes are set up to time ``setup_s``, and one worker repeats passes over
the workload for ``--seconds``.  All times are in reference seconds, which
take out the drift of the host's speed: pass and item times by
speedclock.py, ``setup_s`` by the interpreter's start-up time.  With ``--trace 1`` it reports the per-layer
metrics: one untraced pass and two traced passes, each in a fresh process; the
traced passes must repeat each other's counts exactly and give the untraced
verdicts.  The last stdout line is the JSON result; a copy with the run
metadata goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from tracer import count_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# set-up-only processes per untraced run, besides the measuring one; half run
# before it and half after, because the host's speed changes between the two
SETUP_PROBES = 16
# interpreter start-up on the reference host; setup_s is scaled by it (below)
REFERENCE_BOOT_S = 0.05
MIN_PASSES = 3  # so that wall_s is a median that one slow pass cannot move
TIME_LIMIT_S = 170  # every worker must have ended by then

# what one verdict is, per workload (the base of fail_ratio)
VERDICT_BASE = {
    "refutation": "the 4 CHECK verdicts of each counterexample run",
    "law-battery": "the 52 CHECK verdicts of each check run",
    "oracle-sweep": "one verdict per period: up_member agrees with the oracle",
    "solve": "one verdict per arena: witnesses and winners agree",
}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *options: str) -> dict:
    """Start one worker, wait for it and return its JSON report."""
    t0 = time.monotonic()
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--t0", repr(t0),
        *options,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def untraced_run(args, deadline: float) -> tuple[dict, dict]:
    def probe() -> dict:
        return spawn(args.workload, args.seed, deadline, "--setup-only")

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    report = spawn(
        args.workload, args.seed, deadline,
        "--budget", str(args.seconds), "--min-passes", str(MIN_PASSES),
    )
    probes.append(report)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [probe["setup_s"] for probe in probes]
    boots = [probe["boot_s"] for probe in probes]
    passes = report["passes"]
    item_ms = [statistics.median(one) for one in zip(*(one["item_ms"] for one in passes))]
    metrics = {
        # set-up did not follow the speed clock's chunk but does follow the
        # interpreter's own start-up, which runs no etog code
        "setup_s": statistics.median(setups) * REFERENCE_BOOT_S / statistics.median(boots),
        "wall_s": statistics.median(one["wall_s"] for one in passes),
        # every pass runs the same items in the same order: an item's latency
        # is its median over the passes, so a burst in one pass moves none
        **{f"item_p{q}_ms": percentile(item_ms, q / 100) for q in (50, 90, 99)},
        "peak_rss_mb": report["peak_rss_mb"],
    }
    detail = {
        "raw_setup_samples_s": setups,
        "boot_samples_s": boots,
        "speed_median": report["speed_median"],
        "items_per_pass": len(passes[0]["item_ms"]),
        "passes": [_summary(one) for one in passes],
    }
    return metrics, detail


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    # timed raw like the traced passes, so that the overhead ratio compares like with like
    base = spawn(args.workload, args.seed, deadline, "--raw-clock")
    traced = []
    for k in (1, 2):
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans{k}.jsonl.gz"
        traced.append(spawn(args.workload, args.seed, deadline, "--trace-out", str(spans)))
    layers = [report["layers"] for report in traced]
    counts = [count_metrics(one) for one in layers]
    metrics = {name: statistics.fmean(one[name] for one in layers) for name in layers[0]}
    metrics.update(counts[0])
    walls = [report["passes"][0]["wall_s"] for report in traced]
    metrics["trace.overhead_ratio"] = statistics.fmean(walls) / base["passes"][0]["wall_s"]
    fingerprints = {report["passes"][0]["fingerprint"] for report in (base, *traced)}
    detail = {
        "passes": [_summary(report["passes"][0]) for report in (base, *traced)],
        "spans_total": [report["spans_total"] for report in traced],
        "spans_kept": [report["spans_kept"] for report in traced],
        # benchmark-level verdicts, counted with the workload's own
        "extra_verdicts": {
            "traced-verdicts-equal-untraced": len(fingerprints) == 1,
            "traced-counts-repeat": counts[0] == counts[1],
        },
    }
    return metrics, detail


def _summary(one_pass: dict) -> dict:
    return {key: value for key, value in one_pass.items() if key != "item_ms"}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        packed = []
    for line in packed:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="etog benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(VERDICT_BASE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "etog" / "__init__.py").is_file():
        print(f"error: no etog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, detail = traced_run(args, deadline)
        else:
            metrics, detail = untraced_run(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    extra = detail.get("extra_verdicts", {})
    attempted = sum(one["attempted"] for one in detail["passes"]) + len(extra)
    failed = sum(one["failed"] for one in detail["passes"]) + sum(not ok for ok in extra.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "metadata": metadata(args),
        "fail_ratio": failed / attempted,
        "fail_ratio_base": VERDICT_BASE[args.workload],
        **result,
        "detail": detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted}; base: "
          f"{VERDICT_BASE[args.workload]})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

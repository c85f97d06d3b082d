"""Self-tests of the benchmark: span arithmetic, patching and determinism.

Run with ``python3 -m pytest perfbench/tests``; they are outside the
library's ``testpaths`` so the tier-1 suite does not grow.
"""

import importlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import etog  # noqa: E402
import speedclock  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, count_metrics, layer_metrics, self_times  # noqa: E402
from worker import run_pass  # noqa: E402

SMALL = {
    "refutation": lambda: workloads.Refutation(0, bob_memory=2),
    "law-battery": lambda: workloads.LawBattery(0, ("--samples", "100", "--max-len", "3")),
    "oracle-sweep": lambda: workloads.OracleSweep(0, max_len=3),
    "solve": lambda: workloads.Solve(0, arenas=9, max_pairs=64),
}


def test_self_time_subtracts_direct_children_only():
    spans = [
        # (id, name, start, end, parent, item)
        (0, "outer", 0.0, 10.0, -1, 0),
        (1, "mid", 1.0, 6.0, 0, 0),
        (2, "leaf", 2.0, 3.0, 1, 0),
        (3, "leaf", 4.0, 5.5, 1, 0),
        (4, "mid", 7.0, 9.0, 0, 0),
        (5, "outer", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == {
        "outer": [2, 11.0, 4.0],  # (10 - 5 - 2) + 1
        "mid": [2, 7.0, 4.5],  # (5 - 1 - 1.5) + 2
        "leaf": [2, 2.5, 2.5],
    }


def test_online_aggregates_match_the_span_log():
    tracer = Tracer()
    run_pass(SMALL["solve"](), tracer)
    assert 0 < tracer.span_count == len(tracer.spans), "log must be complete here"
    offline = self_times(tracer.spans)
    online = {name: stat for name, stat in tracer.stats.items() if stat[0]}
    assert online.keys() == offline.keys()
    for name, (calls, total, own) in online.items():
        assert offline[name][0] == calls
        assert offline[name][1] == pytest.approx(total, abs=1e-9)
        assert offline[name][2] == pytest.approx(own, abs=1e-9)


def test_span_log_stops_at_its_cap():
    tracer = Tracer(span_cap=50)
    run_pass(SMALL["solve"](), tracer)
    assert len(tracer.spans) == 50 < tracer.span_count
    assert sum(stat[0] for stat in tracer.stats.values()) == tracer.span_count


def _snapshot() -> dict:
    namespaces = [etog] + [importlib.import_module(f"etog.{layer}") for layer in LAYERS]
    snapshot = {}
    for namespace in namespaces:
        for attr, value in vars(namespace).items():
            snapshot[(namespace.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == namespace.__name__:
                for member, bound in vars(value).items():
                    snapshot[(namespace.__name__, attr, member)] = bound
    return snapshot


def test_uninstall_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        during = _snapshot()
    finally:
        tracer.uninstall()
    after = _snapshot()
    patched = [key for key in before if during[key] is not before[key]]
    assert ("etog.groups", "FreeGroup", "compare") in patched
    assert ("etog.games", "multiply") in patched  # an alias of groups.multiply
    assert ("etog", "solve_energy_game") in patched  # a package re-export
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_gives_the_untraced_verdicts(name):
    workload = SMALL[name]()
    plain = run_pass(workload)
    traced = run_pass(workload, Tracer())
    assert plain["attempted"] > 0 and plain["failed"] == 0
    for key in ("attempted", "failed", "fingerprint", "counts"):
        assert traced[key] == plain[key]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_with_one_seed(name):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        run_pass(SMALL[name](), tracer)
        counts.append(count_metrics(layer_metrics(tracer.stats, tracer.observed)))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_layer_metrics_match_the_declared_per_layer_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    names = {metric["name"] for metric in declared}
    tracer = Tracer()
    produced = set(layer_metrics(tracer.stats, tracer.observed)) | {"trace.overhead_ratio"}
    assert produced == names


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_clock_leaves_out_its_ticks_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = speedclock.SpeedClock(interval=0.01)
    clock.start()
    try:
        steps = {True: [], False: []}  # one chunk of work, with a tick inside or not
        for _ in range(60):
            ticks, begin = len(clock.speeds), clock.now()
            speedclock.chunk()
            steps[len(clock.speeds) > ticks].append(clock.now() - begin)
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert steps[True] and steps[False]
    plain = statistics.median(steps[False])
    assert 0.3 < plain / speedclock.REFERENCE_CHUNK_S < 3
    # a tick runs a chunk of its own; counted, it would double the step
    assert statistics.median(steps[True]) < 1.5 * plain


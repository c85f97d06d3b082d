"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of each ``etog`` layer
module by patching attributes in the running process only; ``src/`` is never
edited and :meth:`Tracer.uninstall` puts every original attribute back.

Every wrapped call is a span with a name, start, end, parent span and the id
of the workload item it served.  Aggregates (call count, total time and self
time, i.e. duration minus the child spans it covers) are kept online for every
span.  The span log itself is kept in memory and written out at the end, but
only up to ``span_cap`` spans: the refutation alone makes millions of calls
into ``groups``, and a full log would cost hundreds of megabytes.
:func:`self_times` recomputes the aggregates from a log, which the self-tests
use to check the online arithmetic.

Properties and underscore names are not wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import time
import types
from collections import Counter

LAYERS = ("groups", "notation", "conditions", "games", "laws", "cli")
SPAN_CAP = 100_000


def _free_compare_letters(args, kwargs, result):
    x, y = args[1], args[2]
    return "groups.free_compare.letters", len(x.letters) + len(y.letters)


def _magnus_degree(args, kwargs, result):
    degree = args[1] if len(args) > 1 else kwargs["max_degree"]
    return "groups.magnus_expand.degree", degree


def _machines_checked(args, kwargs, result):
    return "games.machines_checked", result.machines_checked


def _positional_pairs(args, kwargs, result):
    # |sigma| * |tau| is the product of all out-degrees; counted from the edge
    # list so that no wrapped arena method runs inside the hook
    degrees = Counter(edge.source for edge in args[0].edges)
    return "games.positional_pairs", math.prod(degrees.values())


# span name -> hook(args, kwargs, result) -> (observed counter name, amount)
OBSERVERS = {
    "groups.FreeGroup.compare": _free_compare_letters,
    "groups.magnus_expand": _magnus_degree,
    "games.verify_union_strategy": _machines_checked,
    "games.solve_energy_game": _positional_pairs,
}


class Tracer:
    """Records spans for every public ``etog`` function while installed."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.item = -1
        self.span_cap = span_cap
        # (span id, name, start, end, parent span id or -1, item id)
        self.spans: list[tuple] = []
        self.span_count = 0
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.observed: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("etog")
        modules = [importlib.import_module(f"etog.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    # rebind every alias, e.g. ``from .groups import multiply``
                    for namespace in namespaces:
                        for alias, bound in list(vars(namespace).items()):
                            if bound is value:
                                self._patch(namespace, alias, wrapper)
                elif isinstance(value, type):
                    self._install_class(f"{layer}.{attr}", value)

    def _install_class(self, prefix: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(name, value.__func__)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        observer = OBSERVERS.get(name)
        observed = self.observed
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [0.0, span_id]  # [child seconds, span id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, name, start, end, parent, tracer.item))
            if observer is not None:
                key, amount = observer(args, kwargs, result)
                observed[key] += amount
            return result

        return wrapper

    def write_spans(self, path, metadata: dict) -> None:
        """Write the kept spans as gzipped JSON lines after one header line."""
        header = dict(metadata, spans_total=self.span_count, spans_kept=len(self.spans))
        with gzip.open(path, "wt", encoding="ascii") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, list]:
    """Aggregate a span log: name -> [calls, total seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    children, the spans whose parent id is its id.
    """
    child_seconds: Counter = Counter()
    for _id, _name, start, end, parent, _item in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    out: dict[str, list] = {}
    for span_id, name, start, end, _parent, _item in spans:
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_seconds[span_id]
    return out


def _sum(stats: dict, predicate) -> tuple[int, float]:
    calls, self_s = 0, 0.0
    for name, (n, _total, own) in stats.items():
        if predicate(name):
            calls += n
            self_s += own
    return calls, self_s


def layer_metrics(stats: dict, observed) -> dict[str, float]:
    """The per-layer metrics named in ``perfbench/README.md``."""
    metrics: dict[str, float] = {}

    def put(metric: str, predicate) -> int:
        calls, self_s = _sum(stats, predicate)
        metrics[f"{metric}.calls"] = calls
        metrics[f"{metric}.self_s"] = self_s
        return calls

    for layer in LAYERS[:-1]:
        put(layer, lambda n, p=f"{layer}.": n.startswith(p))
    metrics["cli.main.self_s"] = _sum(stats, lambda n: n.startswith("cli."))[1]

    def method(layer: str, attr: str):
        return lambda n: n.startswith(f"{layer}.") and n.endswith(f".{attr}")

    put("groups.compose", method("groups", "compose"))
    put("groups.compare", method("groups", "compare"))
    free_calls = put("groups.free_compare", lambda n: n == "groups.FreeGroup.compare")
    metrics["groups.free_compare.letters_mean"] = (
        observed["groups.free_compare.letters"] / free_calls if free_calls else 0.0
    )
    magnus_calls = put("groups.magnus_expand", lambda n: n == "groups.magnus_expand")
    metrics["groups.magnus_expand.degree_mean"] = (
        observed["groups.magnus_expand.degree"] / magnus_calls if magnus_calls else 0.0
    )
    put("notation.parse", lambda n: n in ("notation.parse_group", "notation.parse_element"))
    member_calls = put("conditions.up_member", method("conditions", "up_member"))
    put("conditions.val_word", lambda n: n == "conditions.Valuation.val_word")
    put("conditions.up_member_oracle", lambda n: n == "conditions.up_member_oracle")
    put("games.verify_union_strategy", lambda n: n == "games.verify_union_strategy")
    metrics["games.machines_checked"] = observed["games.machines_checked"]
    put("games.solve_energy_game", lambda n: n == "games.solve_energy_game")
    lasso_calls = put("games.play_lasso", lambda n: n == "games.play_lasso")
    metrics["games.positional_pairs"] = observed["games.positional_pairs"]
    metrics["games.member_cache_hit_ratio"] = (
        1.0 - member_calls / lasso_calls if lasso_calls else 0.0
    )
    for checker in (
        "order_axiom_battery",
        "check_closure",
        "check_fairly_mixing",
        "check_invariant_subsemigroup",
        "magnus_soundness",
    ):
        metrics[f"laws.{checker}.self_s"] = _sum(stats, lambda n, c=f"laws.{checker}": n == c)[1]
    return metrics


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly across runs with one seed."""
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith(".calls")
        or name in ("games.machines_checked", "games.positional_pairs")
    }

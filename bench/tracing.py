"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the package from outside: each target
is replaced at every name where a caller looks it up (the attribute of
each ``rerail.*`` module that holds it, or the class attribute for a
method), and restored afterwards. A span is kept in memory as
``[id, name, start, end, parent id, question id, extra]``; spans opened on
a pool thread hang off the outermost open span (``harness.run``). Some
targets are counted rather than spanned, so that their work stays in the
self time of the span that calls them.

Self time is a span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

# (module, attribute, how): "span" records a span, "count" an event only.
TARGETS = (
    ("rerail.dataset", "load_dataset", "span"),
    ("rerail.gateway", "ScriptedBackend.from_file", "span"),
    ("rerail.gateway", "ScriptedBackend.call", "span"),
    ("rerail.gateway", "Gateway.complete", "span"),
    ("rerail.gateway", "UsageLedger.question_usage", "span"),
    ("rerail.gateway", "cache_key", "span"),
    ("rerail.gateway", "complete_structured", "span"),
    ("rerail.prompts", "render_prompt", "span"),
    ("rerail.parsing", "parse_reasoning_path", "span"),
    ("rerail.grading", "grade_safe", "span"),
    ("rerail.derailment", "route", "span"),
    ("rerail.derailment", "generate_rps", "span"),
    ("rerail.rerailer", "rerail", "span"),
    ("rerail.rerailer", "rerail_pass", "count"),
    ("rerail.rerailer", "evaluate_step", "count"),
    ("rerail.harness", "run", "span"),
    ("rerail.harness", "run_question", "span"),
    ("rerail.harness", "build_report", "span"),
    ("rerail.harness", "load_outcomes", "span"),
    ("rerail.harness", "replay", "span"),
)

# What a span or event keeps of its function's return value.
INSPECT = {
    "gateway.Gateway.complete": lambda result: result.from_cache,
    "rerailer.evaluate_step": lambda result: result.auto,
}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self) -> None:
        from rerail.gateway import CallContext
        from rerail.types import Question

        self._context_type, self._question_type = CallContext, Question
        self.spans: list[list] = []
        self.events: list[tuple[str, object]] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._restore: list[tuple[object, str, object]] = []

    def _question_id(self, args) -> str | None:
        for arg in args[:4]:
            if isinstance(arg, self._context_type):
                return arg.question_id
            if isinstance(arg, self._question_type):
                return arg.id
        return None

    def _span(self, name: str, fn):
        tracer, inspect = self, INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent, qid = stack[-1] if stack else (tracer._root, None)
            qid = tracer._question_id(args) or qid
            span = [next(tracer._ids), name, 0.0, 0.0, parent, qid, None]
            is_root = not stack and tracer._root is None
            if is_root:
                tracer._root = span[0]
            stack.append((span[0], qid))
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    span[6] = inspect(result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(span)

        return traced

    def _count(self, name: str, fn):
        events, inspect = self.events, INSPECT.get(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append((name, inspect(result) if inspect is not None else None))
            return result

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra_methods=()) -> None:
        """Wrap every target; ``extra_methods`` are (class, method, span name)
        triples from the benchmark itself, spanned so that their time is
        not counted in the self time of their caller."""
        self.missing = []
        for module_name, path, how in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            wrap = self._span if how == "span" else self._count
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(wrap(name, raw.__func__)))
                else:
                    self._patch(owner, attr, wrap(name, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = wrap(name, original)
            for loaded in [m for key, m in sys.modules.items() if key == "rerail" or key.startswith("rerail.")]:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)
        for owner, attr, name in extra_methods:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
        if self.missing:
            print(f"trace: targets not found, their metrics read 0: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics over every traced round; counts are per round."""
        by_name: dict[str, list[list]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        complete_children: dict[int, int] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[2], span[3]))
                if span[1] == "gateway.Gateway.complete":
                    complete_children[span[4]] = complete_children.get(span[4], 0) + 1

        def spans(name: str, extra=None) -> list[list]:
            return [s for s in by_name.get(name, []) if extra is None or s[6] == extra]

        def mean(values: list[float], scale: float) -> float:
            return statistics.fmean(values) * scale if values else 0.0

        def duration(name: str, scale: float) -> float:
            return mean([s[3] - s[2] for s in spans(name)], scale)

        def self_time(name: str, scale: float, extra=None) -> float:
            return mean(
                [s[3] - s[2] - _covered(s[2], s[3], children.get(s[0], [])) for s in spans(name, extra)],
                scale,
            )

        def per_round(count: int) -> float:
            return count / rounds

        evaluations = [extra for name, extra in self.events if name == "rerailer.evaluate_step"]
        structured = spans("gateway.complete_structured")
        metrics = {
            "dataset.load_dataset.ms": duration("dataset.load_dataset", 1e3),
            "gateway.ScriptedBackend.from_file.ms": duration("gateway.ScriptedBackend.from_file", 1e3),
            "gateway.ScriptedBackend.call.us": duration("gateway.ScriptedBackend.call", 1e6),
            "gateway.Gateway.complete.hit_self_us": self_time("gateway.Gateway.complete", 1e6, True),
            "gateway.Gateway.complete.miss_self_us": self_time("gateway.Gateway.complete", 1e6, False),
            "gateway.complete_structured.reasks": per_round(
                sum(1 for s in structured if complete_children.get(s[0], 0) > 1)
            ),
            "gateway.UsageLedger.question_usage.us": duration("gateway.UsageLedger.question_usage", 1e6),
            "gateway.cache_key.us": duration("gateway.cache_key", 1e6),
            "prompts.render_prompt.us": duration("prompts.render_prompt", 1e6),
            "parsing.parse_reasoning_path.us": duration("parsing.parse_reasoning_path", 1e6),
            "grading.grade_safe.us": duration("grading.grade_safe", 1e6),
            "derailment.route.self_ms": self_time("derailment.route", 1e3),
            "derailment.generate_rps.self_us": self_time("derailment.generate_rps", 1e6),
            "rerailer.rerail.self_ms": self_time("rerailer.rerail", 1e3),
            "rerailer.rerail_pass.calls": per_round(sum(1 for name, _ in self.events if name == "rerailer.rerail_pass")),
            "rerailer.evaluate_step.calls": per_round(len(evaluations)),
            "rerailer.evaluate_step.auto_ratio": (sum(1 for auto in evaluations if auto) / len(evaluations))
            if evaluations
            else 0.0,
            "harness.run.self_s": self_time("harness.run", 1.0),
            "harness.run_question.self_ms": self_time("harness.run_question", 1e3),
            "harness.build_report.ms": duration("harness.build_report", 1e3),
            "harness.load_outcomes.ms": duration("harness.load_outcomes", 1e3),
            "harness.replay.ms": duration("harness.replay", 1e3),
        }
        # Every mean comes with its call count per round.
        for name in list(metrics):
            if name.endswith((".ms", ".us", ".self_ms", ".self_us", ".self_s")):
                span_name = name.rsplit(".", 1)[0]
                metrics[f"{span_name}.calls"] = per_round(len(spans(span_name)))
        metrics["gateway.Gateway.complete.calls"] = per_round(len(spans("gateway.Gateway.complete")))
        metrics["gateway.Gateway.complete.hits"] = per_round(len(spans("gateway.Gateway.complete", True)))
        metrics["gateway.Gateway.complete.misses"] = per_round(len(spans("gateway.Gateway.complete", False)))
        metrics["gateway.complete_structured.calls"] = per_round(len(structured))
        return metrics

"""Workload rounds, instruments and output checks for the rerail benchmark.

A round sets the program up from the generated inputs, runs it through the
public API that ``rerail run`` and ``rerail replay`` use, times each part,
and checks every output against the generator's expectations and against
properties the method must have. Rounds of one run repeat the same work, so
a run reports the median of its rounds.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from rerail import config as rconfig
from rerail import dataset as rdataset
from rerail import gateway as rgateway
from rerail import harness

# Simulated model latency per backend call. On latency-bound it is long next
# to the harness's own per-call cost, so elapsed time there is set by the
# number of dependent call rounds per question.
LATENCY_S = {"rerailer-overhead": 0.0, "latency-bound": 0.004, "resume-cached": 0.0}

# Set-ups and replays per round; a round reports the median of each.
SETUPS = 3
REPLAYS = 5

OUTCOME_FIELDS = ("category", "routing", "baseline_answer", "final_answer", "correct_baseline", "correct_final", "cell")


class CheckFailed(Exception):
    """An output of the program differs from what the method must produce."""


class LatencyBackend:
    """Thread-safe backend wrapper, for benchmark use only: sleeps a fixed
    time per call, then delegates, and counts the calls it served."""

    def __init__(self, inner, latency_s: float) -> None:
        self._inner = inner
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self.calls = 0

    def call(self, prompt, params, context):
        if self._latency_s:
            time.sleep(self._latency_s)
        result = self._inner.call(prompt, params, context)
        with self._lock:
            self.calls += 1
        return result


class TimedGateway(rgateway.Gateway):
    """Gateway that records each completion's start and end, keyed by
    question, so per-question time and call depth can be read off."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str, float, float, bool]] = []

    def complete(self, prompt, params, context):
        start = time.perf_counter()
        result = super().complete(prompt, params, context)
        self.records.append((context.question_id, start, time.perf_counter(), result.from_cache))
        return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def call_depth(intervals: list[tuple[float, float]]) -> int:
    """Largest set of calls that do not overlap in time (dependent rounds)."""
    depth, reach = 0, -math.inf
    for start, end in sorted(intervals, key=lambda pair: pair[1]):
        if start >= reach:
            depth, reach = depth + 1, end
    return depth


@dataclass
class Setup:
    mode: str
    settings: object
    questions: list
    backend: LatencyBackend
    gateway: TimedGateway


def set_up(inputs: Path, mode: str, latency_s: float, cache_dir: Path, parallelism: int | None) -> Setup:
    """Config, dataset, script and gateway, as ``rerail run`` builds them."""
    settings = rconfig.load_settings(inputs / "config.json").with_overrides(parallelism=parallelism)
    questions = rdataset.load_dataset(inputs / f"{mode}.dataset.jsonl")
    backend = LatencyBackend(rgateway.ScriptedBackend.from_file(inputs / f"{mode}.script.jsonl"), latency_s)
    cache = bool(settings.cache_enabled)
    gateway = TimedGateway(
        backend,
        cache_dir=cache_dir if cache else None,
        cache_enabled=cache,
        max_in_flight=settings.max_in_flight,
        requests_per_minute=settings.requests_per_minute,
    )
    return Setup(mode, settings, questions, backend, gateway)


@dataclass
class Round:
    traced: bool = False
    setup_s: float = 0.0
    run_s: float = 0.0
    replay_s: float = 0.0
    executed: int = 0
    failed: int = 0
    served: int = 0
    hits: int = 0
    lookups: int = 0
    calls_in_report: int = 0
    questions_in_report: int = 0
    question_ms: list[float] = field(default_factory=list)
    depth: dict[str, list[int]] = field(default_factory=dict)
    reports: dict[str, bytes] = field(default_factory=dict)


def check_report(report: dict, expected: dict) -> None:
    for key in ("counts", "accuracy", "confusion_matrix"):
        if report[key] != expected[key]:
            raise CheckFailed(f"report {key} is {report[key]}, expected {expected[key]}")
    usage = {
        stage: {
            "calls": block["live_calls"] + block["cached_calls"],
            "prompt_tokens": block["prompt_tokens"],
            "completion_tokens": block["completion_tokens"],
        }
        for stage, block in report["usage"]["by_stage"].items()
    }
    if usage != expected["usage_by_stage"]:
        raise CheckFailed(f"report usage by stage is {usage}, expected {expected['usage_by_stage']}")


def check_outcomes(out_dir: Path, expected: dict, from_cache: set[str]) -> None:
    """Every persisted outcome against its question's expectation; calls of
    questions in ``from_cache`` must all have been served by the cache."""
    with open(out_dir / "outcomes.jsonl", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    ids = sorted(row["question_id"] for row in rows)
    if ids != sorted(expected):
        raise CheckFailed(f"outcomes.jsonl holds {len(ids)} questions, expected {len(expected)} distinct")
    for row in rows:
        qid, want = row["question_id"], expected[row["question_id"]]
        if row["error"] is not None:
            raise CheckFailed(f"question {qid} failed: {row['error']}")
        for key in OUTCOME_FIELDS:
            if row[key] != want[key]:
                raise CheckFailed(f"question {qid} ({want['scenario']}): {key} is {row[key]!r}, expected {want[key]!r}")
        cached = qid in from_cache
        usage = {
            stage: {
                "live_calls": 0 if cached else block["calls"],
                "cached_calls": block["calls"] if cached else 0,
                "prompt_tokens": block["prompt_tokens"],
                "completion_tokens": block["completion_tokens"],
            }
            for stage, block in want["usage"].items()
        }
        got = {
            stage: {key: block[key] for key in ("live_calls", "cached_calls", "prompt_tokens", "completion_tokens")}
            for stage, block in row["usage"].items()
        }
        if got != usage:
            raise CheckFailed(f"question {qid} ({want['scenario']}): usage {got}, expected {usage}")


def execute(setup: Setup, out_dir: Path, rnd: Round, expected: dict, from_cache: set[str]) -> dict:
    """The timed run and replay of one mode, then every check on them.
    Questions in ``from_cache`` are the ones a resumed run re-executes."""
    gc.collect()
    start = time.perf_counter()
    report = harness.run(setup.questions, setup.settings, setup.mode, out_dir, setup.gateway)
    rnd.run_s += time.perf_counter() - start
    written = (out_dir / "report.json").read_bytes()
    gc.collect()
    replay_s = []
    for _ in range(REPLAYS):
        start = time.perf_counter()
        replayed = harness.replay(out_dir)
        replay_s.append(time.perf_counter() - start)
        if harness.report_to_bytes(replayed) != written:
            raise CheckFailed(f"replay of {setup.mode} does not reproduce report.json byte for byte")
    rnd.replay_s += statistics.median(replay_s)
    check_report(report, expected["report"])
    check_outcomes(out_dir, expected["questions"], from_cache)

    records = setup.gateway.records
    spans: dict[str, list[tuple[float, float]]] = {}
    for qid, begin, end, _ in records:
        spans.setdefault(qid, []).append((begin, end))
    rnd.executed += len(from_cache) if from_cache else len(setup.questions)
    rnd.failed += report["counts"]["failed"]
    rnd.served += len(records)
    rnd.hits += sum(1 for record in records if record[3])
    rnd.lookups += len(records) if setup.settings.cache_enabled else 0
    rnd.question_ms.extend((max(e for _, e in s) - min(b for b, _ in s)) * 1e3 for s in spans.values())
    rnd.depth.setdefault(setup.mode, []).extend(call_depth(s) for s in spans.values())
    rnd.calls_in_report += sum(b["live_calls"] + b["cached_calls"] for b in report["usage"]["by_stage"].values())
    rnd.questions_in_report += report["counts"]["total"]
    rnd.reports[setup.mode] = written
    return report


def timed_setup(rnd: Round, *args) -> Setup:
    """Set up SETUPS times; the round counts the median time and runs the last."""
    times = []
    for _ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        setup = set_up(*args)
        times.append(time.perf_counter() - start)
    rnd.setup_s += statistics.median(times)
    return setup


class Workload:
    """Fresh runs of each mode into empty directories (rerailer-overhead,
    latency-bound)."""

    def __init__(self, name: str, inputs: Path, work: Path, parallelism: int | None) -> None:
        self.name = name
        self.inputs = inputs
        self.work = work
        self.parallelism = parallelism
        self.latency_s = LATENCY_S[name]
        with open(inputs / "expected.json", encoding="utf-8") as handle:
            self.expected = json.load(handle)["modes"]

    def prepare(self) -> None:
        """Untimed preparation, once per run."""

    def round(self, index: int, traced: bool) -> Round:
        rnd = Round(traced=traced)
        base = self.work / f"round-{index}"
        setups = [
            timed_setup(rnd, self.inputs, mode, self.latency_s, base / mode / "cache", self.parallelism)
            for mode in self.expected
        ]
        for setup in setups:
            execute(setup, base / setup.mode, rnd, self.expected[setup.mode], set())
            needed = sum(block["calls"] for block in self.expected[setup.mode]["report"]["usage_by_stage"].values())
            if setup.backend.calls != needed:
                raise CheckFailed(f"{setup.mode}: backend served {setup.backend.calls} calls, expected {needed}")
        shutil.rmtree(base)
        return rnd


class ResumeWorkload(Workload):
    """A cache-on rerailer run cut back to its first half of outcomes, then
    resumed: the rest re-executes with every completion from the cache."""

    MODE = "rerailer"

    def prepare(self) -> None:
        full_dir = self.work / "full"
        setup = set_up(self.inputs, self.MODE, self.latency_s, full_dir / "cache", self.parallelism)
        expected = self.expected[self.MODE]
        self.full_report = execute(setup, full_dir, Round(), expected, set())
        self.cache_dir = full_dir / "cache"
        with open(full_dir / "outcomes.jsonl", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        self.kept = lines[: len(lines) // 2]
        kept_ids = {json.loads(line)["question_id"] for line in self.kept}
        self.resumed_ids = set(expected["questions"]) - kept_ids

    def round(self, index: int, traced: bool) -> Round:
        rnd = Round(traced=traced)
        out_dir = self.work / f"round-{index}"
        out_dir.mkdir(parents=True)
        (out_dir / "outcomes.jsonl").write_text("".join(self.kept), encoding="utf-8")
        setup = timed_setup(rnd, self.inputs, self.MODE, self.latency_s, self.cache_dir, self.parallelism)
        report = execute(setup, out_dir, rnd, self.expected[self.MODE], self.resumed_ids)
        if setup.backend.calls:
            raise CheckFailed(f"resume made {setup.backend.calls} backend calls, expected none")
        for key in ("counts", "accuracy", "confusion_matrix"):
            if report[key] != self.full_report[key]:
                raise CheckFailed(f"resumed report {key} differs from the uninterrupted run")
        shutil.rmtree(out_dir)
        return rnd


def make(name: str, inputs: Path, work: Path, parallelism: int | None) -> Workload:
    cls = ResumeWorkload if name == "resume-cached" else Workload
    return cls(name, inputs, work, parallelism)


def end_to_end(rounds: list[Round], peak_rss_mb: float) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(r.setup_s for r in rounds),
        "questions_per_s": med(r.executed / r.run_s for r in rounds),
        "calls_per_s": med(r.served / r.run_s for r in rounds),
        "question_ms.p50": med(percentile(r.question_ms, 0.50) for r in rounds),
        "question_ms.p95": med(percentile(r.question_ms, 0.95) for r in rounds),
        "replay_s": med(r.replay_s for r in rounds),
        "calls_per_question": rounds[0].calls_in_report / rounds[0].questions_in_report,
        "peak_rss_mb": peak_rss_mb,
    }


def check_deterministic(rounds: list[Round]) -> None:
    """Rounds of one run share a seed, so their reports must be identical."""
    for rnd in rounds[1:]:
        for mode, written in rnd.reports.items():
            if written != rounds[0].reports[mode]:
                raise CheckFailed(f"{mode}: two runs with the same seed wrote different report.json bytes")

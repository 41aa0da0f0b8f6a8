"""Dataset-scale orchestration and reporting.

Runs one of four modes per question (single chain-of-thought, self-
consistency voting, multi-agent debate, or the full derail-and-repair
pipeline), grades the answers, and emits:

* outcomes.jsonl — one graded record per question (the persistence layer;
  a re-run over the same directory replays these instead of re-executing)
* traces.jsonl — the per-question audit trail, one line per question
* cache/completions.jsonl — the completion cache, when it is on
* report.json — accuracy, confusion matrix, usage, and cost projections,
  a pure function of the outcomes plus the config snapshot
* accuracy_by_category.csv, confusion_matrix.csv, cost.csv

The three streams share one append-only format (``jsonl``).
"""

from __future__ import annotations

import csv
import json
import os
import signal
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Optional

from . import jsonl
from .config import ConfigError, RunSettings, call_params, settings_from_dict
from .derailment import Consistent, Derailed, generate_rps, route
from .gateway import (
    CallContext,
    Gateway,
    LiveBackend,
    ScriptedBackend,
    StageUsage,
    complete_structured,
)
from .grading import answer_bucket, grade_safe, majority_answer
from .parsing import last_answer_marker
from .prompts import TEMPLATE_MAD_INITIAL, TEMPLATE_MAD_REVISION, TEMPLATE_RAW_COT, render_prompt
from .rerailer import rerail
from .types import Category, Question, RerailError, STAGE_COT, STAGE_MAD

MODE_COT = "cot"
MODE_SC = "sc"
MODE_MAD = "mad"
MODE_RERAILER = "rerailer"

CELL_TP = "TP"
CELL_TN = "TN"
CELL_FN = "FN"
CELL_FP = "FP"
CELLS = (CELL_TP, CELL_TN, CELL_FN, CELL_FP)

FLAG_SC_TIE = "sc-tie"
FLAG_MAD_TIE = "mad-tie"
FLAG_MAD_FAIL_OPEN = "mad-parse-fail-open"
FLAG_COT_UNPARSEABLE = "cot-unparseable"

OUTCOMES_FILE = "outcomes.jsonl"
REPORT_FILE = "report.json"
CONFIG_FILE = "resolved_config.json"
TRACES_FILE = "traces.jsonl"
CSV_TABLES = ("accuracy_by_category.csv", "confusion_matrix.csv", "cost.csv")

COST_COLUMNS = ("model_id", "n_questions", "cost_usd", "cost_per_1000_usd", "wall_time_s", "hours_per_1000")


class IncompleteTrace(RerailError):
    """A run directory lacks outcomes or the config snapshot, or holds a
    malformed outcome or config snapshot."""


def cell_for(correct_baseline: bool, correct_final: bool) -> str:
    """Joint correctness of the pre-repair answer versus the final answer."""
    if correct_baseline and correct_final:
        return CELL_TP
    if not correct_baseline and correct_final:
        return CELL_TN
    if not correct_baseline and not correct_final:
        return CELL_FN
    return CELL_FP


@dataclass
class QuestionOutcome:
    question_id: str
    category: str
    routing: Optional[str] = None  # "consistent" | "derailed" | None for baselines
    baseline_answer: Optional[str] = None
    final_answer: Optional[str] = None
    correct_baseline: Optional[bool] = None
    correct_final: Optional[bool] = None
    cell: Optional[str] = None
    flags: list[str] = field(default_factory=list)
    usage: dict[str, StageUsage] = field(default_factory=dict)
    error: Optional[str] = None

    def to_json(self) -> dict:
        return dict(vars(self), usage={stage: row.to_json() for stage, row in self.usage.items()})

    @classmethod
    def from_json(cls, payload: dict) -> "QuestionOutcome":
        """A persisted outcome, each field checked and its usage read into
        StageUsage rows; ValueError or TypeError for a malformed record."""
        outcome = cls(**payload)
        bad = outcome._malformed_field()
        if bad is not None:
            raise ValueError(f"malformed {bad} {getattr(outcome, bad)!r}")
        outcome.usage = {stage: StageUsage.from_json(row) for stage, row in outcome.usage.items()}
        return outcome

    def _malformed_field(self) -> Optional[str]:
        """The first field holding a value no run writes, if any."""
        # type() rather than isinstance(): a bool is an int subclass
        if type(self.question_id) is not str or not self.question_id:
            return "question_id"
        if self.category not in _CATEGORIES:
            return "category"
        if self.routing not in (None, "consistent", "derailed"):
            return "routing"
        if type(self.baseline_answer) not in _OPTIONAL_STR:
            return "baseline_answer"
        if type(self.final_answer) not in _OPTIONAL_STR:
            return "final_answer"
        if type(self.correct_baseline) not in _OPTIONAL_BOOL:
            return "correct_baseline"
        if type(self.correct_final) not in _OPTIONAL_BOOL:
            return "correct_final"
        if self.cell not in _OPTIONAL_CELLS:
            return "cell"
        if type(self.flags) is not list or not all(type(flag) is str for flag in self.flags):
            return "flags"
        if type(self.usage) is not dict:
            return "usage"
        if type(self.error) not in _OPTIONAL_STR:
            return "error"
        return None


_CATEGORIES = tuple(category.value for category in Category)
_OPTIONAL_CELLS = (None, *CELLS)
_OPTIONAL_STR = (str, type(None))
_OPTIONAL_BOOL = (bool, type(None))


@dataclass(frozen=True)
class ModeResult:
    """What a mode runner produces for one question, before grading."""

    baseline_raw: Optional[str]
    final_raw: Optional[str]
    routing: Optional[str]
    flags: tuple[str, ...]
    trace: dict


def _extract_answer(text: str) -> Optional[str]:
    """Text after the last answer marker; tolerates missing step structure."""
    marker = last_answer_marker(text)
    return None if marker is None else marker.group(1).strip() or None


def run_cot(question: Question, gateway: Gateway, settings: RunSettings) -> ModeResult:
    """Single chain-of-thought completion at temperature 0. One call, ever."""
    context = CallContext(STAGE_COT, question.id)
    prompt = render_prompt(TEMPLATE_RAW_COT, question)
    result = gateway.complete(prompt, call_params(settings, context), context)
    answer = _extract_answer(result.text)
    flags = () if answer is not None else (FLAG_COT_UNPARSEABLE,)
    return ModeResult(answer, answer, None, flags, {"mode": MODE_COT})


def run_sc_baseline(question: Question, gateway: Gateway, settings: RunSettings) -> ModeResult:
    """Self-consistency: sample sc_budget paths, majority-vote the answer."""
    paths = generate_rps(question, gateway, settings, n=settings.sc_budget)
    answer, tied = majority_answer([p.final_answer for p in paths], question)
    flags = (FLAG_SC_TIE,) if tied else ()
    trace = {
        "mode": MODE_SC,
        "answers": [p.final_answer for p in paths],
        "modal_answer": answer,
    }
    return ModeResult(answer, answer, None, flags, trace)


def _read_answer(fields: dict[str, str]) -> str:
    """A debate agent's answer, which must not be blank."""
    answer = fields.get("answer", "")
    if not answer.strip():
        raise ValueError("missing answer")
    return answer


def run_mad_baseline(question: Question, gateway: Gateway, settings: RunSettings) -> ModeResult:
    """Debate baseline: independent answers, then revision rounds.

    Stops early when all agents agree; the final answer is the last-round
    majority, a tie going to the first-listed leader. A parse failure keeps
    that agent's previous answer (fail-open).
    """
    agents = settings.mad_agents
    answers: list[Optional[str]] = [None] * agents
    flags: list[str] = []
    transcript: list[dict] = []
    for round_no in range(1, settings.mad_rounds + 1):
        if round_no == 1:
            prompt = render_prompt(TEMPLATE_MAD_INITIAL, question)
        else:
            prior = "\n".join(
                f"Agent {i + 1} answered: {answers[i]}"
                for i in range(agents)
                if answers[i] is not None
            ) or "No agent produced an answer yet."
            prompt = render_prompt(TEMPLATE_MAD_REVISION, question, response=prior)

        # Every agent of a round answers the same prompt, so they fan out.
        contexts = [
            CallContext(STAGE_MAD, question.id, agent_id=agent, round=round_no) for agent in range(1, agents + 1)
        ]
        replies = gateway.fan_out([
            partial(complete_structured, gateway, prompt, call_params(settings, c), c, _read_answer) for c in contexts
        ])
        for agent_index, answer in enumerate(replies):
            if answer is None:
                flags.append(FLAG_MAD_FAIL_OPEN)
            else:
                answers[agent_index] = answer
            transcript.append(
                {"agent_id": agent_index + 1, "round": round_no, "answer": answers[agent_index]}
            )

        if None not in answers and len({answer_bucket(a, question) for a in answers}) == 1:
            break

    present = [a for a in answers if a is not None]
    if not present:
        return ModeResult(None, None, None, tuple(flags), {"mode": MODE_MAD, "transcript": transcript})
    final, tied = majority_answer(present, question)
    if tied:
        flags.append(FLAG_MAD_TIE)
    trace = {"mode": MODE_MAD, "transcript": transcript, "rounds_run": round_no}
    return ModeResult(final, final, None, tuple(flags), trace)


def run_rerailer_mode(question: Question, gateway: Gateway, settings: RunSettings) -> ModeResult:
    """Full pipeline: route on consistency, then repair derailed paths."""
    routed = route(question, gateway, settings)
    if isinstance(routed, Consistent):
        trace = {
            "mode": MODE_RERAILER,
            "routing": "consistent",
            "rule_fired": routed.verdict.rule_fired,
            "answers": list(routed.verdict.answers),
        }
        return ModeResult(
            routed.answer_raw, routed.answer_raw, "consistent", routed.flags, trace
        )

    assert isinstance(routed, Derailed)
    result = rerail(question, routed.selected, gateway, settings)
    flags = tuple(sorted(set(routed.flags) | set(result.flags)))
    trace = {
        "mode": MODE_RERAILER,
        "routing": "derailed",
        "rule_fired": routed.verdict.rule_fired,
        "answers": list(routed.verdict.answers),
        "selected_index": routed.selected_index,
        "judge_rationale": routed.judge_rationale,
        "iterations_run": result.iterations_run,
        "certified": result.certified,
        "rerail": result.trace,
    }
    return ModeResult(
        routed.selected.final_answer, result.path.final_answer, "derailed", flags, trace
    )


_MODE_RUNNERS = {
    MODE_COT: run_cot,
    MODE_SC: run_sc_baseline,
    MODE_MAD: run_mad_baseline,
    MODE_RERAILER: run_rerailer_mode,
}
MODES = tuple(_MODE_RUNNERS)
BACKENDS = ("live", "scripted")  # the backends make_gateway builds


def make_gateway(
    settings: RunSettings,
    backend_kind: str,
    script_path: Optional[str | Path] = None,
    out_dir: Optional[str | Path] = None,
) -> Gateway:
    """Gateway wired for a run: scripted replays, live caches by default."""
    if backend_kind == "scripted":
        if script_path is None:
            raise ValueError("scripted backend requires a script file")
        backend = ScriptedBackend.from_file(script_path)
        cache_enabled = bool(settings.cache_enabled)
    elif backend_kind == "live":
        backend = LiveBackend(
            endpoint=settings.endpoint,
            api_key_env=settings.api_key_env,
            timeout_s=settings.timeout_s,
        )
        cache_enabled = settings.cache_enabled is not False
    else:
        raise ValueError(f"unknown backend {backend_kind!r}")

    cache_dir = Path(out_dir) / "cache" if (cache_enabled and out_dir is not None) else None
    if cache_dir is not None and any(cache_dir.glob("*.json")):
        raise ConfigError(
            f"{cache_dir} holds a completion cache of one file per completion, which this "
            "version does not read; move it aside or use a new --out directory"
        )
    return Gateway(
        backend,
        cache_dir=cache_dir,
        cache_enabled=cache_enabled and cache_dir is not None,
        max_in_flight=settings.max_in_flight,
        requests_per_minute=settings.requests_per_minute,
    )


def grade_outcome(question: Question, mode_result: ModeResult, settings: RunSettings) -> QuestionOutcome:
    """Grade a mode result into a persisted outcome record."""
    tolerances = settings.abs_tolerance, settings.rel_tolerance
    correct_baseline, base_flags = grade_safe(mode_result.baseline_raw, question, *tolerances)
    correct_final, final_flags = grade_safe(mode_result.final_raw, question, *tolerances)
    flags = sorted(set(mode_result.flags) | set(base_flags) | set(final_flags))
    cell = None
    if mode_result.routing == "derailed":
        cell = cell_for(correct_baseline, correct_final)
    return QuestionOutcome(
        question_id=question.id,
        category=question.category.value,
        routing=mode_result.routing,
        baseline_answer=mode_result.baseline_raw,
        final_answer=mode_result.final_raw,
        correct_baseline=correct_baseline,
        correct_final=correct_final,
        cell=cell,
        flags=flags,
    )


def run_question(
    question: Question, mode: str, gateway: Gateway, settings: RunSettings
) -> tuple[QuestionOutcome, dict]:
    """Execute one question; a RerailError (provider, script, generation)
    becomes a recorded failed outcome, any other exception propagates."""
    runner = _MODE_RUNNERS[mode]
    with gateway.recording() as ledger:
        try:
            mode_result = runner(question, gateway, settings)
            outcome = grade_outcome(question, mode_result, settings)
            trace = mode_result.trace
        except RerailError as exc:  # recorded per question; the run continues
            outcome = QuestionOutcome(
                question_id=question.id,
                category=question.category.value,
                flags=["question-failed"],
                error=f"{type(exc).__name__}: {exc}",
            )
            trace = {"mode": mode, "error": outcome.error}
    outcome.usage = ledger.question_usage()
    return outcome, trace


def _accuracy_block(outcomes: list[QuestionOutcome], correct_field: str = "correct_final") -> dict:
    """Correct count, graded total and accuracy of one correctness field."""
    graded = [o for o in outcomes if o.error is None]
    correct = sum(1 for o in graded if getattr(o, correct_field))
    total = len(graded)
    return {
        "correct": correct,
        "total": total,
        "accuracy": (correct / total) if total else None,
    }


def confusion_matrix(outcomes: list[QuestionOutcome]) -> dict:
    """Cell counts overall and per category, over derailed questions only."""
    def count(rows: list[QuestionOutcome]) -> dict:
        cells = {cell: 0 for cell in CELLS}
        for row in rows:
            if row.cell is not None:
                cells[row.cell] += 1
        return cells

    categories = sorted({o.category for o in outcomes})
    return {
        "overall": count(outcomes),
        "by_category": {cat: count([o for o in outcomes if o.category == cat]) for cat in categories},
    }


def _usage_by_stage(usages: Iterable[dict[str, StageUsage]]) -> dict[str, StageUsage]:
    """Per-stage usage blocks summed by stage, in the given order."""
    by_stage: dict[str, StageUsage] = defaultdict(StageUsage)
    for usage in usages:
        for stage, row in usage.items():
            by_stage[stage].merge(row)
    return by_stage


def usage_totals(outcomes: list[QuestionOutcome]) -> dict:
    """Aggregate per-stage usage across outcomes (pure, from persisted rows)."""
    by_stage = _usage_by_stage(outcome.usage for outcome in outcomes)
    total = StageUsage()
    for row in by_stage.values():
        total.merge(row)
    payload = total.to_json()
    payload["by_stage"] = {stage: row.to_json() for stage, row in sorted(by_stage.items())}
    return payload


def cost_report(usage: dict, price_table: dict, model_id: str, n_questions: int) -> dict:
    """Dollar and wall-time projections per 1000 questions.

    ``price_table`` maps model id to {"prompt_per_1k": $, "completion_per_1k": $}.
    Billing covers live calls only; cached replays are free.
    """
    price = price_table[model_id]
    cost = (
        usage["billed_prompt_tokens"] / 1000.0 * float(price["prompt_per_1k"])
        + usage["billed_completion_tokens"] / 1000.0 * float(price["completion_per_1k"])
    )
    scale = (1000.0 / n_questions) if n_questions else 0.0
    wall_s = usage["wall_time_s"]
    return {
        "model_id": model_id,
        "n_questions": n_questions,
        "cost_usd": cost,
        "cost_per_1000_usd": round(cost * scale, 1),
        "wall_time_s": wall_s,
        "hours_per_1000": round(wall_s * scale / 3600.0, 1),
    }


def build_report(outcomes: list[QuestionOutcome], config_snapshot: dict, mode: str) -> dict:
    """The full run report. Pure: same outcomes + config -> same bytes."""
    ordered = sorted(outcomes, key=lambda o: o.question_id)
    failed = [o for o in ordered if o.error is not None]
    graded = [o for o in ordered if o.error is None]

    counts: dict = {"total": len(ordered), "failed": len(failed)}
    if mode == MODE_RERAILER:
        counts["consistent"] = sum(1 for o in graded if o.routing == "consistent")
        counts["derailed"] = sum(1 for o in graded if o.routing == "derailed")
    else:
        counts["consistent"] = None
        counts["derailed"] = None

    categories = sorted({o.category for o in ordered})
    accuracy = {
        "overall": _accuracy_block(ordered),
        "by_category": {cat: _accuracy_block([o for o in ordered if o.category == cat]) for cat in categories},
    }
    if mode == MODE_RERAILER:
        consistent_rows = [o for o in graded if o.routing == "consistent"]
        derailed_rows = [o for o in graded if o.routing == "derailed"]
        accuracy["split"] = {
            "consistent_route": _accuracy_block(consistent_rows),
            "derailed_route": _accuracy_block(derailed_rows),
            "derailed_before_repair": _accuracy_block(derailed_rows, "correct_baseline"),
        }

    usage = usage_totals(ordered)
    snapshot_prices = config_snapshot.get("price_table", {})
    model_id = config_snapshot.get("model_id", "")
    cost: Optional[dict] = None
    if model_id in snapshot_prices:
        cost = cost_report(usage, snapshot_prices, model_id, len(graded))

    report = {
        "mode": mode,
        "config": config_snapshot,
        "counts": counts,
        "accuracy": accuracy,
        "confusion_matrix": confusion_matrix(ordered) if mode == MODE_RERAILER else None,
        "usage": usage,
        "cost": cost,
    }
    return report


def report_to_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _replace_whole(path: Path, data: bytes) -> None:
    """Put ``data`` at ``path`` through a temporary file beside it, so a
    write that fails part-way, or is interrupted, leaves the old file whole."""
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_report(out_dir: str | Path, report: dict) -> bool:
    """Write report.json and the three CSV tables; whether report.json
    held other bytes before, or was missing."""
    out_dir = Path(out_dir)
    report_path, data = out_dir / REPORT_FILE, report_to_bytes(report)
    changed = not report_path.exists() or report_path.read_bytes() != data
    _replace_whole(report_path, data)
    accuracy_csv, confusion_csv, cost_csv = (out_dir / name for name in CSV_TABLES)
    with open(accuracy_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["category", "correct", "total", "accuracy"])
        for category, block in sorted(report["accuracy"]["by_category"].items()):
            writer.writerow([category, block["correct"], block["total"], block["accuracy"]])
        overall = report["accuracy"]["overall"]
        writer.writerow(["overall", overall["correct"], overall["total"], overall["accuracy"]])

    with open(confusion_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scope", "TP", "TN", "FN", "FP"])
        matrix = report.get("confusion_matrix")
        if matrix:
            overall = matrix["overall"]
            writer.writerow(["overall"] + [overall[c] for c in CELLS])
            for category, cells in sorted(matrix["by_category"].items()):
                writer.writerow([category] + [cells[c] for c in CELLS])

    with open(cost_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COST_COLUMNS)
        cost = report.get("cost")
        if cost:
            writer.writerow([cost[column] for column in COST_COLUMNS])
    return changed


def load_outcomes(path: Path) -> list[QuestionOutcome]:
    """The outcome of each question, the last committed line for an id
    winning. A malformed committed line, usage block included, raises
    IncompleteTrace."""
    latest: dict[str, QuestionOutcome] = {}
    for line_no, line in jsonl.lines(path):
        try:
            outcome = QuestionOutcome.from_json(jsonl.loads(line))
        except (ValueError, TypeError) as exc:
            raise IncompleteTrace(f"{path} line {line_no}: malformed outcome ({exc})") from None
        latest[outcome.question_id] = outcome
    return list(latest.values())


def _check_resumable(config_path: Path, config_snapshot: dict) -> None:
    """Refuse to add to a directory written under a different config, even
    one with no outcomes yet: its cached completions would be reused.

    Only the worker pool width may change between runs. A directory without
    a readable snapshot (a JSON object) resumes as it is.
    """
    try:
        stored = jsonl.loads(config_path.read_bytes())
    except (FileNotFoundError, ValueError):
        stored = None
    if not isinstance(stored, dict):
        return
    for key in sorted(set(stored) | set(config_snapshot)):
        if key != "parallelism" and stored.get(key) != config_snapshot.get(key):
            raise ConfigError(
                f"{config_path.parent} holds a run with {key}={stored.get(key)!r}, "
                f"not {config_snapshot.get(key)!r}; use a new --out directory"
            )


def _leave_stop_signals_to_the_main_thread() -> None:
    """Block SIGINT and SIGTERM on this worker thread and on the fan-out
    threads it starts, which inherit its mask. The kernel may deliver a
    signal to any thread that does not block it, and only one delivered to
    the main thread wakes it from its wait for the questions."""
    if hasattr(signal, "pthread_sigmask"):  # POSIX
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})


def run(
    questions: list[Question],
    settings: RunSettings,
    mode: str,
    out_dir: str | Path,
    gateway: Gateway,
) -> dict:
    """Run a mode over a dataset and write the full artifact set.

    Questions with a successful outcome in the directory's outcomes.jsonl
    are replayed from disk (no calls, no billing); the rest, failed ones
    included, execute in a worker pool of width settings.parallelism. A
    re-run failed question keeps the usage of its earlier attempts. Each
    finished question appends its trace line, then its outcome line. A
    directory holding outcomes of questions the dataset lacks is refused.
    On a KeyboardInterrupt the questions in flight finish and append their
    lines, the rest never start, and a KeyboardInterrupt saying how many
    did not run is raised.
    """
    if mode not in _MODE_RUNNERS:
        raise ValueError(f"unknown mode {mode!r}")
    out_path = Path(out_dir)
    outcomes_path = out_path / OUTCOMES_FILE
    traces_path = out_path / TRACES_FILE
    config_snapshot = settings.to_json()
    config_snapshot["mode"] = mode
    _check_resumable(out_path / CONFIG_FILE, config_snapshot)
    stored: dict[str, QuestionOutcome] = {}
    if outcomes_path.exists():
        stored = {o.question_id: o for o in load_outcomes(outcomes_path)}
        ids = {q.id for q in questions}
        extra = next((qid for qid in stored if qid not in ids), None)
        if extra is not None:
            raise ConfigError(
                f"{out_path} holds an outcome of question {extra!r}, which the dataset lacks; "
                "use a new --out directory"
            )
    outcomes = {qid: o for qid, o in stored.items() if o.error is None}

    out_path.mkdir(parents=True, exist_ok=True)
    _replace_whole(out_path / CONFIG_FILE, report_to_bytes(config_snapshot))

    pending = [q for q in questions if q.id not in outcomes]
    write_lock = threading.Lock()
    with jsonl.append(traces_path) as traces, jsonl.append(outcomes_path) as rows:

        def execute(question: Question) -> None:
            outcome, trace = run_question(question, mode, gateway, settings)
            if question.id in stored:  # a failed attempt, run again
                merged = _usage_by_stage([stored[question.id].usage, outcome.usage])
                outcome.usage = dict(sorted(merged.items()))
            trace_line = jsonl.encode({"question_id": question.id, "trace": trace})
            outcome_line = jsonl.encode(outcome.to_json())
            with write_lock:
                traces.write(trace_line)
                traces.flush()
                rows.write(outcome_line)
                rows.flush()
                outcomes[question.id] = outcome

        # One wait for every question at once; waiting on each future in turn
        # would wake this thread, and hand the GIL back and forth, after every
        # question. The run scope reads the cache before any worker starts.
        with (
            gateway.run_scope(),
            ThreadPoolExecutor(settings.parallelism, initializer=_leave_stop_signals_to_the_main_thread) as pool,
        ):
            futures = []
            try:  # opened before the first submit, so an interrupt while submitting also cancels
                for question in pending:
                    futures.append(pool.submit(execute, question))
                wait(futures)
            except BaseException as stop:
                pool.shutdown(cancel_futures=True)
                if type(stop) is not KeyboardInterrupt:
                    raise
                not_run = len(pending) - len(futures) + sum(future.cancelled() for future in futures)
                raise KeyboardInterrupt(f"{not_run} of {len(pending)} questions did not run; rerun to resume") from None
    for future in futures:
        future.result()

    report = build_report([outcomes[q.id] for q in questions], config_snapshot, mode)
    write_report(out_path, report)
    return report


def replay(out_dir: str | Path) -> dict:
    """Recompute the report from a run directory's persisted outcomes."""
    out_path = Path(out_dir)
    outcomes_path = out_path / OUTCOMES_FILE
    config_path = out_path / CONFIG_FILE
    if not outcomes_path.exists() or not config_path.exists():
        raise IncompleteTrace(
            f"{out_dir} lacks {OUTCOMES_FILE} or {CONFIG_FILE}; cannot replay"
        )
    try:
        config_snapshot = jsonl.loads(config_path.read_bytes())
    except ValueError:
        config_snapshot = None
    if not isinstance(config_snapshot, dict):
        raise IncompleteTrace(f"{config_path} does not hold a config object; cannot replay")
    # the snapshot is the settings run wrote, plus the mode
    settings = dict(config_snapshot)
    mode = settings.pop("mode", None)
    try:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
        settings_from_dict(settings)
    except ConfigError as exc:
        raise IncompleteTrace(f"{config_path} does not hold a valid config ({exc}); cannot replay") from None
    return build_report(load_outcomes(outcomes_path), config_snapshot, mode)

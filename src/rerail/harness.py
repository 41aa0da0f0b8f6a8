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
import fcntl
import io
import json
import os
import signal
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import partial, reduce
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from . import jsonl
from .config import FIELD_NAMES, ConfigError, RunSettings, call_params, settings_from_dict
from .derailment import generate_rps, route
from .gateway import (
    CallContext,
    Gateway,
    LiveBackend,
    ScriptedBackend,
    USAGE_FIELDS,
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


# An outcome row, as outcomes.jsonl holds it: each of these fields, no other.
# routing is "consistent" or "derailed" in rerailer mode, None otherwise.
OUTCOME_FIELDS = ("question_id", "category", "routing", "baseline_answer", "final_answer",
                  "correct_baseline", "correct_final", "cell", "flags", "usage", "error")
_OUTCOME_KEYS = frozenset(OUTCOME_FIELDS)
_CATEGORIES = tuple(category.value for category in Category)
_OPTIONAL_CELLS = (None, *CELLS)
_OPTIONAL_STR = (str, type(None))
_OPTIONAL_BOOL = (bool, type(None))
_USAGE_KEYS = frozenset(USAGE_FIELDS)
_usage_values = itemgetter(*USAGE_FIELDS)
_counts = itemgetter(*USAGE_FIELDS[:-1])
_NO_USAGE = (0,) * 6 + (0.0,)  # also the least value of each count


def outcome_row(question_id: str, category: str, **fields) -> dict:
    """An outcome row: ``fields``, no flags, no usage, and None in every
    other field."""
    row = dict.fromkeys(OUTCOME_FIELDS)
    row.update(question_id=question_id, category=category, flags=[], usage={})
    row.update(fields)
    return row


def read_outcome(payload) -> dict:
    """A persisted outcome row, each field checked, usage rows included;
    ValueError saying what is wrong for a malformed one."""
    jsonl.fields(payload, _OUTCOME_KEYS, _OUTCOME_KEYS)
    bad = _malformed_field(payload)
    if bad is not None:
        raise ValueError(f"malformed {bad} {payload[bad]!r}")
    for row in payload["usage"].values():
        # six counts, each at least its 0 in _NO_USAGE, then wall_time_s, an amount
        if type(row) is not dict or row.keys() != _USAGE_KEYS or not (
            all(map(jsonl.is_count, _counts(row), _NO_USAGE)) and jsonl.is_amount(row["wall_time_s"])
        ):
            raise ValueError(f"malformed usage {row!r}")
    return payload


def _malformed_field(row: dict) -> Optional[str]:
    """The first field holding a value no run writes, if any."""
    # type() rather than isinstance(): a bool is an int subclass
    if type(row["question_id"]) is not str or not row["question_id"]:
        return "question_id"
    if row["category"] not in _CATEGORIES:
        return "category"
    if row["routing"] not in (None, "consistent", "derailed"):
        return "routing"
    if type(row["baseline_answer"]) not in _OPTIONAL_STR:
        return "baseline_answer"
    if type(row["final_answer"]) not in _OPTIONAL_STR:
        return "final_answer"
    if type(row["correct_baseline"]) not in _OPTIONAL_BOOL:
        return "correct_baseline"
    if type(row["correct_final"]) not in _OPTIONAL_BOOL:
        return "correct_final"
    if row["cell"] not in _OPTIONAL_CELLS:
        return "cell"
    if type(row["flags"]) is not list or not all(type(flag) is str for flag in row["flags"]):
        return "flags"
    if type(row["usage"]) is not dict:
        return "usage"
    if type(row["error"]) not in _OPTIONAL_STR:
        return "error"
    return None


def _extract_answer(text: str) -> Optional[str]:
    """Text after the last answer marker; tolerates missing step structure."""
    marker = last_answer_marker(text)
    return None if marker is None else marker.group(1).strip() or None


# What a mode runner returns for one question, before grading: (baseline
# answer, final answer, flags, trace), each answer raw as the model gave it.
Answered = tuple[Optional[str], Optional[str], tuple[str, ...], dict]


def run_cot(question: Question, gateway: Gateway, settings: RunSettings) -> Answered:
    """Single chain-of-thought completion at temperature 0. One call, ever."""
    context = CallContext(STAGE_COT, question.id)
    prompt = render_prompt(TEMPLATE_RAW_COT, question)
    result = gateway.complete(prompt, call_params(settings, context), context)
    answer = _extract_answer(result.text)
    flags = () if answer is not None else (FLAG_COT_UNPARSEABLE,)
    return answer, answer, flags, {"mode": MODE_COT}


def run_sc_baseline(question: Question, gateway: Gateway, settings: RunSettings) -> Answered:
    """Self-consistency: sample sc_budget paths, majority-vote the answer."""
    answers = [p.final_answer for p in generate_rps(question, gateway, settings, n=settings.sc_budget)]
    answer, tied = majority_answer(answers, question)
    flags = (FLAG_SC_TIE,) if tied else ()
    return answer, answer, flags, {"mode": MODE_SC, "answers": answers, "modal_answer": answer}


def _read_answer(fields: dict[str, str]) -> str:
    """A debate agent's answer, which must not be blank."""
    answer = fields.get("answer", "")
    if not answer.strip():
        raise ValueError("missing answer")
    return answer


def run_mad_baseline(question: Question, gateway: Gateway, settings: RunSettings) -> Answered:
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
        return None, None, tuple(flags), {"mode": MODE_MAD, "transcript": transcript}
    final, tied = majority_answer(present, question)
    if tied:
        flags.append(FLAG_MAD_TIE)
    trace = {"mode": MODE_MAD, "transcript": transcript, "rounds_run": round_no}
    return final, final, tuple(flags), trace


def run_rerailer_mode(question: Question, gateway: Gateway, settings: RunSettings) -> Answered:
    """Full pipeline: route on consistency, then repair derailed paths."""
    answer, selected, flags, fields = route(question, gateway, settings)
    trace = {"mode": MODE_RERAILER, **fields}
    if selected is None:
        return answer, answer, tuple(flags), trace
    path, repair_flags, repair_fields = rerail(question, selected, gateway, settings)
    trace.update(repair_fields)
    return answer, path.final_answer, (*flags, *repair_flags), trace


_MODE_RUNNERS = {
    MODE_COT: run_cot,
    MODE_SC: run_sc_baseline,
    MODE_MAD: run_mad_baseline,
    MODE_RERAILER: run_rerailer_mode,
}
MODES = tuple(_MODE_RUNNERS)
_SNAPSHOT_FIELDS = FIELD_NAMES | {"mode"}  # resolved_config.json: every setting, and the mode
BACKENDS = ("live", "scripted")  # the backends make_gateway builds


def make_gateway(
    settings: RunSettings,
    backend_kind: str,
    out_dir: str | Path,
    script_path: Optional[str | Path] = None,
) -> Gateway:
    """Gateway wired for a run in ``out_dir``: scripted replays, live caches
    by default, in ``out_dir``/cache."""
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

    cache_dir = Path(out_dir) / "cache"
    if cache_enabled and any(cache_dir.glob("*.json")):
        raise ConfigError(
            f"{cache_dir} holds a completion cache of one file per completion, which this "
            "version does not read; move it aside or use a new --out directory"
        )
    return Gateway(
        backend,
        cache_dir=cache_dir,
        cache_enabled=cache_enabled,
        max_in_flight=settings.max_in_flight,
        requests_per_minute=settings.requests_per_minute,
    )


def grade_outcome(
    question: Question, settings: RunSettings, baseline: Optional[str], final: Optional[str],
    flags: Iterable[str], routing: Optional[str],
) -> dict:
    """The outcome row of a runner's answers and flags, graded; a cell only
    on the derailed route."""
    tolerances = settings.abs_tolerance, settings.rel_tolerance
    correct_baseline, base_flags = grade_safe(baseline, question, *tolerances)
    correct_final, final_flags = correct_baseline, base_flags
    if final != baseline:
        correct_final, final_flags = grade_safe(final, question, *tolerances)
    return outcome_row(
        question.id,
        question.category.value,
        routing=routing,
        baseline_answer=baseline,
        final_answer=final,
        correct_baseline=correct_baseline,
        correct_final=correct_final,
        cell=cell_for(correct_baseline, correct_final) if routing == "derailed" else None,
        flags=sorted({*flags, *base_flags, *final_flags}),
    )


def run_question(
    question: Question, mode: str, gateway: Gateway, settings: RunSettings
) -> tuple[dict, dict]:
    """Execute one question; a RerailError (provider, script, generation)
    becomes a recorded failed outcome, any other exception propagates."""
    runner = _MODE_RUNNERS[mode]
    with gateway.recording(question.id) as ledger:
        try:
            baseline, final, flags, trace = runner(question, gateway, settings)
            outcome = grade_outcome(question, settings, baseline, final, flags, trace.get("routing"))
        except RerailError as exc:  # recorded per question; the run continues
            outcome = outcome_row(
                question.id, question.category.value, flags=["question-failed"], error=f"{type(exc).__name__}: {exc}"
            )
            trace = {"mode": mode, "error": outcome["error"]}
    outcome["usage"] = ledger.question_usage()
    return outcome, trace


def _accuracy_block(outcomes: list[dict], correct_field: str = "correct_final") -> dict:
    """Correct count, graded total and accuracy of one correctness field."""
    graded = [o for o in outcomes if o["error"] is None]
    correct = sum(1 for o in graded if o[correct_field])
    total = len(graded)
    return {
        "correct": correct,
        "total": total,
        "accuracy": (correct / total) if total else None,
    }


def _overall_and_by_category(outcomes: list[dict], block: Callable[[list[dict]], dict]) -> dict:
    """``block`` of all the outcomes and of each category's, in category order."""
    categories = sorted({o["category"] for o in outcomes})
    return {
        "overall": block(outcomes),
        "by_category": {cat: block([o for o in outcomes if o["category"] == cat]) for cat in categories},
    }


def confusion_matrix(outcomes: list[dict]) -> dict:
    """Cell counts overall and per category, over derailed questions only."""
    def count(rows: list[dict]) -> dict:
        cells = {cell: 0 for cell in CELLS}
        for row in rows:
            if row["cell"] is not None:
                cells[row["cell"]] += 1
        return cells

    return _overall_and_by_category(outcomes, count)


def _usage_sum(rows: Iterable[dict]) -> dict:
    """Usage rows summed field by field in the given order, each count from
    0 and wall_time_s from 0.0 one addition at a time (sum() of floats is
    not that on every Python)."""
    *counts, wall_times = zip(_NO_USAGE, *map(_usage_values, rows))
    return dict(zip(USAGE_FIELDS, (*map(sum, counts), reduce(add, wall_times))))


def _usage_by_stage(usages: Iterable[dict[str, dict]]) -> dict[str, dict]:
    """Per-stage usage rows summed by stage, stages in order of first appearance."""
    rows_by_stage: dict[str, list[dict]] = defaultdict(list)
    for usage in usages:
        for stage, row in usage.items():
            rows_by_stage[stage].append(row)
    return {stage: _usage_sum(rows) for stage, rows in rows_by_stage.items()}


def usage_totals(outcomes: list[dict]) -> dict:
    """Aggregate per-stage usage across outcomes (pure, from persisted rows)."""
    by_stage = _usage_by_stage(outcome["usage"] for outcome in outcomes)
    payload = _usage_sum(by_stage.values())
    payload["by_stage"] = dict(sorted(by_stage.items()))
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


def build_report(outcomes: list[dict], config_snapshot: dict) -> dict:
    """The full run report of the snapshot's mode. Pure: same outcomes + config -> same bytes."""
    mode = config_snapshot["mode"]
    ordered = sorted(outcomes, key=itemgetter("question_id"))
    graded = [o for o in ordered if o["error"] is None]
    consistent_rows = [o for o in graded if o["routing"] == "consistent"]
    derailed_rows = [o for o in graded if o["routing"] == "derailed"]

    counts = dict(total=len(ordered), failed=len(ordered) - len(graded), consistent=None, derailed=None)
    if mode == MODE_RERAILER:
        counts.update(consistent=len(consistent_rows), derailed=len(derailed_rows))

    accuracy = _overall_and_by_category(ordered, _accuracy_block)
    if mode == MODE_RERAILER:
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

    return {
        "mode": mode,
        "config": config_snapshot,
        "counts": counts,
        "accuracy": accuracy,
        "confusion_matrix": confusion_matrix(ordered) if mode == MODE_RERAILER else None,
        "usage": usage,
        "cost": cost,
    }


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
    """Write report.json and the three CSV tables, each replaced whole;
    whether report.json held other bytes before, or was missing."""
    out_dir = Path(out_dir)
    report_path, data = out_dir / REPORT_FILE, report_to_bytes(report)
    changed = not report_path.exists() or report_path.read_bytes() != data
    _replace_whole(report_path, data)
    accuracy = report["accuracy"]
    accuracy_rows = [["category", "correct", "total", "accuracy"]]
    for category, block in [*sorted(accuracy["by_category"].items()), ("overall", accuracy["overall"])]:
        accuracy_rows.append([category, block["correct"], block["total"], block["accuracy"]])

    confusion_rows = [["scope", *CELLS]]
    matrix = report.get("confusion_matrix")
    if matrix:
        for scope, cells in [("overall", matrix["overall"]), *sorted(matrix["by_category"].items())]:
            confusion_rows.append([scope] + [cells[c] for c in CELLS])

    cost_rows = [COST_COLUMNS]
    cost = report.get("cost")
    if cost:
        cost_rows.append([cost[column] for column in COST_COLUMNS])

    for name, rows in zip(CSV_TABLES, (accuracy_rows, confusion_rows, cost_rows)):
        table = io.StringIO(newline="")  # csv.writer ends each row with \r\n itself
        csv.writer(table).writerows(rows)
        _replace_whole(out_dir / name, table.getvalue().encode("utf-8"))
    return changed


def load_outcomes(path: Path) -> list[dict]:
    """The outcome row of each question, the last committed line for an id
    winning. A malformed committed line, usage block included, raises
    IncompleteTrace."""
    latest: dict[str, dict] = {}
    for line_no, line in jsonl.lines(path):
        try:
            outcome = read_outcome(jsonl.loads(line))
        except ValueError as exc:
            raise IncompleteTrace(f"{path} line {line_no}: malformed outcome ({exc})") from None
        latest[outcome["question_id"]] = outcome
    return list(latest.values())


def read_snapshot(config_path: Path) -> Optional[dict]:
    """The config snapshot a run wrote: its settings plus the mode. None if
    the file is missing; IncompleteTrace naming the file unless it holds a
    JSON object with a valid config, every field of it, and a mode of MODES."""
    try:
        snapshot = jsonl.loads(config_path.read_bytes())
    except FileNotFoundError:
        return None
    except ValueError:
        snapshot = None
    if not isinstance(snapshot, dict):
        raise IncompleteTrace(f"{config_path} does not hold a config object")
    try:
        jsonl.fields(snapshot, _SNAPSHOT_FIELDS, _SNAPSHOT_FIELDS)
        if snapshot["mode"] not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {snapshot['mode']!r}")
        settings_from_dict({key: value for key, value in snapshot.items() if key != "mode"})
    except (ConfigError, ValueError) as exc:
        raise IncompleteTrace(f"{config_path} does not hold a valid config ({exc})") from None
    return snapshot


def _check_resumable(config_path: Path, config_snapshot: dict) -> None:
    """Refuse to add to a directory written under a different config, even
    one with no outcomes yet: its cached completions would be reused.

    Only the worker pool width may change between runs. A directory without
    a snapshot resumes as it is; one whose snapshot cannot be read is
    refused (read_snapshot).
    """
    stored = read_snapshot(config_path)
    if stored is None:
        return
    for key in sorted(set(stored) | set(config_snapshot)):
        if key != "parallelism" and stored.get(key) != config_snapshot.get(key):
            raise ConfigError(
                f"{config_path.parent} holds a run with {key}={stored.get(key)!r}, "
                f"not {config_snapshot.get(key)!r}; use a new --out directory"
            )


@contextmanager
def sole_writer(out_dir: str | Path) -> Iterator[None]:
    """Hold an exclusive lock on the run directory itself while the block
    runs; ConfigError naming it if another process holds one. The lock
    (flock, POSIX) makes no file and dies with its process."""
    descriptor = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"{out_dir} is being written by another process; wait for it to end") from None
        yield
    finally:
        os.close(descriptor)


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
    did not run is raised. An exception from a question other than a
    RerailError starts no further question either, and is raised once the
    questions in flight have finished. The run holds the directory's lock
    (sole_writer) from before it reads anything until the report is written.
    """
    if mode not in _MODE_RUNNERS:
        raise ValueError(f"unknown mode {mode!r}")
    out_path = Path(out_dir)
    outcomes_path = out_path / OUTCOMES_FILE
    traces_path = out_path / TRACES_FILE
    config_snapshot = dict(settings.to_json(), mode=mode)
    out_path.mkdir(parents=True, exist_ok=True)
    with sole_writer(out_path):
        _check_resumable(out_path / CONFIG_FILE, config_snapshot)
        stored: dict[str, dict] = {}
        if outcomes_path.exists():
            stored = {o["question_id"]: o for o in load_outcomes(outcomes_path)}
            ids = {q.id for q in questions}
            extra = next((qid for qid in stored if qid not in ids), None)
            if extra is not None:
                raise ConfigError(
                    f"{out_path} holds an outcome of question {extra!r}, which the dataset lacks; "
                    "use a new --out directory"
                )
        outcomes = {qid: o for qid, o in stored.items() if o["error"] is None}

        _replace_whole(out_path / CONFIG_FILE, report_to_bytes(config_snapshot))

        pending = [q for q in questions if q.id not in outcomes]
        write_lock = threading.Lock()
        with jsonl.append(traces_path) as traces, jsonl.append(outcomes_path) as rows:

            def execute(question: Question) -> None:
                outcome, trace = run_question(question, mode, gateway, settings)
                if question.id in stored:  # a failed attempt, run again
                    merged = _usage_by_stage([stored[question.id]["usage"], outcome["usage"]])
                    outcome["usage"] = dict(sorted(merged.items()))
                trace_line = jsonl.encode({"question_id": question.id, "trace": trace})
                outcome_line = jsonl.encode(outcome)
                with write_lock:
                    traces.write(trace_line)
                    traces.flush()
                    rows.write(outcome_line)
                    rows.flush()
                    outcomes[question.id] = outcome

            # Each worker takes the next question when it is free, so a run holds
            # one future per worker, whatever the dataset's size. Taking every
            # question not started (``drain``) is how a run stops: an interrupt,
            # or a non-RerailError from a question, lets the questions in flight
            # finish and starts no other.
            todo = iter(pending)
            take_lock = threading.Lock()

            def take() -> Optional[Question]:
                with take_lock:
                    return next(todo, None)

            def drain() -> int:
                with take_lock:
                    return sum(1 for _ in todo)

            def work() -> None:
                try:
                    while (question := take()) is not None:
                        execute(question)
                except BaseException:
                    drain()
                    raise

            # The run scope reads the cache before any worker starts.
            with (
                gateway.run_scope(),
                ThreadPoolExecutor(settings.parallelism, initializer=_leave_stop_signals_to_the_main_thread) as pool,
            ):
                futures = []
                try:  # opened before the first submit, so an interrupt while submitting also stops the run
                    for _ in range(min(settings.parallelism, len(pending))):
                        futures.append(pool.submit(work))
                    wait(futures)
                except BaseException as stop:
                    not_run = drain()
                    if type(stop) is not KeyboardInterrupt:
                        raise
                    # leaving the pool waits for the questions in flight
                    message = f"{not_run} of {len(pending)} questions did not run; rerun to resume"
                    raise KeyboardInterrupt(message) from None
        for future in futures:
            future.result()

        report = build_report([outcomes[q.id] for q in questions], config_snapshot)
        write_report(out_path, report)
    return report


def replay(out_dir: str | Path) -> dict:
    """Recompute the report from a run directory's persisted outcomes."""
    out_path = Path(out_dir)
    outcomes_path = out_path / OUTCOMES_FILE
    config_snapshot = read_snapshot(out_path / CONFIG_FILE)
    if config_snapshot is None or not outcomes_path.exists():
        raise IncompleteTrace(f"{out_dir} lacks {OUTCOMES_FILE} or {CONFIG_FILE}; cannot replay")
    return build_report(load_outcomes(outcomes_path), config_snapshot)

"""Builders shared across the test modules.

Everything here is plain data construction: questions, scripted-backend
entries, fenced agent responses, and a few canned end-to-end scenarios
(consistent, fixable, unfixable) with their exact per-stage call budgets.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Optional

from rerail import prompts
from rerail.config import RunSettings
from rerail.gateway import (
    CallContext,
    CompletionParams,
    CompletionResult,
    Gateway,
    ScriptedBackend,
    StageUsage,
    Usage,
    UsageLedger,
)
from rerail.prompts import PromptPair
from rerail.types import (
    Category,
    NormalizedAnswer,
    NumericValue,
    Option,
    OptionLabel,
    Question,
    QuestionKind,
    ReasoningPath,
    STAGE_COT,
    STAGE_DEBATE,
    STAGE_EVALUATOR,
    STAGE_JUDGE,
    STAGE_REANSWER,
    TextValue,
)


def make_settings(**overrides) -> RunSettings:
    return RunSettings(**overrides)


# ---------------------------------------------------------------------------
# questions

def mcqa_question(
    qid: str = "q1",
    gt: str = "B",
    n_options: int = 4,
    subject: str = "college physics",
    category: Category = Category.ADVANCED_MATH_SCIENCE,
    text: str = "Which option satisfies the stated condition?",
    context: Optional[str] = None,
) -> Question:
    labels = "ABCDEF"[:n_options]
    options = tuple(Option(label, f"choice {label}") for label in labels)
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=OptionLabel(gt),
        kind=QuestionKind.MCQA,
        context=context,
        options=options,
    )


def numeric_question(
    qid: str = "q1",
    gt: str = "8",
    subject: str = "grade school math",
    category: Category = Category.MATH,
    text: str = "Compute the requested value.",
) -> Question:
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=NumericValue(Fraction(gt)),
        kind=QuestionKind.OPEN_NUMERIC,
    )


def text_question(
    qid: str = "q1",
    gt: str = "GRAVITY",
    subject: str = "physics",
    category: Category = Category.COMMONSENSE,
    text: str = "Name the force pulling the apple down.",
) -> Question:
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=TextValue(gt),
        kind=QuestionKind.OPEN_TEXT,
    )


def as_text(answer: NormalizedAnswer) -> str:
    """A normalized answer as the dataset schema writes its ground truth."""
    if isinstance(answer, OptionLabel):
        return answer.label
    if isinstance(answer, NumericValue):
        return str(answer.value)
    return answer.text


def write_dataset(path: str | Path, questions: list[Question]) -> None:
    """Serialize questions back to the JSONL dataset schema."""
    with open(path, "w", encoding="utf-8") as handle:
        for q in questions:
            record: dict = {
                "id": q.id,
                "subject": q.subject,
                "category": q.category.value,
                "question": q.text,
                "ground_truth": as_text(q.ground_truth),
                "kind": q.kind.value,
            }
            if q.context is not None:
                record["context"] = q.context
            if q.options is not None:
                record["options"] = [{"label": o.label, "text": o.text} for o in q.options]
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# raw generations and fenced agent responses

def step_section(path: ReasoningPath, index: int) -> str:
    """The text of one step (1-based), marker stripped."""
    if not 1 <= index <= len(path.steps):
        raise IndexError(f"step index {index} out of range 1..{len(path.steps)}")
    return path.steps[index - 1]


def cot_text(steps: list[str], answer: str) -> str:
    lines = [f"Step {i}: {text}" for i, text in enumerate(steps, start=1)]
    lines.append(f"Answer: {answer}")
    return "\n".join(lines)


def serialize_structured(mapping: dict[str, str]) -> str:
    """Inverse of parse_structured_output for fence-free string maps."""
    return "```json\n" + json.dumps(mapping, sort_keys=True) + "\n```"


def fenced(**fields) -> str:
    return serialize_structured({key: str(value) for key, value in fields.items()})


def evaluator_no(reasoning: str = "the step holds up") -> str:
    return fenced(hallucination="NO", reasoning=reasoning, correction="")


def evaluator_yes(correction: str, reasoning: str = "the step is wrong") -> str:
    return fenced(hallucination="YES", reasoning=reasoning, correction=correction)


def debate_agree(reasoning: str = "the proposed correction is sound") -> str:
    return fenced(verdict="AGREE", reasoning=reasoning, correction="")


def debate_revise(correction: str, reasoning: str = "the correction misses a detail") -> str:
    return fenced(verdict="REVISE", reasoning=reasoning, correction=correction)


def judge_selects(index, rationale: str = "the most coherent path") -> str:
    return fenced(selected=str(index), rationale=rationale)


def mad_answer(answer: str, reasoning: str = "worked through the options") -> str:
    return fenced(answer=answer, reasoning=reasoning)


# ---------------------------------------------------------------------------
# scripted backend plumbing

def entry(
    stage: str,
    qid: str,
    response: str,
    *,
    step_index: Optional[int] = None,
    agent_id: Optional[int] = None,
    round_no: Optional[int] = None,
    prompt_tokens: int = 100,
    completion_tokens: int = 50,
    latency_ms: Optional[float] = None,
) -> dict:
    match: dict = {"stage": stage, "question_id": qid}
    if step_index is not None:
        match["step_index"] = step_index
    if agent_id is not None:
        match["agent_id"] = agent_id
    if round_no is not None:
        match["round"] = round_no
    payload: dict = {
        "match": match,
        "response": response,
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }
    if latency_ms is not None:
        payload["latency_ms"] = latency_ms
    return payload


class RecordingGateway(Gateway):
    """Gateway that records (context, prompt) for every completion asked of it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[CallContext, PromptPair]] = []

    def complete(self, prompt, params, context) -> CompletionResult:
        self.records.append((context, prompt))
        return super().complete(prompt, params, context)

    def for_stage(self, stage: str) -> list[tuple[CallContext, PromptPair]]:
        return [(c, p) for c, p in self.records if c.stage == stage]


def scripted_gateway(entries: list[dict], **gateway_kwargs) -> RecordingGateway:
    return RecordingGateway(ScriptedBackend(entries), **gateway_kwargs)


def question_calls(ledger: UsageLedger, stage: Optional[str] = None) -> int:
    """Completions a question's ledger holds, optionally one stage's."""
    return sum(
        row.live_calls + row.cached_calls
        for st, row in ledger.question_usage().items()
        if stage is None or st == stage
    )


def ledger_totals(*ledgers: UsageLedger) -> StageUsage:
    """Usage summed over every stage of the ledgers."""
    total = StageUsage()
    for ledger in ledgers:
        for row in ledger.question_usage().values():
            total.merge(row)
    return total


def full_text(prompt: PromptPair) -> str:
    """Everything the model sees of a prompt."""
    if prompt.format_instructions:
        return f"{prompt.system}\n{prompt.user}\n{prompt.format_instructions}"
    return f"{prompt.system}\n{prompt.user}"


def template_placeholders(template_id: str) -> set[str]:
    """Placeholder names in a catalog template's system and human text."""
    system, human, _ = prompts._CATALOG[template_id]
    return set(prompts._PLACEHOLDER_RE.findall(system)) | set(prompts._PLACEHOLDER_RE.findall(human))


def remaining(backend: ScriptedBackend) -> int:
    """Script entries the backend has not served yet."""
    return sum(not e.served for entries in backend._entries.values() for e in entries)


def allocated(work):
    """``work()``'s result, the bytes it allocated and kept, and the most it
    held at once while it ran, as traced by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = work()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept - before, peak - before


def write_script(path: str | Path, entries: list[dict]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for item in entries:
            handle.write(json.dumps(item) + "\n")
    return path


class RecordingBackend:
    """Wraps a backend and records (params, context) per call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: list[tuple[CompletionParams, CallContext]] = []

    def call(self, prompt, params, context) -> CompletionResult:
        self.calls.append((params, context))
        return self.inner.call(prompt, params, context)


class SleepingBackend:
    """Wraps a backend and sleeps before each call, so the gateway measures
    it as blocking; records (context, thread name, start, end) per call."""

    def __init__(self, inner, sleep_s: float = 0.005) -> None:
        self.inner = inner
        self.sleep_s = sleep_s
        self.spans: list[tuple[CallContext, str, float, float]] = []

    def call(self, prompt, params, context) -> CompletionResult:
        start = time.perf_counter()
        time.sleep(self.sleep_s)
        result = self.inner.call(prompt, params, context)
        self.spans.append((context, threading.current_thread().name, start, time.perf_counter()))
        return result


class FlakyBackend:
    """Raises the queued exceptions, then returns a fixed result."""

    def __init__(self, failures: list[Exception], text: str = "ok") -> None:
        self._failures = list(failures)
        self._text = text
        self.attempts = 0

    def call(self, prompt, params, context) -> CompletionResult:
        self.attempts += 1
        if self._failures:
            raise self._failures.pop(0)
        return CompletionResult(text=self._text, usage=Usage(10, 5), latency_s=0.01)


# ---------------------------------------------------------------------------
# canned end-to-end scenarios (pipeline mode, n_samples=3, 2 debate agents)
#
# Exact per-stage completions each scenario consumes, assuming every response
# parses on the first try:
#   consistent: 3 cot
#   fixable:    3 cot + 1 judge + 4 evaluator + 2 debate + 1 reanswer = 11
#   unfixable:  3 cot + 1 judge + 3 evaluator + 6 debate + 3 reanswer = 16

CONSISTENT_EXPECTED_CALLS = {"cot": 3}
FIXABLE_EXPECTED_CALLS = {"cot": 3, "judge": 1, "evaluator": 4, "debate": 2, "reanswer": 1}
UNFIXABLE_EXPECTED_CALLS = {"cot": 3, "judge": 1, "evaluator": 3, "debate": 6, "reanswer": 3}


def consistent_script(qid: str, answer: str = "B") -> list[dict]:
    """Three samples that agree outright; never reaches the judge."""
    steps = [
        "Restate what the question is asking for.",
        "Work out each candidate in turn.",
        "Keep the one that satisfies the condition.",
    ]
    return [entry(STAGE_COT, qid, cot_text(steps, answer)) for _ in range(3)]


def fixable_script(qid: str, wrong: str = "A", right: str = "B") -> list[dict]:
    """Derailed, repaired by one correction, certified on the second pass.

    Pass 1 flags step 2 of the selected 3-step path; the re-answered path
    keeps the trusted prefix and lands on the right answer. Pass 2 finds
    nothing left to fix.
    """
    steps = [
        "Identify the given quantities.",
        "Combine them with the wrong operation.",
        "Read off the result.",
    ]
    corrected = "Combine them with the correct operation."
    closing = "Read off the corrected result."
    return [
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_COT, qid, cot_text(steps, right)),
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_JUDGE, qid, judge_selects(1)),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, qid, evaluator_yes(corrected), step_index=2),
        entry(STAGE_DEBATE, qid, debate_agree(), step_index=2, agent_id=1, round_no=1),
        entry(STAGE_DEBATE, qid, debate_agree(), step_index=2, agent_id=2, round_no=1),
        entry(STAGE_REANSWER, qid, cot_text([steps[0], corrected, closing], right)),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=3),
    ]


def unfixable_script(qid: str, wrong: str = "A") -> list[dict]:
    """Derailed and never clean: every pass flags step 1 until the cap."""
    steps = [
        "Assume an equation that does not model the problem.",
        "Carry the assumption to a result.",
    ]
    fixes = [
        "Assume a second equation that still misses a constraint.",
        "Assume a third equation with the sign flipped.",
        "Assume a fourth equation no better than the others.",
    ]
    continuations = [
        "Carry the second assumption through.",
        "Carry the third assumption through.",
        "Carry the fourth assumption through.",
    ]
    script = [
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_COT, qid, cot_text(steps, "C")),
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_JUDGE, qid, judge_selects(1)),
    ]
    for fix, continuation in zip(fixes, continuations):
        script.append(entry(STAGE_EVALUATOR, qid, evaluator_yes(fix), step_index=1))
        script.append(entry(STAGE_DEBATE, qid, debate_agree(), step_index=1, agent_id=1, round_no=1))
        script.append(entry(STAGE_DEBATE, qid, debate_agree(), step_index=1, agent_id=2, round_no=1))
        script.append(entry(STAGE_REANSWER, qid, cot_text([fix, continuation], wrong)))
    return script


def stage_calls(outcome_usage: dict[str, StageUsage]) -> dict[str, int]:
    """Per-stage completion counts from an outcome's usage."""
    return {stage: row.live_calls + row.cached_calls for stage, row in outcome_usage.items()}


__all__ = [name for name in dir() if not name.startswith("_")]

"""Derailment identification.

Per question: sample n reasoning paths, decide whether their answers are
consistent, and either emit the consistent answer directly or hand the
least-erroneous path (picked by the Judge) to the rerailer.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Optional

from .config import RunSettings, call_params
from .gateway import CallContext, Gateway, complete_structured
from .grading import majority_answer
from .parsing import parse_reasoning_path, serialize_path
from .prompts import TEMPLATE_JUDGE, TEMPLATE_RAW_COT, render_prompt
from .types import (
    ParseFailure,
    Question,
    ReasoningPath,
    RerailError,
    STAGE_COT,
    STAGE_JUDGE,
    VALID_OPTION_LABELS,
)

RULE_ALL_LONG = "AllLong"
RULE_SAME_LEADING_OPTION = "SameLeadingOption"
RULE_ALL_IDENTICAL = "AllIdentical"
RULE_INCONSISTENT = "Inconsistent"

FLAG_ALL_LONG = "consistent-all-long"
FLAG_JUDGE_FALLBACK = "judge-fallback-first"
FLAG_JUDGE_DUPLICATED_RP3 = "judge-duplicated-rp3"
FLAG_JUDGE_FIRST_THREE = "judge-first-three"

ALL_LONG_THRESHOLD = 30
SHORT_OPTION_LIMIT = 40

# Consistency cleaning keeps spacing as-is (uppercase, drop everything that
# is not a letter, digit, or space). Distinct from grading.clean_text, which
# also canonicalizes whitespace; this one stays faithful to the reference
# procedure so the two never disagree on a verdict.
_CONSISTENCY_CLEAN_RE = re.compile(r"[^A-Za-z0-9 ]")


class GenerationFailure(RerailError):
    """Too few parseable reasoning paths even after the retry policy."""


def _consistency_clean(option: str) -> str:
    return _CONSISTENCY_CLEAN_RE.sub("", option).upper()


def check_consistency(answers: list[str]) -> str:
    """The first of the four consistency rules, in order, that the raw answer
    strings meet, or RULE_INCONSISTENT if none does.

    1. Every raw answer longer than 30 characters -> consistent (AllLong).
    2. Clean each answer (keep alphanumerics and spaces, uppercase).
    3. All cleaned answers begin with the same option letter A..F and are
       shorter than 40 characters -> consistent (SameLeadingOption).
    4. All cleaned answers identical -> consistent (AllIdentical).
    Otherwise inconsistent.
    """
    if not answers:
        raise ValueError("check_consistency needs at least one answer")

    if all(len(answer) > ALL_LONG_THRESHOLD for answer in answers):
        return RULE_ALL_LONG

    cleaned = [_consistency_clean(answer) for answer in answers]

    if (
        all(cleaned)
        and len({c[0] for c in cleaned}) == 1
        and cleaned[0][0] in VALID_OPTION_LABELS
        and all(len(c) < SHORT_OPTION_LIMIT for c in cleaned)
    ):
        return RULE_SAME_LEADING_OPTION

    if len(set(cleaned)) == 1:
        return RULE_ALL_IDENTICAL

    return RULE_INCONSISTENT


def generate_rps(
    question: Question,
    gateway: Gateway,
    settings: RunSettings,
    n: Optional[int] = None,
) -> list[ReasoningPath]:
    """Sample n reasoning paths from independent raw chain-of-thought calls.

    The samples run as one fan-out, at sample indices 0..n-1. An unparseable
    sample is regenerated once, in a second fan-out after the first, at
    index n plus its rank among the unparseable samples, and dropped if
    still unparseable. Raises GenerationFailure when fewer than min(2, n)
    parseable paths remain.
    """
    count = settings.n_samples if n is None else n
    if count < 1:
        raise ValueError("n must be >= 1")
    prompt = render_prompt(TEMPLATE_RAW_COT, question)

    def sample(index: int) -> Optional[ReasoningPath]:
        context = CallContext(stage=STAGE_COT, question_id=question.id, sample_index=index)
        result = gateway.complete(prompt, call_params(settings, context), context)
        try:
            return parse_reasoning_path(result.text)
        except ParseFailure:
            return None

    samples = gateway.fan_out([partial(sample, i) for i in range(count)])
    failed = [i for i, path in enumerate(samples) if path is None]
    retries = gateway.fan_out([partial(sample, count + rank) for rank in range(len(failed))])
    for i, path in zip(failed, retries):
        samples[i] = path
    paths = [path for path in samples if path is not None]

    if len(paths) < min(2, count):
        raise GenerationFailure(
            f"question {question.id!r}: only {len(paths)} of {count} samples parseable"
        )
    return paths


def _read_selection(allowed: set[str]):
    """Reader of the judge's reply: its (1-based index, rationale)."""

    def read(fields: dict[str, str]) -> tuple[int, str]:
        if fields.get("selected") not in allowed:
            raise ValueError(f"judge selection must be one of {sorted(allowed)}, got {fields.get('selected')!r}")
        return int(fields["selected"]), fields.get("rationale", "")

    return read


def judge(
    question: Question,
    paths: list[ReasoningPath],
    gateway: Gateway,
    settings: RunSettings,
) -> tuple[int, str, list[str]]:
    """Pick the most logically sound path. Returns (1-based index, rationale,
    flags). Falls back to index 1 after the re-ask budget is spent."""
    if len(paths) < 2:
        raise ValueError("judging needs at least two paths")

    flags: list[str] = []
    candidates = list(paths[:3])
    allowed = {"1", "2", "3"}
    if len(paths) == 2:
        # The template has exactly three slots; repeat the second path and
        # never allow the duplicate to win.
        candidates = [paths[0], paths[1], paths[1]]
        allowed = {"1", "2"}
        flags.append(FLAG_JUDGE_DUPLICATED_RP3)
    elif len(paths) > 3:
        flags.append(FLAG_JUDGE_FIRST_THREE)

    prompt = render_prompt(
        TEMPLATE_JUDGE,
        question,
        rp1=serialize_path(candidates[0]),
        rp2=serialize_path(candidates[1]),
        rp3=serialize_path(candidates[2]),
    )
    context = CallContext(stage=STAGE_JUDGE, question_id=question.id)
    params = call_params(settings, context)
    selection = complete_structured(gateway, prompt, params, context, _read_selection(allowed))
    if selection is None:
        flags.append(FLAG_JUDGE_FALLBACK)
        return 1, "fallback:first", flags
    return *selection, flags


def route(
    question: Question, gateway: Gateway, settings: RunSettings
) -> tuple[str, Optional[ReasoningPath], list[str], dict]:
    """Sample, check consistency, and either answer or select for rerailing.

    Returns (answer, selected, flags, fields): the baseline answer; the path
    the judge picked for repair, None when the samples agree; the routing
    flags; and the trace fields ``routing``, ``rule_fired`` and ``answers``,
    plus ``selected_index`` and ``judge_rationale`` for a derailed question.
    """
    paths = generate_rps(question, gateway, settings)
    answers = [p.final_answer for p in paths]
    rule = check_consistency(answers)
    fields = {"routing": "consistent", "rule_fired": rule, "answers": answers}
    if rule == RULE_ALL_LONG and len(paths) > 1:
        # Long answers are deemed consistent without agreeing; output the
        # majority answer, the first-listed leader on ties.
        return majority_answer(answers, question)[0], None, [FLAG_ALL_LONG], fields
    if rule != RULE_INCONSISTENT:
        return answers[0], None, [], fields

    index, rationale, flags = judge(question, paths, gateway, settings)
    selected = paths[index - 1]
    fields.update(routing="derailed", selected_index=index, judge_rationale=rationale)
    return selected.final_answer, selected, flags, fields

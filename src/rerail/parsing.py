"""Segmenting raw generations into reasoning paths.

A generation is accepted when it contains at least one step marker and a final
answer marker. Step markers come in two shapes, tried in this order:

1. ``Step <k>:`` headings (case-insensitive, optional ``#``).
2. Bare ordinal lines such as ``1. ...`` when no ``Step k:`` heading exists.

Everything after the answer marker on its line is the raw final answer.
"""

from __future__ import annotations

import re
from typing import Optional

from .types import ParseFailure, ReasoningPath

# Each pattern scans a line once. The indent before a step marker stops at
# the line's end, and the answer group takes the rest of its line, trailing
# whitespace included: "\s*" there, or a lazy group before "\s*$", would
# rescan a run of blank lines or of spaces once per character. Step and
# answer text is stripped, so the whitespace either way reads the same.

# "Step 3:", "step #3.", "Step 3)" at the start of a line.
STEP_MARKER_RE = re.compile(r"(?im)^[^\S\n]*step\s*#?\s*\d+\s*[:.)]\s*")

# "1. text" ordinal fallback. Requires trailing whitespace after the dot so a
# decimal number like "3.14" never starts a step.
ORDINAL_MARKER_RE = re.compile(r"(?m)^[^\S\n]*\d+\.\s+")

# The answer section starts at the last "Answer:" or "Final Answer:" line.
ANSWER_MARKER_RE = re.compile(r"(?im)^.*?\b(?:final\s+)?answer\s*:\s*(.+)$")

VERIFIED_MARKER = "(verified)"


def _find_step_spans(text: str) -> list[tuple[int, int]]:
    """(start_of_body, start_of_marker) per step marker. The number a step
    declares is not read: steps are numbered by position."""
    spans = [(m.end(), m.start()) for m in STEP_MARKER_RE.finditer(text)]
    if spans:
        return spans
    return [(m.end(), m.start()) for m in ORDINAL_MARKER_RE.finditer(text)]


def last_answer_marker(text: str) -> Optional[re.Match]:
    """The last answer-marker line of a generation, if any: models often
    restate "Answer:" at the end. Its group 1 is the raw answer."""
    match = None
    for match in ANSWER_MARKER_RE.finditer(text):
        pass
    return match


def parse_reasoning_path(text: str) -> ReasoningPath:
    """Parse a raw generation into steps plus a final answer, no step
    verified.

    Raises ParseFailure when no step marker or no answer marker is present,
    or when the answer marker precedes every step.
    """
    answer_match = last_answer_marker(text)
    if answer_match is None:
        raise ParseFailure("no answer marker found")
    raw_answer = answer_match.group(1).strip()
    if not raw_answer:
        raise ParseFailure("answer marker present but empty")

    body = text[: answer_match.start()]
    spans = _find_step_spans(body)
    if not spans:
        raise ParseFailure("no step markers found before the answer")

    steps = []
    for position, (body_start, _) in enumerate(spans, start=1):
        end = spans[position][1] if position < len(spans) else len(body)
        step_text = body[body_start:end].strip()
        if not step_text:
            raise ParseFailure(f"step {position} has no text")
        steps.append(step_text)
    return ReasoningPath(steps=tuple(steps), final_answer=raw_answer)


def serialize_steps(
    path: ReasoningPath,
    upto: Optional[int] = None,
    verified_markers: bool = True,
) -> str:
    """Render steps 1..upto (all when upto is None) back into marker form.

    Verified steps carry the trailing verified marker so a later evaluator
    pass can skip them without another call; pass verified_markers=False for
    prompts that should see plain step text.
    """
    marked = path.verified if verified_markers else 0
    return "\n".join(
        f"Step {index}: {text} {VERIFIED_MARKER}" if index <= marked else f"Step {index}: {text}"
        for index, text in enumerate(path.steps[:upto], start=1)
    )


def serialize_path(path: ReasoningPath) -> str:
    """Steps plus the final-answer line, the inverse of parsing."""
    return f"{serialize_steps(path)}\nFinal answer: {path.final_answer}"

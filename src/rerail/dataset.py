"""Dataset loading.

One JSON object per line with fields exactly
{id, subject, category, question, context?, options?, ground_truth, kind};
options entries are {label, text}. Anything else is rejected with a
diagnostic naming the offending field, before any model call is made.
"""

from __future__ import annotations

from pathlib import Path

from . import jsonl
from .grading import clean_text, exact_fraction
from .types import Category, DatasetError, Option, Question, QuestionKind, UnnormalizableAnswer

REQUIRED_FIELDS = frozenset(("id", "subject", "category", "question", "ground_truth", "kind"))
ALLOWED_FIELDS = REQUIRED_FIELDS | {"context", "options"}
OPTION_FIELDS = frozenset(("label", "text"))


def _ground_truth_from_json(value, kind: QuestionKind, qid: str):
    if kind is QuestionKind.MCQA:
        if not isinstance(value, str):
            raise DatasetError(f"question {qid!r}: MCQA ground_truth must be a string label")
        return value.strip().upper()
    if kind is QuestionKind.OPEN_NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise DatasetError(f"question {qid!r}: numeric ground_truth must be a number or string")
        try:
            return exact_fraction(str(value))
        except UnnormalizableAnswer as exc:
            raise DatasetError(f"question {qid!r}: numeric ground_truth: {exc}") from None
    if not isinstance(value, str):
        raise DatasetError(f"question {qid!r}: text ground_truth must be a string")
    cleaned = clean_text(value)
    if not cleaned:
        raise DatasetError(f"question {qid!r}: text ground_truth is empty after cleaning")
    return cleaned


def question_from_record(record: dict) -> Question:
    """The question ``record`` holds; DatasetError saying what is wrong
    otherwise, which names the question once its id is known."""
    try:
        jsonl.fields(record, REQUIRED_FIELDS, ALLOWED_FIELDS)
    except ValueError as exc:
        raise DatasetError(str(exc)) from None

    qid = record["id"]
    if not isinstance(qid, str) or not qid:
        raise DatasetError("field 'id' must be a non-empty string")
    for field in ("subject", "question"):
        if not isinstance(record[field], str) or not record[field]:
            raise DatasetError(f"question {qid!r}: field {field!r} must be a non-empty string")

    try:
        category = Category(record["category"])
    except ValueError:
        raise DatasetError(
            f"question {qid!r}: field 'category' must be one of "
            f"{[c.value for c in Category]}, got {record['category']!r}"
        ) from None
    try:
        kind = QuestionKind(record["kind"])
    except ValueError:
        raise DatasetError(
            f"question {qid!r}: field 'kind' must be one of "
            f"{[k.value for k in QuestionKind]}, got {record['kind']!r}"
        ) from None

    context = record.get("context")
    if context is not None and not isinstance(context, str):
        raise DatasetError(f"question {qid!r}: field 'context' must be a string")

    options = None
    if record.get("options") is not None:
        raw_options = record["options"]
        if not isinstance(raw_options, list):
            raise DatasetError(f"question {qid!r}: field 'options' must be an array")
        parsed = []
        for position, entry in enumerate(raw_options):
            try:
                jsonl.fields(entry, OPTION_FIELDS, OPTION_FIELDS)
            except ValueError as exc:
                raise DatasetError(f"question {qid!r}: options[{position}] {exc}") from None
            if not isinstance(entry["label"], str) or not isinstance(entry["text"], str):
                raise DatasetError(f"question {qid!r}: options[{position}] label and text must be strings")
            parsed.append(Option(label=entry["label"], text=entry["text"]))
        options = tuple(parsed)

    ground_truth = _ground_truth_from_json(record["ground_truth"], kind, qid)
    return Question(
        id=qid,
        subject=record["subject"],
        category=category,
        text=record["question"],
        ground_truth=ground_truth,
        kind=kind,
        context=context,
        options=options,
    )


def load_dataset(path: str | Path) -> list[Question]:
    """Load and validate a JSONL dataset. Duplicate ids are rejected. Every
    error names the file and the line it is on."""
    questions: list[Question] = []
    seen: set[str] = set()
    for line_no, line in jsonl.lines(path, whole=True):
        try:
            question = question_from_record(jsonl.loads(line))
            if question.id in seen:
                raise DatasetError(f"duplicate question id {question.id!r}")
        except (DatasetError, ValueError) as exc:
            raise DatasetError(f"{path} line {line_no}: {exc}") from None
        seen.add(question.id)
        questions.append(question)
    if not questions:
        raise DatasetError(f"{path}: dataset is empty")
    return questions

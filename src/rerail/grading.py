"""Answer normalization and grading.

Normalization is per question kind:

* MCQA: strip decoration, keep the leading option letter A..F.
* Numeric: parse to an exact rational (handles signs, commas, currency,
  percents, scientific notation, simple fractions).
* Text: drop everything but letters, digits, and spaces, collapse runs of
  whitespace, uppercase.

Comparison is exact for options and text. Numeric answers match within the
run's abs_tolerance or rel_tolerance, evaluated in rational arithmetic so the
tolerance check itself introduces no rounding.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Optional

from .types import (
    KindMismatch,
    NormalizedAnswer,
    NumericValue,
    OptionLabel,
    Question,
    QuestionKind,
    TextValue,
    UnnormalizableAnswer,
    VALID_OPTION_LABELS,
)

_NON_ALNUM_SPACE_RE = re.compile(r"[^A-Za-z0-9 ]")
_WS_RUN_RE = re.compile(r"\s+")

# A number with optional sign, commas in the integer part, decimals, and an
# exponent: "-1,234.5e-2". Fraction syntax covers "a/b" separately; its
# numerator starts where a run of digits does, or a search would retry
# every suffix of a long run that is not followed by a slash.
_NUMBER_RE = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?(?:[eE][-+]?\d+)?")
_SIMPLE_FRACTION_RE = re.compile(r"([-+]?(?<!\d)\d+)\s*/\s*(\d+)")

# Python's default limit on the digits int() reads from a string. A
# literal's exact value has about as many digits as the literal plus its
# exponent, so a longer one is refused before int() or Fraction() sees it:
# "1e4000000" alone takes seconds to build.
MAX_LITERAL_DIGITS = 4300


def exact_fraction(literal: str) -> Fraction:
    """``Fraction(literal)``; UnnormalizableAnswer if it is not a number or
    its digits plus the size of its exponent exceed MAX_LITERAL_DIGITS."""
    mantissa, _, exponent = literal.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")
    try:
        # an exponent of five digits is over the bound, so a longer one is never read
        size = int(exponent or 0) if len(exponent) < 5 else MAX_LITERAL_DIGITS + 1
        if size + sum(map(str.isdigit, mantissa)) <= MAX_LITERAL_DIGITS:
            return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise UnnormalizableAnswer(f"cannot parse number {literal[:40]!r}") from exc
    raise UnnormalizableAnswer(f"number longer than {MAX_LITERAL_DIGITS} digits, exponent counted: {literal[:40]!r}")


def clean_text(text: str) -> str:
    """Canonical text form: alphanumerics and single spaces, uppercased."""
    stripped = _NON_ALNUM_SPACE_RE.sub("", text)
    return _WS_RUN_RE.sub(" ", stripped).strip().upper()


def parse_numeric(raw: str) -> Fraction:
    """Extract the first number in ``raw`` as an exact rational.

    A trailing percent sign divides by 100. Raises UnnormalizableAnswer when
    no number is present, or when the number is longer than
    MAX_LITERAL_DIGITS digits, its exponent counted (``exact_fraction``).
    """
    candidate = raw.strip().rstrip(".")
    fraction_match = _SIMPLE_FRACTION_RE.search(candidate)
    number_match = _NUMBER_RE.search(candidate)
    if fraction_match and (
        number_match is None or fraction_match.start() <= number_match.start()
    ):
        numerator, denominator = fraction_match.groups()
        if denominator.strip("0"):
            return exact_fraction(f"{numerator}/{denominator}")
    if number_match is None:
        raise UnnormalizableAnswer(f"no number found in {raw!r}")
    value = exact_fraction(number_match.group(0).replace(",", ""))
    rest = candidate[number_match.end():].lstrip()
    if rest.startswith("%") or rest.lower().startswith("percent"):
        value /= 100
    return value


def _normalize_option(raw: str) -> OptionLabel:
    cleaned = clean_text(raw)
    if not cleaned:
        raise UnnormalizableAnswer(f"no option letter in {raw!r}")
    leading = cleaned[0]
    if leading not in VALID_OPTION_LABELS:
        raise UnnormalizableAnswer(
            f"leading character {leading!r} of {raw!r} is not an option letter"
        )
    return OptionLabel(leading)


def normalize_answer(raw: str, kind: QuestionKind) -> NormalizedAnswer:
    """Normalize a raw answer string for its question kind.

    Raises UnnormalizableAnswer when the string has no usable content.
    """
    if not raw or not raw.strip():
        raise UnnormalizableAnswer("empty answer")
    if kind is QuestionKind.MCQA:
        return _normalize_option(raw)
    if kind is QuestionKind.OPEN_NUMERIC:
        return NumericValue(parse_numeric(raw))
    cleaned = clean_text(raw)
    if not cleaned:
        raise UnnormalizableAnswer(f"text answer {raw!r} is empty after cleaning")
    return TextValue(cleaned)


def answer_bucket(raw: str, question: Question):
    """Hashable identity of an answer for vote counting."""
    try:
        return normalize_answer(raw, question.kind)
    except UnnormalizableAnswer:
        return ("unnormalizable", clean_text(raw))


def majority_answer(raws: list[str], question: Question) -> tuple[str, bool]:
    """Majority answer by normalized value. Returns (raw answer, tied); on a
    tie the leader listed first wins, as its first raw spelling."""
    buckets = [answer_bucket(raw, question) for raw in raws]
    counts: dict = {}
    for bucket in buckets:
        counts[bucket] = counts.get(bucket, 0) + 1
    best = max(counts.values())
    tied = sum(1 for count in counts.values() if count == best) > 1
    return next(raw for raw, bucket in zip(raws, buckets) if counts[bucket] == best), tied


# A tolerance is one of a few configured values, so each is parsed once.
# typed: 2**60 and 2.0**60 are equal keys but parse to different fractions.
@functools.lru_cache(maxsize=None, typed=True)
def _decimal_fraction(value) -> Fraction:
    return Fraction(str(value))


def answers_equal(left: NormalizedAnswer, right: NormalizedAnswer, abs_tol, rel_tol) -> bool:
    """Whether two normalized answers agree. Kinds must match."""
    if isinstance(left, OptionLabel) and isinstance(right, OptionLabel):
        return left.label == right.label
    if isinstance(left, NumericValue) and isinstance(right, NumericValue):
        difference = abs(left.value - right.value)
        bound = max(_decimal_fraction(abs_tol), _decimal_fraction(rel_tol) * abs(right.value))
        return difference <= bound
    if isinstance(left, TextValue) and isinstance(right, TextValue):
        return left.text == right.text
    raise KindMismatch(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def grade_safe(raw_answer: Optional[str], question: Question, abs_tol, rel_tol) -> tuple[bool, list[str]]:
    """Fail-closed grading of ``raw_answer`` against the question's ground
    truth: anything unparseable counts as incorrect.

    Returns (correct, flags). Flags name what went wrong so a report can
    distinguish a wrong answer from an unusable one.
    """
    if raw_answer is None:
        return False, ["answer-missing"]
    try:
        answer = normalize_answer(raw_answer, question.kind)
    except UnnormalizableAnswer:
        return False, ["answer-unnormalizable"]
    return answers_equal(answer, question.ground_truth, abs_tol, rel_tol), []

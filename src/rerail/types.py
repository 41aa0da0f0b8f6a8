"""Domain types shared by every pipeline stage.

All types here are frozen value objects: safe to share across worker threads,
never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

VALID_OPTION_LABELS = ("A", "B", "C", "D", "E", "F")

# Pipeline stages, used both for usage attribution and for matching scripted
# responses to the call that consumes them.
STAGE_COT = "cot"
STAGE_JUDGE = "judge"
STAGE_EVALUATOR = "evaluator"
STAGE_DEBATE = "debate"
STAGE_REANSWER = "reanswer"
STAGE_MAD = "mad"


class RerailError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseFailure(RerailError):
    """A generation could not be segmented into steps plus an answer."""


class UnnormalizableAnswer(RerailError):
    """A raw answer string could not be normalized for its question kind."""


class DatasetError(RerailError):
    """A dataset record violates the input schema."""


class QuestionKind(str, Enum):
    MCQA = "MCQA"
    OPEN_NUMERIC = "OpenEndedNumeric"
    OPEN_TEXT = "OpenEndedText"


class Category(str, Enum):
    COMMONSENSE = "CommonsenseReasoning"
    MATH = "Math"
    ADVANCED_MATH_SCIENCE = "AdvancedMathScience"


# A normalized answer, and a question's ground truth: an option label for
# MCQA, an exact Fraction for numeric, cleaned upper-case text for text.
NormalizedAnswer = Union[str, Fraction]


@dataclass(frozen=True)
class Option:
    """One labeled multiple-choice option."""

    label: str
    text: str


@dataclass(frozen=True)
class Question:
    """One QA item: text, optional context/options, and its ground truth."""

    id: str
    subject: str
    category: Category
    text: str
    ground_truth: NormalizedAnswer
    kind: QuestionKind
    context: Optional[str] = None
    options: Optional[tuple[Option, ...]] = None

    def __post_init__(self) -> None:
        if self.kind is QuestionKind.MCQA:
            if not self.options:
                raise DatasetError(f"question {self.id!r}: MCQA requires non-empty options")
            labels = [o.label for o in self.options]
            if len(set(labels)) != len(labels):
                raise DatasetError(f"question {self.id!r}: duplicate option labels {labels}")
            bad = [l for l in labels if l not in VALID_OPTION_LABELS]
            if bad:
                raise DatasetError(
                    f"question {self.id!r}: option labels must come from "
                    f"{''.join(VALID_OPTION_LABELS)}, got {bad}"
                )
            if self.ground_truth not in labels:
                raise DatasetError(
                    f"question {self.id!r}: ground truth {self.ground_truth!r} "
                    f"is not among the option labels {labels}"
                )
        elif self.kind is QuestionKind.OPEN_NUMERIC:
            if type(self.ground_truth) is not Fraction:
                raise DatasetError(f"question {self.id!r}: numeric question needs a numeric ground truth")
        elif self.kind is QuestionKind.OPEN_TEXT:
            if type(self.ground_truth) is not str:
                raise DatasetError(f"question {self.id!r}: text question needs a text ground truth")


@dataclass(frozen=True)
class ReasoningPath:
    """Ordered step texts plus the final answer of one generation.

    ``verified`` counts the leading steps a repair pass has already checked;
    every producer keeps the checked steps a prefix of the path.
    """

    steps: tuple[str, ...]
    final_answer: str
    verified: int = 0

    def __post_init__(self) -> None:
        if not self.steps:
            raise ParseFailure("a reasoning path needs at least one step")
        if not 0 <= self.verified <= len(self.steps):
            raise ValueError(f"verified must be in 0..{len(self.steps)}, got {self.verified}")

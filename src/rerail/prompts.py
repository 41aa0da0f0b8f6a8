"""Prompt catalog and template rendering.

Each template is a (system, human) pair with named ``{placeholder}`` slots
plus format instructions appended to the human message at call time. Every
template has a ``{subject}`` and a ``{question}`` slot, filled from the
question the prompt is about. The core agent templates are transcribed
character-for-character from the deployed prompts, stray punctuation
included; do not "fix" their grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .types import Question, RerailError


class MissingVariable(RerailError):
    """A template placeholder was not supplied at render time."""

    def __init__(self, name: str) -> None:
        super().__init__(f"missing template variable {name!r}")
        self.name = name


@dataclass(frozen=True)
class PromptPair:
    """A fully rendered prompt: system text, user text, format instructions."""

    system: str
    user: str
    format_instructions: str = ""


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

_FACTUALITY_DEF = (
    "1. Factuality: This type of error emphasizes the discrepancy between "
    "generated content and verifiable real-world facts, including factual "
    "inconsistency or fabrication. In mathematics, for instance, it may "
    "represent the computational error."
)

_FAITHFULNESS_DEF = (
    "2. Faithfulness: This type of error refers to the divergence of my step "
    "analysis from the original question or previous steps, as well as "
    "consistency within my steps. In mathematics, for instance, it may "
    "represent that I understood the question wrongly or my proposed step is "
    "inconsistent with my previous step."
)

RAW_COT_SYSTEM = (
    "You are a professional specialized in {subject}. You need to help me "
    "answer the given question. Notice that you need to solve the question "
    "step by step and as detailed as possible. Do not jump to the answer "
    "directly. If it is a computational question, please provide me with the "
    "detailed calculation in your steps, not just say the method! Your "
    "intermediate steps and thoughts are critical!"
)
RAW_COT_HUMAN = "The question can be found in {question}"

# The leading triple quote is present in the deployed system message.
JUDGE_SYSTEM = (
    "'''You are a professional specialized in {subject}. A Chain of Thought "
    "(COT) is a step-by-step reasoning process used to solve a problem or "
    'answer a question. You have been presented with three different RPs '
    'below for the question "{question}". Please carefully analyze these RPs '
    "and provide your assessment on which one is the most logically sound "
    "based on the given information and your expertise in the subject."
)
JUDGE_HUMAN = (
    "Here are the three Reasoning Paths (RPs) for your analysis:\n"
    "RP 1: {rp1}\n"
    "RP 2: {rp2}\n"
    "RP 3: {rp3}"
)

STEP_EVALUATOR_SYSTEM = (
    "You are a professional specialized in {subject}. You need to help me "
    "verify my steps when I solve the question. I am currently at step "
    "#{current_step}. Before you perform the task, I want you to keep in "
    "mind several definitions for my possible mistakes.\n\n"
    + _FACTUALITY_DEF
    + "\n\n"
    + _FAITHFULNESS_DEF
    + "\n\n"
    "Based on my current step response, question, previous steps, and my "
    "error definitions, help me verify if any of the mistakes (factuality or "
    "faithfulness) occur in my analysis. Notice that skipping a step should "
    "not be considered an error as long as the calculation is correct! For "
    "instance, 2x+2 should be the same as 2+2x. Also, 2x+2+3 should be the "
    "same as 2x+5 At step 1, since we have no step 0, instead, the "
    "factuality and faithfulness check should reflect if I correctly "
    "understood the answer. Do not detect any minor hallucinations! In other "
    "words, only targeting the mistakes that contain calculation errors or "
    "apparent logical flaws or contradict real-world facts! If the provided "
    "step acknowledges the mistake, you need to capture it and correct it. "
    "If you see any step ends up with 'verified' it means it has been "
    "checked without any mistake, so just consider it as correct and do not "
    "have to give the verification. Simply say step hallucination is [NO]"
)
STEP_EVALUATOR_HUMAN = (
    "Here is my complete thought process {RP} and this is the original "
    "question {question}"
)

DEBATE_MITIGATOR_SYSTEM = (
    "You are a professional specialized in {subject}. You need to help me "
    "verify my steps when I solve the question. I am currently at step "
    "#{current_step}.\n\n"
    + _FACTUALITY_DEF
    + "\n\n"
    + _FAITHFULNESS_DEF
    + "\n\n"
    "Other agents helped me identify the error I made in the current step. "
    "Your goal is to debate with the other agents and justify if their "
    "corrections were correct based on my question, and thought process. "
    "Please use Critical Thinking and only capture the significant mistake "
    "that will lead to the wrong answer. Errors like different "
    "interpretations should be ignored."
)
DEBATE_MITIGATOR_HUMAN = (
    "Here is my complete thought process {RP} and this is the original "
    "question {question}. The full response from the other agents was given "
    "as {response}"
)

REANSWER_SYSTEM = (
    "You are a professional specialized in {subject}. Your task is to help "
    "me answer the question based on my initial thoughts. I will provide you "
    "with several steps of my attempt. Your task is to CONTINUE my thought "
    "process and then answer my question step by step. Also, a maximum of 12 "
    "steps are allowed and you can assume my initial thoughts had been "
    "checked since could be trusted. Remember, your response should based on "
    "my initial thoughts!"
)
REANSWER_HUMAN = (
    "Here is my question:{question}. And my initial thought process is given "
    "as {RP}"
)

# Debate-baseline templates (no counterpart in the agent set above; authored
# here in the same voice).
MAD_INITIAL_SYSTEM = (
    "You are a professional specialized in {subject}. You need to help me "
    "answer the given question. Notice that you need to solve the question "
    "step by step and as detailed as possible. Do not jump to the answer "
    "directly."
)
MAD_INITIAL_HUMAN = "The question can be found in {question}"

MAD_REVISION_SYSTEM = (
    "You are a professional specialized in {subject}. You and other agents "
    "are debating the correct answer to a question. Carefully consider the "
    "other agents' latest responses, point out any significant mistake, and "
    "then give your own current answer."
)
MAD_REVISION_HUMAN = (
    "The question can be found in {question}. The full response from the "
    "other agents was given as {response}"
)


def format_instructions(schema: dict[str, str]) -> str:
    """Instructions demanding a fenced JSON object with the given keys.

    ``schema`` maps each key to a short description shown as a comment.
    """
    lines = ",\n".join(
        f'\t"{key}": string  // {description}' for key, description in schema.items()
    )
    return (
        "The output should be a markdown code snippet formatted in the "
        'following schema, including the leading and trailing "```json" and '
        '"```":\n\n```json\n{\n' + lines + "\n}\n```"
    )


COT_FORMAT = (
    'Number your steps as "Step 1:", "Step 2:", and so on, and finish with a '
    'final line of the form "Answer: <your final answer>".'
)

JUDGE_FORMAT = format_instructions(
    {
        "selected": 'the number of the most logically sound RP, one of "1", "2" or "3"',
        "rationale": "why you selected that RP",
    }
)

EVALUATOR_FORMAT = format_instructions(
    {
        "hallucination": 'whether the current step contains a mistake, "YES" or "NO"',
        "reasoning": "your verification reasoning for the current step",
        "correction": 'the corrected current step if hallucination is "YES", else an empty string',
    }
)

DEBATE_FORMAT = format_instructions(
    {
        "verdict": 'whether the proposed correction is right, "AGREE" or "REVISE"',
        "reasoning": "your debate argument",
        "correction": 'your revised correction if verdict is "REVISE", else an empty string',
    }
)

MAD_FORMAT = format_instructions(
    {
        "answer": "your final answer to the question",
        "reasoning": "your step by step reasoning",
    }
)

TEMPLATE_RAW_COT = "raw_cot"
TEMPLATE_JUDGE = "judge"
TEMPLATE_STEP_EVALUATOR = "step_evaluator"
TEMPLATE_DEBATE_MITIGATOR = "debate_mitigator"
TEMPLATE_REANSWER = "reanswer"
TEMPLATE_MAD_INITIAL = "mad_initial"
TEMPLATE_MAD_REVISION = "mad_revision"

_CATALOG: dict[str, tuple[str, str, str]] = {
    TEMPLATE_RAW_COT: (RAW_COT_SYSTEM, RAW_COT_HUMAN, COT_FORMAT),
    TEMPLATE_JUDGE: (JUDGE_SYSTEM, JUDGE_HUMAN, JUDGE_FORMAT),
    TEMPLATE_STEP_EVALUATOR: (STEP_EVALUATOR_SYSTEM, STEP_EVALUATOR_HUMAN, EVALUATOR_FORMAT),
    TEMPLATE_DEBATE_MITIGATOR: (DEBATE_MITIGATOR_SYSTEM, DEBATE_MITIGATOR_HUMAN, DEBATE_FORMAT),
    TEMPLATE_REANSWER: (REANSWER_SYSTEM, REANSWER_HUMAN, COT_FORMAT),
    TEMPLATE_MAD_INITIAL: (MAD_INITIAL_SYSTEM, MAD_INITIAL_HUMAN, MAD_FORMAT),
    TEMPLATE_MAD_REVISION: (MAD_REVISION_SYSTEM, MAD_REVISION_HUMAN, MAD_FORMAT),
}


# Each template text split at its placeholders: literal text at even
# indices, slot names at odd ones, so rendering is a fill and a join.
_COMPILED = {
    template_id: (_PLACEHOLDER_RE.split(system), _PLACEHOLDER_RE.split(human), fmt)
    for template_id, (system, human, fmt) in _CATALOG.items()
}


def _fill(parts: list[str], variables: dict[str, object]) -> str:
    # Single pass: braces inside filled values are data, never expanded.
    pieces = parts.copy()
    for index in range(1, len(parts), 2):
        name = parts[index]
        if name not in variables:
            raise MissingVariable(name)
        pieces[index] = str(variables[name])
    return "".join(pieces)


def render_prompt(template_id: str, question: Question, **slots: object) -> PromptPair:
    """Render a catalog template for a question, which fills the
    ``subject`` and ``question`` slots. Raises MissingVariable on an
    unfilled slot."""
    system, human, fmt = _COMPILED[template_id]
    variables = {"subject": question.subject, "question": _question_slot(question), **slots}
    return PromptPair(_fill(system, variables), _fill(human, variables), fmt)


def _question_slot(question: Question) -> str:
    """format_question(question), made on the question's first render and
    kept in its ``__dict__`` (a frozen dataclass refuses setattr, and eq,
    hash and repr read only its fields): every prompt about a question
    shares it, about seven per rerailer question."""
    slot = question.__dict__.get("_question_slot")
    if slot is None:
        slot = question.__dict__["_question_slot"] = format_question(question)
    return slot


def format_question(question: Question) -> str:
    """The {question} slot value: text, optional context, labeled options."""
    parts = [question.text]
    if question.context:
        parts.append(f"Context: {question.context}")
    if question.options:
        rendered = "\n".join(f"{option.label}. {option.text}" for option in question.options)
        parts.append(f"Options:\n{rendered}")
    return "\n".join(parts)

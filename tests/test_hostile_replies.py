"""Whatever a model replies, a run of any mode ends in an outcome for the
question, graded or failed: replies never raise an error that is not a
RerailError. The examples are the shapes that once ended a run in a
traceback: a step number or an answer longer than Python's int-string
limit, an exponent of 5,000, and JSON nested deeper than Python parses."""

import itertools
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import BIG_EXPONENT, DEEP_JSON, LONG_DIGITS, make_settings, mcqa_question, numeric_question, text_question
from rerail import harness
from rerail.gateway import CompletionResult, Gateway


class Replies:
    """Answers the calls with the replies in turn, round and round."""

    def __init__(self, replies: list[str]) -> None:
        self._replies = itertools.cycle(replies)
        self._lock = threading.Lock()

    def call(self, prompt, params, context) -> CompletionResult:
        with self._lock:
            text = next(self._replies)
        return CompletionResult(text, 1, 1, 0.0)


def structured(answer: str) -> str:
    """One fenced object with the fields of every structured stage."""
    fields = (
        f'"answer": "{answer}", "reasoning": "r", "hallucination": "YES", "correction": "{answer}", '
        '"verdict": "REVISE", "selected": "1", "rationale": "r"'
    )
    return f"```json\n{{{fields}}}\n```"


FRAGMENTS = [
    "Step 1: ", "Step 2: ", "1. ", "\n", "Answer: ", "Final answer: ", " (verified)", "B", "5", "-2.5", "1/3",
    "1e9", "%", "```json\n", "\n```", structured("B"), structured("5"), "{", "}", "[", "]", '"', ":", " ",
]
REPLY = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=8)), max_size=12).map("".join)
QUESTIONS = {"numeric": numeric_question, "mcqa": mcqa_question, "text": text_question}


@pytest.mark.parametrize("mode", harness.MODES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(QUESTIONS)), replies=st.lists(REPLY, min_size=1, max_size=4))
@example(kind="numeric", replies=[f"Step {LONG_DIGITS}: think\nAnswer: 5"])
@example(kind="numeric", replies=[f"Step 1: think\nAnswer: {'5' * 5000}/2", structured(f"{'5' * 5000}/2")])
@example(kind="numeric", replies=[f"Step 1: think\nAnswer: {BIG_EXPONENT}", structured(BIG_EXPONENT)])
@example(kind="numeric", replies=[f"```json\n{DEEP_JSON}\n```", "Step 1: think\nAnswer: 5"])
def test_any_reply_ends_in_an_outcome(tmp_path_factory, mode, kind, replies):
    out = tmp_path_factory.mktemp("run")
    run_settings = make_settings(
        sc_budget=3, mad_rounds=2, n_debate_rounds=2, max_rerail_iterations=2, max_reanswer_steps=4
    )
    harness.run([QUESTIONS[kind](qid="q1")], run_settings, mode, out, Gateway(Replies(replies)))
    (outcome,) = harness.load_outcomes(out / harness.OUTCOMES_FILE)
    graded = outcome["error"] is None and isinstance(outcome["correct_final"], bool)
    assert graded or outcome["flags"] == ["question-failed"], outcome

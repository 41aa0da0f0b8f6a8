"""Segmentation of raw generations into steps plus a final answer."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rerail import parsing
from rerail.parsing import last_answer_marker, parse_reasoning_path, serialize_path, serialize_steps
from rerail.types import ParseFailure, ReasoningPath

from helpers import LONG_DIGITS, cot_text, step_section


class TestParseReasoningPath:
    def test_two_step_generation(self):
        path = parse_reasoning_path("Step 1: compute 2+2=4.\nStep 2: double it: 8.\nAnswer: 8")
        assert path.steps == ("compute 2+2=4.", "double it: 8.")
        assert path.final_answer == "8"

    def test_answer_without_steps_fails(self):
        with pytest.raises(ParseFailure):
            parse_reasoning_path("Answer: C")

    def test_steps_without_answer_fail(self):
        with pytest.raises(ParseFailure):
            parse_reasoning_path("Step 1: think hard.\nStep 2: think harder.")

    def test_empty_answer_fails(self):
        with pytest.raises(ParseFailure):
            parse_reasoning_path("Step 1: done.\nAnswer:   ")

    def test_five_steps_parse_in_order_unverified(self):
        texts = [f"portion {i} of the derivation" for i in range(1, 6)]
        path = parse_reasoning_path(cot_text(texts, "42"))
        assert path.steps == tuple(texts)
        assert path.verified == 0

    def test_last_answer_marker_wins(self):
        raw = "Step 1: a draft.\nAnswer: draft value\nStep 2: reconsider.\nFinal Answer: B"
        assert parse_reasoning_path(raw).final_answer == "B"

    def test_answer_marker_is_case_insensitive(self):
        assert parse_reasoning_path("Step 1: go.\nANSWER: yes").final_answer == "yes"

    def test_final_answer_variant(self):
        assert parse_reasoning_path("Step 1: go.\nFinal answer: 7").final_answer == "7"

    @pytest.mark.parametrize(
        "marker", ["Step 1:", "step 1:", "Step #1.", "STEP 1)", "  Step 1 :"]
    )
    def test_step_marker_shapes(self, marker):
        path = parse_reasoning_path(f"{marker} the only step\nAnswer: ok")
        assert path.steps == ("the only step",)

    def test_ordinal_fallback_when_no_step_markers(self):
        path = parse_reasoning_path("1. first piece\n2. second piece\nAnswer: fine")
        assert path.steps == ("first piece", "second piece")

    def test_ordinals_ignored_when_step_markers_exist(self):
        raw = "Step 1: list items\n1. apples\n2. oranges\nAnswer: two kinds"
        path = parse_reasoning_path(raw)
        assert len(path.steps) == 1
        assert "apples" in path.steps[0]

    def test_decimal_numbers_never_open_a_step(self):
        path = parse_reasoning_path("1. pi is roughly 3.14 here\nAnswer: pi")
        assert len(path.steps) == 1

    def test_declared_indices_are_renumbered_positionally(self):
        path = parse_reasoning_path("Step 3: out of order\nStep 9: still counted\nAnswer: x")
        assert serialize_steps(path) == "Step 1: out of order\nStep 2: still counted"

    @pytest.mark.parametrize("marker", [f"Step {LONG_DIGITS}:", f"{LONG_DIGITS}."], ids=["step", "ordinal"])
    def test_a_step_number_of_any_length_is_not_read(self, marker):
        # int() of the declared number raised ValueError past 4,300 digits
        path = parse_reasoning_path(f"{marker} a step\nAnswer: 5")
        assert path.steps == ("a step",)

    def test_step_with_no_text_fails(self):
        with pytest.raises(ParseFailure):
            parse_reasoning_path("Step 1:\nStep 2: real text\nAnswer: z")

    def test_answer_before_all_steps_fails(self):
        with pytest.raises(ParseFailure):
            parse_reasoning_path("Answer: early\nand then prose without markers")


# The patterns before each scanned a line once. They found the same steps
# and answer, with more whitespace around them, which parsing strips.
FORMER_PATTERNS = {
    "STEP_MARKER_RE": re.compile(r"(?im)^\s*step\s*#?\s*(\d+)\s*[:.)]\s*"),
    "ORDINAL_MARKER_RE": re.compile(r"(?m)^\s*(\d+)\.\s+"),
    "ANSWER_MARKER_RE": re.compile(r"(?im)^.*?\b(?:final\s+)?answer\s*:\s*(.+?)\s*$"),
}
PIECES = [
    "Step 1:", "step #2.", "STEP 3)", "1.", "2. ", "3.14", "Answer:", "answer", "Final  Answer", ":", " ", "\t", "\n",
    "\n", "\r", "\x85", "\u2028", "B", "x y",
]


def parsed(text: str):
    try:
        return parse_reasoning_path(text)
    except ParseFailure as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
def test_parsing_reads_what_the_former_patterns_read(text):
    with mock.patch.multiple(parsing, **FORMER_PATTERNS):
        former = parsed(text), last_answer_marker(text)
    found = last_answer_marker(text)
    assert parsed(text) == former[0]
    assert (found and found.group(1).strip()) == (former[1] and former[1].group(1).strip())


class TestSerialization:
    def _path(self) -> ReasoningPath:
        return ReasoningPath(steps=("alpha", "beta", "gamma"), final_answer="C", verified=1)

    def test_serialize_steps_marks_verified(self):
        rendered = serialize_steps(self._path())
        assert "Step 1: alpha (verified)" in rendered
        assert "Step 2: beta" in rendered
        assert "(verified)" not in rendered.splitlines()[1]

    def test_serialize_steps_can_omit_markers(self):
        rendered = serialize_steps(self._path(), verified_markers=False)
        assert "(verified)" not in rendered

    def test_serialize_steps_upto_truncates(self):
        rendered = serialize_steps(self._path(), upto=2)
        assert "gamma" not in rendered
        assert "beta" in rendered

    def test_serialize_path_appends_answer_line(self):
        assert serialize_path(self._path()).endswith("Final answer: C")

    def test_step_section_bounds(self):
        path = self._path()
        assert step_section(path, 2) == "beta"
        with pytest.raises(IndexError):
            step_section(path, 4)
        with pytest.raises(IndexError):
            step_section(path, 0)


class TestPathInvariants:
    def test_empty_steps_rejected(self):
        with pytest.raises(ParseFailure):
            ReasoningPath(steps=(), final_answer="x")

    @pytest.mark.parametrize("verified", [-1, 3])
    def test_verified_count_must_fit_the_steps(self, verified):
        with pytest.raises(ValueError):
            ReasoningPath(steps=("a", "b"), final_answer="x", verified=verified)


_step_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ,", min_size=1, max_size=60
).map(lambda s: s.strip()).filter(bool)

_answer_text = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", min_size=1, max_size=20
)


class TestRoundTrip:
    @given(st.lists(_step_text, min_size=1, max_size=8), _answer_text)
    def test_parse_inverts_rendering(self, steps, answer):
        path = parse_reasoning_path(cot_text(steps, answer))
        assert list(path.steps) == steps
        assert path.final_answer == answer

    @given(st.lists(_step_text, min_size=1, max_size=8), _answer_text)
    def test_reserializing_is_stable(self, steps, answer):
        first = parse_reasoning_path(cot_text(steps, answer))
        rendered = f"{serialize_steps(first)}\nAnswer: {first.final_answer}"
        second = parse_reasoning_path(rendered)
        assert second.steps == first.steps
        assert second.final_answer == first.final_answer

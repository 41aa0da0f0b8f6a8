"""Answer normalization, tolerance comparison, and fail-closed grading."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import BIG_EXPONENT, LONG_DIGITS, mcqa_question, numeric_question, text_question
from rerail.config import RunSettings
from rerail.grading import (
    _SIMPLE_FRACTION_RE,
    answer_bucket,
    clean_text,
    grade_safe,
    majority_answer,
    normalize_answer,
    answers_equal,
    parse_numeric,
)
from rerail.types import QuestionKind, UnnormalizableAnswer

# A run's default tolerances, as grading receives them.
TOLERANCES = RunSettings().abs_tolerance, RunSettings().rel_tolerance


class TestCleanText:
    def test_strips_and_uppercases(self):
        assert clean_text(" b) 42! ") == "B 42"

    def test_collapses_whitespace_runs(self):
        assert clean_text("a   b\t c") == "A B C"

    def test_empty_after_cleaning(self):
        assert clean_text("!!!") == ""

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


class TestParseNumeric:
    def test_thousands_separators(self):
        assert parse_numeric("1,234") == 1234

    def test_currency_prefix_skipped(self):
        assert parse_numeric("$1,234.50") == Fraction("1234.5")

    def test_percent_divides(self):
        assert parse_numeric("33%") == Fraction(33, 100)

    def test_percent_word(self):
        assert parse_numeric("45 percent") == Fraction(45, 100)

    def test_simple_fraction(self):
        assert parse_numeric("1/3") == Fraction(1, 3)

    def test_negative_fraction(self):
        assert parse_numeric("-3/4") == Fraction(-3, 4)

    def test_scientific_notation(self):
        assert parse_numeric("3.5e2") == 350

    def test_sign(self):
        assert parse_numeric("-4") == -4

    def test_first_number_wins(self):
        assert parse_numeric("between 7 and 9") == 7

    def test_trailing_period_ignored(self):
        assert parse_numeric("The total is 12.") == 12

    def test_no_number_raises(self):
        with pytest.raises(UnnormalizableAnswer):
            parse_numeric("no digits at all")

    @pytest.mark.parametrize(
        "raw",
        [LONG_DIGITS, f"{LONG_DIGITS[:4300]}/7", f"{'5' * 5000}/2", BIG_EXPONENT, "1e-5000", "2.5e4299", f"1e{LONG_DIGITS}"],
        ids=["digits", "fraction-at-4301", "fraction-at-5001", "exponent", "negative-exponent", "mantissa-and-exponent",
             "long-exponent"],
    )
    def test_a_number_longer_than_the_bound_is_unnormalizable(self, raw):
        # digits plus exponent: past 4,300 int() raised ValueError, and
        # Fraction built the exponent's power of ten however large
        with pytest.raises(UnnormalizableAnswer, match="longer than 4300 digits"):
            parse_numeric(f"Answer: {raw}")

    @pytest.mark.parametrize(
        "raw", [LONG_DIGITS[:4300], f"{LONG_DIGITS[:4299]}/7", "1e4299", "2.5e-4298"],
        ids=["digits", "fraction", "exponent", "mantissa-and-exponent"],
    )
    def test_a_number_at_the_bound_is_read_exactly(self, raw):
        assert parse_numeric(raw) == Fraction(raw)

    def test_a_zero_denominator_of_any_spelling_is_not_a_fraction(self):
        # "3/00" raised ZeroDivisionError; "3/0" read the 3
        assert parse_numeric("3/00") == parse_numeric("3/0") == 3


# The fraction pattern before its numerator had to start a run of digits;
# a search then retried every suffix of a long run not followed by a slash.
FORMER_FRACTION_RE = re.compile(r"([-+]?\d+)\s*/\s*(\d+)")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["1", "23", "-", "+", "/", " ", ",", ".", "x"]), max_size=12).map("".join))
def test_the_fraction_pattern_finds_what_the_former_pattern_found(text):
    found, former = _SIMPLE_FRACTION_RE.search(text), FORMER_FRACTION_RE.search(text)
    assert (found and (found.span(), found.groups())) == (former and (former.span(), former.groups()))


class TestNormalizeAnswer:
    def test_mcqa_keeps_leading_letter(self):
        assert normalize_answer("b) 42", QuestionKind.MCQA) == "B"

    def test_mcqa_bare_letter(self):
        assert normalize_answer(" c. ", QuestionKind.MCQA) == "C"

    def test_mcqa_letter_outside_range(self):
        with pytest.raises(UnnormalizableAnswer):
            normalize_answer("G is correct", QuestionKind.MCQA)

    def test_mcqa_prose_prefix_rejected(self):
        # only a leading option letter counts; sentences do not
        with pytest.raises(UnnormalizableAnswer):
            normalize_answer("The answer is B", QuestionKind.MCQA)

    def test_numeric(self):
        value = normalize_answer("1,234", QuestionKind.OPEN_NUMERIC)
        assert type(value) is Fraction and value == 1234

    def test_text_cleaned_uppercase(self):
        assert normalize_answer(" gravity! ", QuestionKind.OPEN_TEXT) == "GRAVITY"

    @pytest.mark.parametrize("raw", ["", "   ", "\n"])
    def test_blank_rejected(self, raw):
        with pytest.raises(UnnormalizableAnswer):
            normalize_answer(raw, QuestionKind.OPEN_TEXT)

    def test_text_empty_after_cleaning_rejected(self):
        with pytest.raises(UnnormalizableAnswer):
            normalize_answer("!?!", QuestionKind.OPEN_TEXT)

    @given(st.sampled_from("ABCDEF"), st.text(alphabet=")..  ", max_size=3))
    def test_idempotent_on_options(self, letter, decoration):
        first = normalize_answer(f"{letter}{decoration}", QuestionKind.MCQA)
        again = normalize_answer(str(first), QuestionKind.MCQA)
        assert again == first

    @given(st.fractions(max_denominator=1000))
    def test_idempotent_on_numerics(self, value):
        first = normalize_answer(str(value), QuestionKind.OPEN_NUMERIC)
        again = normalize_answer(str(first), QuestionKind.OPEN_NUMERIC)
        assert again == first


class TestAnswersEqual:
    def test_option_identity(self):
        assert answers_equal("A", "A", *TOLERANCES) is True
        assert answers_equal("A", "B", *TOLERANCES) is False

    def test_numeric_within_relative_tolerance(self):
        a = Fraction("0.3333333")
        g = Fraction(1, 3)
        assert answers_equal(a, g, *TOLERANCES) is True

    def test_relative_bound_is_tight(self):
        g = Fraction(10000)
        assert answers_equal(Fraction(10001), g, *TOLERANCES) is True
        assert answers_equal(Fraction("10001.1"), g, *TOLERANCES) is False

    def test_absolute_bound_near_zero(self):
        g = Fraction(0)
        assert answers_equal(Fraction(1, 2 * 10**6), g, *TOLERANCES) is True
        assert answers_equal(Fraction(2, 10**6), g, *TOLERANCES) is False

    def test_tolerances_overridable(self):
        g = Fraction(8)
        a = Fraction("8.4")
        assert answers_equal(a, g, *TOLERANCES) is False
        assert answers_equal(a, g, 0.5, TOLERANCES[1]) is True


class TestGrade:
    def test_raw_option_against_ground_truth(self):
        assert grade_safe("b) 42", mcqa_question(gt="B"), *TOLERANCES) == (True, [])

    def test_numeric_tolerance_flows_through(self):
        assert grade_safe("0.33333", numeric_question(gt="1/3"), *TOLERANCES) == (True, [])
        assert grade_safe("0.3", numeric_question(gt="1/3"), *TOLERANCES) == (False, [])

    @given(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"))
    def test_option_grading_symmetric(self, x, y):
        forward = grade_safe(x, mcqa_question(gt=y, n_options=6), *TOLERANCES)
        backward = grade_safe(y, mcqa_question(gt=x, n_options=6), *TOLERANCES)
        assert forward[1] == backward[1] == []
        assert forward == backward

    @given(
        st.text(alphabet="abcdefghij ", min_size=1, max_size=20).filter(
            lambda s: clean_text(s)
        ),
        st.text(alphabet="abcdefghij ", min_size=1, max_size=20).filter(
            lambda s: clean_text(s)
        ),
    )
    def test_text_grading_symmetric(self, x, y):
        forward = grade_safe(x, text_question(gt=clean_text(y)), *TOLERANCES)
        backward = grade_safe(y, text_question(gt=clean_text(x)), *TOLERANCES)
        assert forward[1] == backward[1] == []
        assert forward == backward


class TestGradeSafe:
    def test_missing_answer_fails_closed(self):
        correct, flags = grade_safe(None, mcqa_question(gt="A"), *TOLERANCES)
        assert correct is False
        assert flags == ["answer-missing"]

    def test_unnormalizable_fails_closed(self):
        correct, flags = grade_safe("zebra", mcqa_question(gt="A"), *TOLERANCES)
        assert correct is False
        assert flags == ["answer-unnormalizable"]

    def test_clean_answer_has_no_flags(self):
        correct, flags = grade_safe("A", mcqa_question(gt="A"), *TOLERANCES)
        assert correct is True
        assert flags == []

    @pytest.mark.parametrize("raw", [LONG_DIGITS, f"{'5' * 5000}/2", BIG_EXPONENT], ids=["digits", "fraction", "exponent"])
    def test_a_number_longer_than_the_bound_fails_closed(self, raw):
        truth = numeric_question(gt="5")
        assert grade_safe(f"Answer: {raw}", truth, *TOLERANCES) == (False, ["answer-unnormalizable"])
        assert answer_bucket(raw, numeric_question())[0] == "unnormalizable"


class TestMajorityAnswer:
    def test_clear_majority_returns_its_first_raw_spelling(self):
        assert majority_answer(["A", "b) B", "B."], mcqa_question()) == ("b) B", False)

    def test_tie_keeps_the_first_listed_leader(self):
        assert majority_answer(["A", "B", "B", "C", "C"], mcqa_question()) == ("B", True)
        assert majority_answer(["C", "B"], mcqa_question()) == ("C", True)

    def test_unnormalizable_answers_vote_by_cleaned_text(self):
        question = mcqa_question()
        assert answer_bucket("?? none", question) == ("unnormalizable", "NONE")
        assert majority_answer(["?? none", "none!", "A"], question) == ("?? none", False)

    def test_text_answers_pool_after_cleaning(self):
        assert majority_answer(["gravity", "Gravity!", "mass"], text_question()) == ("gravity", False)

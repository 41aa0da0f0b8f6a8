"""Dataset schema validation and JSONL round trips."""

import json
from fractions import Fraction

import pytest

from helpers import mcqa_question, numeric_question, text_question, write_dataset
from rerail.dataset import load_dataset, question_from_record
from rerail.types import Category, DatasetError, Question, QuestionKind


def record(**overrides):
    base = {
        "id": "q1",
        "subject": "college physics",
        "category": "AdvancedMathScience",
        "question": "Which option satisfies the stated condition?",
        "options": [
            {"label": "A", "text": "choice A"},
            {"label": "B", "text": "choice B"},
        ],
        "ground_truth": "B",
        "kind": "MCQA",
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestQuestionFromRecord:
    def test_happy_path(self):
        q = question_from_record(record(context="Assume ideal conditions."))
        assert q.id == "q1"
        assert q.kind is QuestionKind.MCQA
        assert q.category is Category.ADVANCED_MATH_SCIENCE
        assert q.context == "Assume ideal conditions."
        assert [o.label for o in q.options] == ["A", "B"]
        assert q.ground_truth == "B"

    def test_unknown_field_named(self):
        with pytest.raises(DatasetError, match="difficulty"):
            question_from_record(record(difficulty="hard"))

    def test_missing_field_named(self):
        rec = record()
        del rec["ground_truth"]
        with pytest.raises(DatasetError, match="ground_truth"):
            question_from_record(rec)

    @pytest.mark.parametrize("bad_id", ["", 12])
    def test_id_must_be_nonempty_string(self, bad_id):
        with pytest.raises(DatasetError, match="'id'"):
            question_from_record(record(id=bad_id))

    def test_category_diagnostic_lists_choices(self):
        with pytest.raises(DatasetError, match="CommonsenseReasoning"):
            question_from_record(record(category="Trivia"))

    def test_kind_diagnostic_lists_choices(self):
        with pytest.raises(DatasetError, match="OpenEndedNumeric"):
            question_from_record(record(kind="Essay"))

    def test_options_must_be_objects(self):
        with pytest.raises(DatasetError, match=r"options\[1\]"):
            question_from_record(record(options=[{"label": "A", "text": "x"}, "B"]))

    def test_option_unknown_field(self):
        bad = [{"label": "A", "text": "x", "score": 1}, {"label": "B", "text": "y"}]
        with pytest.raises(DatasetError, match="score"):
            question_from_record(record(options=bad))

    def test_option_missing_text(self):
        with pytest.raises(DatasetError, match="text"):
            question_from_record(record(options=[{"label": "A"}]))

    def test_context_must_be_string(self):
        with pytest.raises(DatasetError, match="context"):
            question_from_record(record(context=42))


class TestGroundTruth:
    def test_numeric_accepts_string_int_float(self):
        for value, expected in [("46", 46), (46, 46), (0.5, Fraction(1, 2))]:
            q = question_from_record(
                record(kind="OpenEndedNumeric", options=None, ground_truth=value,
                       category="Math")
            )
            assert type(q.ground_truth) is Fraction and q.ground_truth == expected

    def test_numeric_rejects_bool(self):
        with pytest.raises(DatasetError, match="numeric ground_truth"):
            question_from_record(
                record(kind="OpenEndedNumeric", options=None, ground_truth=True,
                       category="Math")
            )

    def test_numeric_rejects_garbage_string(self):
        with pytest.raises(DatasetError, match="cannot parse"):
            question_from_record(
                record(kind="OpenEndedNumeric", options=None, ground_truth="many",
                       category="Math")
            )

    @pytest.mark.parametrize("value", ["9" * 4301, "1e5000", "1e-5000"], ids=["digits", "exponent", "negative-exponent"])
    def test_numeric_longer_than_the_bound_rejected(self, value):
        # 1e5000 was read as a 5,001-digit integer, and a larger exponent
        # took seconds to build
        with pytest.raises(DatasetError, match="longer than 4300 digits"):
            question_from_record(
                record(kind="OpenEndedNumeric", options=None, ground_truth=value,
                       category="Math")
            )

    def test_text_is_cleaned(self):
        q = question_from_record(
            record(kind="OpenEndedText", options=None, ground_truth=" gravity! ",
                   category="CommonsenseReasoning")
        )
        assert q.ground_truth == "GRAVITY"

    def test_text_empty_after_cleaning_rejected(self):
        with pytest.raises(DatasetError, match="empty after cleaning"):
            question_from_record(
                record(kind="OpenEndedText", options=None, ground_truth="?!",
                       category="CommonsenseReasoning")
            )

    def test_mcqa_label_case_folded(self):
        q = question_from_record(record(ground_truth="b"))
        assert q.ground_truth == "B"


class TestQuestionInvariants:
    def test_mcqa_requires_options(self):
        base = mcqa_question()
        with pytest.raises(DatasetError, match="options"):
            Question(
                id=base.id, subject=base.subject, category=base.category,
                text=base.text, ground_truth=base.ground_truth,
                kind=QuestionKind.MCQA,
            )

    def test_mcqa_ground_truth_must_be_offered(self):
        with pytest.raises(DatasetError, match="not among the option labels"):
            mcqa_question(gt="D", n_options=2)

    def test_duplicate_option_labels_rejected(self):
        rec = record(options=[{"label": "A", "text": "x"}, {"label": "A", "text": "y"}],
                     ground_truth="A")
        with pytest.raises(DatasetError, match="duplicate option labels"):
            question_from_record(rec)

    def test_option_labels_restricted(self):
        rec = record(options=[{"label": "A", "text": "x"}, {"label": "Z", "text": "y"}],
                     ground_truth="A")
        with pytest.raises(DatasetError, match="option labels"):
            question_from_record(rec)

    def test_numeric_question_needs_numeric_truth(self):
        base = numeric_question()
        with pytest.raises(DatasetError, match="numeric ground truth"):
            Question(
                id=base.id, subject=base.subject, category=base.category,
                text=base.text, ground_truth="EIGHT",
                kind=QuestionKind.OPEN_NUMERIC,
            )

    @pytest.mark.parametrize(
        "make,truth",
        [(mcqa_question, Fraction(1)), (numeric_question, "8"), (text_question, Fraction(8))],
        ids=["mcqa", "numeric", "text"],
    )
    def test_ground_truth_of_the_wrong_type_rejected(self, make, truth):
        base = make()
        with pytest.raises(DatasetError, match="ground truth"):
            Question(
                id=base.id, subject=base.subject, category=base.category, text=base.text,
                ground_truth=truth, kind=base.kind, options=base.options,
            )


class TestLoadDataset:
    def write_lines(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        self.write_lines(p, [json.dumps(record()), json.dumps(record())])
        with pytest.raises(DatasetError, match="line 2.*duplicate"):
            load_dataset(p)

    @pytest.mark.parametrize(
        "bad,error",
        [
            ({"id": "x", "oops": 1}, "unknown field 'oops'"),  # before the id is known
            (record(id=3), "field 'id' must be a non-empty string"),
            (record(id="q2", category="Trivia"), "question 'q2': field 'category' must be one of"),
            (record(id="q2", ground_truth="D"), "question 'q2': ground truth 'D' is not among"),
            # a label outside A-F gets the same message
            (record(id="q2", ground_truth="G"), "question 'q2': ground truth 'G' is not among the option labels"),
            (record(), "duplicate question id 'q1'"),
            # the boundary values every reader is held to
            (record(id=10**400), "field 'id' must be a non-empty string"),
            (record(id=1.7976931348623157e308), "field 'id' must be a non-empty string"),
            (record(id=True), "field 'id' must be a non-empty string"),
            (record(id=-1), "field 'id' must be a non-empty string"),
            (record(id="q2", options=[1.0]), "question 'q2': options[0] expected a JSON object"),
            (record(id="q2", options=[{"label": "A", "text": "x", "txet": "y"}]),
             "question 'q2': options[0] unknown field 'txet'"),
            (record(id="q2", options=[{"label": "A"}]), "question 'q2': options[0] missing field 'text'"),
            (record(id="q2", kind="OpenEndedNumeric", options=None, ground_truth=True),
             "question 'q2': numeric ground_truth must be a number or string"),
        ],
        ids=[
            "unknown-field", "id", "category", "ground-truth", "ground-truth-outside-A-F", "duplicate",
            "id-10**400", "id-max-float", "id-true", "id--1", "option-1.0", "option-unknown-field",
            "option-missing-field", "numeric-ground-truth-true",
        ],
    )
    def test_every_error_names_the_file_and_line(self, tmp_path, bad, error):
        p = tmp_path / "data.jsonl"
        self.write_lines(p, [json.dumps(record()), json.dumps(bad)])
        with pytest.raises(DatasetError) as raised:
            load_dataset(p)
        assert str(raised.value).startswith(f"{p} line 2: {error}")
        assert str(raised.value).count("line ") == 1

    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        self.write_lines(p, [json.dumps(record()), "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(p)

    def test_empty_dataset_rejected(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "data.jsonl"
        self.write_lines(p, [json.dumps(record()), "", json.dumps(record(id="q2"))])
        assert [q.id for q in load_dataset(p)] == ["q1", "q2"]

    def test_write_then_load_round_trip(self, tmp_path):
        p = tmp_path / "data.jsonl"
        questions = [
            mcqa_question(qid="m1", context="Shown a diagram."),
            numeric_question(qid="n1", gt="8"),
            text_question(qid="t1"),
        ]
        write_dataset(p, questions)
        assert load_dataset(p) == questions

"""Consistency rules, sampling, judging, and the routing decision."""

import pytest
from hypothesis import given, strategies as st

from helpers import (
    RecordingBackend,
    consistent_script,
    cot_text,
    entry,
    judge_selects,
    make_settings,
    mcqa_question,
    numeric_question,
    question_calls,
    scripted_gateway,
)
from rerail.config import question_seed
from rerail.derailment import (
    FLAG_ALL_LONG,
    FLAG_JUDGE_DUPLICATED_RP3,
    FLAG_JUDGE_FALLBACK,
    FLAG_JUDGE_FIRST_THREE,
    GenerationFailure,
    RULE_ALL_IDENTICAL,
    RULE_ALL_LONG,
    RULE_INCONSISTENT,
    RULE_SAME_LEADING_OPTION,
    check_consistency,
    generate_rps,
    judge,
    route,
)
from rerail.gateway import Gateway, ScriptedBackend
from rerail.harness import run_question
from rerail.types import STAGE_COT, STAGE_JUDGE


def sample(steps_answer: str, qid: str = "q1") -> dict:
    return entry(STAGE_COT, qid, steps_answer)


GOOD_COT = cot_text(["List the candidates.", "Eliminate the wrong ones."], "B")


class TestCheckConsistency:
    def test_same_leading_option_fires_before_identity(self):
        assert check_consistency(["A", "A", "A"]) == RULE_SAME_LEADING_OPTION

    def test_mixed_options_are_inconsistent(self):
        assert check_consistency(["A. 42", "B) 17", "A. 42"]) == RULE_INCONSISTENT

    def test_three_long_disagreeing_answers_count_as_consistent(self):
        answers = [
            "the integral evaluates to exactly 42",
            "after substitution the limit diverges",
            "by symmetry the middle term cancels out",
        ]
        assert all(len(a) > 30 for a in answers)
        assert check_consistency(answers) == RULE_ALL_LONG

    def test_decorated_option_variants_agree(self):
        assert check_consistency(["a.", "A", "A "]) == RULE_SAME_LEADING_OPTION

    def test_thirty_characters_is_not_long(self):
        answers = ["x" * 30, "y" * 30, "z" * 30]
        assert check_consistency(answers) == RULE_INCONSISTENT

    def test_thirty_one_characters_is_long(self):
        answers = ["x" * 31, "y" * 31]
        assert check_consistency(answers) == RULE_ALL_LONG

    def test_option_rule_requires_under_forty_cleaned_chars(self):
        # mix lengths so the all-long rule cannot fire first
        long_option = "A" + "X" * 39  # cleaned length exactly 40
        assert check_consistency(["A", long_option]) == RULE_INCONSISTENT
        shorter = "A" + "X" * 38  # cleaned length 39, inside the limit
        assert check_consistency(["A", shorter]) == RULE_SAME_LEADING_OPTION

    def test_identical_non_option_strings(self):
        assert check_consistency(["G", "G"]) == RULE_ALL_IDENTICAL

    def test_identical_after_cleaning_to_nothing(self):
        assert check_consistency(["?!", "!!"]) == RULE_ALL_IDENTICAL

    def test_case_and_punctuation_fold_together(self):
        assert check_consistency(["the answer is 42", "The Answer is 42!"]) == RULE_ALL_IDENTICAL

    def test_single_answer_is_consistent(self):
        assert check_consistency(["B"]) != RULE_INCONSISTENT

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            check_consistency([])

    def test_verdict_preserves_raw_answers_in_order(self):
        # the answers the rules judged reach the trace as sampled
        gw = scripted_gateway([sample(cot_text(["Pick one."], answer)) for answer in ("b)", "B.", "b")])
        _, _, _, fields = route(mcqa_question(), gw, make_settings())
        assert fields["answers"] == ["b)", "B.", "b"]

    @given(
        st.lists(st.text(max_size=50), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_verdict_is_order_invariant(self, answers, rng):
        shuffled = list(answers)
        rng.shuffle(shuffled)
        assert check_consistency(answers) == check_consistency(shuffled)


class TestGenerateRps:
    def recording(self, entries):
        backend = RecordingBackend(ScriptedBackend(entries))
        return Gateway(backend), backend

    def test_three_clean_samples(self):
        gw, backend = self.recording([sample(GOOD_COT)] * 3)
        paths = generate_rps(mcqa_question(), gw, make_settings())
        assert len(paths) == 3
        assert all(p.verified == 0 for p in paths)
        assert all(p.final_answer == "B" for p in paths)

        base = question_seed(0, "q1")
        assert [params.seed for params, _ in backend.calls] == [base, base + 1, base + 2]
        assert all(params.temperature == 0.7 for params, _ in backend.calls)
        assert all(ctx.stage == STAGE_COT for _, ctx in backend.calls)

    def test_unparseable_sample_is_regenerated_once(self):
        # retries come after every first attempt in the script
        gw, backend = self.recording(
            [sample(GOOD_COT), sample("no steps, no answer"), sample(GOOD_COT), sample(GOOD_COT)]
        )
        paths = generate_rps(mcqa_question(), gw, make_settings())
        assert len(paths) == 3
        base = question_seed(0, "q1")
        # the retry of sample 1 runs after all samples, its seed past the sample range
        assert [(ctx.sample_index, params.seed) for params, ctx in backend.calls] == [
            (0, base), (1, base + 1), (2, base + 2), (3, base + 3)
        ]

    def test_twice_unparseable_sample_is_dropped(self):
        gw, _ = self.recording(
            [sample(GOOD_COT), sample("junk"), sample(GOOD_COT), sample("junk again")]
        )
        paths = generate_rps(mcqa_question(), gw, make_settings())
        assert len(paths) == 2

    def test_all_unparseable_raises(self):
        gw, backend = self.recording([sample("junk")] * 6)
        with pytest.raises(GenerationFailure, match="q1"):
            generate_rps(mcqa_question(), gw, make_settings())
        assert len(backend.calls) == 6

    def test_single_sample_mode(self):
        gw, _ = self.recording([sample(GOOD_COT)])
        paths = generate_rps(mcqa_question(), gw, make_settings(), n=1)
        assert len(paths) == 1

    def test_single_sample_failure(self):
        gw, _ = self.recording([sample("junk"), sample("junk")])
        with pytest.raises(GenerationFailure):
            generate_rps(mcqa_question(), gw, make_settings(), n=1)


class TestJudge:
    def paths(self, n=3, qid="q1"):
        gw = scripted_gateway([sample(GOOD_COT, qid)] * n)
        return generate_rps(mcqa_question(qid=qid), gw, make_settings(), n=n)

    def test_selection_parsed(self):
        paths = self.paths()
        backend = RecordingBackend(ScriptedBackend([entry(STAGE_JUDGE, "q1", judge_selects(2))]))
        gw = Gateway(backend)
        index, rationale, flags = judge(mcqa_question(), paths, gw, make_settings())
        assert index == 2
        assert rationale == "the most coherent path"
        assert flags == []
        params, ctx = backend.calls[0]
        assert params.temperature == 0.0  # judging is deterministic
        assert params.seed == question_seed(0, "q1")
        assert ctx.stage == STAGE_JUDGE

    def test_out_of_range_selection_twice_falls_back_to_first(self):
        paths = self.paths()
        backend = RecordingBackend(
            ScriptedBackend(
                [entry(STAGE_JUDGE, "q1", judge_selects(5)),
                 entry(STAGE_JUDGE, "q1", judge_selects(5))]
            )
        )
        gw = Gateway(backend)
        index, rationale, flags = judge(mcqa_question(), paths, gw, make_settings())
        assert index == 1
        assert rationale == "fallback:first"
        assert FLAG_JUDGE_FALLBACK in flags
        assert len(backend.calls) == 2

    def test_two_paths_duplicate_the_second_slot(self):
        paths = self.paths(n=2)
        gw = scripted_gateway(
            [entry(STAGE_JUDGE, "q1", judge_selects(3)),
             entry(STAGE_JUDGE, "q1", judge_selects(2))],
        )
        index, _, flags = judge(mcqa_question(), paths, gw, make_settings())
        # "3" names the duplicated slot, so it is rejected and re-asked
        assert index == 2
        assert FLAG_JUDGE_DUPLICATED_RP3 in flags
        prompt = gw.records[0][1]
        rp2_block = prompt.user.split("RP 2: ")[1].split("RP 3: ")[0].strip()
        rp3_block = prompt.user.split("RP 3: ")[1].strip()
        assert rp2_block == rp3_block

    def test_more_than_three_paths_judges_first_three(self):
        paths = self.paths(n=4)
        gw = scripted_gateway([entry(STAGE_JUDGE, "q1", judge_selects(1))])
        index, _, flags = judge(mcqa_question(), paths, gw, make_settings())
        assert index == 1
        assert FLAG_JUDGE_FIRST_THREE in flags

    def test_single_path_rejected(self):
        paths = self.paths(n=1)
        with pytest.raises(ValueError):
            judge(mcqa_question(), paths, scripted_gateway([]), make_settings())


class TestRoute:
    def test_agreeing_samples_never_reach_the_judge(self):
        gw = scripted_gateway(consistent_script("q1"))
        with gw.recording("q1") as ledger:
            answer, selected, _, fields = route(mcqa_question(), gw, make_settings())
        assert selected is None
        assert answer == "B"
        assert fields["rule_fired"] == RULE_SAME_LEADING_OPTION
        assert question_calls(ledger, STAGE_JUDGE) == 0
        assert question_calls(ledger, STAGE_COT) == 3

    def test_disagreeing_samples_go_through_the_judge(self):
        gw = scripted_gateway(
            [
                sample(cot_text(["Reason one way."], "C")),
                sample(cot_text(["Reason another way."], "B")),
                sample(cot_text(["Reason one way."], "C")),
                entry(STAGE_JUDGE, "q1", judge_selects(2)),
            ]
        )
        with gw.recording("q1") as ledger:
            _, selected, _, fields = route(mcqa_question(), gw, make_settings())
        assert selected is not None
        assert fields["selected_index"] == 2
        assert selected.steps == ("Reason another way.",)
        assert selected.final_answer == "B"
        assert fields["rule_fired"] == RULE_INCONSISTENT
        assert question_calls(ledger, STAGE_JUDGE) == 1

    def test_single_sample_is_trivially_consistent(self):
        gw = scripted_gateway([sample(GOOD_COT)])
        answer, selected, _, _ = route(mcqa_question(), gw, make_settings(n_samples=1))
        assert selected is None
        assert answer == "B"

    def test_long_answers_resolve_by_majority(self):
        q = numeric_question()
        answers = [
            "the computation finally settles on the value 8",
            "a completely different derivation gives a total of 9",
            "after rechecking the arithmetic the total is 8 overall",
        ]
        assert all(len(a) > 30 for a in answers)
        gw = scripted_gateway(
            [sample(cot_text(["Work it through."], a)) for a in answers]
        )
        answer, selected, flags, fields = route(q, gw, make_settings())
        assert selected is None
        assert fields["rule_fired"] == RULE_ALL_LONG
        assert FLAG_ALL_LONG in flags
        assert answer == answers[0]

    def test_consistent_but_unnormalizable_answer_is_flagged(self):
        gw = scripted_gateway(
            [sample(cot_text(["Shrug."], "zebra")) for _ in range(3)]
        )
        outcome, _ = run_question(mcqa_question(), "rerailer", gw, make_settings())
        assert outcome["routing"] == "consistent"
        assert outcome["final_answer"] == "zebra"
        assert outcome["correct_final"] is False
        assert "answer-unnormalizable" in outcome["flags"]


LONG_ANSWERS = [
    "the computation finally settles on the value 8",
    "a completely different derivation gives a total of 9",
    "after rechecking the arithmetic the total is 8 overall",
]

# scenario: (question, sampled answers, judge replies), then what route
# returns: (answer, flags, selected_index, judge_rationale)
ROUTE_SCENARIOS = {
    "consistent": ((mcqa_question, ["B", "B.", "b"], []), ("B", [], None, None)),
    "all-long": ((numeric_question, LONG_ANSWERS, []), (LONG_ANSWERS[0], [FLAG_ALL_LONG], None, None)),
    "two-sample-derailment": (
        (mcqa_question, ["C", "B"], [judge_selects(2)]),
        ("B", [FLAG_JUDGE_DUPLICATED_RP3], 2, "the most coherent path"),
    ),
    "judge-fallback": (
        (mcqa_question, ["C", "B", "A"], [judge_selects(5)] * 2),
        ("C", [FLAG_JUDGE_FALLBACK], 1, "fallback:first"),
    ),
}


@pytest.mark.parametrize("scenario", ROUTE_SCENARIOS)
def test_route_returns_what_its_trace_fields_say(scenario):
    (make_question, answers, replies), expected = ROUTE_SCENARIOS[scenario]
    gw = scripted_gateway(
        [sample(cot_text([f"Reason toward {a}."], a)) for a in answers]
        + [entry(STAGE_JUDGE, "q1", reply) for reply in replies]
    )
    answer, selected, flags, fields = route(make_question(), gw, make_settings(n_samples=len(answers)))
    assert (selected is None) == (fields["routing"] == "consistent") == (fields["rule_fired"] != RULE_INCONSISTENT)
    assert fields["answers"] == answers
    assert (answer, flags, fields.get("selected_index"), fields.get("judge_rationale")) == expected
    if selected is None:
        assert list(fields) == ["routing", "rule_fired", "answers"]
    else:
        assert list(fields) == ["routing", "rule_fired", "answers", "selected_index", "judge_rationale"]
        assert fields["routing"] == "derailed"
        assert answer == selected.final_answer

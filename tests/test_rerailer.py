"""Repair mechanics: masking, step evaluation, debate, splice, re-answer,
single passes, and the capped outer loop."""

import pytest

from helpers import (
    RecordingBackend,
    cot_text,
    debate_agree,
    debate_revise,
    entry,
    evaluator_no,
    evaluator_yes,
    fenced,
    make_settings,
    mcqa_question,
    question_calls,
    scripted_gateway,
)
from rerail.config import question_seed
from rerail.gateway import Gateway, ScriptedBackend
from rerail.parsing import parse_reasoning_path
from rerail.rerailer import (
    EvaluationResult,
    FLAG_DEBATE_FAIL_OPEN,
    FLAG_DEBATE_TIE,
    FLAG_EVALUATOR_FAIL_OPEN,
    FLAG_PREFIX_DIVERGENCE,
    FLAG_STEP_BUDGET,
    FLAG_UNCERTIFIED,
    debate,
    evaluate_step,
    mask,
    reanswer,
    rerail,
    rerail_pass,
    splice,
)
from rerail.types import (
    ParseFailure,
    ReasoningPath,
    STAGE_DEBATE,
    STAGE_EVALUATOR,
    STAGE_REANSWER,
)

Q = mcqa_question()
SETTINGS = make_settings()

FIVE_TEXTS = [
    "Write down the knowns.",
    "Pick the governing relation.",
    "Substitute the values.",
    "Simplify the expression.",
    "Compare against the options.",
]


def path_from(texts, answer="A"):
    return parse_reasoning_path(cot_text(list(texts), answer))


# step 1 settled by an earlier pass, step 2 not
SETTLED_THEN_OPEN = ReasoningPath(steps=("Settled earlier.", "Still open."), final_answer="A", verified=1)


class TestMask:
    def test_prefix_only(self):
        rp = path_from(FIVE_TEXTS)
        masked = mask(rp, 3)
        for text in FIVE_TEXTS[:3]:
            assert text in masked
        for text in FIVE_TEXTS[3:]:
            assert text not in masked

    def test_single_step_prefix(self):
        rp = path_from(FIVE_TEXTS)
        masked = mask(rp, 1)
        assert FIVE_TEXTS[0] in masked
        assert FIVE_TEXTS[1] not in masked

    def test_no_answer_leaks(self):
        rp = path_from(FIVE_TEXTS, answer="D")
        assert "Answer" not in mask(rp, 5)

    def test_verified_steps_carry_their_marker(self):
        masked = mask(SETTLED_THEN_OPEN, 2)
        assert "Settled earlier. (verified)" in masked
        assert "Still open. (verified)" not in masked


class TestEvaluateStep:
    def recording(self, entries):
        backend = RecordingBackend(ScriptedBackend(entries))
        return Gateway(backend), backend

    def test_clean_step(self):
        gw, backend = self.recording([entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1)])
        rp = path_from(FIVE_TEXTS)
        result = evaluate_step(Q, rp, 1, gw, SETTINGS)
        assert result.hallucination is False
        assert result.verification_reasoning == "the step holds up"
        assert result.auto is False
        assert result.proposed_correction is None
        assert len(backend.calls) == 1

        params, ctx = backend.calls[0]
        assert ctx.step_index == 1
        assert params.temperature == 0.0
        assert params.seed == question_seed(0, "q1:eval:1")

    def test_flagged_step_carries_its_correction(self):
        gw, _ = self.recording(
            [entry(STAGE_EVALUATOR, "q1", evaluator_yes("Use the right relation."), step_index=2)]
        )
        result = evaluate_step(Q, path_from(FIVE_TEXTS), 2, gw, SETTINGS)
        assert result.hallucination is True
        assert result.proposed_correction == "Use the right relation."

    def test_bracketed_verdicts_accepted(self):
        gw, _ = self.recording(
            [entry(STAGE_EVALUATOR, "q1", fenced(hallucination="[NO]", reasoning="r", correction=""), step_index=1)]
        )
        assert evaluate_step(Q, path_from(FIVE_TEXTS), 1, gw, SETTINGS).hallucination is False

    def test_previously_verified_step_never_calls_out(self):
        gw = scripted_gateway([])  # any call would raise ScriptExhausted
        with gw.recording("q1") as ledger:
            result = evaluate_step(Q, SETTLED_THEN_OPEN, 1, gw, SETTINGS)
        assert result.auto is True
        assert result.hallucination is False
        assert question_calls(ledger) == 0

    def test_unparseable_twice_fails_open(self):
        gw, backend = self.recording(
            [entry(STAGE_EVALUATOR, "q1", "shrug", step_index=1),
             entry(STAGE_EVALUATOR, "q1", "still shrug", step_index=1)]
        )
        result = evaluate_step(Q, path_from(FIVE_TEXTS), 1, gw, SETTINGS)
        assert result.hallucination is False
        assert result.flags == (FLAG_EVALUATOR_FAIL_OPEN,)
        assert len(backend.calls) == 2

    def test_yes_without_correction_spends_the_reask(self):
        gw, backend = self.recording(
            [entry(STAGE_EVALUATOR, "q1", fenced(hallucination="YES", reasoning="r", correction=""), step_index=1),
             entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1)]
        )
        result = evaluate_step(Q, path_from(FIVE_TEXTS), 1, gw, SETTINGS)
        assert result.hallucination is False
        assert len(backend.calls) == 2

    def test_prompt_shows_step_number_and_masked_prefix(self):
        gw = scripted_gateway([entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=2)])
        evaluate_step(Q, path_from(FIVE_TEXTS), 2, gw, SETTINGS)
        _, prompt = gw.records[0]
        assert "I am currently at step #2" in prompt.system
        assert FIVE_TEXTS[1] in prompt.user
        assert FIVE_TEXTS[2] not in prompt.user

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            EvaluationResult(False, "clean", proposed_correction="but corrected?")


def debate_entry(response, agent, round_no, qid="q1", step=2):
    return entry(STAGE_DEBATE, qid, response, step_index=step, agent_id=agent, round_no=round_no)


class TestDebate:
    MASKED = "Step 1: context.\nStep 2: the flagged step."
    ORIGINAL = "The evaluator's proposed correction."

    def run(self, entries, **settings_overrides):
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            outcome, flags = debate(
                Q, self.MASKED, 2, self.ORIGINAL, gw, make_settings(**settings_overrides)
            )
        return outcome, flags, gw, ledger

    def test_unanimous_first_round_accepts_early(self):
        outcome, flags, _, ledger = self.run(
            [debate_entry(debate_agree(), 1, 1), debate_entry(debate_agree(), 2, 1)]
        )
        assert outcome["accepted"] is True
        assert outcome["final_correction"] == self.ORIGINAL
        assert outcome["rounds_run"] == 1
        assert len(outcome["transcript"]) == 2
        assert flags == []
        assert question_calls(ledger, STAGE_DEBATE) == 2

    def test_revision_then_unanimous_agreement(self):
        revised = "A sharper correction."
        outcome, flags, _, ledger = self.run(
            [
                debate_entry(debate_revise(revised), 1, 1),
                debate_entry(debate_agree(), 2, 1),
                debate_entry(debate_agree(), 1, 2),
                debate_entry(debate_agree(), 2, 2),
            ]
        )
        assert outcome["accepted"] is False  # the original did not survive
        assert outcome["final_correction"] == revised
        assert outcome["rounds_run"] == 2
        assert len(outcome["transcript"]) == 4
        assert question_calls(ledger, STAGE_DEBATE) == 4

    def test_last_reviser_in_a_round_wins_the_standing_slot(self):
        first = "First revision."
        second = "Second revision."
        outcome, _, _, _ = self.run(
            [
                debate_entry(debate_revise(first), 1, 1),
                debate_entry(debate_revise(second), 2, 1),
                debate_entry(debate_agree(), 1, 2),
                debate_entry(debate_agree(), 2, 2),
            ]
        )
        assert outcome["final_correction"] == second

    def test_three_round_tie_keeps_prelast_revision_and_flags(self):
        c2, c3, c4 = "Second take.", "Third take.", "Fourth take."
        outcome, flags, _, _ = self.run(
            [
                debate_entry(debate_agree(), 1, 1),
                debate_entry(debate_revise(c2), 2, 1),
                debate_entry(debate_agree(), 1, 2),
                debate_entry(debate_revise(c3), 2, 2),
                debate_entry(debate_agree(), 1, 3),
                debate_entry(debate_revise(c4), 2, 3),
            ]
        )
        assert outcome["rounds_run"] == 3
        assert len(outcome["transcript"]) == 6
        # the tie is judged on what the final round debated: the standing
        # correction entering round 3, not the revision made inside it
        assert outcome["final_correction"] == c3
        assert outcome["accepted"] is False
        assert FLAG_DEBATE_TIE in flags

    def test_majority_revise_at_the_cap_keeps_latest_revision(self):
        outcome, flags, _, _ = self.run(
            [
                debate_entry(debate_agree(), 1, 1),
                debate_entry(debate_revise("r1"), 2, 1),
                debate_entry(debate_agree(), 3, 1),
                debate_entry(debate_revise("r2"), 1, 2),
                debate_entry(debate_revise("r3"), 2, 2),
                debate_entry(debate_agree(), 3, 2),
                debate_entry(debate_revise("r4"), 1, 3),
                debate_entry(debate_agree(), 2, 3),
                debate_entry(debate_revise("r5"), 3, 3),
            ],
            n_debate_agents=3,
        )
        assert outcome["rounds_run"] == 3
        assert len(outcome["transcript"]) == 9
        assert outcome["final_correction"] == "r5"
        assert outcome["accepted"] is False
        assert FLAG_DEBATE_TIE not in flags

    def test_unparseable_agent_fails_open_as_agreement(self):
        outcome, flags, _, ledger = self.run(
            [
                debate_entry("mumble", 1, 1),
                debate_entry("more mumble", 1, 1),
                debate_entry(debate_agree(), 2, 1),
            ]
        )
        assert outcome["accepted"] is True
        assert outcome["rounds_run"] == 1
        assert FLAG_DEBATE_FAIL_OPEN in flags
        assert question_calls(ledger, STAGE_DEBATE) == 3

    def test_second_round_prompt_replays_round_one(self):
        revised = "A sharper correction."
        _, _, gw, _ = self.run(
            [
                debate_entry(debate_revise(revised), 1, 1),
                debate_entry(debate_agree(), 2, 1),
                debate_entry(debate_agree(), 1, 2),
                debate_entry(debate_agree(), 2, 2),
            ],
        )
        round_one = [p for c, p in gw.for_stage(STAGE_DEBATE) if c.round == 1]
        round_two = [p for c, p in gw.for_stage(STAGE_DEBATE) if c.round == 2]
        assert f"The proposed correction for the current step: {self.ORIGINAL}" in round_one[0].user
        assert "Agent 1 (round 1)" not in round_one[0].user
        assert f"The proposed correction for the current step: {revised}" in round_two[0].user
        assert "Agent 1 (round 1) [REVISE]" in round_two[0].user
        assert f"Agent 1 revised correction: {revised}" in round_two[0].user

    def test_empty_correction_rejected(self):
        with pytest.raises(ValueError):
            debate(Q, self.MASKED, 2, "   ", scripted_gateway([]), SETTINGS)


class TestSplice:
    def test_statuses_around_the_correction(self):
        rp = path_from(FIVE_TEXTS)
        out = splice(rp, 3, "Substitute the right values.")
        # the steps before the fix are verified, the fix is not, and the
        # steps after it are left for the re-answer
        assert out.steps == (FIVE_TEXTS[0], FIVE_TEXTS[1], "Substitute the right values.")
        assert out.verified == 2
        assert out.final_answer == rp.final_answer

    def test_correction_at_the_first_step(self):
        out = splice(path_from(FIVE_TEXTS), 1, "Re-read the problem.")
        assert out.steps == ("Re-read the problem.",)
        assert out.verified == 0


class TestReanswer:
    PREFIX = splice(path_from(FIVE_TEXTS), 2, "Pick the correct relation.")

    def recording(self, entries):
        backend = RecordingBackend(ScriptedBackend(entries))
        return Gateway(backend), backend

    def continuation(self, *extra_steps, answer="B"):
        return cot_text(list(self.PREFIX.steps) + list(extra_steps), answer)

    def test_prefix_statuses_survive(self):
        gw, _ = self.recording(
            [entry(STAGE_REANSWER, "q1", self.continuation("Finish the algebra."))]
        )
        path, flags = reanswer(Q, self.PREFIX, 1, gw, SETTINGS)
        assert flags == []
        assert path.final_answer == "B"
        assert path.steps == ("Write down the knowns.", "Pick the correct relation.", "Finish the algebra.")
        assert path.verified == 1

    def test_whitespace_differences_do_not_break_the_prefix(self):
        wiggly = cot_text(
            ["Write  down   the knowns.", "Pick the correct  relation.", "Close it out."], "B"
        )
        gw, _ = self.recording([entry(STAGE_REANSWER, "q1", wiggly)])
        path, flags = reanswer(Q, self.PREFIX, 1, gw, SETTINGS)
        assert flags == []
        assert path.verified == 1
        assert path.steps[0] == "Write  down   the knowns."  # the re-answer's own text

    def test_overlong_generation_is_truncated_and_flagged(self):
        texts = list(self.PREFIX.steps) + [f"Expand term {i}." for i in range(1, 12)]
        assert len(texts) == 13
        gw, _ = self.recording([entry(STAGE_REANSWER, "q1", cot_text(texts, "B"))])
        path, flags = reanswer(Q, self.PREFIX, 1, gw, SETTINGS)
        assert FLAG_STEP_BUDGET in flags
        assert len(path.steps) == 12

    def test_prefix_rewrite_is_flagged_and_distrusted(self):
        divergent = cot_text(["Something else entirely.", "And more of it."], "B")
        gw, _ = self.recording([entry(STAGE_REANSWER, "q1", divergent)])
        path, flags = reanswer(Q, self.PREFIX, 1, gw, SETTINGS)
        assert FLAG_PREFIX_DIVERGENCE in flags
        assert path.verified == 0

    def test_parse_failure_retries_once_with_shifted_seed(self):
        gw, backend = self.recording(
            [entry(STAGE_REANSWER, "q1", "no structure"),
             entry(STAGE_REANSWER, "q1", self.continuation("Wrap up."))]
        )
        path, _ = reanswer(Q, self.PREFIX, 2, gw, SETTINGS)
        assert len(path.steps) == 3
        seed = question_seed(0, "q1:reanswer:2")
        assert [params.seed for params, _ in backend.calls] == [seed, seed + 1]

    def test_two_parse_failures_raise(self):
        gw, _ = self.recording(
            [entry(STAGE_REANSWER, "q1", "junk"), entry(STAGE_REANSWER, "q1", "junk")]
        )
        with pytest.raises(ParseFailure):
            reanswer(Q, self.PREFIX, 1, gw, SETTINGS)

    def test_single_step_prefix(self):
        prefix = splice(path_from(FIVE_TEXTS), 1, "Re-read the problem.")
        gw, _ = self.recording(
            [entry(STAGE_REANSWER, "q1", cot_text(["Re-read the problem.", "Solve."], "C"))]
        )
        path, flags = reanswer(Q, prefix, 1, gw, SETTINGS)
        assert flags == []
        assert path.steps == ("Re-read the problem.", "Solve.")
        assert path.verified == 0  # the fix itself is checked by the next pass

    def test_prompt_never_shows_verified_markers(self):
        gw = scripted_gateway([entry(STAGE_REANSWER, "q1", self.continuation("Done."))])
        reanswer(Q, self.PREFIX, 1, gw, SETTINGS)
        _, prompt = gw.records[0]
        assert "(verified)" not in prompt.user
        assert "Write down the knowns." in prompt.user


class TestRerailPass:
    def test_clean_sweep_verifies_everything(self):
        rp = path_from(FIVE_TEXTS[:4])
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=i) for i in range(1, 5)
        ]
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            path, trace = rerail_pass(Q, rp, 1, gw, SETTINGS)
        assert trace["corrected_step"] is None  # the pass left the path unchanged
        assert path.verified == 4
        assert path.steps == tuple(FIVE_TEXTS[:4])
        assert question_calls(ledger, STAGE_EVALUATOR) == 4
        assert question_calls(ledger, STAGE_DEBATE) == 0
        assert question_calls(ledger, STAGE_REANSWER) == 0
        assert len(trace["evaluations"]) == 4

    def test_first_flag_stops_the_sweep(self):
        rp = path_from(FIVE_TEXTS)
        corrected = "Pick the correct relation."
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1),
            entry(STAGE_EVALUATOR, "q1", evaluator_yes(corrected), step_index=2),
            debate_entry(debate_agree(), 1, 1),
            debate_entry(debate_agree(), 2, 1),
            entry(STAGE_REANSWER, "q1",
                  cot_text([FIVE_TEXTS[0], corrected, "Finish from here."], "B")),
        ]
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            path, trace = rerail_pass(Q, rp, 1, gw, SETTINGS)
        assert trace["corrected_step"] == 2  # the pass changed the path
        assert question_calls(ledger, STAGE_EVALUATOR) == 2
        evaluated = [c.step_index for c, _ in gw.for_stage(STAGE_EVALUATOR)]
        assert max(evaluated) == 2  # steps 3..5 were never looked at
        assert path.final_answer == "B"
        assert path.steps[1] == corrected
        assert trace["original_step"] == FIVE_TEXTS[1]

    def test_flag_at_the_last_step_reanswers_from_the_whole_path(self):
        texts = FIVE_TEXTS[:3]
        corrected = "Substitute the right values."
        rp = path_from(texts)
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1),
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=2),
            entry(STAGE_EVALUATOR, "q1", evaluator_yes(corrected), step_index=3),
            debate_entry(debate_agree(), 1, 1, step=3),
            debate_entry(debate_agree(), 2, 1, step=3),
            entry(STAGE_REANSWER, "q1",
                  cot_text([texts[0], texts[1], corrected], "C")),
        ]
        gw = scripted_gateway(entries)
        path, trace = rerail_pass(Q, rp, 1, gw, SETTINGS)
        assert trace["corrected_step"] == 3  # the pass changed the path
        assert path.steps == (texts[0], texts[1], corrected)
        assert path.verified == 2


# Paths and scripts for rerail(), each run to its end under SETTINGS' cap of three passes.


def rerail_clean_scenario():
    rp = path_from(FIVE_TEXTS[:3])
    return rp, [entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=i) for i in range(1, 4)]


def rerail_fixable_scenario():
    fix = "Pick the correct relation."
    return path_from(FIVE_TEXTS[:3]), [
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, "q1", evaluator_yes(fix), step_index=2),
        debate_entry("mumble", 1, 1),  # agent 1 fails open, flagging the pass
        debate_entry("more mumble", 1, 1),
        debate_entry(debate_agree(), 2, 1),
        entry(STAGE_REANSWER, "q1", cot_text([FIVE_TEXTS[0], fix, "Finish from here."], "B")),
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=3),
    ]


def rerail_two_corrections_scenario():
    s1, c2, c3 = FIVE_TEXTS[0], "Pick the correct relation.", "Substitute the right values."
    return path_from(FIVE_TEXTS[:3]), [
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, "q1", evaluator_yes(c2), step_index=2),
        debate_entry(debate_agree(), 1, 1),
        debate_entry(debate_agree(), 2, 1),
        entry(STAGE_REANSWER, "q1", cot_text([s1, c2, FIVE_TEXTS[2]], "B")),
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, "q1", evaluator_yes(c3), step_index=3),
        debate_entry(debate_agree(), 1, 1, step=3),
        debate_entry(debate_agree(), 2, 1, step=3),
        entry(STAGE_REANSWER, "q1", cot_text([s1, c2, c3], "C")),
        entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=3),
    ]


def rerail_never_clean_scenario():
    entries = []
    for iteration in range(1, 4):
        fix = f"Assume model number {iteration + 1}."
        entries += [
            entry(STAGE_EVALUATOR, "q1", evaluator_yes(fix), step_index=1),
            debate_entry(debate_agree(), 1, 1, step=1),
            debate_entry(debate_agree(), 2, 1, step=1),
            entry(STAGE_REANSWER, "q1", cot_text([fix, "Carry it through again."], "A")),
        ]
    return path_from(["Assume the wrong model.", "Carry it through."]), entries


class TestRerail:
    def test_clean_path_certifies_in_one_pass(self):
        rp = path_from(FIVE_TEXTS[:3], answer="A")
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=i) for i in range(1, 4)
        ]
        gw = scripted_gateway(entries)
        path, flags, fields = rerail(Q, rp, gw, SETTINGS)
        assert fields["certified"] is True
        assert fields["iterations_run"] == 1
        assert FLAG_UNCERTIFIED not in flags
        assert path.final_answer == "A"
        assert path.verified == 3

    def test_two_corrections_then_certification(self):
        s1, w2, t3 = "State the given numbers.", "Add when you should multiply.", "Read off the total."
        c2 = "Multiply the given numbers."
        c3 = "Read off the corrected total."
        rp = path_from([s1, w2, t3], answer="A")
        entries = [
            # pass 1: step 2 flagged
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=1),
            entry(STAGE_EVALUATOR, "q1", evaluator_yes(c2), step_index=2),
            debate_entry(debate_agree(), 1, 1),
            debate_entry(debate_agree(), 2, 1),
            entry(STAGE_REANSWER, "q1", cot_text([s1, c2, t3], "B")),
            # pass 2: step 1 auto-passes, step 3 flagged
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=2),
            entry(STAGE_EVALUATOR, "q1", evaluator_yes(c3), step_index=3),
            debate_entry(debate_agree(), 1, 1, step=3),
            debate_entry(debate_agree(), 2, 1, step=3),
            entry(STAGE_REANSWER, "q1", cot_text([s1, c2, c3], "B")),
            # pass 3: only step 3 still needs a look
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=3),
        ]
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            path, _, fields = rerail(Q, rp, gw, SETTINGS)

        assert fields["certified"] is True
        assert fields["iterations_run"] == 3
        assert path.final_answer == "B"
        assert path.verified == 3
        # the pass trace names each rewrite and the step text it replaced
        passes = fields["rerail"]["passes"]
        assert [p["corrected_step"] for p in passes] == [2, 3, None]
        assert [p.get("original_step") for p in passes] == [w2, t3, None]
        assert question_calls(ledger, STAGE_EVALUATOR) == 5
        assert question_calls(ledger, STAGE_DEBATE) == 4
        assert question_calls(ledger, STAGE_REANSWER) == 2
        assert len(fields["rerail"]["passes"]) == 3

    def test_never_clean_path_hits_the_cap_uncertified(self):
        s1, s2 = "Assume the wrong model.", "Carry it through."
        rp = path_from([s1, s2], answer="A")
        entries = []
        for iteration in range(1, 4):
            fix = f"Assume model number {iteration + 1}."
            entries.extend(
                [
                    entry(STAGE_EVALUATOR, "q1", evaluator_yes(fix), step_index=1),
                    debate_entry(debate_agree(), 1, 1, step=1),
                    debate_entry(debate_agree(), 2, 1, step=1),
                    entry(STAGE_REANSWER, "q1", cot_text([fix, "Carry it through again."], "A")),
                ]
            )
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            _, flags, fields = rerail(Q, rp, gw, SETTINGS)

        assert fields["certified"] is False
        assert fields["iterations_run"] == 3
        assert FLAG_UNCERTIFIED in flags
        # each pass rewrote step 1 and recorded what it replaced that time,
        # not the text the path started with
        passes = fields["rerail"]["passes"]
        assert [p["corrected_step"] for p in passes] == [1, 1, 1]
        assert [p["original_step"] for p in passes] == [
            s1, "Assume model number 2.", "Assume model number 3.",
        ]
        assert len(fields["rerail"]["passes"]) == 3
        assert question_calls(ledger, STAGE_EVALUATOR) == 3
        assert question_calls(ledger, STAGE_REANSWER) == 3

    def test_cap_is_configurable(self):
        rp = path_from(["Assume the wrong model."], answer="A")
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_yes("Try another model."), step_index=1),
            debate_entry(debate_agree(), 1, 1, step=1),
            debate_entry(debate_agree(), 2, 1, step=1),
            entry(STAGE_REANSWER, "q1", cot_text(["Try another model."], "A")),
        ]
        gw = scripted_gateway(entries)
        _, _, fields = rerail(Q, rp, gw, make_settings(max_rerail_iterations=1))
        assert fields["certified"] is False
        assert fields["iterations_run"] == 1

    @pytest.mark.parametrize(
        "scenario, passes_run",
        [
            (rerail_clean_scenario, 1),
            (rerail_fixable_scenario, 2),
            (rerail_two_corrections_scenario, 3),
            (rerail_never_clean_scenario, 3),
        ],
        ids=["clean", "fixable", "two-corrections", "never-clean"],
    )
    def test_flags_and_fields_follow_the_passes(self, scenario, passes_run):
        rp, entries = scenario()
        _, flags, fields = rerail(Q, rp, scripted_gateway(entries), SETTINGS)
        passes = fields["rerail"]["passes"]
        assert len(passes) == passes_run
        last_corrected = passes[-1]["corrected_step"] is not None
        pass_flags = {flag for p in passes for flag in p["flags"]}
        assert set(flags) == pass_flags | ({FLAG_UNCERTIFIED} if last_corrected else set())
        assert fields["iterations_run"] == len(passes)
        assert fields["certified"] is not last_corrected

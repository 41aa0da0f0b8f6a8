"""Acceptance gate: one test per shipped criterion.

Every test runs self-contained on the scripted backend except the last,
which exercises a real provider and stays opt-in (RERAIL_LIVE_SMOKE=1).
Names follow test_criterion_<NN>_<slug>; the conftest hook prints a
PASS/FAIL/SKIP line per criterion after the run.
"""

import os
import random
import time

import pytest

from helpers import (
    FIXABLE_EXPECTED_CALLS,
    UNFIXABLE_EXPECTED_CALLS,
    cot_text,
    debate_agree,
    entry,
    evaluator_no,
    evaluator_yes,
    full_text,
    judge_selects,
    mad_answer,
    make_settings,
    mcqa_question,
    numeric_question,
    question_calls,
    rerailer_fixture,
    scripted_gateway,
    stage_calls,
    write_script,
)
from rerail.derailment import RULE_INCONSISTENT, check_consistency
from rerail.harness import (
    cell_for,
    confusion_matrix,
    cost_report,
    load_outcomes,
    make_gateway,
    outcome_row,
    replay,
    report_to_bytes,
    run,
    run_mad_baseline,
    run_sc_baseline,
)
from rerail.rerailer import FLAG_UNCERTIFIED, evaluate_step, rerail, rerail_pass
from rerail.types import (
    STAGE_COT,
    STAGE_DEBATE,
    STAGE_EVALUATOR,
    STAGE_JUDGE,
    STAGE_MAD,
    STAGE_REANSWER,
    ReasoningPath,
)


# --- criterion 1 -----------------------------------------------------------
# Independent transcription of the six-item reference procedure for option
# consistency, kept deliberately line-by-line rather than reusing any
# package helper.

def reference_clean(text):
    kept = []
    for ch in text.upper():
        if "A" <= ch <= "Z" or "0" <= ch <= "9" or ch == " ":
            kept.append(ch)
    return "".join(kept)


def reference_check(options):
    valid_options = {"A", "B", "C", "D", "E", "F"}                    # (1)
    if all(len(option) > 30 for option in options):                   # (2)
        return True
    cleaned = [reference_clean(option) for option in options]         # (3)
    if (                                                              # (4)
        all(cleaned)
        and len({c[0] for c in cleaned}) == 1
        and cleaned[0][0] in valid_options
        and all(len(c) < 40 for c in cleaned)
    ):
        return True
    if len(set(cleaned)) == 1:                                        # (5)
        return True
    return False                                                      # (6)


MIXED_POOL = [
    "A",
    "B.",
    "c)",
    "F",
    "G",
    "42",
    "B is correct",
    "the answer is definitely option b of the four listed",
    "a very long free-text answer that keeps going past thirty characters",
    "?!",
    "  ",
    "A" * 39,
    "A" * 45,
    "9.81 m/s^2",
    "b",
]


def test_criterion_01_consistency_oracle_equivalence():
    triples = [(a, b, c) for a in "ABCDEF" for b in "ABCDEF" for c in "ABCDEF"]
    rng = random.Random(108)
    for _ in range(50):
        triples.append(tuple(rng.choices(MIXED_POOL, k=3)))
    assert len(triples) == 216 + 50

    started = time.perf_counter()
    for triple in triples:
        rule = check_consistency(list(triple))
        assert (rule != RULE_INCONSISTENT) == reference_check(triple), triple
    assert time.perf_counter() - started < 1.0


# --- criterion 2 -----------------------------------------------------------

def test_criterion_02_routing_and_budget_conservation(tmp_path):
    questions, entries = rerailer_fixture(10, 15, 5)
    settings = make_settings()

    started = time.perf_counter()
    report = run(questions, settings, "rerailer", tmp_path / "run", scripted_gateway(entries))
    elapsed = time.perf_counter() - started

    counts = report["counts"]
    assert counts["consistent"] + counts["derailed"] == 30
    assert (counts["consistent"], counts["derailed"], counts["failed"]) == (10, 20, 0)

    # per-pass budget: evaluator calls = index of the first flagged step
    # (or all unverified steps when none fires), debate within
    # [n_agents, n_agents * n_rounds], reanswer at most one per pass
    outcomes = {o["question_id"]: o for o in load_outcomes(tmp_path / "run" / "outcomes.jsonl")}
    for qid, outcome in sorted(outcomes.items()):
        calls = stage_calls(outcome["usage"])
        number = int(qid[1:])
        if number <= 10:
            assert calls == {"cot": 3}  # zero judge and zero rerailer stages
            continue
        expected = FIXABLE_EXPECTED_CALLS if number <= 25 else UNFIXABLE_EXPECTED_CALLS
        assert calls == expected, qid
        num_steps = 3 if number <= 25 else 2
        cap = settings.max_rerail_iterations
        assert calls["cot"] == settings.n_samples
        assert calls["judge"] == 1
        assert calls["evaluator"] <= cap * num_steps
        assert settings.n_debate_agents <= calls["debate"] <= cap * (
            settings.n_debate_agents * settings.n_debate_rounds
        )
        assert calls["reanswer"] <= cap

    assert elapsed < 5.0


# --- criterion 3 -----------------------------------------------------------

def test_criterion_03_masking_soundness():
    texts = [f"SENTINEL{i:03d} marker body {i:03d}" for i in range(1, 101)]
    rp = ReasoningPath(steps=tuple(texts), final_answer="A")
    question = mcqa_question()
    settings = make_settings()

    rng = random.Random(21)
    indices = sorted({1, 100, *rng.sample(range(2, 100), 10)})
    for index in indices:
        gw = scripted_gateway(
            [entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=index)],
        )
        result = evaluate_step(question, rp, index, gw, settings)
        assert result.hallucination is False
        ((_, prompt),) = gw.for_stage(STAGE_EVALUATOR)
        rendered = full_text(prompt)
        for position, text in enumerate(texts, 1):
            if position <= index:
                assert text in rendered, (index, position)
            else:
                assert text not in rendered, (index, position)


# --- criterion 4 -----------------------------------------------------------

def test_criterion_04_algorithm_one_fidelity():
    texts = [f"Premise {i} of the derivation holds." for i in range(1, 6)]
    question = mcqa_question()
    settings = make_settings()
    correction = "The premise restated without the slip."

    for k in (1, 3, 5):
        rp = ReasoningPath(steps=tuple(texts), final_answer="A")
        entries = [
            entry(STAGE_EVALUATOR, "q1", evaluator_no(), step_index=i)
            for i in range(1, k)
        ]
        entries.append(entry(STAGE_EVALUATOR, "q1", evaluator_yes(correction), step_index=k))
        entries.append(entry(STAGE_DEBATE, "q1", debate_agree(), agent_id=1, round_no=1))
        entries.append(entry(STAGE_DEBATE, "q1", debate_agree(), agent_id=2, round_no=1))
        reanswer_steps = texts[:k - 1] + [correction] + [
            f"Recomputed step {j}." for j in range(k + 1, 6)
        ]
        entries.append(entry(STAGE_REANSWER, "q1", cot_text(reanswer_steps, "B")))

        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            path, trace = rerail_pass(question, rp, 1, gw, settings)

        assert trace["corrected_step"] == k  # the pass changed the path
        assert question_calls(ledger, STAGE_EVALUATOR) == k  # early return
        assert question_calls(ledger, STAGE_DEBATE) == 2
        assert question_calls(ledger, STAGE_REANSWER) == 1
        # step k is replaced and left for the next pass to check; the
        # steps before it are verified
        assert path.steps[k - 1] == correction
        assert path.verified == k - 1
        assert trace["original_step"] == texts[k - 1]


# --- criterion 5 -----------------------------------------------------------

def two_correction_entries(qid="q1"):
    s1 = "Set up the governing relation."
    c2 = "Apply the relation with the right operands."
    c3 = "Carry the corrected value through."
    return [
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, qid, evaluator_yes(c2), step_index=2),
        entry(STAGE_DEBATE, qid, debate_agree(), agent_id=1, round_no=1),
        entry(STAGE_DEBATE, qid, debate_agree(), agent_id=2, round_no=1),
        entry(STAGE_REANSWER, qid, cot_text([s1, c2, "Read off the value."], "C")),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, qid, evaluator_yes(c3), step_index=3),
        entry(STAGE_DEBATE, qid, debate_agree(), agent_id=1, round_no=1),
        entry(STAGE_DEBATE, qid, debate_agree(), agent_id=2, round_no=1),
        entry(STAGE_REANSWER, qid, cot_text([s1, c2, c3], "B")),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=3),
    ]


def test_criterion_05_multi_pass_rerailment():
    question = mcqa_question()
    settings = make_settings()
    rp = ReasoningPath(
        steps=(
            "Set up the governing relation.",
            "Apply the relation with the wrong operands.",
            "Read off the value.",
        ),
        final_answer="A",
    )

    path, _, fields = rerail(question, rp, scripted_gateway(two_correction_entries()), settings)
    assert fields["certified"] is True
    assert fields["iterations_run"] == 3
    # pass 2 rewrote the path last; pass 3 found nothing to fix
    assert [p["corrected_step"] for p in fields["rerail"]["passes"]] == [2, 3, None]
    assert path.final_answer == "B"
    assert path.verified == 3

    never_clean = []
    fixes = [f"Attempted repair number {i}." for i in (1, 2, 3)]
    for fix in fixes:
        never_clean.append(entry(STAGE_EVALUATOR, "q1", evaluator_yes(fix), step_index=1))
        never_clean.append(entry(STAGE_DEBATE, "q1", debate_agree(), agent_id=1, round_no=1))
        never_clean.append(entry(STAGE_DEBATE, "q1", debate_agree(), agent_id=2, round_no=1))
        never_clean.append(
            entry(STAGE_REANSWER, "q1", cot_text([fix, "Conclude as before."], "A"))
        )
    stuck = ReasoningPath(
        steps=("Assume a relation that does not apply.", "Conclude as before."),
        final_answer="A",
    )
    path, flags, fields = rerail(question, stuck, scripted_gateway(never_clean), settings)
    assert fields["certified"] is False
    assert fields["iterations_run"] == settings.max_rerail_iterations == 3
    assert FLAG_UNCERTIFIED in flags
    # the last pass rewrote the path too, leaving its fix unchecked
    assert [p["corrected_step"] for p in fields["rerail"]["passes"]] == [1, 1, 1]
    assert path.verified == 0


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_end_to_end_correction_reproduction(tmp_path):
    # a counting slip: subtracting 46 from 10^28 leaves 26 nines then 54,
    # not a 1 followed by 27 nines
    truth = "9" * 26 + "54"
    wrong = "1" + "9" * 27
    question = numeric_question(
        qid="g1",
        gt=truth,
        text="A counter shows 10^28 and is decreased by 46. What does it read?",
    )
    steps = [
        "Write the starting value as a one followed by twenty-eight zeros.",
        "Subtracting forty-six borrows through every trailing zero.",
        "The digits of the result are a 1 followed by 27 nines.",
    ]
    correction = "The digits of the result are 26 nines, then a five, then a four."
    entries = [
        entry(STAGE_COT, "g1", cot_text(steps, wrong)),
        entry(STAGE_COT, "g1", cot_text([steps[0], "Miscount the borrow chain."], "9" * 28)),
        entry(STAGE_COT, "g1", cot_text(steps, wrong)),
        entry(STAGE_JUDGE, "g1", judge_selects(1)),
        entry(STAGE_EVALUATOR, "g1", evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, "g1", evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, "g1", evaluator_yes(correction), step_index=3),
        entry(STAGE_DEBATE, "g1", debate_agree(), agent_id=1, round_no=1),
        entry(STAGE_DEBATE, "g1", debate_agree(), agent_id=2, round_no=1),
        entry(STAGE_REANSWER, "g1", cot_text(steps[:2] + [correction], truth)),
        entry(STAGE_EVALUATOR, "g1", evaluator_no(), step_index=3),
    ]

    report = run([question], make_settings(), "rerailer", tmp_path / "fig", scripted_gateway(entries))
    (outcome,) = load_outcomes(tmp_path / "fig" / "outcomes.jsonl")

    assert outcome["routing"] == "derailed"
    assert outcome["baseline_answer"] == wrong
    assert outcome["final_answer"] == truth
    assert outcome["final_answer"] != outcome["baseline_answer"]
    assert outcome["correct_baseline"] is False
    assert outcome["correct_final"] is True
    assert outcome["cell"] == "TN"
    assert report["confusion_matrix"]["overall"]["TN"] == 1


# --- criterion 7 -----------------------------------------------------------

def reference_cell(baseline_correct, final_correct):
    # both correct -> TP; baseline wrong but repaired -> TN;
    # both wrong -> FN; baseline correct but broken by the pipeline -> FP
    if baseline_correct and final_correct:
        return "TP"
    if not baseline_correct and final_correct:
        return "TN"
    if not baseline_correct and not final_correct:
        return "FN"
    return "FP"


def test_criterion_07_confusion_matrix_semantics():
    for pair in [(True, True), (False, True), (False, False), (True, False)]:
        assert cell_for(*pair) == reference_cell(*pair)

    rng = random.Random(4)
    categories = ["Math", "CommonsenseReasoning", "AdvancedMathScience"]
    rows, expected = [], {"TP": 0, "TN": 0, "FN": 0, "FP": 0}
    for i in range(40):
        baseline, final = rng.choice([True, False]), rng.choice([True, False])
        expected[reference_cell(baseline, final)] += 1
        rows.append(
            outcome_row(
                f"d{i:02d}",
                rng.choice(categories),
                routing="derailed",
                correct_baseline=baseline,
                correct_final=final,
                cell=cell_for(baseline, final),
            )
        )
    for i in range(10):
        rows.append(
            outcome_row(
                f"c{i:02d}",
                rng.choice(categories),
                routing="consistent",
                correct_baseline=True,
                correct_final=True,
            )
        )
    rows.append(outcome_row("f1", "Math", error="boom"))

    matrix = confusion_matrix(rows)
    assert matrix["overall"] == expected
    assert sum(matrix["overall"].values()) == 40  # exactly the derailed count
    for cell in expected:
        assert sum(cells[cell] for cells in matrix["by_category"].values()) == expected[cell]


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_cost_projection_arithmetic():
    # $14.37 of prompt tokens plus $20.00 of completion tokens measured
    # over 100 questions must project to $343.7 per 1000
    usage = {
        "billed_prompt_tokens": 1_437_000,
        "billed_completion_tokens": 1_000_000,
        "wall_time_s": 90_000.0,
    }
    prices = {"m": {"prompt_per_1k": 0.01, "completion_per_1k": 0.02}}
    report = cost_report(usage, prices, "m", 100)
    assert report["cost_usd"] == pytest.approx(34.37)
    assert report["cost_per_1000_usd"] == 343.7
    assert report["hours_per_1000"] == 250.0


# --- criterion 9 -----------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    questions, entries = rerailer_fixture(10, 15, 5)
    settings = make_settings()

    run(questions, settings, "rerailer", tmp_path / "a", scripted_gateway(entries))
    run(questions, settings, "rerailer", tmp_path / "b", scripted_gateway(entries))
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()

    # replaying the persisted trace reproduces the report bit for bit
    assert report_to_bytes(replay(tmp_path / "a")) == first

    # resuming over the same directory consumes nothing and changes nothing
    idle = scripted_gateway([])
    run(questions, settings, "rerailer", tmp_path / "a", idle)
    assert idle.records == []
    assert (tmp_path / "a" / "report.json").read_bytes() == first


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_baseline_budgets():
    settings = make_settings()

    sc_entries = [
        entry(STAGE_COT, "q1", cot_text(["Sample a route."], "B")) for _ in range(40)
    ]
    gw = scripted_gateway(sc_entries)
    with gw.recording("q1") as ledger:
        run_sc_baseline(mcqa_question(), gw, settings)
    assert question_calls(ledger, STAGE_COT) == 40

    agree = scripted_gateway(
        [
            entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=1, round_no=1),
            entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=2, round_no=1),
        ]
    )
    with agree.recording("q1") as agree_ledger:
        run_mad_baseline(mcqa_question(), agree, settings)
    assert question_calls(agree_ledger, STAGE_MAD) == 2

    disagree_entries = []
    for round_no in (1, 2, 3):
        disagree_entries.append(entry(STAGE_MAD, "q1", mad_answer("A"), agent_id=1, round_no=round_no))
        disagree_entries.append(entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=2, round_no=round_no))
    disagree = scripted_gateway(disagree_entries)
    with disagree.recording("q1") as disagree_ledger:
        run_mad_baseline(mcqa_question(), disagree, settings)
    assert question_calls(disagree_ledger, STAGE_MAD) <= 6
    assert question_calls(disagree_ledger, STAGE_MAD) == 6


# --- criterion 11 ----------------------------------------------------------

LIVE_SMOKE = os.environ.get("RERAIL_LIVE_SMOKE") == "1"


@pytest.mark.skipif(
    not LIVE_SMOKE,
    reason="manual live smoke test; set RERAIL_LIVE_SMOKE=1 (and RERAIL_API_KEY) to run",
)
def test_criterion_11_live_smoke(tmp_path):
    from rerail.types import Category, Option, Question, QuestionKind

    questions = []
    for i in range(20):
        left, right = 2 + i, 3 + (i % 5)
        total = left + right
        offsets = [0, 1, 2, -1]
        questions.append(
            Question(
                id=f"live{i:02d}",
                kind=QuestionKind.MCQA,
                category=Category.MATH,
                subject="arithmetic",
                text=f"What is {left} + {right}?",
                options=tuple(
                    Option(label=label, text=str(total + offset))
                    for label, offset in zip("ABCD", offsets)
                ),
                ground_truth="A",
            )
        )
    settings = make_settings(
        model_id=os.environ.get("RERAIL_SMOKE_MODEL", "gpt-4"),
        parallelism=2,
    )
    gateway = make_gateway(settings, "live", out_dir=tmp_path)
    report = run(questions, settings, "rerailer", tmp_path, gateway)
    assert (tmp_path / "report.json").exists()
    assert report["counts"]["failed"] == 0

"""Mode runners, grading, report assembly, artifact persistence, and replay."""

import csv
import errno
import gc
import json
import threading
import types

import pytest

from helpers import (
    CONSISTENT_EXPECTED_CALLS,
    FIXABLE_EXPECTED_CALLS,
    UNFIXABLE_EXPECTED_CALLS,
    RecordingBackend,
    consistent_script,
    cot_text,
    entry,
    fixable_script,
    ledger_totals,
    mad_answer,
    mad_reask_script,
    make_settings,
    mcqa_question,
    question_calls,
    rerailer_fixture,
    sc_regen_script,
    scripted_gateway,
    stage_calls,
    unfixable_script,
    usage_row,
    write_script,
)
from rerail import harness
from rerail.config import question_seed
from rerail.gateway import Gateway, ProviderError, ScriptedBackend, UsageLedger
from rerail.grading import grade_safe
from rerail.harness import (
    CELL_FN,
    CELL_FP,
    CELL_TN,
    CELL_TP,
    CSV_TABLES,
    FLAG_COT_UNPARSEABLE,
    FLAG_MAD_FAIL_OPEN,
    FLAG_MAD_TIE,
    FLAG_SC_TIE,
    IncompleteTrace,
    _extract_answer,
    build_report,
    cell_for,
    confusion_matrix,
    cost_report,
    grade_outcome,
    load_outcomes,
    make_gateway,
    outcome_row,
    replay,
    report_to_bytes,
    run,
    run_cot,
    run_mad_baseline,
    run_question,
    run_sc_baseline,
    usage_totals,
    write_report,
)
from rerail.types import STAGE_COT, STAGE_MAD


class TestExtractAnswer:
    def test_structured_generation(self):
        assert _extract_answer(cot_text(["Reason."], "42")) == "42"

    def test_bare_answer_line_without_steps(self):
        assert _extract_answer("Thinking out loud...\nAnswer: C") == "C"

    def test_no_answer_at_all(self):
        assert _extract_answer("I cannot decide.") is None


class TestRunCot:
    def test_single_deterministic_call(self):
        backend = RecordingBackend(
            ScriptedBackend([entry(STAGE_COT, "q1", cot_text(["Consider."], "B"))])
        )
        gw = Gateway(backend)
        result = run_cot(mcqa_question(), gw, make_settings())
        assert result.baseline_raw == "B"
        assert result.final_raw == "B"
        assert result.routing is None
        assert len(backend.calls) == 1
        params, _ = backend.calls[0]
        assert params.temperature == 0.0
        assert params.seed == question_seed(0, "q1")

    def test_unparseable_output_is_flagged(self):
        gw = scripted_gateway([entry(STAGE_COT, "q1", "word salad")])
        result = run_cot(mcqa_question(), gw, make_settings())
        assert result.final_raw is None
        assert FLAG_COT_UNPARSEABLE in result.flags


def sc_entry(answer, qid="q1"):
    return entry(STAGE_COT, qid, cot_text(["Sample a route."], answer))


class TestRunScBaseline:
    def test_majority_vote_over_the_full_budget(self):
        entries = [sc_entry("A") for _ in range(21)] + [sc_entry("B") for _ in range(19)]
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            result = run_sc_baseline(mcqa_question(), gw, make_settings())
        assert result.final_raw == "A"
        assert result.flags == ()
        assert question_calls(ledger, STAGE_COT) == 40

    def test_tie_takes_the_first_reached_answer_and_flags(self):
        entries = [sc_entry("A") for _ in range(20)] + [sc_entry("B") for _ in range(20)]
        gw = scripted_gateway(entries)
        result = run_sc_baseline(mcqa_question(), gw, make_settings())
        assert result.final_raw == "A"
        assert FLAG_SC_TIE in result.flags

    def test_budget_is_configurable(self):
        gw = scripted_gateway([sc_entry("B") for _ in range(5)])
        with gw.recording("q1") as ledger:
            result = run_sc_baseline(mcqa_question(), gw, make_settings(sc_budget=5))
        assert result.final_raw == "B"
        assert question_calls(ledger, STAGE_COT) == 5

    def test_votes_are_pooled_by_normalized_answer(self):
        entries = [sc_entry("b) choice B"), sc_entry("B."), sc_entry("A")]
        gw = scripted_gateway(entries)
        result = run_sc_baseline(mcqa_question(), gw, make_settings(sc_budget=3))
        assert result.final_raw == "b) choice B"  # first raw of the winning bucket


def mad_entry(answer, agent, round_no, qid="q1"):
    return entry(STAGE_MAD, qid, mad_answer(answer), agent_id=agent, round_no=round_no)


class TestRunMadBaseline:
    def test_immediate_agreement_costs_two_calls(self):
        gw = scripted_gateway([mad_entry("B", 1, 1), mad_entry("B", 2, 1)])
        with gw.recording("q1") as ledger:
            result = run_mad_baseline(mcqa_question(), gw, make_settings())
        assert result.final_raw == "B"
        assert result.flags == ()
        assert question_calls(ledger, STAGE_MAD) == 2
        assert result.trace["rounds_run"] == 1

    def test_convergence_in_round_two_costs_four_calls(self):
        gw = scripted_gateway(
            [
                mad_entry("A", 1, 1),
                mad_entry("B", 2, 1),
                mad_entry("B", 1, 2),
                mad_entry("B", 2, 2),
            ],
        )
        with gw.recording("q1") as ledger:
            result = run_mad_baseline(mcqa_question(), gw, make_settings())
        assert result.final_raw == "B"
        assert question_calls(ledger, STAGE_MAD) == 4
        round_two = [p for c, p in gw.for_stage(STAGE_MAD) if c.round == 2]
        assert "Agent 1 answered: A" in round_two[0].user
        assert "Agent 2 answered: B" in round_two[0].user

    def test_standing_disagreement_runs_all_rounds_and_ties_to_agent_one(self):
        entries = []
        for round_no in (1, 2, 3):
            entries.append(mad_entry("A", 1, round_no))
            entries.append(mad_entry("B", 2, round_no))
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            result = run_mad_baseline(mcqa_question(), gw, make_settings())
        assert question_calls(ledger, STAGE_MAD) == 6
        assert result.final_raw == "A"
        assert FLAG_MAD_TIE in result.flags
        assert result.trace["rounds_run"] == 3

    def test_tie_among_five_agents_keeps_a_leading_answer(self):
        answers = ["A", "B", "B", "C", "C"]
        entries = [
            mad_entry(answer, agent, round_no)
            for round_no in (1, 2, 3)
            for agent, answer in enumerate(answers, start=1)
        ]
        gw = scripted_gateway(entries)
        with gw.recording("q1") as ledger:
            result = run_mad_baseline(mcqa_question(), gw, make_settings(mad_agents=5))
        assert result.final_raw == "B"  # agent 1's "A" has a single vote
        assert FLAG_MAD_TIE in result.flags
        assert question_calls(ledger, STAGE_MAD) == 15

    def test_unparseable_agent_keeps_its_prior_answer(self):
        gw = scripted_gateway(
            [
                entry(STAGE_MAD, "q1", "static noise", agent_id=1, round_no=1),
                entry(STAGE_MAD, "q1", "still noise", agent_id=1, round_no=1),
                mad_entry("B", 2, 1),
                mad_entry("B", 1, 2),
                mad_entry("B", 2, 2),
            ]
        )
        with gw.recording("q1") as ledger:
            result = run_mad_baseline(mcqa_question(), gw, make_settings())
        assert result.final_raw == "B"
        assert FLAG_MAD_FAIL_OPEN in result.flags
        assert question_calls(ledger, STAGE_MAD) == 5


class TestGrading:
    def test_cell_truth_table(self):
        assert cell_for(True, True) == CELL_TP
        assert cell_for(False, True) == CELL_TN
        assert cell_for(False, False) == CELL_FN
        assert cell_for(True, False) == CELL_FP

    def test_cells_are_assigned_only_on_the_derailed_route(self):
        from rerail.harness import ModeResult

        q = mcqa_question()
        derailed = grade_outcome(
            q, ModeResult("A", "B", "derailed", (), {}), make_settings()
        )
        assert derailed["cell"] == CELL_TN
        assert derailed["correct_baseline"] is False
        assert derailed["correct_final"] is True

        consistent = grade_outcome(
            q, ModeResult("B", "B", "consistent", (), {}), make_settings()
        )
        assert consistent["cell"] is None

        baseline = grade_outcome(q, ModeResult("B", "B", None, (), {}), make_settings())
        assert baseline["cell"] is None

    def test_grading_flags_surface_in_the_outcome(self):
        from rerail.harness import ModeResult

        outcome = grade_outcome(
            mcqa_question(), ModeResult(None, "zebra", "derailed", ("custom",), {}),
            make_settings(),
        )
        assert "answer-missing" in outcome["flags"]
        assert "answer-unnormalizable" in outcome["flags"]
        assert "custom" in outcome["flags"]
        assert outcome["cell"] == CELL_FN  # fail-closed on both sides

    @pytest.mark.parametrize(
        "mode,script,graded",
        [
            ("cot", lambda qid: [entry(STAGE_COT, qid, cot_text(["Think."], "B"))], 1),
            ("sc", sc_regen_script, 1),
            ("mad", mad_reask_script, 1),
            ("rerailer", consistent_script, 1),
            ("rerailer", fixable_script, 2),  # derailed from A to B
            ("rerailer", unfixable_script, 1),  # derailed, still A
        ],
    )
    def test_an_answer_is_graded_once_when_baseline_and_final_agree(self, tmp_path, monkeypatch, mode, script, graded):
        calls = []

        def counted(*args):
            calls.append(args)
            return grade_safe(*args)

        monkeypatch.setattr(harness, "grade_safe", counted)
        questions = [mcqa_question(qid=f"q{i}") for i in range(3)]
        gw = scripted_gateway([e for q in questions for e in script(q.id)])
        report = run(questions, make_settings(sc_budget=5), mode, tmp_path, gw)
        assert report["counts"]["failed"] == 0
        assert len(calls) == graded * len(questions)


def outcome(qid, cat="Math", routing=None, cell=None, correct_final=None,
            correct_baseline=None, error=None, usage=None, flags=None):
    return outcome_row(
        qid,
        cat,
        routing=routing,
        correct_baseline=correct_baseline,
        correct_final=correct_final,
        cell=cell,
        error=error,
        usage=usage or {},
        flags=flags or [],
    )


class TestConfusionMatrix:
    def test_counts_by_cell_and_category(self):
        rows = [
            outcome("q1", routing="derailed", cell=CELL_TN),
            outcome("q2", routing="derailed", cell=CELL_TN, cat="CommonsenseReasoning"),
            outcome("q3", routing="derailed", cell=CELL_FP),
            outcome("q4", routing="consistent"),
            outcome("q5"),
        ]
        matrix = confusion_matrix(rows)
        assert matrix["overall"] == {"TP": 0, "TN": 2, "FN": 0, "FP": 1}
        assert matrix["by_category"]["Math"] == {"TP": 0, "TN": 1, "FN": 0, "FP": 1}
        assert sum(matrix["overall"].values()) == sum(
            1 for r in rows if r["routing"] == "derailed"
        )


class TestUsageTotals:
    def block(self, live, prompt, completion, wall):
        return usage_row(
            live_calls=live,
            prompt_tokens=prompt,
            completion_tokens=completion,
            billed_prompt_tokens=prompt,
            billed_completion_tokens=completion,
            wall_time_s=wall,
        )

    def test_merges_stages_across_outcomes(self):
        rows = [
            outcome("q1", usage={"cot": self.block(3, 300, 150, 1.5)}),
            outcome("q2", usage={"cot": self.block(1, 100, 50, 0.5),
                                 "judge": self.block(1, 80, 20, 0.2)}),
        ]
        totals = usage_totals(rows)
        assert totals["live_calls"] == 5
        assert totals["prompt_tokens"] == 480
        assert totals["wall_time_s"] == pytest.approx(2.2)
        assert totals["by_stage"]["cot"]["live_calls"] == 4
        assert totals["by_stage"]["judge"]["completion_tokens"] == 20


PRICES = {"gpt-4": {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}}


class TestCostReport:
    def usage(self, prompt, completion, wall=3600.0):
        return {
            "billed_prompt_tokens": prompt,
            "billed_completion_tokens": completion,
            "wall_time_s": wall,
        }

    def test_token_pricing(self):
        # 1M prompt tokens at $30/M plus 0.5M completion tokens at $60/M
        report = cost_report(self.usage(1_000_000, 500_000), PRICES, "gpt-4", 100)
        assert report["cost_usd"] == pytest.approx(60.0)
        assert report["cost_per_1000_usd"] == 600.0
        assert report["hours_per_1000"] == 10.0

    def test_zero_usage_costs_nothing(self):
        report = cost_report(self.usage(0, 0, wall=0.0), PRICES, "gpt-4", 10)
        assert report["cost_usd"] == 0.0
        assert report["cost_per_1000_usd"] == 0.0

    def test_projection_rounds_to_one_decimal(self):
        # $12.344 over 200 questions -> $61.72 per 1000 -> 61.7
        usage = self.usage(411_466, 0, wall=0.0)
        report = cost_report(usage, {"m": {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}}, "m", 200)
        assert report["cost_per_1000_usd"] == 61.7


class TestBuildReport:
    def snapshot(self, **extra):
        snap = make_settings().to_json()
        snap["mode"] = "rerailer"
        snap.update(extra)
        return snap

    def rows(self):
        return [
            outcome("q1", routing="consistent", correct_final=True, correct_baseline=True),
            outcome("q2", routing="derailed", cell=CELL_TN, correct_final=True,
                    correct_baseline=False),
            outcome("q3", routing="derailed", cell=CELL_FN, correct_final=False,
                    correct_baseline=False),
            outcome("q4", error="ProviderError: boom"),
        ]

    def test_counts_and_accuracy(self):
        report = build_report(self.rows(), self.snapshot())
        assert report["counts"] == {"total": 4, "failed": 1, "consistent": 1, "derailed": 2}
        overall = report["accuracy"]["overall"]
        assert (overall["correct"], overall["total"]) == (2, 3)
        split = report["accuracy"]["split"]
        assert split["derailed_route"]["total"] == 2
        assert split["derailed_before_repair"]["correct"] == 0
        assert report["confusion_matrix"]["overall"]["TN"] == 1

    def test_cost_absent_without_a_price_entry(self):
        report = build_report(self.rows(), self.snapshot(model_id="unpriced"))
        assert report["cost"] is None

    def test_baseline_modes_skip_pipeline_sections(self):
        rows = [outcome("q1", correct_final=True)]
        report = build_report(rows, self.snapshot(mode="cot"))
        assert report["confusion_matrix"] is None
        assert report["counts"]["consistent"] is None

    def test_report_is_a_pure_function_of_its_inputs(self):
        a = report_to_bytes(build_report(self.rows(), self.snapshot()))
        b = report_to_bytes(build_report(list(reversed(self.rows())), self.snapshot()))
        assert a == b  # outcome order cannot matter


class TestWriteReport:
    def test_a_table_write_that_fails_part_way_leaves_the_old_table_whole(self, tmp_path, monkeypatch):
        snapshot = dict(make_settings().to_json(), mode="rerailer")
        rows = TestBuildReport().rows()
        write_report(tmp_path, build_report(rows, snapshot))
        before = {name: (tmp_path / name).read_bytes() for name in CSV_TABLES}
        real_writer = csv.writer

        class FailsAfterOneRow:  # as a full disk would, mid-table
            def __init__(self, handle):
                self.writer, self.rows = real_writer(handle), 0

            def writerow(self, row):
                if self.rows == 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.rows += 1
                self.writer.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsAfterOneRow)
        with pytest.raises(OSError):
            write_report(tmp_path, build_report(rows[:1], snapshot))
        assert {name: (tmp_path / name).read_bytes() for name in CSV_TABLES} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*CSV_TABLES, harness.REPORT_FILE])


def reachable(root):
    """Every object the root refers to, directly or through others; classes,
    modules and functions are not followed, since they lead everywhere."""
    seen, stack = {id(root)}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)
                yield ref


class TestRun:
    def run_fixture(self, tmp_path, subdir="run", parallelism=1):
        questions, entries = rerailer_fixture(4, 4, 2)
        gw = scripted_gateway(entries)
        settings = make_settings(parallelism=parallelism)
        out_dir = tmp_path / subdir
        report = run(questions, settings, "rerailer", out_dir, gw)
        return questions, report, out_dir, gw

    def test_artifacts_and_counts(self, tmp_path):
        questions, report, out_dir, gw = self.run_fixture(tmp_path)
        for name in ("outcomes.jsonl", "report.json", "resolved_config.json",
                     "accuracy_by_category.csv", "confusion_matrix.csv", "cost.csv"):
            assert (out_dir / name).exists()
        assert not (out_dir / "trace").exists()
        with open(out_dir / "traces.jsonl", encoding="utf-8") as handle:
            traced = [json.loads(line)["question_id"] for line in handle]
        assert traced == [q.id for q in questions]

        assert report["counts"] == {"total": 10, "failed": 0, "consistent": 4, "derailed": 6}
        assert report["confusion_matrix"]["overall"] == {"TP": 0, "TN": 4, "FN": 2, "FP": 0}
        overall = report["accuracy"]["overall"]
        assert (overall["correct"], overall["total"]) == (8, 10)

    def test_per_question_call_budgets(self, tmp_path):
        _, _, out_dir, _ = self.run_fixture(tmp_path)
        outcomes = {o["question_id"]: o for o in load_outcomes(out_dir / "outcomes.jsonl")}
        assert stage_calls(outcomes["q01"]["usage"]) == CONSISTENT_EXPECTED_CALLS
        assert stage_calls(outcomes["q05"]["usage"]) == FIXABLE_EXPECTED_CALLS
        assert stage_calls(outcomes["q09"]["usage"]) == UNFIXABLE_EXPECTED_CALLS

    def test_rerun_over_the_same_directory_makes_no_calls(self, tmp_path):
        questions, _, out_dir, _ = self.run_fixture(tmp_path)
        first_bytes = (out_dir / "report.json").read_bytes()

        empty_backend = ScriptedBackend([])
        report = run(questions, make_settings(), "rerailer", out_dir, Gateway(empty_backend))
        assert (out_dir / "report.json").read_bytes() == first_bytes
        assert report["counts"]["total"] == 10

    def test_two_fresh_runs_are_byte_identical(self, tmp_path):
        _, _, dir_a, _ = self.run_fixture(tmp_path, subdir="a")
        _, _, dir_b, _ = self.run_fixture(tmp_path, subdir="b")
        assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()

    def test_parallel_run_matches_serial_results(self, tmp_path):
        _, _, serial_dir, _ = self.run_fixture(tmp_path, subdir="serial")
        _, _, parallel_dir, _ = self.run_fixture(tmp_path, subdir="parallel", parallelism=4)
        serial = json.loads((serial_dir / "report.json").read_text())
        parallel = json.loads((parallel_dir / "report.json").read_text())
        # the config snapshot records the differing parallelism; everything
        # derived from execution must match exactly
        for key in ("accuracy", "confusion_matrix", "counts", "usage", "cost"):
            assert serial[key] == parallel[key]

    def test_cot_mode_makes_one_call_per_question(self, tmp_path):
        questions = [mcqa_question(qid=f"q{i}") for i in range(1, 4)]
        entries = [entry(STAGE_COT, q.id, cot_text(["Think."], "B")) for q in questions]
        gw = scripted_gateway(entries)
        report = run(questions, make_settings(), "cot", tmp_path / "cot", gw)
        assert len(gw.records) == 3
        assert report["usage"]["live_calls"] == 3
        assert report["accuracy"]["overall"]["correct"] == 3
        assert report["confusion_matrix"] is None

    def test_a_run_leaves_no_usage_in_the_gateway(self, tmp_path):
        questions = [mcqa_question(qid=f"q{i:02d}") for i in range(50)]
        gw = scripted_gateway([e for q in questions for e in consistent_script(q.id)])
        report = run(questions, make_settings(parallelism=2), "rerailer", tmp_path / "r", gw)
        assert report["usage"]["live_calls"] == 50 * sum(CONSISTENT_EXPECTED_CALLS.values())
        # Each question's usage is in its outcome; the gateway keeps none.
        assert not any(isinstance(obj, UsageLedger) for obj in reachable(gw))

    def test_failing_question_is_recorded_not_fatal(self, tmp_path):
        questions = [mcqa_question(qid="q1"), mcqa_question(qid="q2")]
        gw = scripted_gateway(consistent_script("q1"))
        report = run(questions, make_settings(), "rerailer", tmp_path / "r", gw)
        assert report["counts"] == {"total": 2, "failed": 1, "consistent": 1, "derailed": 0}
        outcomes = {o["question_id"]: o for o in load_outcomes(tmp_path / "r" / "outcomes.jsonl")}
        assert outcomes["q2"]["error"] is not None
        assert "ScriptExhausted" in outcomes["q2"]["error"]
        assert outcomes["q2"]["flags"] == ["question-failed"]
        assert report["accuracy"]["overall"]["total"] == 1

    def test_failed_question_reruns_on_resume(self, tmp_path):
        questions = [mcqa_question(qid="ok"), mcqa_question(qid="flaky")]
        out_dir = tmp_path / "r"
        first = run(questions, make_settings(), "rerailer", out_dir, scripted_gateway(consistent_script("ok")))
        assert first["counts"]["failed"] == 1
        second = run(questions, make_settings(), "rerailer", out_dir, scripted_gateway(consistent_script("flaky")))
        assert second["counts"]["failed"] == 0
        assert report_to_bytes(replay(out_dir)) == (out_dir / "report.json").read_bytes()

    def test_rerun_failed_question_keeps_the_usage_of_its_failed_attempt(self, tmp_path):
        # The first attempt pays for 3 cot calls and fails at the judge; the
        # resume replays them from the cache and pays for the other 8.
        out_dir = tmp_path / "r"
        settings = make_settings(cache_enabled=True)
        script = fixable_script("q1")

        def attempt(entries):
            gw = scripted_gateway(entries, cache_dir=out_dir / "cache", cache_enabled=True)
            return run([mcqa_question()], settings, "rerailer", out_dir, gw)

        assert attempt([e for e in script if e["match"]["stage"] == STAGE_COT])["counts"]["failed"] == 1
        usage = attempt(script)["usage"]
        assert (usage["live_calls"], usage["cached_calls"]) == (11, 3)
        assert usage["billed_prompt_tokens"] == 1100
        assert usage["by_stage"][STAGE_COT]["billed_prompt_tokens"] == 300
        assert report_to_bytes(replay(out_dir)) == (out_dir / "report.json").read_bytes()

    def test_an_interrupt_while_submitting_cancels_the_questions_not_started(self, tmp_path, monkeypatch):
        # The first worker is held in its first call until the run leaves the
        # pool, so the interrupt at the second submit finds one question in flight.
        entered, released = threading.Event(), threading.Event()

        class HeldBackend(ScriptedBackend):
            def call(self, prompt, params, context):
                if not entered.is_set():
                    entered.set()
                    assert released.wait(timeout=10)
                return super().call(prompt, params, context)

        class InterruptedPool(harness.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                if entered.is_set():
                    raise KeyboardInterrupt
                future = super().submit(*args, **kwargs)
                assert entered.wait(timeout=10)
                return future

            def shutdown(self, *args, **kwargs):
                released.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", InterruptedPool)
        questions, entries = rerailer_fixture(4, 4, 2)
        out_dir = tmp_path / "r"
        with pytest.raises(KeyboardInterrupt, match="^9 of 10 questions did not run"):
            run(questions, make_settings(parallelism=3), "rerailer", out_dir, Gateway(HeldBackend(entries)))
        assert [o["question_id"] for o in load_outcomes(out_dir / "outcomes.jsonl")] == ["q01"]

    def test_an_error_that_is_not_a_rerail_error_is_raised_once_the_questions_in_flight_finish(
        self, tmp_path, monkeypatch
    ):
        # q01 fails while q02 is in flight, and q02 is held until q01's
        # worker has stopped: q02 finishes, and q03 on never start.
        in_flight, stopped = threading.Event(), threading.Event()

        class WatchedPool(harness.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                future.add_done_callback(lambda done: done.exception() and stopped.set())
                return future

        class BreaksOnQ01(ScriptedBackend):
            def call(self, prompt, params, context):
                if context.question_id == "q01":
                    assert in_flight.wait(timeout=10)
                    raise RuntimeError("not a RerailError")
                if not in_flight.is_set():
                    in_flight.set()
                    assert stopped.wait(timeout=10)
                return super().call(prompt, params, context)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", WatchedPool)
        questions = [mcqa_question(qid=f"q{i:02d}") for i in range(1, 11)]
        backend = BreaksOnQ01([e for q in questions for e in consistent_script(q.id)])
        out_dir = tmp_path / "r"
        with pytest.raises(RuntimeError, match="not a RerailError"):
            run(questions, make_settings(parallelism=2), "rerailer", out_dir, Gateway(backend))
        assert [o["question_id"] for o in load_outcomes(out_dir / "outcomes.jsonl")] == ["q02"]

    @pytest.mark.parametrize("parallelism,pending", [(1, 5), (3, 5), (8, 5), (4, 0)])
    def test_a_run_submits_one_task_per_worker_it_needs(self, tmp_path, monkeypatch, parallelism, pending):
        submits = []

        class CountingPool(harness.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
        questions = [mcqa_question(qid=f"q{i}") for i in range(5)]
        out_dir = tmp_path / "r"
        script = [e for q in questions for e in consistent_script(q.id)]
        done = questions[:5 - pending]
        if done:  # a resume runs only the questions still pending
            run(done, make_settings(), "rerailer", out_dir, scripted_gateway(script))
            submits.clear()
        report = run(questions, make_settings(parallelism=parallelism), "rerailer", out_dir, scripted_gateway(script))
        assert len(submits) == min(parallelism, pending)
        assert report["counts"]["failed"] == 0 and report["counts"]["total"] == 5

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            run([mcqa_question()], make_settings(), "oracle", tmp_path, scripted_gateway([]))


class TestReplay:
    def test_replay_reproduces_the_report_bytes(self, tmp_path):
        questions, entries = rerailer_fixture(4, 4, 2)
        out_dir = tmp_path / "run"
        run(questions, make_settings(), "rerailer", out_dir, scripted_gateway(entries))
        replayed = replay(out_dir)
        assert report_to_bytes(replayed) == (out_dir / "report.json").read_bytes()

    def test_missing_artifacts_raise(self, tmp_path):
        with pytest.raises(IncompleteTrace):
            replay(tmp_path)


class TestLoadOutcomes:
    def write(self, path, text):
        path.write_text(text)
        return path

    def test_unterminated_last_line_is_ignored(self, tmp_path):
        row = json.dumps(outcome("q1"))
        path = self.write(tmp_path / "o.jsonl", row + "\n" + row[:-5])
        assert [o["question_id"] for o in load_outcomes(path)] == ["q1"]

    def test_last_line_for_an_id_wins(self, tmp_path):
        failed = json.dumps(outcome("q1", error="ProviderError: boom"))
        ok = json.dumps(outcome("q1"))
        path = self.write(tmp_path / "o.jsonl", failed + "\n" + ok + "\n")
        (loaded,) = load_outcomes(path)
        assert loaded["error"] is None

    def test_malformed_committed_line_names_its_number(self, tmp_path):
        row = json.dumps(outcome("q1"))
        path = self.write(tmp_path / "o.jsonl", row + "\n" + row[:-5] + "\n" + row + "\n")
        with pytest.raises(IncompleteTrace, match="line 2"):
            load_outcomes(path)

    def test_a_well_formed_usage_block_loads(self, tmp_path):
        usage = {"cot": usage_row(live_calls=3, prompt_tokens=30, wall_time_s=0.5)}
        path = self.write(tmp_path / "o.jsonl", json.dumps(outcome("q1", usage=usage)) + "\n")
        (loaded,) = load_outcomes(path)
        assert loaded["usage"] == usage

    @pytest.mark.parametrize(
        "usage",
        [
            {"cot": [1]},
            {"cot": usage_row(live_calls="3")},
            {"cot": usage_row(live_calls=True)},
            {"cot": usage_row(live_calls=1.0)},
            {"cot": usage_row(wall_time_s="0.5")},
            {"cot": usage_row(retries=1)},
            {"cot": {"live_calls": 1}},
            {"cot": 3},
            {"cot": None},
            [["cot", {}]],
            "cot",
            {"cot": usage_row(live_calls=-4)},
            {"cot": usage_row(billed_prompt_tokens=-1)},
            {"cot": usage_row(wall_time_s=-0.5)},
            {"cot": usage_row(wall_time_s=float("inf"))},
            {"cot": usage_row(wall_time_s=float("nan"))},
            {"cot": usage_row(wall_time_s=10**400)},
        ],
    )
    def test_malformed_usage_names_its_line(self, tmp_path, usage):
        good = json.dumps(outcome("q1"))
        bad = json.dumps(dict(outcome("q2"), usage=usage))
        path = self.write(tmp_path / "o.jsonl", good + "\n" + bad + "\n")
        with pytest.raises(IncompleteTrace, match=r"line 2: malformed outcome \(malformed usage"):
            load_outcomes(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("question_id", 7),
            ("question_id", ""),
            ("category", 5),
            ("category", "Poetry"),
            ("routing", "sideways"),
            ("routing", True),
            ("baseline_answer", ["A"]),
            ("final_answer", 3),
            ("correct_baseline", 1),
            ("correct_final", "yes"),
            ("cell", "XX"),
            ("flags", "x"),
            ("flags", [1]),
            ("flags", None),
            ("error", 1),
        ],
    )
    def test_malformed_field_names_its_line(self, tmp_path, name, value):
        good = json.dumps(outcome("q1"))
        bad = json.dumps(dict(outcome("q2"), **{name: value}))
        path = self.write(tmp_path / "o.jsonl", good + "\n" + bad + "\n")
        with pytest.raises(IncompleteTrace, match=rf"line 2: malformed outcome \(malformed {name} "):
            load_outcomes(path)

    @pytest.mark.parametrize(
        "name",
        [
            "question_id", "category", "routing", "baseline_answer", "final_answer", "correct_baseline",
            "correct_final", "cell", "flags", "usage", "error",
            "x",  # a field no row holds
        ],
    )
    def test_a_missing_or_unknown_field_names_its_line(self, tmp_path, name):
        good = json.dumps(outcome("q1"))
        row = outcome("q2")
        if name in row:
            del row[name]
            problem = f"missing field '{name}'"
        else:
            row[name] = None
            problem = f"unknown field '{name}'"
        path = self.write(tmp_path / "o.jsonl", good + "\n" + json.dumps(row) + "\n")
        with pytest.raises(IncompleteTrace, match=rf"line 2: malformed outcome \({problem}\)"):
            load_outcomes(path)


class TestRunQuestion:
    def test_usage_is_attached_to_the_outcome(self):
        gw = scripted_gateway(consistent_script("q1"))
        outcome, trace = run_question(mcqa_question(), "rerailer", gw, make_settings())
        assert stage_calls(outcome["usage"]) == CONSISTENT_EXPECTED_CALLS
        assert trace["routing"] == "consistent"
        assert outcome["cell"] is None


class TestMakeGateway:
    def test_scripted_requires_a_script(self, tmp_path):
        with pytest.raises(ValueError, match="script"):
            make_gateway(make_settings(), "scripted", out_dir=tmp_path)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            make_gateway(make_settings(), "abacus", out_dir=tmp_path)

    def test_live_requires_the_named_environment_variable(self, monkeypatch, tmp_path):
        monkeypatch.delenv("RERAIL_API_KEY", raising=False)
        with pytest.raises(ProviderError, match="RERAIL_API_KEY"):
            make_gateway(make_settings(), "live", out_dir=tmp_path)

    def test_scripted_cache_is_off_by_default(self, tmp_path):
        script = write_script(
            tmp_path / "s.jsonl",
            [entry(STAGE_COT, "q1", cot_text(["Think."], "B")) for _ in range(3)],
        )
        gw = make_gateway(make_settings(), "scripted", script_path=script, out_dir=tmp_path)
        with gw.recording("q1") as ledger:
            run_cot(mcqa_question(), gw, make_settings())
            run_cot(mcqa_question(), gw, make_settings())
        assert ledger_totals(ledger)["cached_calls"] == 0
        assert not (tmp_path / "cache").exists()

    def test_scripted_cache_can_be_opted_in(self, tmp_path):
        script = write_script(
            tmp_path / "s.jsonl",
            [entry(STAGE_COT, "q1", cot_text(["Think."], "B")) for _ in range(3)],
        )
        settings = make_settings(cache_enabled=True)
        gw = make_gateway(settings, "scripted", script_path=script, out_dir=tmp_path)
        with gw.run_scope(), gw.recording("q1") as ledger:
            run_cot(mcqa_question(), gw, settings)
            run_cot(mcqa_question(), gw, settings)
        assert ledger_totals(ledger)["cached_calls"] == 1
        assert (tmp_path / "cache").exists()

"""End-to-end command-line behavior: exit codes, output, artifact writes."""

import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rerail
from helpers import (
    DEEP_JSON,
    consistent_script,
    entry,
    mad_answer,
    mcqa_question,
    numeric_question,
    write_dataset,
    write_script,
)
from rerail.cli import EXIT_INTERRUPTED, main
from rerail.gateway import MAX_LATENCY_MS
from rerail.harness import CSV_TABLES
from rerail.types import STAGE_MAD


@pytest.fixture
def config_file(tmp_path):
    def write(**overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(overrides))
        return str(path)

    return write


PRICE = {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}


@pytest.fixture
def small_run(tmp_path, config_file):
    """Three consistent questions, their script, and a config path."""
    questions = [mcqa_question(qid=f"q{i}") for i in range(1, 4)]
    dataset = tmp_path / "questions.jsonl"
    write_dataset(dataset, questions)
    entries = []
    for q in questions:
        entries.extend(consistent_script(q.id))
    script = write_script(tmp_path / "script.jsonl", entries)
    return {
        "dataset": str(dataset),
        "script": str(script),
        "config": config_file(),
        "out": str(tmp_path / "out"),
    }


def run_args(small_run, **extra):
    args = [
        "run",
        "--config", small_run["config"],
        "--dataset", small_run["dataset"],
        "--mode", extra.pop("mode", "rerailer"),
        "--out", small_run["out"],
        "--backend", extra.pop("backend", "scripted"),
    ]
    if "script" in extra:
        script = extra.pop("script")
        if script is not None:
            args += ["--script", script]
    else:
        args += ["--script", small_run["script"]]
    for flag, value in extra.items():
        args += [f"--{flag}", str(value)]
    return args


class TestValidate:
    def test_echoes_resolved_defaults(self, config_file, capsys):
        assert main(["validate", "--config", config_file()]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "n_samples = 3" in out
        assert "mad_agents = 2" in out
        assert "n_debate_rounds = 3" in out
        assert "max_reanswer_steps = 12" in out

    def test_unknown_field_fails(self, config_file, capsys):
        assert main(["validate", "--config", config_file(n_sample=5)]) == 1
        assert "n_sample" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_naming_a_directory_fails_validation(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("api_key_env", 3), ("model_id", 5), ("temperature", True), ("timeout_s", True),
            ("abs_tolerance", float("inf")), ("timeout_s", 1e308),
        ],
    )
    def test_mistyped_field_fails(self, config_file, capsys, field, value):
        # before, these passed validation and a live run ended in a traceback
        assert main(["validate", "--config", config_file(**{field: value})]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("price", [True, float("nan")])
    def test_price_that_is_not_a_finite_number_fails(self, config_file, capsys, price):
        # a NaN price would be written as bare NaN into report.json
        table = {"gpt-4": {"prompt_per_1k": price, "completion_per_1k": 0.06}}
        assert main(["validate", "--config", config_file(price_table=table)]) == 1
        assert "price_table['gpt-4']" in capsys.readouterr().err

    def test_price_above_the_maximum_fails(self, config_file, capsys):
        # 1e308 passed, and the run wrote Infinity into report.json and inf into cost.csv
        table = {"gpt-4": {"prompt_per_1k": 1e308, "completion_per_1k": 0.06}}
        assert main(["validate", "--config", config_file(price_table=table)]) == 1
        assert one_error_line(capsys).endswith(
            "price_table['gpt-4'] prompt_per_1k must be at most 1000000, got 1e+308\n"
        )

    def test_price_too_large_for_a_float_fails(self, config_file, capsys):
        # a 401-digit integer passed, and float() ended validate in a traceback
        table = {"gpt-4": {"prompt_per_1k": 10**400, "completion_per_1k": 0.06}}
        assert main(["validate", "--config", config_file(price_table=table)]) == 1
        assert "price_table['gpt-4'] prompt_per_1k" in one_error_line(capsys)

    def test_never_echoes_a_secret(self, config_file, capsys, monkeypatch):
        monkeypatch.setenv("RERAIL_API_KEY", "sk-supersecret")
        assert main(["validate", "--config", config_file()]) == 0
        assert "sk-supersecret" not in capsys.readouterr().out


class TestRun:
    def test_scripted_run_end_to_end(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        out = capsys.readouterr().out
        assert "mode=rerailer questions=3 failed=0" in out
        assert "consistent=3 derailed=0" in out
        assert "accuracy=1.0000 (3/3)" in out
        assert "report written to" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["counts"]["total"] == 3

    def test_cost_line_appears_when_the_model_is_priced(self, small_run, config_file, capsys):
        small_run["config"] = config_file(
            price_table={"gpt-4": {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}}
        )
        assert main(run_args(small_run)) == 0
        out = capsys.readouterr().out
        # 9 calls at 100 prompt + 50 completion tokens each
        assert "cost=$0.0540" in out
        assert "projected_per_1000=$18.0" in out

    def test_scripted_backend_requires_a_script(self, small_run, capsys):
        assert main(run_args(small_run, script=None)) == 1
        assert "requires --script" in capsys.readouterr().err

    def test_live_backend_needs_the_key_in_the_environment(self, small_run, monkeypatch, capsys):
        monkeypatch.delenv("RERAIL_API_KEY", raising=False)
        assert main(run_args(small_run, backend="live")) == 1
        assert "RERAIL_API_KEY" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", [
        "api.example.invalid/v1/chat", "ftp://api.example.invalid/v1/chat", "", "https:///v1/chat",
        "http://api.example.invalid:port/v1/chat",
    ])
    def test_live_endpoint_that_is_not_an_http_url_fails_before_any_question(
        self, small_run, config_file, monkeypatch, capsys, endpoint
    ):
        small_run["config"] = config_file(endpoint=endpoint)
        monkeypatch.setenv("RERAIL_API_KEY", "sk-test")
        assert main(run_args(small_run, backend="live", script=None)) == 1
        assert one_error_line(capsys).startswith(f"error: endpoint {endpoint!r} is not an http:// or https:// URL")
        assert not (Path(small_run["out"]) / "outcomes.jsonl").exists()

    def test_a_bad_dataset_line_names_the_file(self, small_run, capsys):
        with open(small_run["dataset"], "a", encoding="utf-8") as handle:
            handle.write('{"id": "x", "oops": 1}\n')
        assert main(run_args(small_run)) == 1
        assert one_error_line(capsys) == f"error: {small_run['dataset']} line 4: unknown field 'oops'\n"

    def test_invalid_mode_is_a_usage_error(self, small_run, capsys):
        assert main(run_args(small_run, mode="oracle")) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, small_run, capsys):
        assert main(run_args(small_run) + ["--bogus"]) == 1

    def test_negative_max_in_flight_is_a_config_error(self, small_run, config_file, capsys):
        small_run["config"] = config_file(max_in_flight=-1)
        assert main(run_args(small_run)) == 1
        assert "max_in_flight" in capsys.readouterr().err

    def test_seed_override_lands_in_the_config_snapshot(self, small_run, tmp_path):
        assert main(run_args(small_run, seed=9)) == 0
        snapshot = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert snapshot["seed"] == 9

    def test_duplicate_question_ids_fail(self, small_run, tmp_path, capsys):
        dataset = tmp_path / "dup.jsonl"
        line = Path(small_run["dataset"]).read_text().splitlines()[0]
        dataset.write_text(line + "\n" + line + "\n")
        small_run["dataset"] = str(dataset)
        assert main(run_args(small_run)) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_malformed_script_fails_cleanly(self, small_run, tmp_path, capsys):
        script = tmp_path / "bad.jsonl"
        script.write_text('{"match": {"stage": "cot", "question_id": "q1"}, "response": "x", "usage": {}}\nnot json\n')
        assert main(run_args(small_run, script=str(script))) == 1
        assert f"script {script} line 2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens", ["abc", -5])
    def test_bad_token_count_in_the_script_fails_cleanly(self, small_run, capsys, tokens):
        entries = [json.loads(line) for line in Path(small_run["script"]).read_text().splitlines()]
        entries[1]["usage"]["prompt_tokens"] = tokens
        write_script(small_run["script"], entries)
        assert main(run_args(small_run)) == 1
        assert f"script {small_run['script']} line 2: token counts" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            # float() of the latency ended the run in an OverflowError traceback
            ("latency_ms", 10**400, f"latency_ms must be a finite number >= 0, got {10**400}"),
            # the misspelled count was billed as 0
            ("usage", {"prompt_tokens": 5, "completion_tokns": 3}, "usage: unknown field 'completion_tokns'"),
            # a priced run wrote every outcome, then float() of the summed
            # count ended it in an OverflowError traceback
            ("usage", {"prompt_tokens": 2**53},
             "token counts must be at most 9007199254740991, got {'prompt_tokens': 9007199254740992}"),
            # the summed wall time was Infinity in report.json
            ("latency_ms", sys.float_info.max,
             f"latency_ms must be at most {MAX_LATENCY_MS}, got {sys.float_info.max!r}"),
        ],
        ids=["latency-10**400", "usage-misspelled-key", "usage-2**53", "latency-largest-float"],
    )
    def test_a_script_line_beyond_the_shared_rules_fails_cleanly(self, small_run, capsys, field, value, problem):
        entries = [json.loads(line) for line in Path(small_run["script"]).read_text().splitlines()]
        entries[6][field] = value
        write_script(small_run["script"], entries)
        assert main(run_args(small_run)) == 1
        assert one_error_line(capsys) == f"error: script {small_run['script']} line 7: {problem}\n"
        assert not Path(small_run["out"]).exists()

    def test_unparseable_price_is_a_config_error(self, small_run, config_file, capsys):
        small_run["config"] = config_file(
            price_table={"gpt-4": {"prompt_per_1k": "x", "completion_per_1k": 0.06}}
        )
        assert main(run_args(small_run)) == 1
        assert "price_table" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["dataset", "config", "out"])
    def test_file_system_errors_exit_one(self, small_run, tmp_path, capsys, where):
        # a directory where a file is expected, or an --out below a regular file
        small_run[where] = small_run["dataset"] + "/out" if where == "out" else str(tmp_path)
        assert main(run_args(small_run)) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, correct", [({}, False), ({"abs_tolerance": 0.5}, True)])
    def test_the_run_s_tolerances_decide_the_grade(self, small_run, config_file, overrides, correct):
        # 8.4 against a truth of 8: outside the default bounds, inside 0.5
        question = numeric_question(gt="8")
        write_dataset(small_run["dataset"], [question])
        write_script(small_run["script"], consistent_script(question.id, answer="8.4")[:1])
        small_run["config"] = config_file(**overrides)
        assert main(run_args(small_run, mode="cot")) == 0
        out = Path(small_run["out"])
        (outcome,) = map(json.loads, (out / "outcomes.jsonl").read_text().splitlines())
        assert (outcome["final_answer"], outcome["correct_final"], outcome["flags"]) == ("8.4", correct, [])
        report = (out / "report.json").read_bytes()
        assert json.loads(report)["accuracy"]["overall"]["correct"] == int(correct)
        (out / "report.json").unlink()
        assert main(["replay", "--trace", small_run["out"]]) == 0
        assert (out / "report.json").read_bytes() == report


ARTIFACTS = [
    "accuracy_by_category.csv",
    "confusion_matrix.csv",
    "cost.csv",
    "outcomes.jsonl",
    "report.json",
    "resolved_config.json",
    "traces.jsonl",
]


class TestResume:
    def test_ids_are_never_file_paths(self, small_run, tmp_path):
        questions = [mcqa_question(qid=qid) for qid in ("a/b", "../x", "../../y")]
        write_dataset(small_run["dataset"], questions)
        entries = [e for q in questions for e in consistent_script(q.id)]
        write_script(small_run["script"], entries)
        small_run["out"] = str(tmp_path / "runs" / "out")
        assert main(run_args(small_run)) == 0
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["out"]
        assert sorted(p.name for p in (tmp_path / "runs" / "out").iterdir()) == ARTIFACTS
        lines = (tmp_path / "runs" / "out" / "traces.jsonl").read_text().splitlines()
        assert [json.loads(line)["question_id"] for line in lines] == [q.id for q in questions]

    def test_torn_tails_are_dropped_on_resume(self, small_run, tmp_path):
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        uninterrupted = (out / "report.json").read_bytes()
        for name in ("outcomes.jsonl", "traces.jsonl"):
            data = (out / name).read_bytes()
            (out / name).write_bytes(data[:-40])
        (out / "report.json").unlink()
        assert main(run_args(small_run)) == 0
        assert (out / "report.json").read_bytes() == uninterrupted
        lines = (out / "traces.jsonl").read_text().splitlines()
        assert [json.loads(line)["question_id"] for line in lines] == ["q1", "q2", "q3"]

    def test_malformed_committed_outcome_is_a_user_error(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        outcomes = tmp_path / "out" / "outcomes.jsonl"
        lines = outcomes.read_text().splitlines(keepends=True)
        outcomes.write_text(lines[0] + "{not json\n" + lines[2])
        capsys.readouterr()
        assert main(run_args(small_run)) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("changed", [{"mode": "cot"}, {"seed": 9}])
    def test_resume_under_a_different_config_is_refused(self, small_run, tmp_path, capsys, changed):
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        capsys.readouterr()
        assert main(run_args(small_run, **changed)) == 1
        ((field, _),) = changed.items()
        assert f"{field}=" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before

    def test_directory_with_questions_the_dataset_lacks_is_refused(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        write_dataset(small_run["dataset"], [mcqa_question(qid=qid) for qid in ("q1", "q2")])
        capsys.readouterr()
        assert main(run_args(small_run)) == 1
        assert "'q3'" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before

    def test_a_larger_dataset_may_resume_into_a_directory(self, small_run, capsys):
        questions = [mcqa_question(qid=f"q{i}") for i in range(1, 4)]
        write_dataset(small_run["dataset"], questions[:2])
        assert main(run_args(small_run)) == 0
        write_dataset(small_run["dataset"], questions)
        capsys.readouterr()
        assert main(run_args(small_run)) == 0
        assert "questions=3 failed=0" in capsys.readouterr().out
        assert main(["replay", "--trace", small_run["out"]]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_config_change_is_refused_before_the_first_outcome(self, small_run, tmp_path, config_file, capsys):
        # a run that crashed before its first outcome leaves only the config
        # snapshot and its cached completions, which the cache key does not
        # tie to the endpoint
        small_run["config"] = config_file(cache_enabled=True)
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        for name in ARTIFACTS:
            if name != "resolved_config.json":
                (out / name).unlink()
        cached = (out / "cache" / "completions.jsonl").read_bytes()
        small_run["config"] = config_file(cache_enabled=True, endpoint="http://other.invalid/v1")
        capsys.readouterr()
        assert main(run_args(small_run)) == 1
        assert "endpoint=" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["cache", "resolved_config.json"]
        assert (out / "cache" / "completions.jsonl").read_bytes() == cached

    def test_old_layout_cache_is_refused(self, small_run, tmp_path, config_file, capsys):
        small_run["config"] = config_file(cache_enabled=True)
        cache = tmp_path / "out" / "cache"
        cache.mkdir(parents=True)
        (cache / f"{'0' * 64}.json").write_text('{"text": "x", "usage": {}}')
        assert main(run_args(small_run)) == 1
        assert str(cache) in capsys.readouterr().err
        assert sorted(p.name for p in cache.iterdir()) == [f"{'0' * 64}.json"]

    def test_resume_may_change_parallelism_or_lack_a_snapshot(self, small_run, tmp_path):
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        outcomes = (out / "outcomes.jsonl").read_bytes()
        report = (out / "report.json").read_bytes()
        assert main(run_args(small_run, parallelism=2)) == 0
        (out / "resolved_config.json").unlink()
        assert main(run_args(small_run)) == 0
        assert (out / "outcomes.jsonl").read_bytes() == outcomes
        assert (out / "report.json").read_bytes() == report

    @pytest.mark.parametrize(
        "damage",
        [
            lambda _: b"[]",
            lambda _: b'"rerailer"',
            lambda _: b"{not json",
            lambda snapshot: snapshot[:len(snapshot) // 2],
        ],
        ids=["list", "string", "not-json", "cut-in-half"],
    )
    def test_a_snapshot_that_is_not_an_object_is_refused(self, small_run, tmp_path, capsys, damage):
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        config = out / "resolved_config.json"
        config.write_bytes(damage(config.read_bytes()))
        before = {name: (out / name).read_bytes() for name in ARTIFACTS}
        capsys.readouterr()
        assert main(run_args(small_run)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config} does not hold a config object\n"
        assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
        assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a POSIX file size limit")
    @pytest.mark.parametrize("name", ["resolved_config.json", "report.json"])
    def test_a_rewrite_that_fails_part_way_leaves_the_file_whole(self, small_run, tmp_path, config_file, name):
        # A torn snapshot read as no snapshot, so a different config resumed.
        small_run["config"] = config_file(model_id="model-a")
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        before = {artifact: (out / artifact).read_bytes() for artifact in ARTIFACTS}
        snapshot_size = len(before["resolved_config.json"])
        assert len(before["report.json"]) > snapshot_size
        # the report's cap lets the snapshot, written first, through whole
        cap = snapshot_size // 2 if name == "resolved_config.json" else snapshot_size
        child = subprocess.run(
            [sys.executable, "-c", SIZE_CAPPED_RUN, str(cap), *run_args(small_run)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(rerail.__file__).parents[1])),
        )
        assert child.returncode == 1, child.stderr
        assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr
        assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
        assert {artifact: (out / artifact).read_bytes() for artifact in ARTIFACTS} == before
        small_run["config"] = config_file(model_id="model-b")
        assert main(run_args(small_run)) == 1


# Runs `rerail run` with each file it writes capped at argv[1] bytes, so a
# write past the cap fails part-way, as on a full disk: with EFBIG, since
# SIGXFSZ is ignored.
SIZE_CAPPED_RUN = """
import resource, signal, sys
from rerail import cli

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


# Runs `rerail run` with every backend call slowed to 20 ms, and sends the
# process SIGTERM as call number argv[1] starts; prints the calls started,
# the threads left and whether SIGTERM's handler was restored.
INTERRUPTED_RUN = """
import json, os, signal, sys, threading, time
from rerail import cli, gateway

calls, lock, signalled_at, served = [], threading.Lock(), int(sys.argv[1]), gateway.ScriptedBackend.call

def call(self, prompt, params, context):
    with lock:
        calls.append(context.question_id)
        signalling = len(calls) == signalled_at
    if signalling:
        os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(0.02)
    return served(self, prompt, params, context)

gateway.ScriptedBackend.call = call
code = cli.main(sys.argv[2:])
threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
print(json.dumps({"calls": len(calls), "threads": threads,
                  "restored": signal.getsignal(signal.SIGTERM) is signal.SIG_DFL}))
sys.exit(code)
"""


# Runs a scripted cache-on run, its replay and its report in one fresh
# interpreter, then prints which modules of an HTTP stack any of them loaded.
OFFLINE_COMMANDS = """
import json, sys
from rerail import cli

run, out = json.loads(sys.argv[1]), sys.argv[2]
codes = [cli.main(run), cli.main(["replay", "--trace", out]), cli.main(["report", "--out", out])]
http = sorted({"http.client", "ssl", "urllib.request"} & sys.modules.keys())
print(json.dumps({"codes": codes, "http": http}))
"""


def test_offline_commands_never_import_the_http_client(small_run, config_file):
    small_run["config"] = config_file(cache_enabled=True)
    child = subprocess.run(
        [sys.executable, "-c", OFFLINE_COMMANDS, json.dumps(run_args(small_run)), small_run["out"]],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(rerail.__file__).parents[1])),
    )
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout.splitlines()[-1])
    assert seen == {"codes": [0, 0, 0], "http": []}
    assert (Path(small_run["out"]) / "cache" / "completions.jsonl").stat().st_size > 0


class TestInterrupt:
    def test_sigterm_stops_the_run_and_a_rerun_resumes_it(self, small_run, tmp_path):
        questions = [mcqa_question(qid=f"q{i:02d}") for i in range(40)]
        write_dataset(small_run["dataset"], questions)
        write_script(small_run["script"], [e for q in questions for e in consistent_script(q.id)])
        parallelism, calls_per_question, signalled_at = 2, 3, 10
        args = run_args(small_run, parallelism=parallelism)
        child = subprocess.run(
            [sys.executable, "-c", INTERRUPTED_RUN, str(signalled_at), *args],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(rerail.__file__).parents[1])),
        )
        assert child.returncode == EXIT_INTERRUPTED, child.stderr
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith("interrupted: ") and child.stderr.count("\n") == 1
        seen = json.loads(child.stdout)
        # at most the questions in flight start calls after the signal
        assert signalled_at <= seen["calls"] <= signalled_at + parallelism * calls_per_question
        assert seen["threads"] == [] and seen["restored"]
        done = (tmp_path / "out" / "outcomes.jsonl").read_text().splitlines()
        assert f"{len(questions) - len(done)} of {len(questions)} questions did not run" in child.stderr

        assert main(args) == 0
        uninterrupted = dict(small_run, out=str(tmp_path / "uninterrupted"))
        assert main(run_args(uninterrupted, parallelism=parallelism)) == 0
        resumed, whole = (tmp_path / name / "report.json" for name in ("out", "uninterrupted"))
        assert resumed.read_bytes() == whole.read_bytes()


def directory_bytes(out: Path) -> dict:
    """Every file below ``out``, by relative path, with its bytes."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


# Runs `rerail run` with every backend call slowed to 20 ms.
SLOWED_RUN = """
import sys, time
from rerail import cli, gateway

served = gateway.ScriptedBackend.call

def call(self, *args):
    time.sleep(0.02)
    return served(self, *args)

gateway.ScriptedBackend.call = call
sys.exit(cli.main(sys.argv[1:]))
"""


class TestOneWriter:
    def test_a_second_writer_exits_one_and_changes_no_byte(self, small_run, tmp_path, config_file, capsys):
        small_run["config"] = config_file(cache_enabled=True)
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        # a run cut after its first question: both commands would write here
        for name in ("outcomes.jsonl", "traces.jsonl"):
            (out / name).write_text((out / name).read_text().splitlines(keepends=True)[0])
        for name in ("report.json", *CSV_TABLES):
            (out / name).unlink()
        before = directory_bytes(out)
        capsys.readouterr()
        held = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            for args in (run_args(small_run), ["replay", "--trace", str(out)]):
                assert main(args) == 1
                assert capsys.readouterr().err == f"error: {out} is being written by another process; wait for it to end\n"
                assert directory_bytes(out) == before
        finally:
            os.close(held)
        assert main(run_args(small_run)) == 0  # the lock went with its descriptor
        assert len((out / "outcomes.jsonl").read_text().splitlines()) == 3

    def test_a_killed_run_resumes_to_the_uninterrupted_report(self, small_run, tmp_path, capsys):
        questions = [mcqa_question(qid=f"q{i:02d}") for i in range(40)]
        write_dataset(small_run["dataset"], questions)
        write_script(small_run["script"], [e for q in questions for e in consistent_script(q.id)])
        args = run_args(small_run)
        outcomes = tmp_path / "out" / "outcomes.jsonl"
        child = subprocess.Popen(
            [sys.executable, "-c", SLOWED_RUN, *args],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ, PYTHONPATH=str(Path(rerail.__file__).parents[1])),
        )
        try:
            deadline = time.monotonic() + 30
            while not (outcomes.exists() and outcomes.read_bytes().count(b"\n") >= 2):
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            capsys.readouterr()
            assert main(args) == 1  # the child holds the directory
            assert "is being written by another process" in capsys.readouterr().err
        finally:
            child.kill()
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert len(outcomes.read_text().splitlines()) < len(questions)

        assert main(args) == 0
        uninterrupted = dict(small_run, out=str(tmp_path / "uninterrupted"))
        assert main(run_args(uninterrupted)) == 0
        resumed, whole = (tmp_path / name / "report.json" for name in ("out", "uninterrupted"))
        assert resumed.read_bytes() == whole.read_bytes()


class TestReplayCommand:
    def test_replay_confirms_a_matching_report(self, small_run, capsys):
        assert main(run_args(small_run)) == 0
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_replay_rewrites_a_stale_report(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        report_path = tmp_path / "out" / "report.json"
        original = report_path.read_bytes()
        report_path.write_bytes(b"{}\n")
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 0
        assert "recomputed" in capsys.readouterr().out
        assert report_path.read_bytes() == original

    def test_replay_restores_the_report_and_the_csv_tables(self, small_run, config_file, tmp_path, capsys):
        small_run["config"] = config_file(model_id="m", price_table={"m": PRICE})
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        tables = ["report.json", "accuracy_by_category.csv", "confusion_matrix.csv", "cost.csv"]
        written = [(out / name).read_bytes() for name in tables]
        for name in tables:
            (out / name).unlink()
        capsys.readouterr()
        assert main(["replay", "--trace", str(out)]) == 0
        assert "recomputed" in capsys.readouterr().out
        assert [(out / name).read_bytes() for name in tables] == written
        assert main(["report", "--out", str(out), "--format", "csv"]) == 0

    def test_replay_of_an_empty_directory_fails(self, tmp_path, capsys):
        assert main(["replay", "--trace", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("snapshot", ["[]", "3", "{not json", "\xff"])
    def test_replay_of_a_snapshot_that_is_not_an_object_fails(self, small_run, tmp_path, capsys, snapshot):
        assert main(run_args(small_run)) == 0
        config = tmp_path / "out" / "resolved_config.json"
        config.write_bytes(snapshot.encode("latin-1"))
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert str(config) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changed",
        [
            {"price_table": {"gpt-4": 5}},
            {"price_table": {"gpt-4": dict(PRICE, prompt_per_1k=None)}},
            {"price_table": {"gpt-4": dict(PRICE, prompt_per_1k="abc")}},
            {"price_table": {"gpt-4": {"completion_per_1k": 0.06}}},
            {"price_table": [1]},
            {"model_id": []},
            {"mode": 5},
        ],
        ids=["price-entry-5", "price-null", "price-abc", "price-missing", "price-table-list", "model-id-list", "mode-5"],
    )
    def test_replay_of_a_snapshot_with_an_invalid_setting_fails(self, small_run, tmp_path, config_file, capsys, changed):
        small_run["config"] = config_file(price_table={"gpt-4": PRICE})
        assert main(run_args(small_run)) == 0
        config = tmp_path / "out" / "resolved_config.json"
        report = (tmp_path / "out" / "report.json").read_bytes()
        config.write_text(json.dumps(dict(json.loads(config.read_text()), **changed)))
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config} does not hold a valid config") and err.count("\n") == 1
        assert (tmp_path / "out" / "report.json").read_bytes() == report

    @pytest.mark.parametrize("name", ["max_in_flight", "parallelism", "mode"])
    def test_a_snapshot_missing_a_field_is_refused(self, small_run, tmp_path, capsys, name):
        # max_in_flight is null and parallelism may change on resume, so only
        # the missing field itself tells the snapshot from the run's config
        assert main(run_args(small_run)) == 0
        out = tmp_path / "out"
        snapshot = json.loads((out / "resolved_config.json").read_text())
        del snapshot[name]
        (out / "resolved_config.json").write_text(json.dumps(snapshot))
        before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert main(run_args(small_run)) == 1
        err = capsys.readouterr().err
        assert err.count(f"{out / 'resolved_config.json'} does not hold a valid config (missing field '{name}')") == 2
        assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before

    def test_a_snapshot_with_an_unknown_field_is_refused(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        config = tmp_path / "out" / "resolved_config.json"
        config.write_text(json.dumps(dict(json.loads(config.read_text()), n_sample=3)))
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert one_error_line(capsys) == f"error: {config} does not hold a valid config (unknown field 'n_sample')\n"

    def test_replay_of_a_malformed_usage_block_fails(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        outcomes = tmp_path / "out" / "outcomes.jsonl"
        rows = [json.loads(line) for line in outcomes.read_text().splitlines()]
        rows[1]["usage"] = {"cot": [1]}
        outcomes.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert "line 2: malformed outcome (malformed usage" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("category", 5), ("question_id", 7), ("correct_final", "yes")])
    def test_replay_of_a_malformed_outcome_field_fails(self, small_run, tmp_path, capsys, name, value):
        assert main(run_args(small_run)) == 0
        outcomes = tmp_path / "out" / "outcomes.jsonl"
        rows = [json.loads(line) for line in outcomes.read_text().splitlines()]
        rows[0][name] = value
        outcomes.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        err = capsys.readouterr().err
        assert f"line 1: malformed outcome (malformed {name} " in err
        assert "Traceback" not in err


def with_byte(path, line_no: int, byte: int) -> None:
    """Put ``byte`` in place of the byte after the first quote of a line."""
    lines = Path(path).read_bytes().split(b"\n")
    at = lines[line_no - 1].index(b'"') + 1
    lines[line_no - 1] = lines[line_no - 1][:at] + bytes([byte]) + lines[line_no - 1][at + 1:]
    Path(path).write_bytes(b"\n".join(lines))


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("byte", [0xFF, 0xE9], ids=hex)
class TestBytesThatAreNotUtf8:
    """A byte that is not UTF-8 is the error of its line: exit 1 naming the
    file and the line, or, in the cache, a miss."""

    def test_in_the_config(self, config_file, capsys, byte):
        path = config_file(model_id="m")
        with_byte(path, 1, byte)
        assert main(["validate", "--config", path]) == 1
        assert one_error_line(capsys).startswith(f"error: {path}: not UTF-8 (byte {byte:#04x} at column 3)")

    @pytest.mark.parametrize("file", ["dataset", "script"])
    def test_in_an_input(self, small_run, capsys, byte, file):
        with_byte(small_run[file], 2, byte)
        assert main(run_args(small_run)) == 1
        assert f"{small_run[file]} line 2: not UTF-8 (byte {byte:#04x} " in one_error_line(capsys)
        assert not Path(small_run["out"]).exists()

    def test_in_the_outcomes(self, small_run, capsys, byte):
        assert main(run_args(small_run)) == 0
        with_byte(Path(small_run["out"]) / "outcomes.jsonl", 2, byte)
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert "outcomes.jsonl line 2: malformed outcome (not UTF-8" in one_error_line(capsys)

    def test_in_the_cache_is_a_miss(self, small_run, config_file, byte):
        small_run["config"] = config_file(cache_enabled=True)
        assert main(run_args(small_run)) == 0
        out = Path(small_run["out"])
        report = (out / "report.json").read_bytes()
        with_byte(out / "cache" / "completions.jsonl", 1, byte)
        (out / "outcomes.jsonl").unlink()
        assert main(run_args(small_run)) == 0
        usage = json.loads((out / "report.json").read_text())["usage"]
        assert usage["live_calls"] == 1 and usage["cached_calls"] == json.loads(report)["usage"]["live_calls"] - 1


def with_line(path, line_no: int, text: str) -> None:
    """Put ``text`` in place of a line."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    lines[line_no - 1] = text
    Path(path).write_text("\n".join(lines), encoding="utf-8")


class TestJsonNestedTooDeeply:
    """JSON nested deeper than the parser goes is invalid JSON: exit 1
    naming the file and the line, in the cache a miss, and in a reply a
    re-ask, then a fail-open. It raised RecursionError."""

    def test_in_the_config(self, config_file, capsys):
        path = config_file()
        Path(path).write_text(f'{{"seed": {DEEP_JSON}}}')
        assert main(["validate", "--config", path]) == 1
        assert one_error_line(capsys) == f"error: {path}: invalid JSON (nested too deeply)\n"

    @pytest.mark.parametrize("file", ["dataset", "script"])
    def test_in_an_input(self, small_run, capsys, file):
        with_line(small_run[file], 2, DEEP_JSON)
        assert main(run_args(small_run)) == 1
        assert f"{small_run[file]} line 2: invalid JSON (nested too deeply)" in one_error_line(capsys)
        assert not Path(small_run["out"]).exists()

    def test_in_the_outcomes(self, small_run, capsys):
        assert main(run_args(small_run)) == 0
        with_line(Path(small_run["out"]) / "outcomes.jsonl", 2, DEEP_JSON)
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert "outcomes.jsonl line 2: malformed outcome (invalid JSON (nested too deeply))" in one_error_line(capsys)

    def test_in_the_config_snapshot(self, small_run, capsys):
        assert main(run_args(small_run)) == 0
        (Path(small_run["out"]) / "resolved_config.json").write_text(DEEP_JSON)
        capsys.readouterr()
        assert main(["replay", "--trace", small_run["out"]]) == 1
        assert "does not hold a config object" in one_error_line(capsys)

    def test_in_the_cache_is_a_miss(self, small_run, config_file):
        small_run["config"] = config_file(cache_enabled=True)
        assert main(run_args(small_run)) == 0
        out = Path(small_run["out"])
        report = (out / "report.json").read_bytes()
        with_line(out / "cache" / "completions.jsonl", 1, DEEP_JSON)
        (out / "outcomes.jsonl").unlink()
        assert main(run_args(small_run)) == 0
        usage = json.loads((out / "report.json").read_text())["usage"]
        assert usage["live_calls"] == 1 and usage["cached_calls"] == json.loads(report)["usage"]["live_calls"] - 1

    def test_in_a_reply_is_re_asked_then_fails_open(self, small_run, config_file, tmp_path):
        deep = f"```json\n{DEEP_JSON}\n```"
        entries = []
        for qid in ("q1", "q2", "q3"):
            entries += [
                entry(STAGE_MAD, qid, deep, agent_id=1, round_no=1),
                entry(STAGE_MAD, qid, mad_answer("B"), agent_id=1, round_no=1),
                entry(STAGE_MAD, qid, deep, agent_id=2, round_no=1),
                entry(STAGE_MAD, qid, deep, agent_id=2, round_no=1),
            ]
        write_script(small_run["script"], entries)
        small_run["config"] = config_file(mad_rounds=1)
        assert main(run_args(small_run, mode="mad")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["counts"]["failed"] == 0 and report["accuracy"]["overall"]["correct"] == 3
        outcomes = [json.loads(line) for line in (tmp_path / "out" / "outcomes.jsonl").read_text().splitlines()]
        assert all(outcome["flags"] == ["mad-parse-fail-open"] for outcome in outcomes)


class TestReportCommand:
    def test_json_format_prints_the_report_verbatim(self, small_run, tmp_path, capsys):
        assert main(run_args(small_run)) == 0
        capsys.readouterr()
        assert main(["report", "--out", small_run["out"]]) == 0
        printed = capsys.readouterr().out
        assert printed == (tmp_path / "out" / "report.json").read_text()

    def test_csv_format_prints_all_tables(self, small_run, capsys):
        assert main(run_args(small_run)) == 0
        # each table the run wrote
        assert sorted(p.name for p in Path(small_run["out"]).glob("*.csv")) == sorted(CSV_TABLES)
        capsys.readouterr()
        assert main(["report", "--out", small_run["out"], "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("# ")] == [f"# {name}" for name in CSV_TABLES]
        assert CSV_TABLES == ("accuracy_by_category.csv", "confusion_matrix.csv", "cost.csv")
        assert "category,correct,total,accuracy" in out
        assert "scope,TP,TN,FN,FP" in out

    def test_missing_report_fails(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name,flags", [("report.json", []), ("cost.csv", ["--format", "csv"])])
    def test_an_artifact_that_is_not_utf8_fails_naming_it(self, small_run, capsys, name, flags):
        assert main(run_args(small_run)) == 0
        path = Path(small_run["out"]) / name
        with path.open("ab") as handle:
            handle.write(b"\xff")
        capsys.readouterr()
        assert main(["report", "--out", small_run["out"], *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: not UTF-8 (byte 0xff at line ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

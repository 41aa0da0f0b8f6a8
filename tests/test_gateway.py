"""Gateway behavior: scripted replay, caching, retry, throttles, structured
output, the usage ledger, and the live HTTP backend against a loopback
provider."""

import gc
import hashlib
import itertools
import json
import socket
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    DEEP_JSON,
    Fault,
    FlakyBackend,
    LoopbackProvider,
    chat_reply,
    close_connections,
    make_settings,
    mcqa_question,
    RecordingBackend,
    RecordingGateway,
    entry,
    fenced,
    judge_selects,
    ledger_totals,
    question_calls,
    remaining,
    rerailer_fixture,
    scripted_gateway,
    serialize_structured,
    write_script,
)
from test_fan_out import LATENCIES_MS

from rerail import gateway as gateway_module, harness, jsonl
from rerail.gateway import (
    CallContext,
    CompletionParams,
    CompletionResult,
    CompletionTimeout,
    Gateway,
    LiveBackend,
    MalformedReply,
    ProviderError,
    REASK_REMINDER,
    RETRY_AFTER_MAX_S,
    RETRY_MAX_ATTEMPTS,
    ScriptExhausted,
    ScriptFormatError,
    ScriptedBackend,
    UsageLedger,
    cache_key,
    complete_structured,
    parse_structured_output,
)
from rerail.prompts import PromptPair
from rerail.types import STAGE_COT, STAGE_JUDGE

PROMPT = PromptPair(system="sys", user="usr", format_instructions="fmt")
PARAMS = CompletionParams(model_id="m1", temperature=0.0, seed=7)
CTX = CallContext(stage=STAGE_COT, question_id="q1")
KEY = cache_key(PROMPT, PARAMS)


class TestScriptedBackend:
    def test_replays_matching_entry(self):
        backend = ScriptedBackend([entry(STAGE_COT, "q1", "hello", latency_ms=250)])
        result = backend.call(PROMPT, PARAMS, CTX)
        assert result.text == "hello"
        assert (result.prompt_tokens, result.completion_tokens) == (100, 50)
        assert result.latency_s == pytest.approx(0.25)
        assert result.from_cache is False

    def test_same_match_forms_a_queue(self):
        backend = ScriptedBackend(
            [entry(STAGE_COT, "q1", "first"), entry(STAGE_COT, "q1", "second")]
        )
        assert backend.call(PROMPT, PARAMS, CTX).text == "first"
        assert backend.call(PROMPT, PARAMS, CTX).text == "second"
        assert remaining(backend) == 0

    def test_specific_entry_never_matches_generic_context(self):
        backend = ScriptedBackend([entry(STAGE_COT, "q1", "x", step_index=2)])
        with pytest.raises(ScriptExhausted):
            backend.call(PROMPT, PARAMS, CTX)

    def test_generic_entry_matches_specific_context(self):
        backend = ScriptedBackend([entry(STAGE_COT, "q1", "x")])
        ctx = CallContext(stage=STAGE_COT, question_id="q1", step_index=3, agent_id=1, round=2)
        assert backend.call(PROMPT, PARAMS, ctx).text == "x"

    def test_wrong_stage_or_question_is_exhausted(self):
        backend = ScriptedBackend([entry(STAGE_JUDGE, "q1", "x"), entry(STAGE_COT, "q2", "y")])
        with pytest.raises(ScriptExhausted) as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert "stage='cot'" in str(err.value)
        assert "question_id='q1'" in str(err.value)

    def test_file_order_wins_over_declaration_specificity(self):
        # the first unconsumed matching entry is used even if a later one
        # matches more keys
        generic = entry(STAGE_COT, "q1", "generic")
        specific = entry(STAGE_COT, "q1", "specific", step_index=3)
        backend = ScriptedBackend([generic, specific])
        ctx = CallContext(stage=STAGE_COT, question_id="q1", step_index=3)
        assert backend.call(PROMPT, PARAMS, ctx).text == "generic"

    def test_samples_are_dealt_by_index_whatever_the_arrival_order(self):
        backend = ScriptedBackend(
            [entry(STAGE_COT, "q1", f"sample {k}") for k in range(3)]
            + [entry(STAGE_COT, "q1", "elsewhere", step_index=1), entry(STAGE_COT, "q1", "retry")]
        )
        texts = {
            k: backend.call(PROMPT, PARAMS, CallContext(STAGE_COT, "q1", sample_index=k)).text
            for k in (3, 1, 0, 2)
        }
        assert texts == {0: "sample 0", 1: "sample 1", 2: "sample 2", 3: "retry"}
        with pytest.raises(ScriptExhausted, match="sample_index=1"):
            backend.call(PROMPT, PARAMS, CallContext(STAGE_COT, "q1", sample_index=1))
        assert remaining(backend) == 1

    def test_from_file(self, tmp_path):
        path = write_script(tmp_path / "s.jsonl", [entry(STAGE_COT, "q1", "from disk")])
        backend = ScriptedBackend.from_file(path)
        assert backend.call(PROMPT, PARAMS, CTX).text == "from disk"

    def test_from_file_bad_json_names_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"match": {"stage": "cot", "question_id": "q1"}, "response": "a", "usage": {}}\n{oops\n')
        with pytest.raises(ScriptFormatError, match="line 2"):
            ScriptedBackend.from_file(path)

    def test_a_schema_error_names_the_file_and_its_line(self, tmp_path):
        good = entry(STAGE_COT, "q1", "a")
        path = tmp_path / "s.jsonl"
        path.write_text(f"\n{json.dumps(good)}\n\n{json.dumps(dict(good, response=7))}\n")
        with pytest.raises(ScriptFormatError) as raised:
            ScriptedBackend.from_file(path)
        assert str(raised.value) == f"script {path} line 4: response must be a string, got 7"

    @pytest.mark.parametrize("second,third", [("schema", "json"), ("json", "schema")])
    def test_the_first_bad_line_in_file_order_is_the_error(self, tmp_path, second, third):
        good = entry(STAGE_COT, "q1", "a")
        bad = {"schema": json.dumps(dict(good, usage=3)), "json": "{oops"}
        path = tmp_path / "s.jsonl"
        path.write_text(f"{json.dumps(good)}\n{bad[second]}\n{bad[third]}\n")
        expected = {"schema": "usage must be an object", "json": "invalid JSON"}[second]
        with pytest.raises(ScriptFormatError, match=f"line 2: {expected}"):
            ScriptedBackend.from_file(path)

    def test_a_result_is_built_when_its_entry_is_served_and_as_its_line_says(self, tmp_path, monkeypatch):
        questions, entries = rerailer_fixture(1, 1, 1)
        for number, raw in enumerate(entries):
            raw["usage"] = {"prompt_tokens": 300 + number, "completion_tokens": number}
            raw["latency_ms"] = number * 0.7
        # the result each line stood for when the whole script was built at load
        expected = Counter(
            CompletionResult(raw["response"], number + 300, number, raw["latency_ms"] / 1000.0)
            for number, raw in enumerate(entries)
        )
        built = []

        def counted(*args, **kwargs):
            built.append(CompletionResult(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(gateway_module, "CompletionResult", counted)
        backend = ScriptedBackend.from_file(write_script(tmp_path / "s.jsonl", entries))
        assert built == []
        served, lock = [], threading.Lock()

        class Served:
            def call(self, prompt, params, context):
                with lock:  # a question's samples are served on several threads
                    result = backend.call(prompt, params, context)
                    served.append(result)
                    assert built == served  # one result per entry served, none before
                return result

        harness.run(questions, make_settings(), "rerailer", tmp_path / "run", Gateway(Served()))
        assert remaining(backend) == 0
        assert Counter(served) == expected and not any(result.from_cache for result in served)

    def test_entries_may_come_from_any_iterable(self):
        backend = ScriptedBackend(entry(STAGE_COT, "q1", text) for text in ("a", "b"))
        assert [backend.call(PROMPT, PARAMS, CTX).text for _ in range(2)] == ["a", "b"]

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"response": "x", "usage": {}}, "match"),
            ({"match": {"stage": "cot", "question_id": "q"}, "usage": {}}, "response"),
            ({"match": {"stage": "cot"}, "response": "x", "usage": {}}, "question_id"),
            (
                {"match": {"stage": "cot", "question_id": "q", "mood": "?"},
                 "response": "x", "usage": {}},
                "mood",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {}, "notes": "hm"},
                "notes",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": 3},
                "usage",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {"prompt_tokens": "abc"}},
                "abc",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {"prompt_tokens": -5}},
                "non-negative",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {}, "latency_ms": "slow"},
                "slow",
            ),
            ({"match": {"stage": "cot", "question_id": ["q"]}, "response": "x", "usage": {}}, "strings"),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {}, "latency_ms": -5000},
                "-5000",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {"prompt_tokens": 1.9}},
                "1.9",
            ),
            (
                {"match": {"stage": "cot", "question_id": "q"}, "response": "x",
                 "usage": {"completion_tokens": True}},
                "True",
            ),
            # a response is served as its text, never as the str() of a value
            ({"match": {"stage": "cot", "question_id": "q"}, "response": None, "usage": {}}, "None"),
            ({"match": {"stage": "cot", "question_id": "q"}, "response": {"a": 1}, "usage": {}}, "'a': 1"),
            ({"match": {"stage": "cot", "question_id": "q"}, "response": 7, "usage": {}}, "string, got 7"),
            # a match value that can never match, or matches as another type
            ({"match": {"stage": "cot", "question_id": "q", "step_index": True}, "response": "x", "usage": {}},
             "step_index must be an integer >= 1, got True"),
            ({"match": {"stage": "cot", "question_id": "q", "agent_id": 1.0}, "response": "x", "usage": {}},
             "agent_id must be an integer >= 1, got 1.0"),
            ({"match": {"stage": "cot", "question_id": "q", "round": "1"}, "response": "x", "usage": {}},
             "round must be an integer >= 1, got '1'"),
            ({"match": {"stage": "cot", "question_id": "q", "step_index": -3}, "response": "x", "usage": {}},
             "step_index must be an integer >= 1, got -3"),
            # null is not "any": an entry that sets a key must give it a value
            ({"match": {"stage": "cot", "question_id": "q", "round": None}, "response": "x", "usage": {}},
             "round must be an integer >= 1, got None"),
        ],
    )
    def test_entry_schema_enforced(self, raw, fragment):
        with pytest.raises(ScriptFormatError, match=fragment):
            ScriptedBackend([raw])

    def test_call_time_does_not_grow_with_the_script(self):
        # Each call looks only at the entries of its own (stage, question_id),
        # so serving the last 20 questions costs the same per call whether the
        # script holds 20 questions or 2,000.
        def per_call_s(n_questions: int) -> float:
            qids = [f"q{i}" for i in range(n_questions)]
            entries = [entry(STAGE_COT, qid, "x") for qid in qids for _ in range(5)]
            best = float("inf")
            for _ in range(5):
                backend = ScriptedBackend(entries)
                contexts = [CallContext(STAGE_COT, qid) for qid in qids[-20:] for _ in range(5)]
                start = time.perf_counter()
                for ctx in contexts:
                    backend.call(PROMPT, PARAMS, ctx)
                best = min(best, (time.perf_counter() - start) / len(contexts))
            return best

        assert per_call_s(2000) < 3 * per_call_s(20)


class TestCache:
    def test_cache_requires_directory(self):
        with pytest.raises(ValueError, match="cache_dir"):
            Gateway(ScriptedBackend([]), cache_enabled=True)

    def test_second_identical_call_is_served_from_cache(self, tmp_path):
        backend = ScriptedBackend(
            [entry(STAGE_COT, "q1", "cached answer", latency_ms=300),
             entry(STAGE_COT, "q1", "never used")]
        )
        gw = Gateway(backend, cache_dir=tmp_path, cache_enabled=True)
        with gw.run_scope(), gw.recording("q1") as ledger:
            first = gw.complete(PROMPT, PARAMS, CTX)
            second = gw.complete(PROMPT, PARAMS, CTX)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.text == "cached answer"
        assert remaining(backend) == 1

        row = ledger.question_usage()[STAGE_COT]
        assert (row["live_calls"], row["cached_calls"]) == (1, 1)
        assert row["prompt_tokens"] == 200
        assert row["billed_prompt_tokens"] == 100  # cache hits are free
        assert row["wall_time_s"] == pytest.approx(0.3)  # cached latency is zero

    def test_cache_persists_across_gateways(self, tmp_path):
        gw1 = Gateway(
            ScriptedBackend([entry(STAGE_COT, "q1", "persisted")]),
            cache_dir=tmp_path,
            cache_enabled=True,
        )
        with gw1.run_scope():
            gw1.complete(PROMPT, PARAMS, CTX)
        gw2 = Gateway(ScriptedBackend([]), cache_dir=tmp_path, cache_enabled=True)
        with gw2.run_scope():
            replayed = gw2.complete(PROMPT, PARAMS, CTX)
        assert replayed.text == "persisted"
        assert replayed.from_cache is True

    def test_different_params_miss_the_cache(self, tmp_path):
        backend = ScriptedBackend(
            [entry(STAGE_COT, "q1", "a"), entry(STAGE_COT, "q1", "b")]
        )
        gw = Gateway(backend, cache_dir=tmp_path, cache_enabled=True)
        with gw.run_scope():
            gw.complete(PROMPT, PARAMS, CTX)
            other = CompletionParams(model_id="m1", temperature=0.0, seed=8)
            assert gw.complete(PROMPT, other, CTX).text == "b"
        assert remaining(backend) == 0

    @pytest.mark.parametrize(
        "stored",
        [
            pytest.param(line, id=name)
            for name, line in [
                ("{oops", "{oops"),
                ("[]", "[]"),
                ("{}", json.dumps({"key": KEY})),
                (
                    '{"text": "x", "usage": {"tokens": 1}}',
                    json.dumps({"key": KEY, "text": "x", "usage": {"tokens": 1}}),
                ),
                (
                    '"prompt_tokens": 1.5',
                    json.dumps({"key": KEY, "text": "x", "usage": {"prompt_tokens": 1.5, "completion_tokens": 1}}),
                ),
                (
                    '"completion_tokens": true',
                    json.dumps({"key": KEY, "text": "x", "usage": {"prompt_tokens": 1, "completion_tokens": True}}),
                ),
            ]
        ],
    )
    def test_unreadable_cache_file_is_a_miss(self, tmp_path, stored):
        other = CompletionParams(model_id="m1", temperature=0.0, seed=8)
        kept = {"key": cache_key(PROMPT, other), "text": "kept", "usage": {"prompt_tokens": 1, "completion_tokens": 2}}
        (tmp_path / "completions.jsonl").write_text(stored + "\n" + json.dumps(kept) + "\n")
        gw = Gateway(ScriptedBackend([entry(STAGE_COT, "q1", "fresh")]), cache_dir=tmp_path, cache_enabled=True)
        with gw.run_scope():
            result = gw.complete(PROMPT, PARAMS, CTX)
            assert gw.complete(PROMPT, other, CTX) == CompletionResult("kept", 1, 2, 0.0, from_cache=True)
        assert (result.text, result.from_cache) == ("fresh", False)

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        def gateway(*texts):
            backend = ScriptedBackend([entry(STAGE_COT, "q1", text) for text in texts])
            return Gateway(backend, cache_dir=tmp_path, cache_enabled=True)

        first = gateway("first")
        with first.run_scope():
            first.complete(PROMPT, PARAMS, CTX)
        stream = tmp_path / "completions.jsonl"
        stream.write_bytes(stream.read_bytes() + b'{"key": "torn')
        other = CompletionParams(model_id="m1", temperature=0.0, seed=8)
        second = gateway("second")
        with second.run_scope():
            assert second.complete(PROMPT, other, CTX).from_cache is False
        fresh = gateway()
        with fresh.run_scope():
            assert fresh.complete(PROMPT, other, CTX).text == "second"
            assert fresh.complete(PROMPT, PARAMS, CTX).text == "first"
        assert [json.loads(line)["text"] for line in stream.read_text().splitlines()] == ["first", "second"]

    def test_cache_is_read_when_the_run_scope_opens(self, tmp_path):
        gw = Gateway(ScriptedBackend([]), cache_dir=tmp_path / "cache", cache_enabled=True)
        assert not (tmp_path / "cache").exists()
        (tmp_path / "cache").mkdir()
        line = {"key": KEY, "text": "written after the constructor", "usage": {}}
        (tmp_path / "cache" / "completions.jsonl").write_text(json.dumps(line) + "\n")
        with gw.run_scope():
            assert gw.complete(PROMPT, PARAMS, CTX).text == "written after the constructor"

    @pytest.mark.parametrize(
        "usage,counts",
        [
            ({}, (0, 0)),
            ({"prompt_tokens": 3}, (3, 0)),
            ({"completion_tokens": 2}, (0, 2)),
            ({"prompt_tokens": 3, "completion_tokens": 2}, (3, 2)),
            ({"prompt_tokens": 3, "completion_tokens": 2, "cost": 0}, None),
            ({"prompt_tokens": -1}, None),
            ({"prompt_tokens": 3.0}, None),
            ([], None),
            ([["prompt_tokens", 3]], None),
            (None, None),
            (7, None),
        ],
    )
    def test_a_cache_line_hits_as_its_usage_says(self, tmp_path, usage, counts):
        # a count the line leaves out is 0; another key, or a usage that is
        # not an object, makes the line a miss
        (tmp_path / "completions.jsonl").write_text(json.dumps({"key": KEY, "text": "cached", "usage": usage}) + "\n")
        gw = Gateway(ScriptedBackend([entry(STAGE_COT, "q1", "fresh")]), cache_dir=tmp_path, cache_enabled=True)
        with gw.run_scope():
            result = gw.complete(PROMPT, PARAMS, CTX)
        if counts is None:
            assert (result.text, result.from_cache) == ("fresh", False)
        else:
            assert result == CompletionResult("cached", *counts, 0.0, from_cache=True)

    def test_cache_on_completion_outside_a_run_scope_raises(self, tmp_path):
        gw = Gateway(ScriptedBackend([entry(STAGE_COT, "q1", "a")]), cache_dir=tmp_path / "cache", cache_enabled=True)
        with pytest.raises(RuntimeError, match="run_scope"):
            gw.complete(PROMPT, PARAMS, CTX)
        assert not (tmp_path / "cache").exists()
        with gw.run_scope():
            gw.complete(PROMPT, PARAMS, CTX)
        with pytest.raises(RuntimeError, match="run_scope"):  # a hit inside the scope
            gw.complete(PROMPT, PARAMS, CTX)

    def test_concurrent_completions_each_keep_their_line(self, tmp_path):
        class Echo:
            def call(self, prompt, params, context):
                return CompletionResult(prompt.user, 1, 1, 0.0)

        prompts = [PromptPair("sys", f"user {i}", "fmt") for i in range(100)]
        gw = Gateway(Echo(), cache_dir=tmp_path, cache_enabled=True)

        def complete(index, prompt):
            # the key does not cover the question id, so the two completions
            # of a prompt still race on one key
            with gw.recording(f"q{index}") as ledger:
                return gw.complete(prompt, PARAMS, CallContext(STAGE_COT, f"q{index}")).text, ledger

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with gw.run_scope(), ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(complete, index, prompt) for index, prompt in enumerate(prompts * 2)]
                texts, ledgers = zip(*(future.result(timeout=30) for future in futures))
        finally:
            sys.setswitchinterval(interval)
        assert list(texts) == [prompt.user for prompt in prompts * 2]
        assert all(question_calls(ledger) == 1 for ledger in ledgers)
        row = ledger_totals(*ledgers)
        assert row["live_calls"] >= len(prompts) and row["live_calls"] + row["cached_calls"] == 2 * len(prompts)
        lines = [json.loads(line) for line in (tmp_path / "completions.jsonl").read_text().splitlines()]
        assert len(lines) == row["live_calls"]
        fresh = Gateway(ScriptedBackend([]), cache_dir=tmp_path, cache_enabled=True)
        with fresh.run_scope():
            assert [fresh.complete(prompt, PARAMS, CTX).text for prompt in prompts] == [p.user for p in prompts]

    def test_cache_off_computes_no_key(self, tmp_path, monkeypatch):
        def no_key(prompt, params):
            raise AssertionError("cache_key called with the cache off")

        monkeypatch.setattr("rerail.gateway.cache_key", no_key)
        gw = Gateway(ScriptedBackend([entry(STAGE_COT, "q1", "a")]), cache_dir=tmp_path)
        assert gw.complete(PROMPT, PARAMS, CTX).text == "a"

    def test_cache_disabled_by_default(self, tmp_path):
        backend = ScriptedBackend(
            [entry(STAGE_COT, "q1", "a"), entry(STAGE_COT, "q1", "b")]
        )
        gw = Gateway(backend, cache_dir=tmp_path)
        gw.complete(PROMPT, PARAMS, CTX)
        assert gw.complete(PROMPT, PARAMS, CTX).text == "b"


# Quotes, backslashes, control characters, non-ASCII and lone surrogates,
# each escaped differently, among any other character.
KEY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n/\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=30,
)


def reference_cache_key(prompt: PromptPair, params: CompletionParams) -> str:
    """sha256 of the key material encoded whole, as one sorted-key JSON object."""
    material = jsonl.SORTED_KEYS.encode(
        {
            "model_id": params.model_id,
            "temperature": repr(params.temperature),
            "seed": params.seed,
            "system": prompt.system,
            "user": prompt.user,
            "format_instructions": prompt.format_instructions,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class TestCacheKey:
    def test_sensitive_to_every_input(self):
        base = cache_key(PROMPT, PARAMS)
        assert cache_key(PROMPT, CompletionParams("m2", 0.0, 7)) != base
        assert cache_key(PROMPT, CompletionParams("m1", 0.5, 7)) != base
        assert cache_key(PROMPT, CompletionParams("m1", 0.0, 8)) != base
        assert cache_key(PromptPair("SYS", "usr", "fmt"), PARAMS) != base
        assert cache_key(PromptPair("sys", "USR", "fmt"), PARAMS) != base
        assert cache_key(PromptPair("sys", "usr", "FMT"), PARAMS) != base

    def test_stable_for_equal_inputs(self):
        again = cache_key(
            PromptPair(system="sys", user="usr", format_instructions="fmt"),
            CompletionParams(model_id="m1", temperature=0.0, seed=7),
        )
        assert again == cache_key(PROMPT, PARAMS)

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_distinct_users_rarely_collide(self, user_a, user_b):
        key_a = cache_key(PromptPair("s", user_a, ""), PARAMS)
        key_b = cache_key(PromptPair("s", user_b, ""), PARAMS)
        assert (key_a == key_b) == (user_a == user_b)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        texts=st.tuples(KEY_TEXT, KEY_TEXT, KEY_TEXT),
        params=st.lists(
            st.builds(
                CompletionParams,
                KEY_TEXT,
                st.floats(min_value=0, allow_nan=False, allow_infinity=False),
                st.integers(0, 2**48 + 40),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_is_the_hash_of_the_sorted_key_object(self, texts, params):
        before = len(gateway_module._PROMPT_PARTS)
        prompt = PromptPair(*texts)
        shared = [cache_key(prompt, p) for p in params]
        del prompt  # it holds no cycle, so it is freed here with its memo entry
        assert len(gateway_module._PROMPT_PARTS) == before
        assert shared == [cache_key(PromptPair(*texts), p) for p in params]
        assert shared == [reference_cache_key(PromptPair(*texts), p) for p in params]

    def test_a_prompt_is_escaped_once_and_forgotten_with_it(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(gateway_module, "_escape", lambda text: escaped.append(text) or json.dumps(text))
        before = len(gateway_module._PROMPT_PARTS)
        prompt = PromptPair("memo system", "memo user", "memo format")
        for seed in range(5):
            assert cache_key(prompt, CompletionParams("m1", 0.5, seed)) == reference_cache_key(
                prompt, CompletionParams("m1", 0.5, seed)
            )
        assert sorted(text for text in escaped if text.startswith("memo")) == sorted(vars(prompt).values())
        assert len(gateway_module._PROMPT_PARTS) == before + 1
        del prompt
        gc.collect()
        assert len(gateway_module._PROMPT_PARTS) == before



class TestRetry:
    def gateway(self, backend):
        sleeps = []
        return Gateway(backend, sleeper=sleeps.append), sleeps

    def test_retriable_failures_back_off_exponentially(self):
        backend = FlakyBackend([ProviderError("hiccup", retriable=True)] * 2)
        gw, sleeps = self.gateway(backend)
        result = gw.complete(PROMPT, PARAMS, CTX)
        assert result.text == "ok"
        assert backend.attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_gives_up_after_max_attempts(self):
        backend = FlakyBackend([ProviderError("down", retriable=True)] * RETRY_MAX_ATTEMPTS)
        gw, sleeps = self.gateway(backend)
        with pytest.raises(ProviderError, match="down"):
            gw.complete(PROMPT, PARAMS, CTX)
        assert backend.attempts == RETRY_MAX_ATTEMPTS
        assert sleeps == [1.0, 2.0, 4.0, 8.0]
        assert sum(sleeps) <= 31.0  # bounded total backoff

    def test_non_retriable_fails_immediately(self):
        backend = FlakyBackend([ProviderError("bad request", retriable=False)])
        gw, sleeps = self.gateway(backend)
        with pytest.raises(ProviderError, match="bad request"):
            gw.complete(PROMPT, PARAMS, CTX)
        assert backend.attempts == 1
        assert sleeps == []

    def test_timeouts_are_retriable(self):
        backend = FlakyBackend([CompletionTimeout("slow")])
        gw, sleeps = self.gateway(backend)
        assert gw.complete(PROMPT, PARAMS, CTX).text == "ok"
        assert backend.attempts == 2
        assert sleeps == [1.0]

    def test_a_provider_asked_wait_replaces_the_backoff_capped(self):
        failures = [ProviderError(f"failure {n}", retriable=True) for n in range(3)]
        failures[0].retry_after_s, failures[2].retry_after_s = 3.0, 1e9
        gw, sleeps = self.gateway(FlakyBackend(failures))
        assert gw.complete(PROMPT, PARAMS, CTX).text == "ok"
        assert sleeps == [3.0, 2.0, RETRY_AFTER_MAX_S]


class _GaugeBackend:
    """Counts concurrent calls so throttling is observable."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def call(self, prompt, params, context):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.005)
        with self._lock:
            self.active -= 1
        return CompletionResult("ok", 1, 1, 0.001)


class TestThrottles:
    def test_max_in_flight_bounds_concurrency(self):
        backend = _GaugeBackend()
        gw = Gateway(backend, max_in_flight=3)
        threads = [
            threading.Thread(target=gw.complete, args=(PROMPT, PARAMS, CTX))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert 1 <= backend.peak <= 3

    def test_requests_per_minute_sleeps_before_excess_calls(self):
        sleeps = []
        backend = ScriptedBackend([entry(STAGE_COT, "q1", "x") for _ in range(3)])
        gw = Gateway(backend, requests_per_minute=2, sleeper=sleeps.append)
        for _ in range(3):
            gw.complete(PROMPT, PARAMS, CTX)
        assert len(sleeps) == 1
        assert 59.0 < sleeps[0] <= 60.0


class TestUsageLedger:
    def result(self, prompt_tokens, completion_tokens, latency_s, cached=False):
        return CompletionResult(
            text="x",
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_s=latency_s,
            from_cache=cached,
        )

    def test_accumulates_per_stage_in_stage_order(self):
        ledger = UsageLedger()
        ledger.calls.append((STAGE_JUDGE, self.result(10, 5, 0.1)))
        ledger.calls.append((STAGE_COT, self.result(100, 50, 0.2)))
        ledger.calls.append((STAGE_COT, self.result(200, 70, 0.3)))

        usage = ledger.question_usage()
        assert list(usage) == [STAGE_COT, STAGE_JUDGE]
        row = usage[STAGE_COT]
        assert row["prompt_tokens"] == 300
        assert row["completion_tokens"] == 120
        assert row["live_calls"] + row["cached_calls"] == 2
        assert row["wall_time_s"] == 0.2 + 0.3
        assert question_calls(ledger) == 3
        assert question_calls(ledger, STAGE_JUDGE) == 1

    def test_rows_do_not_depend_on_the_order_calls_were_recorded_in(self):
        # the calls of a fan-out record in completion order
        results = [
            (STAGE_COT, self.result(10 * k, k, ms / 1000.0, cached=k == 2)) for k, ms in enumerate(LATENCIES_MS)
        ]
        results.append((STAGE_JUDGE, self.result(5, 5, 0.3)))
        rows = []
        for order in itertools.permutations(results):
            ledger = UsageLedger()
            ledger.calls.extend(order)
            rows.append(ledger.question_usage())
        assert all(row == rows[0] for row in rows)
        assert rows[0][STAGE_COT]["wall_time_s"] == 1.3004

    def test_unknown_question_has_no_usage(self):
        ledger = UsageLedger()
        assert ledger.question_usage() == {}
        assert question_calls(ledger) == 0

    def test_totals_merge_all_rows(self):
        ledger = UsageLedger()
        ledger.calls.append((STAGE_COT, self.result(100, 50, 0.2)))
        ledger.calls.append((STAGE_JUDGE, self.result(50, 25, 0.1, cached=True)))
        total = ledger_totals(ledger)
        assert total["live_calls"] == 1
        assert total["cached_calls"] == 1
        assert total["prompt_tokens"] == 150
        assert total["billed_prompt_tokens"] == 100
        assert total["billed_completion_tokens"] == 50

    def test_a_completion_records_into_the_ledger_its_context_names(self):
        gw = Gateway(ScriptedBackend([entry(STAGE_COT, "q1", "a"), entry(STAGE_COT, "q2", "b")]))
        with gw.recording("q1") as first, gw.recording("q2") as second:
            # a bare thread that opened no ledger
            thread = threading.Thread(target=gw.complete, args=(PROMPT, PARAMS, CTX))
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()
        gw.complete(PROMPT, PARAMS, CallContext(STAGE_COT, "q2"))  # no ledger open for q2
        assert [(stage, result.text) for stage, result in first.calls] == [(STAGE_COT, "a")]
        assert second.calls == []


class TestParseStructuredOutput:
    def test_plain_fence(self):
        assert parse_structured_output('```json\n{"answer": "B"}\n```') == {"answer": "B"}

    def test_untagged_fence(self):
        assert parse_structured_output('```\n{"a": "1"}\n```') == {"a": "1"}

    def test_surrounding_chatter_is_ignored(self):
        text = 'Sure! Here you go:\n```json\n{"a": "1"}\n```\nhope that helps'
        assert parse_structured_output(text) == {"a": "1"}

    def test_first_fence_wins(self):
        text = '```json\n{"pick": "me"}\n```\n```json\n{"pick": "not me"}\n```'
        assert parse_structured_output(text) == {"pick": "me"}

    def test_no_fence(self):
        with pytest.raises(MalformedReply, match="no triple-backtick fence"):
            parse_structured_output('{"a": "1"}')

    def test_malformed_json(self):
        with pytest.raises(MalformedReply, match="fenced block is not valid JSON"):
            parse_structured_output("```json\nnot json at all\n```")

    def test_non_object_json(self):
        with pytest.raises(MalformedReply, match="fenced JSON is not an object"):
            parse_structured_output("```json\n[1, 2]\n```")

    @pytest.mark.parametrize("body", [DEEP_JSON, f'{{"answer": {DEEP_JSON}}}'], ids=["array", "in-an-object"])
    def test_json_nested_too_deeply(self, body):
        with pytest.raises(MalformedReply, match="nested too deeply"):
            parse_structured_output(f"```json\n{body}\n```")

    def test_non_string_values_are_stringified_compactly(self):
        text = '```json\n{"n": 3, "flag": true, "obj": {"b": 1, "a": 2}, "arr": [1, 2]}\n```'
        assert parse_structured_output(text) == {
            "n": "3",
            "flag": "true",
            "obj": '{"a":2,"b":1}',
            "arr": "[1,2]",
        }

    @given(
        st.dictionaries(
            keys=st.text(
                alphabet=st.characters(blacklist_characters="`", blacklist_categories=("Cs",)),
                min_size=1,
                max_size=10,
            ),
            values=st.text(
                alphabet=st.characters(blacklist_characters="`", blacklist_categories=("Cs",)),
                max_size=30,
            ),
            max_size=5,
        )
    )
    def test_round_trips_serialize_then_parse(self, mapping):
        assert parse_structured_output(serialize_structured(mapping)) == mapping


class TestCompleteStructured:
    def recording_gateway(self, entries, **kwargs):
        backend = RecordingBackend(ScriptedBackend(entries))
        return RecordingGateway(backend, **kwargs), backend

    def test_clean_response_needs_one_call(self):
        gw, backend = self.recording_gateway([entry(STAGE_COT, "q1", fenced(answer="B"))])
        assert complete_structured(gw, PROMPT, PARAMS, CTX, dict) == {"answer": "B"}
        assert len(backend.calls) == 1
        assert backend.calls[0][0].seed == 7

    def test_reask_appends_reminder_and_shifts_seed(self):
        gw, backend = self.recording_gateway(
            [entry(STAGE_COT, "q1", "no fence here"),
             entry(STAGE_COT, "q1", fenced(answer="B"))]
        )
        assert complete_structured(gw, PROMPT, PARAMS, CTX, dict) == {"answer": "B"}
        assert len(backend.calls) == 2
        assert backend.calls[1][0].seed == 8
        first_prompt = gw.records[0][1]
        retry_prompt = gw.records[1][1]
        assert retry_prompt.user == f"{first_prompt.user}\n{REASK_REMINDER}"
        assert retry_prompt.system == first_prompt.system

    def test_json_nested_too_deeply_spends_the_reask_then_fails_open(self):
        deep = f"```json\n{DEEP_JSON}\n```"
        gw, _ = self.recording_gateway([entry(STAGE_COT, "q1", deep), entry(STAGE_COT, "q1", fenced(answer="B"))])
        assert complete_structured(gw, PROMPT, PARAMS, CTX, dict) == {"answer": "B"}
        gw, backend = self.recording_gateway([entry(STAGE_COT, "q1", deep), entry(STAGE_COT, "q1", deep)])
        assert complete_structured(gw, PROMPT, PARAMS, CTX, dict) is None
        assert len(backend.calls) == 2

    def test_two_failures_give_none(self):
        gw, backend = self.recording_gateway(
            [entry(STAGE_COT, "q1", "junk"), entry(STAGE_COT, "q1", "more junk")]
        )
        assert complete_structured(gw, PROMPT, PARAMS, CTX, dict) is None
        assert len(backend.calls) == 2

    def test_semantic_rejection_spends_the_same_reask(self):
        def read(mapping):
            if mapping["selected"] not in {"1", "2", "3"}:
                raise ValueError("selection out of range")
            return mapping

        gw, backend = self.recording_gateway(
            [entry(STAGE_JUDGE, "q1", judge_selects(5)),
             entry(STAGE_JUDGE, "q1", judge_selects(2))]
        )
        ctx = CallContext(stage=STAGE_JUDGE, question_id="q1")
        result = complete_structured(gw, PROMPT, PARAMS, ctx, read)
        assert result["selected"] == "2"
        assert len(backend.calls) == 2

    def test_semantic_rejection_twice_gives_none(self):
        def read(mapping):
            raise ValueError("never acceptable")

        gw, _ = self.recording_gateway(
            [entry(STAGE_JUDGE, "q1", judge_selects(5)),
             entry(STAGE_JUDGE, "q1", judge_selects(5))]
        )
        ctx = CallContext(stage=STAGE_JUDGE, question_id="q1")
        assert complete_structured(gw, PROMPT, PARAMS, ctx, read) is None


GOOD_BODY = chat_reply("plain completion", prompt_tokens=12, completion_tokens=7)


def answer(body) -> Fault:
    """A 200 reply with ``body`` as JSON."""
    return Fault(body=json.dumps(body).encode())


class TestLiveBackend:
    ENV = "RERAIL_TEST_KEY"

    @pytest.fixture
    def live(self, monkeypatch):
        """live(*faults, timeout_s=9.0): a LiveBackend and the loopback
        provider it calls, which sends the faults in turn; both closed when
        the test ends."""
        monkeypatch.setenv(self.ENV, "sk-test")
        with ExitStack() as held:
            def make(*faults, timeout_s=9.0):
                provider = held.enter_context(LoopbackProvider(faults=dict(enumerate(faults, start=1))))
                backend = LiveBackend(provider.url, self.ENV, timeout_s=timeout_s)
                held.callback(close_connections, backend)
                return backend, provider

            yield make

    def test_missing_key_is_fatal_and_names_the_variable(self, monkeypatch):
        monkeypatch.delenv(self.ENV, raising=False)
        with pytest.raises(ProviderError, match=self.ENV) as err:
            LiveBackend("https://example.invalid", self.ENV, timeout_s=9.0)
        assert err.value.retriable is False

    def test_the_timeout_has_no_default_of_its_own(self, monkeypatch):
        # the run's timeout_s, from RunSettings, is the one default
        monkeypatch.setenv(self.ENV, "sk-test")
        with pytest.raises(TypeError, match="timeout_s"):
            LiveBackend("http://127.0.0.1:9/v1/chat", self.ENV)

    def test_payload_shape_and_headers(self, live):
        backend, provider = live(answer(GOOD_BODY))
        params = CompletionParams(model_id="m1", temperature=0.25, seed=5)
        result = backend.call(PROMPT, params, CTX)
        assert result.text == "plain completion"
        assert (result.prompt_tokens, result.completion_tokens) == (12, 7)

        [(path, headers, payload)] = provider.requests
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert headers["Content-Type"] == "application/json"
        assert payload["model"] == "m1"
        assert payload["temperature"] == 0.25
        assert payload["seed"] == 5
        assert payload["messages"][0] == {"role": "system", "content": "sys"}
        # format instructions ride along in the user message
        assert payload["messages"][1] == {"role": "user", "content": "usr\n\nfmt"}

    @pytest.mark.parametrize(
        "status,retriable", [(429, True), (500, True), (503, True), (400, False), (404, False), (302, False)]
    )
    def test_http_status_mapping(self, live, status, retriable):
        backend, _ = live(Fault(status=status))
        with pytest.raises(ProviderError) as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is retriable
        assert str(status) in str(err.value)

    def test_malformed_body_is_fatal(self, live):
        backend, _ = live(Fault(body=b"not json"))
        with pytest.raises(ProviderError, match="malformed") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

    def test_body_that_is_not_utf8_is_fatal(self, live):
        # a byte of another encoding inside a string is not replaced
        body = json.dumps(GOOD_BODY, ensure_ascii=False).replace("plain", "pl\u00e4in").encode("latin-1")
        backend, _ = live(Fault(body=body))
        with pytest.raises(ProviderError, match="not UTF-8") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

    def test_missing_choices_is_fatal(self, live):
        backend, _ = live(answer({"usage": {}}))
        with pytest.raises(ProviderError, match="malformed"):
            backend.call(PROMPT, PARAMS, CTX)

    def test_socket_timeout_maps_to_completion_timeout(self, live):
        backend, _ = live(Fault(body=b"{}", delay_s=0.5), timeout_s=0.1)
        with pytest.raises(CompletionTimeout) as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is True

    def test_connection_error_is_retriable(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "sk-test")
        with socket.socket() as probe:  # a port nothing listens on once it closes
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = LiveBackend(f"http://127.0.0.1:{port}/v1/chat", self.ENV, timeout_s=9.0)
        try:
            with pytest.raises(ProviderError) as err:
                backend.call(PROMPT, PARAMS, CTX)
        finally:
            close_connections(backend)
        assert err.value.retriable is True

    def test_malformed_usage_is_a_failed_question(self, live, tmp_path):
        body = {"choices": [{"message": {"content": "Answer: B"}}], "usage": {"prompt_tokens": "x"}}
        backend, _ = live(answer(body))
        with pytest.raises(ProviderError, match="usage") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

        backend, provider = live(answer(body))
        report = harness.run([mcqa_question()], make_settings(), "cot", tmp_path, Gateway(backend))
        assert report["counts"]["failed"] == 1
        assert len(provider.requests) == 1  # not retried
        [row] = harness.load_outcomes(tmp_path / harness.OUTCOMES_FILE)
        assert row["error"].startswith("ProviderError: malformed provider usage")

    @pytest.mark.parametrize(
        "usage", [{}, {"usage": {}}, {"usage": {"prompt_tokens": 3}}], ids=["no-usage", "empty-usage", "one-count"]
    )
    def test_a_reply_without_both_counts_is_not_billed_as_zero(self, live, usage):
        backend, _ = live(answer({"choices": [{"message": {"content": "x"}}], **usage}))
        with pytest.raises(ProviderError, match="malformed provider usage") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

    @pytest.mark.parametrize("count", [1.9, "7", True, -1])
    def test_token_counts_are_not_rounded_or_converted(self, live, count):
        body = {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": 3, "completion_tokens": count}}
        backend, _ = live(answer(body))
        with pytest.raises(ProviderError, match="malformed provider usage") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

    @pytest.mark.parametrize("content", [None, 7, ["Answer: B"]])
    def test_non_string_content_is_rejected(self, live, content):
        body = {"choices": [{"message": {"content": content}}], "usage": GOOD_BODY["usage"]}
        backend, _ = live(answer(body))
        with pytest.raises(ProviderError, match="content") as err:
            backend.call(PROMPT, PARAMS, CTX)
        assert err.value.retriable is False

    def test_null_content_fails_its_question_and_the_run_goes_on(self, live, tmp_path):
        null = {"choices": [{"message": {"content": None}}], "usage": GOOD_BODY["usage"]}
        good = {"choices": [{"message": {"content": "Step 1: pick.\nAnswer: B"}}], "usage": GOOD_BODY["usage"]}
        backend, provider = live(answer(null), answer(good))
        questions = [mcqa_question("q1"), mcqa_question("q2")]
        report = harness.run(questions, make_settings(), "cot", tmp_path, Gateway(backend))
        assert report["counts"]["failed"] == 1
        assert report["accuracy"]["overall"] == {"correct": 1, "total": 1, "accuracy": 1.0}
        assert len(provider.requests) == 2  # not retried
        rows = {row["question_id"]: row for row in harness.load_outcomes(tmp_path / harness.OUTCOMES_FILE)}
        assert rows["q1"]["error"].startswith("ProviderError: malformed provider response")
        assert rows["q2"]["error"] is None


def test_live_session_keeps_a_connection_per_call_in_flight(monkeypatch, tmp_path):
    # 16 calls in flight: 2 workers times a fan-out of 8 samples
    monkeypatch.setenv("RERAIL_TEST_KEY", "sk-test")
    # each reply waits, which keeps the calls of a wave in flight together
    with LoopbackProvider(every=Fault(body=json.dumps(GOOD_BODY).encode(), delay_s=0.02)) as provider:
        settings = make_settings(
            endpoint=provider.url,
            api_key_env="RERAIL_TEST_KEY",
            parallelism=2,
            n_samples=8,
            cache_enabled=False,  # a cache-on completion needs a run scope
        )
        gateway = harness.make_gateway(settings, "live", out_dir=tmp_path)
        try:
            ledgers = []
            for _ in range(2):
                barrier = threading.Barrier(16)

                def call(index):
                    barrier.wait(timeout=5)
                    with gateway.recording(f"q{index}") as ledger:
                        gateway.complete(PROMPT, PARAMS, CallContext(STAGE_COT, f"q{index}"))
                    ledgers.append(ledger)

                wave = [threading.Thread(target=call, args=(i,)) for i in range(16)]
                for thread in wave:
                    thread.start()
                for thread in wave:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in wave)
        finally:
            close_connections(gateway)
    assert len(ledgers) == 32 and all(question_calls(ledger) == 1 for ledger in ledgers)
    assert provider.connections <= 16

"""Fan-out of a question's independent calls: the same artifacts as the
inline path, overlapping calls, a bounded pool that ends with the run, and
errors that surface in call order."""

import json
import sys
import threading
import time
from functools import partial

import pytest

from helpers import (
    SleepingBackend,
    consistent_script,
    entry,
    fixable_script,
    mad_reask_script,
    make_settings,
    mcqa_question,
    sc_regen_script,
    unfixable_script,
)
from rerail import gateway as gateway_module, harness, jsonl
from rerail.gateway import CallContext, CompletionParams, Gateway, ScriptedBackend, cache_key
from rerail.prompts import PromptPair
from rerail.types import STAGE_COT

POOL_PREFIX = "rerail-fan-out"


SCENARIOS = {
    "rerailer": (
        {},
        {"c1": consistent_script, "f1": fixable_script, "u1": unfixable_script,
         "c2": consistent_script, "f2": fixable_script, "u2": unfixable_script},
    ),
    "sc": ({"sc_budget": 5}, {f"s{i}": sc_regen_script for i in range(6)}),
    "mad": ({}, {f"m{i}": mad_reask_script for i in range(4)}),
}


# Latencies whose float sum depends on the order they are added in, so a
# ledger that recorded calls out of order would change wall_time_s.
LATENCIES_MS = (100, 200, 300, 0.1, 700.3)


def run_scenario(tmp_path, mode, backend_of, name, gateway_class=Gateway):
    overrides, scripts = SCENARIOS[mode]
    questions = [mcqa_question(qid=qid) for qid in scripts]
    scripted = [e for qid, script in scripts.items() for e in script(qid)]
    entries = [dict(e, latency_ms=LATENCIES_MS[i % len(LATENCIES_MS)]) for i, e in enumerate(scripted)]
    backend = backend_of(ScriptedBackend(entries))
    out_dir = tmp_path / name
    gateway = gateway_class(backend, cache_dir=out_dir / "cache", cache_enabled=True)
    harness.run(questions, make_settings(parallelism=2, **overrides), mode, out_dir, gateway)
    return out_dir, backend


def sorted_lines(path):
    return sorted(path.read_text(encoding="utf-8").splitlines())


def cache_keys(out_dir):
    return {json.loads(line)["key"] for line in sorted_lines(out_dir / "cache" / "completions.jsonl")}


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_fan_out_writes_what_the_inline_path_writes(tmp_path, mode):
    inline_dir, _ = run_scenario(tmp_path, mode, lambda inner: inner, "inline")
    fanned_dir, sleeping = run_scenario(tmp_path, mode, SleepingBackend, "fanned")

    assert any(thread.startswith(POOL_PREFIX) for _, thread, _, _ in sleeping.spans)
    assert (fanned_dir / "report.json").read_bytes() == (inline_dir / "report.json").read_bytes()
    for name in ("outcomes.jsonl", "traces.jsonl"):
        assert sorted_lines(fanned_dir / name) == sorted_lines(inline_dir / name)
    inline_keys = cache_keys(inline_dir)
    assert inline_keys and cache_keys(fanned_dir) == inline_keys
    report = json.loads((inline_dir / "report.json").read_text())
    assert report["counts"]["failed"] == 0


def first_waves(sleeping) -> dict[str, list[tuple[float, float]]]:
    """The (start, end) of each question's five first samples."""
    waves: dict[str, list[tuple[float, float]]] = {}
    for context, _, start, end in sleeping.spans:
        if context.sample_index is not None and context.sample_index < 5:
            waves.setdefault(context.question_id, []).append((start, end))
    return waves


def test_samples_of_a_question_overlap_in_time(tmp_path):
    _, sleeping = run_scenario(tmp_path, "sc", lambda inner: SleepingBackend(inner, 0.02), "sc")
    by_question = first_waves(sleeping)
    # The first wave of each of the two workers runs its first sample
    # before the rest start; in the others every sample starts before any ends.
    overlapping = [
        qid for qid, spans in by_question.items() if max(s for s, _ in spans) < min(e for _, e in spans)
    ]
    assert len(overlapping) >= len(by_question) - 2


def call_depth(spans) -> int:
    """Largest set of calls that do not overlap in time (dependent rounds)."""
    depth, reach = 0, float("-inf")
    for start, end in sorted(spans, key=lambda span: span[1]):
        if start >= reach:
            depth, reach = depth + 1, end
    return depth


def test_every_first_wave_takes_at_most_two_rounds(tmp_path):
    # Each worker's first question starts with no reading on its thread:
    # one sample runs inline, then the other four overlap.
    _, sleeping = run_scenario(tmp_path, "sc", lambda inner: SleepingBackend(inner, 0.02), "sc")
    depths = {qid: call_depth(spans) for qid, spans in first_waves(sleeping).items()}
    assert len(depths) == 6 and max(depths.values()) <= 2, depths


def test_after_a_cache_hit_one_call_runs_inline_and_the_rest_overlap(tmp_path):
    script = [entry(STAGE_COT, "q", "warm")] + [entry(STAGE_COT, "q", f"miss {k}") for k in range(4)]
    sleeping = SleepingBackend(ScriptedBackend(script), sleep_s=0.02)
    gateway = Gateway(sleeping, cache_dir=tmp_path, cache_enabled=True)
    params = CompletionParams("m", 0.0, seed=0)
    context = CallContext(STAGE_COT, "q")

    def miss(k):
        sample = CallContext(STAGE_COT, "q", sample_index=k + 1)
        return gateway.complete(PromptPair("s", f"miss {k}"), params, sample).text

    with gateway.run_scope():
        gateway.complete(PromptPair("s", "warm"), params, context)
        assert gateway.complete(PromptPair("s", "warm"), params, context).from_cache
        texts = gateway.fan_out([partial(miss, k) for k in range(4)])
    assert texts == [f"miss {k}" for k in range(4)]
    first, *rest = sorted(sleeping.spans[1:], key=lambda span: span[2])
    assert first[1] == threading.current_thread().name
    assert first[3] <= min(start for _, _, start, _ in rest)
    assert max(start for _, _, start, _ in rest) < min(end for _, _, _, end in rest)


def test_a_shared_prompt_is_escaped_once_across_its_fan_out(tmp_path, monkeypatch):
    texts = ("shared system", "shared user", "shared format")
    escaped = []
    escape = gateway_module._escape
    monkeypatch.setattr(gateway_module, "_escape", lambda text: escaped.append(text) or escape(text))
    n = 40

    def cache_lines(name, fan_out):
        """The cache stream of n samples of one prompt object."""
        sleeping = SleepingBackend(ScriptedBackend([entry(STAGE_COT, "q", f"sample {k}") for k in range(n)]))
        gateway = Gateway(sleeping, cache_dir=tmp_path / name, cache_enabled=True)
        prompt = PromptPair(*texts)
        calls = [
            partial(
                gateway.complete, prompt, CompletionParams("m", 0.7, seed=k), CallContext(STAGE_COT, "q", sample_index=k)
            )
            for k in range(n)
        ]
        with gateway.run_scope():
            results = gateway.fan_out(calls) if fan_out else [call() for call in calls]
        assert [result.text for result in results] == [f"sample {k}" for k in range(n)]
        assert fan_out == any(thread.startswith(POOL_PREFIX) for _, thread, _, _ in sleeping.spans)
        return sorted_lines(tmp_path / name / "completions.jsonl")

    one_by_one = cache_lines("one-by-one", fan_out=False)
    escaped.clear()
    assert cache_lines("fanned", fan_out=True) == one_by_one
    assert sorted(text for text in escaped if text.startswith("shared")) == sorted(texts)


@pytest.mark.parametrize("max_in_flight,bound", [(None, 2 * 5 - 2), (3, 3)])
def test_pool_is_bounded_and_ends_with_the_run(tmp_path, max_in_flight, bound):
    peak = {"pool": 0, "calls": 0}
    in_flight = []
    lock = threading.Lock()

    class Counting(SleepingBackend):
        def call(self, prompt, params, context):
            with lock:
                in_flight.append(context)
                peak["calls"] = max(peak["calls"], len(in_flight))
                pool = sum(t.name.startswith(POOL_PREFIX) for t in threading.enumerate())
                peak["pool"] = max(peak["pool"], pool)
            try:
                return super().call(prompt, params, context)
            finally:
                with lock:
                    in_flight.remove(context)

    questions = [mcqa_question(qid=f"s{i}") for i in range(6)]
    entries = [e for q in questions for e in sc_regen_script(q.id)]
    settings = make_settings(parallelism=2, sc_budget=5, max_in_flight=max_in_flight)
    gateway = Gateway(Counting(ScriptedBackend(entries)), max_in_flight=max_in_flight)
    report = harness.run(questions, settings, "sc", tmp_path / "out", gateway)

    assert report["counts"]["failed"] == 0
    assert 1 <= peak["pool"] <= bound
    assert peak["calls"] <= (max_in_flight or 2 * 5)
    assert not [t for t in threading.enumerate() if t.name.startswith(POOL_PREFIX)]


def test_cache_hits_never_fan_out(tmp_path):
    _, warm = run_scenario(tmp_path, "sc", SleepingBackend, "warm")
    overrides, scripts = SCENARIOS["sc"]
    questions = [mcqa_question(qid=qid) for qid in scripts]
    threads = []

    class ThreadRecording(Gateway):
        def complete(self, prompt, params, context):
            threads.append(threading.current_thread().name)
            return super().complete(prompt, params, context)

    gateway = ThreadRecording(warm, cache_dir=tmp_path / "warm" / "cache", cache_enabled=True)
    report = harness.run(questions, make_settings(parallelism=2, **overrides), "sc", tmp_path / "hit", gateway)
    assert report["usage"]["live_calls"] == 0
    assert threads and not any(name.startswith(POOL_PREFIX) for name in threads)


@pytest.mark.parametrize("backend_of", [lambda inner: inner, SleepingBackend], ids=["inline", "fanned"])
def test_each_cache_line_is_written_before_its_completion_returns(tmp_path, monkeypatch, backend_of):
    opened = []

    def tracking_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(jsonl, "open", tracking_open, raising=False)
    stream = tmp_path / "run" / "cache" / "completions.jsonl"
    unwritten = []

    class Checking(Gateway):
        def complete(self, prompt, params, context):
            result = super().complete(prompt, params, context)
            if not result.from_cache:
                with stream.open(encoding="utf-8") as reader:
                    keys = {json.loads(line)["key"] for line in reader}
                if cache_key(prompt, params) not in keys:
                    unwritten.append(context)
            return result

    out_dir, _ = run_scenario(tmp_path, "rerailer", backend_of, "run", Checking)
    assert cache_keys(out_dir) and not unwritten
    assert opened and all(handle.closed for handle in opened)


def test_fan_out_raises_the_first_error_in_call_order_after_the_running_calls():
    gateway = Gateway(SleepingBackend(ScriptedBackend([entry(STAGE_COT, "q", "warm")])))
    started = threading.Event()
    finished = []

    def first():  # the caller's own call
        assert started.wait(timeout=5)
        raise KeyError("first")

    def slow():
        started.set()
        time.sleep(0.05)
        finished.append("slow")

    def third():
        raise ValueError("third")

    with gateway.run_scope():
        gateway.complete(PromptPair("s", "u"), CompletionParams("m", 0.0, seed=0), CallContext(STAGE_COT, "q"))
        with pytest.raises(KeyError):
            gateway.fan_out([first, slow, third])
        assert finished == ["slow"]


def test_concurrent_samples_each_get_their_own_entry_under_contention():
    n = 200
    entries = [entry(STAGE_COT, "q", "warm")] + [entry(STAGE_COT, "q", f"sample {k}") for k in range(n)]
    gateway = Gateway(SleepingBackend(ScriptedBackend(entries), sleep_s=0.001))
    prompt = PromptPair("s", "u")

    def sample(k):
        context = CallContext(STAGE_COT, "q", sample_index=k + 1)
        return gateway.complete(prompt, CompletionParams("m", 0.0, seed=k), context).text

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with gateway.run_scope(), gateway.recording("q") as ledger:
            gateway.complete(prompt, CompletionParams("m", 0.0, seed=0), CallContext(STAGE_COT, "q"))
            texts = gateway.fan_out([partial(sample, k) for k in range(n)])
    finally:
        sys.setswitchinterval(interval)
    assert texts == [f"sample {k}" for k in range(n)]
    assert ledger.question_usage()[STAGE_COT]["live_calls"] == n + 1


def test_questions_recording_at_once_keep_disjoint_ledgers():
    n = 6
    entries = [entry(STAGE_COT, qid, f"{qid} {k}") for qid in ("q1", "q2") for k in range(n + 1)]
    sleeping = SleepingBackend(ScriptedBackend(entries))
    gateway = Gateway(sleeping)
    prompt = PromptPair("s", "u")
    ledgers = {}

    def question(qid):
        with gateway.recording(qid) as ledgers[qid]:
            gateway.complete(prompt, CompletionParams("m", 0.0, seed=0), CallContext(STAGE_COT, qid))
            gateway.fan_out([
                partial(gateway.complete, prompt, CompletionParams("m", 0.0, seed=k), CallContext(STAGE_COT, qid))
                for k in range(1, n + 1)
            ])

    with gateway.run_scope():
        threads = [threading.Thread(target=question, args=(qid,)) for qid in ("q1", "q2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    assert any(name.startswith(POOL_PREFIX) for _, name, _, _ in sleeping.spans)  # the calls overlapped
    for qid, ledger in ledgers.items():
        assert sorted(result.text for _, result in ledger.calls) == [f"{qid} {k}" for k in range(n + 1)]


class TestProgrammingErrorsPropagate:
    """A non-RerailError in a mode runner is a bug: harness.run raises it
    instead of recording a failed question."""

    def run(self, tmp_path, monkeypatch, backend):
        pool_threads = []

        def broken(question, gateway, settings):
            gateway.complete(PromptPair("s", "u"), CompletionParams("m", 0.0, seed=0), CallContext(STAGE_COT, question.id))
            released = threading.Event()

            def waits():  # inline it runs first, so it must not wait long
                released.wait(timeout=0.3)

            def raises():
                pool_threads.append(threading.current_thread().name.startswith(POOL_PREFIX))
                released.set()
                raise TypeError("a bug")

            gateway.fan_out([waits, raises])

        monkeypatch.setitem(harness._MODE_RUNNERS, "sc", broken)
        gateway = Gateway(backend(ScriptedBackend([entry(STAGE_COT, "q1", "x")])))
        with pytest.raises(TypeError, match="a bug"):
            harness.run([mcqa_question(qid="q1")], make_settings(sc_budget=2), "sc", tmp_path, gateway)
        return pool_threads

    def test_inline_path(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, lambda inner: inner) == [False]

    def test_fan_out_path(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, SleepingBackend) == [True]


class TestFanOutGateIsPerThread:
    """Whether a fan-out overlaps its calls follows the latest completion of
    the thread that starts it, not of another question's thread."""

    def test_cache_hit_on_another_thread_leaves_fan_out_on(self, tmp_path):
        script = [entry(STAGE_COT, "q1", "x"), entry(STAGE_COT, "q2", "y")]
        gateway = Gateway(SleepingBackend(ScriptedBackend(script)), cache_dir=tmp_path, cache_enabled=True)
        params = CompletionParams("m", 0.0, seed=0)

        def other_question():
            gateway.complete(PromptPair("s", "q2"), params, CallContext(STAGE_COT, "q2"))

        def on_another_thread(fn):
            thread = threading.Thread(target=fn)
            thread.start()
            thread.join()

        released = threading.Event()
        pool_threads = []

        def waits():  # inline it runs first, so it must not wait long
            released.wait(timeout=0.3)

        def sets():
            pool_threads.append(threading.current_thread().name.startswith(POOL_PREFIX))
            released.set()

        with gateway.run_scope():
            on_another_thread(other_question)  # a miss, so the next one hits
            blocking = gateway.complete(PromptPair("s", "q1"), params, CallContext(STAGE_COT, "q1"))
            on_another_thread(other_question)
            assert blocking.from_cache is False
            gateway.fan_out([waits, sets])
        assert pool_threads == [True]

"""Live mode end to end, over HTTP, against a loopback provider.

The provider answers each request with the reply a scripted run gave the
same call, looked up by the request payload live mode sends for it
(``chat_payload``). So a live run with the scripted run's config must write
the same outcomes, traces and report, but for the two figures derived from
call latency, ``wall_time_s`` and ``hours_per_1000``. Faults injected at
chosen requests must end as the retry policy says: a retriable one in the
same outcomes, any other in a failed question that a rerun resumes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rerail
from helpers import (
    LOOPBACK_CERT,
    ConnectProxy,
    Fault,
    LoopbackProvider,
    PayloadRecorder,
    chat_reply,
    close_connections,
    consistent_script,
    cot_text,
    entry,
    fixable_script,
    mad_reask_script,
    make_settings,
    mcqa_question,
    sc_regen_script,
    unfixable_script,
    write_dataset,
    write_script,
)
from rerail import cli, gateway as gateway_module
from rerail.gateway import (
    CallContext,
    CompletionParams,
    RETRY_AFTER_MAX_S,
    Gateway,
    LiveBackend,
    ProviderError,
    ScriptedBackend,
)
from rerail.harness import OUTCOMES_FILE, load_outcomes, make_gateway, run
from rerail.prompts import PromptPair
from rerail.types import STAGE_COT

KEY_ENV = "RERAIL_API_KEY"
LATENCY_FIELDS = {"wall_time_s", "hours_per_1000"}
STREAMS = ("outcomes.jsonl", "traces.jsonl")
PROXY_VARIABLES = [
    name for variable in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")
    for name in (variable, variable.upper())
]


def questions(count: int = 3):
    return [mcqa_question(qid=f"q{i}") for i in range(1, count + 1)]


# Per mode, the script of three questions q1..q3.
SCRIPTS = {
    "cot": lambda: [entry(STAGE_COT, f"q{i}", cot_text(["Reason."], answer)) for i, answer in enumerate("BAB", 1)],
    "sc": lambda: [e for qid in ("q1", "q2", "q3") for e in sc_regen_script(qid)],
    "mad": lambda: [e for qid in ("q1", "q2", "q3") for e in mad_reask_script(qid)],
    "rerailer": lambda: consistent_script("q1") + fixable_script("q2") + unfixable_script("q3"),
}


@pytest.fixture(autouse=True)
def no_proxy_from_the_environment(monkeypatch):
    """Every request goes straight to the loopback provider unless a test
    names a proxy."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(KEY_ENV, "sk-test")


def without_latency(value):
    """A JSON value less the fields derived from call latency."""
    if isinstance(value, dict):
        return {key: without_latency(item) for key, item in value.items() if key not in LATENCY_FIELDS}
    if isinstance(value, list):
        return [without_latency(item) for item in value]
    return value


def artifacts(out: Path) -> dict:
    """The run's outcomes and traces, a line each in a fixed order, and its
    report, each less the latency-derived fields."""
    written = {"report.json": without_latency(json.loads((out / "report.json").read_text()))}
    for name in STREAMS:
        values = [without_latency(json.loads(line)) for line in (out / name).read_text().splitlines()]
        written[name] = sorted(values, key=lambda value: json.dumps(value, sort_keys=True))
    return written


def scripted_run(provider: LoopbackProvider, settings, mode: str, out: Path) -> dict:
    """A scripted run of the mode's script, its replies recorded into the
    provider; the run's artifacts."""
    backend = PayloadRecorder(ScriptedBackend(SCRIPTS[mode]()), provider.replies)
    run(questions(), settings, mode, out, Gateway(backend))
    return artifacts(out)


def live_run(settings, mode: str, out: Path) -> dict:
    """A live run in this process, its connections closed after it; the
    run's report."""
    gateway = make_gateway(settings, "live", out_dir=out)
    try:
        return run(questions(), settings, mode, out, gateway)
    finally:
        close_connections(gateway)


@pytest.mark.parametrize("mode", sorted(SCRIPTS))
def test_a_live_run_writes_what_the_scripted_run_wrote(tmp_path, mode):
    # The same `rerail run` twice, with one config file: scripted, its
    # replies recorded; then live, in a fresh interpreter, against them.
    dataset = tmp_path / "questions.jsonl"
    write_dataset(dataset, questions())
    script = write_script(tmp_path / "script.jsonl", SCRIPTS[mode]())
    with LoopbackProvider() as provider:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"endpoint": provider.url, "cache_enabled": True, "parallelism": 2, "sc_budget": 5, "seed": 5}
        ))
        args = ["run", "--config", str(config), "--dataset", str(dataset), "--mode", mode]

        recording = ScriptedBackend.from_file
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScriptedBackend, "from_file",
                          staticmethod(lambda path: PayloadRecorder(recording(path), provider.replies)))
            assert cli.main([*args, "--backend", "scripted", "--script", str(script),
                             "--out", str(tmp_path / "scripted")]) == 0

        env = {name: value for name, value in os.environ.items() if name not in PROXY_VARIABLES}
        env["PYTHONPATH"] = str(Path(rerail.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-m", "rerail.cli", *args, "--backend", "live", "--out", str(tmp_path / "live")],
            capture_output=True, text=True, timeout=120, env=env,
        )
    assert child.returncode == 0, child.stderr
    assert artifacts(tmp_path / "live") == artifacts(tmp_path / "scripted")
    # every distinct call reached the provider once, the rest came from the cache
    assert len(provider.requests) == len(provider.replies) > 0
    report = json.loads((tmp_path / "live" / "report.json").read_text())
    assert report["counts"]["failed"] == 0


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(gateway_module, "RETRY_BASE_SLEEP_S", 0.001)


JSON_REPLY = json.dumps(chat_reply("Step 1: reason.\nAnswer: B")).encode()

RETRIABLE = {
    "429": Fault(status=429),
    "429 with Retry-After": Fault(status=429, headers=(("Retry-After", "0"),)),
    "500": Fault(status=500),
    "slower than timeout_s": Fault(delay_s=1.0),
    "closed mid-reply": Fault(cut=True),
}


@pytest.mark.parametrize("fault", list(RETRIABLE.values()), ids=list(RETRIABLE))
def test_a_retriable_fault_ends_in_the_same_outcomes(tmp_path, fast_retries, fault):
    with LoopbackProvider(faults={2: fault, 9: fault}) as provider:
        settings = make_settings(endpoint=provider.url, cache_enabled=False, timeout_s=0.4, seed=5)
        expected = scripted_run(provider, settings, "rerailer", tmp_path / "scripted")
        live_run(settings, "rerailer", tmp_path / "live")
    assert artifacts(tmp_path / "live") == expected
    assert len(provider.requests) == len(provider.replies) + 2  # one retry per fault


def test_keep_alive_connections_the_server_closes_end_in_the_same_outcomes(tmp_path, fast_retries):
    with LoopbackProvider(close_after_reply=True) as provider:
        settings = make_settings(endpoint=provider.url, cache_enabled=False, seed=5)
        expected = scripted_run(provider, settings, "rerailer", tmp_path / "scripted")
        live_run(settings, "rerailer", tmp_path / "live")
    assert artifacts(tmp_path / "live") == expected


NON_RETRIABLE = {
    "400": (Fault(status=400), "ProviderError: provider returned HTTP 400"),
    "not JSON": (Fault(body=b"<html>bad gateway</html>"), "ProviderError: malformed provider response"),
    "not UTF-8": (Fault(body=b"\xff" + JSON_REPLY), "ProviderError: malformed provider response"),
}


@pytest.mark.parametrize("fault, error", list(NON_RETRIABLE.values()), ids=list(NON_RETRIABLE))
def test_a_non_retriable_fault_fails_its_question_and_a_rerun_resumes_it(tmp_path, fast_retries, fault, error):
    with LoopbackProvider(faults={2: fault}) as provider:
        settings = make_settings(endpoint=provider.url, cache_enabled=False, seed=5)
        expected = scripted_run(provider, settings, "cot", tmp_path / "scripted")
        report = live_run(settings, "cot", tmp_path / "live")
        assert report["counts"]["failed"] == 1
        assert len(provider.requests) == 3  # not retried
        [failed] = [row for row in load_outcomes(tmp_path / "live" / OUTCOMES_FILE) if row["error"]]
        assert failed["question_id"] == "q2" and "question-failed" in failed["flags"]
        assert failed["error"].startswith(error)

        report = live_run(settings, "cot", tmp_path / "live")
        assert len(provider.requests) == 4  # only the failed question ran again
    assert report["counts"]["failed"] == 0
    assert artifacts(tmp_path / "live")["report.json"] == expected["report.json"]


PROMPT = PromptPair(system="sys", user="usr", format_instructions="fmt")
PARAMS = CompletionParams(model_id="m1", temperature=0.0, seed=7)
CTX = CallContext(stage=STAGE_COT, question_id="q1")
OK = Fault(body=json.dumps(chat_reply("ok")).encode())


def test_a_keep_alive_connection_the_server_closed_is_not_reused():
    # The server closes each connection after its reply, without saying so;
    # a call must not go out on one, which would fail and back off.
    sleeps = []
    with LoopbackProvider(every=OK, close_after_reply=True) as provider:
        backend = LiveBackend(provider.url, KEY_ENV, timeout_s=9.0)
        gateway = Gateway(backend, sleeper=sleeps.append)
        try:
            for _ in range(4):
                assert gateway.complete(PROMPT, PARAMS, CTX).text == "ok"
                assert provider.closed.acquire(timeout=5)  # the server has closed it
        finally:
            close_connections(backend)
    assert sleeps == []
    assert len(provider.requests) == 4


@pytest.mark.parametrize("status, asked, sleeps", [
    (429, "3", [3.0]),
    (503, "2", [2.0]),
    (429, "86400", [RETRY_AFTER_MAX_S]),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", [1.0]),
    (429, "soon", [1.0]),
    (500, "3", [1.0]),
])
def test_retry_after_in_seconds_is_the_wait_before_the_next_attempt(status, asked, sleeps):
    recorded = []
    with LoopbackProvider(faults={1: Fault(status=status, headers=(("Retry-After", asked),))}, every=OK) as provider:
        backend = LiveBackend(provider.url, KEY_ENV, timeout_s=9.0)
        try:
            assert Gateway(backend, sleeper=recorded.append).complete(PROMPT, PARAMS, CTX).text == "ok"
        finally:
            close_connections(backend)
    assert recorded == sleeps


@pytest.fixture
def trusted(monkeypatch):
    """LOOPBACK_CERT is the one certificate trusted."""
    monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_CERT))


def https_call(provider_url: str):
    backend = LiveBackend(provider_url, KEY_ENV, timeout_s=9.0)
    try:
        return backend.call(PROMPT, PARAMS, CTX)
    finally:
        close_connections(backend)


def test_https_with_a_trusted_certificate(trusted):
    with LoopbackProvider(every=OK, tls=True) as provider:
        result = https_call(provider.url)
    assert (result.text, result.prompt_tokens, result.completion_tokens) == ("ok", 12, 7)
    assert provider.url.startswith("https://")


def test_an_untrusted_certificate_is_a_retriable_connection_failure(monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(LOOPBACK_CERT))  # not read
    with LoopbackProvider(every=OK, tls=True) as provider:
        with pytest.raises(ProviderError) as err:
            https_call(provider.url)
    assert err.value.retriable is True
    assert provider.requests == []


@pytest.mark.parametrize("scheme", ["http://", ""])
def test_https_proxy_tunnels_the_calls(trusted, monkeypatch, scheme):
    with LoopbackProvider(every=OK, tls=True) as provider, ConnectProxy() as proxy:
        monkeypatch.setenv("HTTPS_PROXY", scheme + proxy.url.removeprefix("http://"))
        assert https_call(provider.url).text == "ok"
    assert proxy.tunnels == [f"127.0.0.1:{provider.port}"]
    assert len(provider.requests) == 1


def test_no_proxy_bypasses_the_proxy(trusted, monkeypatch):
    with LoopbackProvider(every=OK, tls=True) as provider, ConnectProxy() as proxy:
        monkeypatch.setenv("HTTPS_PROXY", proxy.url)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert https_call(provider.url).text == "ok"
    assert proxy.tunnels == []
    assert len(provider.requests) == 1


@pytest.mark.parametrize("named", ["socks5://127.0.0.1:1080", "http://", "http://127.0.0.1:port"])
def test_a_proxy_that_is_not_an_http_url_is_refused(monkeypatch, named):
    monkeypatch.setenv("HTTPS_PROXY", named)
    with pytest.raises(ProviderError, match="https proxy .* is not an http:// or https:// URL") as err:
        LiveBackend("https://127.0.0.1:9/v1/chat/completions", KEY_ENV, timeout_s=9.0)
    assert err.value.retriable is False

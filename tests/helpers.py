"""Builders shared across the test modules.

Mostly plain data construction: questions, scripted-backend entries, fenced
agent responses, and a few canned end-to-end scenarios (consistent,
fixable, unfixable) with their exact per-stage call budgets. Live mode is
tested against a loopback chat-completions provider, and a CONNECT proxy
in front of it, both kept here too.
"""

from __future__ import annotations

import http.server
import json
import selectors
import socket
import socketserver
import ssl
import threading
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

from rerail import jsonl, prompts
from rerail.config import RunSettings
from rerail.gateway import (
    CallContext,
    CompletionParams,
    CompletionResult,
    Gateway,
    ScriptedBackend,
    USAGE_FIELDS,
    UsageLedger,
    chat_payload,
)
from rerail.prompts import PromptPair
from rerail.types import (
    Category,
    Option,
    Question,
    QuestionKind,
    ReasoningPath,
    STAGE_COT,
    STAGE_DEBATE,
    STAGE_EVALUATOR,
    STAGE_JUDGE,
    STAGE_MAD,
    STAGE_REANSWER,
)


def make_settings(**overrides) -> RunSettings:
    return RunSettings(**overrides)


# ---------------------------------------------------------------------------
# questions

def mcqa_question(
    qid: str = "q1",
    gt: str = "B",
    n_options: int = 4,
    subject: str = "college physics",
    category: Category = Category.ADVANCED_MATH_SCIENCE,
    text: str = "Which option satisfies the stated condition?",
    context: Optional[str] = None,
) -> Question:
    labels = "ABCDEF"[:n_options]
    options = tuple(Option(label, f"choice {label}") for label in labels)
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=gt,
        kind=QuestionKind.MCQA,
        context=context,
        options=options,
    )


def numeric_question(
    qid: str = "q1",
    gt: str = "8",
    subject: str = "grade school math",
    category: Category = Category.MATH,
    text: str = "Compute the requested value.",
) -> Question:
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=Fraction(gt),
        kind=QuestionKind.OPEN_NUMERIC,
    )


def text_question(
    qid: str = "q1",
    gt: str = "GRAVITY",
    subject: str = "physics",
    category: Category = Category.COMMONSENSE,
    text: str = "Name the force pulling the apple down.",
) -> Question:
    return Question(
        id=qid,
        subject=subject,
        category=category,
        text=text,
        ground_truth=gt,
        kind=QuestionKind.OPEN_TEXT,
    )


def write_dataset(path: str | Path, questions: list[Question]) -> None:
    """Serialize questions back to the JSONL dataset schema."""
    with open(path, "w", encoding="utf-8") as handle:
        for q in questions:
            record: dict = {
                "id": q.id,
                "subject": q.subject,
                "category": q.category.value,
                "question": q.text,
                "ground_truth": str(q.ground_truth),
                "kind": q.kind.value,
            }
            if q.context is not None:
                record["context"] = q.context
            if q.options is not None:
                record["options"] = [{"label": o.label, "text": o.text} for o in q.options]
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# raw generations and fenced agent responses

def step_section(path: ReasoningPath, index: int) -> str:
    """The text of one step (1-based), marker stripped."""
    if not 1 <= index <= len(path.steps):
        raise IndexError(f"step index {index} out of range 1..{len(path.steps)}")
    return path.steps[index - 1]


def cot_text(steps: list[str], answer: str) -> str:
    lines = [f"Step {i}: {text}" for i, text in enumerate(steps, start=1)]
    lines.append(f"Answer: {answer}")
    return "\n".join(lines)


def serialize_structured(mapping: dict[str, str]) -> str:
    """Inverse of parse_structured_output for fence-free string maps."""
    return "```json\n" + json.dumps(mapping, sort_keys=True) + "\n```"


def fenced(**fields) -> str:
    return serialize_structured({key: str(value) for key, value in fields.items()})


def evaluator_no(reasoning: str = "the step holds up") -> str:
    return fenced(hallucination="NO", reasoning=reasoning, correction="")


def evaluator_yes(correction: str, reasoning: str = "the step is wrong") -> str:
    return fenced(hallucination="YES", reasoning=reasoning, correction=correction)


def debate_agree(reasoning: str = "the proposed correction is sound") -> str:
    return fenced(verdict="AGREE", reasoning=reasoning, correction="")


def debate_revise(correction: str, reasoning: str = "the correction misses a detail") -> str:
    return fenced(verdict="REVISE", reasoning=reasoning, correction=correction)


def judge_selects(index, rationale: str = "the most coherent path") -> str:
    return fenced(selected=str(index), rationale=rationale)


def mad_answer(answer: str, reasoning: str = "worked through the options") -> str:
    return fenced(answer=answer, reasoning=reasoning)


# Model text in shapes that once ended a run in a traceback: a number one
# digit longer than Python's int-string limit, an exponent whose exact value
# has more digits than that, and JSON nested deeper than any Python parses.
LONG_DIGITS = "9" * 4301
BIG_EXPONENT = "1e5000"
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def reference_loads(data: bytes):
    """``jsonl.loads`` before it called the JSON scanner directly: json.loads
    on the strictly decoded text, each error a ValueError."""
    text = jsonl.decode(data)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None


# ---------------------------------------------------------------------------
# scripted backend plumbing

def entry(
    stage: str,
    qid: str,
    response: str,
    *,
    step_index: Optional[int] = None,
    agent_id: Optional[int] = None,
    round_no: Optional[int] = None,
    prompt_tokens: int = 100,
    completion_tokens: int = 50,
    latency_ms: Optional[float] = None,
) -> dict:
    match: dict = {"stage": stage, "question_id": qid}
    if step_index is not None:
        match["step_index"] = step_index
    if agent_id is not None:
        match["agent_id"] = agent_id
    if round_no is not None:
        match["round"] = round_no
    payload: dict = {
        "match": match,
        "response": response,
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }
    if latency_ms is not None:
        payload["latency_ms"] = latency_ms
    return payload


class RecordingGateway(Gateway):
    """Gateway that records (context, prompt) for every completion asked of it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[CallContext, PromptPair]] = []

    def complete(self, prompt, params, context) -> CompletionResult:
        self.records.append((context, prompt))
        return super().complete(prompt, params, context)

    def for_stage(self, stage: str) -> list[tuple[CallContext, PromptPair]]:
        return [(c, p) for c, p in self.records if c.stage == stage]


def scripted_gateway(entries: list[dict], **gateway_kwargs) -> RecordingGateway:
    return RecordingGateway(ScriptedBackend(entries), **gateway_kwargs)


def question_calls(ledger: UsageLedger, stage: Optional[str] = None) -> int:
    """Completions a question's ledger holds, optionally one stage's."""
    return sum(
        row["live_calls"] + row["cached_calls"]
        for st, row in ledger.question_usage().items()
        if stage is None or st == stage
    )


def ledger_totals(*ledgers: UsageLedger) -> dict:
    """Usage summed over every stage of the ledgers, field by field."""
    rows = [row for ledger in ledgers for row in ledger.question_usage().values()]
    return {name: sum(row[name] for row in rows) for name in USAGE_FIELDS}


def full_text(prompt: PromptPair) -> str:
    """Everything the model sees of a prompt."""
    if prompt.format_instructions:
        return f"{prompt.system}\n{prompt.user}\n{prompt.format_instructions}"
    return f"{prompt.system}\n{prompt.user}"


def template_placeholders(template_id: str) -> set[str]:
    """Placeholder names in a catalog template's system and human text."""
    system, human, _ = prompts._CATALOG[template_id]
    return set(prompts._PLACEHOLDER_RE.findall(system)) | set(prompts._PLACEHOLDER_RE.findall(human))


def reference_render(template_id: str, question: Question, **slots: object) -> PromptPair:
    """render_prompt as one regex substitution over each catalog text: the
    reference the split templates are checked against."""
    system, human, fmt = prompts._CATALOG[template_id]
    variables = {"subject": question.subject, "question": prompts.format_question(question), **slots}

    def replace(match) -> str:
        name = match.group(1)
        if name not in variables:
            raise prompts.MissingVariable(name)
        return str(variables[name])

    return PromptPair(prompts._PLACEHOLDER_RE.sub(replace, system), prompts._PLACEHOLDER_RE.sub(replace, human), fmt)


def remaining(backend: ScriptedBackend) -> int:
    """Script entries the backend has not served yet."""
    return sum(not e.served for entries in backend._entries.values() for e in entries)


def allocated(work):
    """``work()``'s result, the bytes it allocated and kept, and the most it
    held at once while it ran, as traced by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = work()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept - before, peak - before


def write_script(path: str | Path, entries: list[dict]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for item in entries:
            handle.write(json.dumps(item) + "\n")
    return path


class RecordingBackend:
    """Wraps a backend and records (params, context) per call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: list[tuple[CompletionParams, CallContext]] = []

    def call(self, prompt, params, context) -> CompletionResult:
        self.calls.append((params, context))
        return self.inner.call(prompt, params, context)


class SleepingBackend:
    """Wraps a backend and sleeps before each call, so the gateway measures
    it as blocking; records (context, thread name, start, end) per call."""

    def __init__(self, inner, sleep_s: float = 0.005) -> None:
        self.inner = inner
        self.sleep_s = sleep_s
        self.spans: list[tuple[CallContext, str, float, float]] = []

    def call(self, prompt, params, context) -> CompletionResult:
        start = time.perf_counter()
        time.sleep(self.sleep_s)
        result = self.inner.call(prompt, params, context)
        self.spans.append((context, threading.current_thread().name, start, time.perf_counter()))
        return result


class FlakyBackend:
    """Raises the queued exceptions, then returns a fixed result."""

    def __init__(self, failures: list[Exception], text: str = "ok") -> None:
        self._failures = list(failures)
        self._text = text
        self.attempts = 0

    def call(self, prompt, params, context) -> CompletionResult:
        self.attempts += 1
        if self._failures:
            raise self._failures.pop(0)
        return CompletionResult(self._text, 10, 5, 0.01)


# ---------------------------------------------------------------------------
# a loopback chat-completions provider, and a CONNECT proxy

# A certificate for 127.0.0.1 and its key, made for these tests with
#   openssl req -x509 -newkey rsa:2048 -nodes -days 36500 -subj "/CN=127.0.0.1"
#     -addext "subjectAltName=IP:127.0.0.1"
#     -addext "keyUsage=critical,digitalSignature,keyCertSign"
LOOPBACK_CERT = Path(__file__).parent / "data" / "loopback.crt"
LOOPBACK_KEY = Path(__file__).parent / "data" / "loopback.key"


def payload_key(payload: dict) -> str:
    """A request payload as the loopback provider looks its reply up."""
    return json.dumps(payload, sort_keys=True)


def chat_reply(text, prompt_tokens=12, completion_tokens=7) -> dict:
    """A chat-completions reply body."""
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class PayloadRecorder:
    """Wraps a backend and keeps each call's reply body in ``replies``,
    under the key of the request payload live mode would send for it."""

    def __init__(self, inner, replies: dict) -> None:
        self.inner = inner
        self.replies = replies

    def call(self, prompt, params, context) -> CompletionResult:
        result = self.inner.call(prompt, params, context)
        body = chat_reply(result.text, result.prompt_tokens, result.completion_tokens)
        # two calls with one payload must have had one reply
        assert self.replies.setdefault(payload_key(chat_payload(prompt, params)), body) == body
        return result


@dataclass(frozen=True)
class Fault:
    """What the loopback provider sends in place of a call's plain reply."""

    status: int = 200
    headers: tuple[tuple[str, str], ...] = ()
    # None: the reply the payload maps to, or an error object if the status
    # is not 200
    body: Optional[bytes] = None
    delay_s: float = 0.0  # slept before the reply is sent
    cut: bool = False  # the connection closes halfway through the body


class _ProviderHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so connections can be reused
    disable_nagle_algorithm = True  # the body goes out without waiting on an ACK

    def do_POST(self):
        provider = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with provider.lock:
            provider.requests.append((self.path, dict(self.headers), payload))
            fault = provider.faults.get(len(provider.requests), provider.every)
        status, body = fault.status, fault.body
        if body is None:
            reply = provider.replies.get(payload_key(payload))
            if status == 200 and reply is None:
                status = 404
            body = json.dumps(reply if status == 200 else {"error": f"HTTP {status}"}).encode()
        time.sleep(fault.delay_s)
        self.send_response(status)
        for name, value in fault.headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body[: len(body) // 2] if fault.cut else body)
        # close without saying so: the client finds out on its next call
        self.close_connection = fault.cut or provider.close_after_reply

    def log_message(self, *args):
        pass


class _LoopbackServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """A threaded server on 127.0.0.1 that serves on its own thread while
    used as a context manager: a ThreadingHTTPServer, less the look-up of
    the host's name on bind, when its handler speaks HTTP. Its backlog takes a wave of connects at
    once; it counts the connections it accepts and signals ``closed`` as it
    closes each."""

    daemon_threads = True
    request_queue_size = 64

    def __init__(self, handler) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.port = self.server_address[1]
        self.lock = threading.Lock()
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self._serving = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05})

    def __enter__(self):
        self._serving.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._serving.join(timeout=5)

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.release()

    def handle_error(self, request, client_address) -> None:
        pass  # a client that gave up on a slow reply, say


class LoopbackProvider(_LoopbackServer):
    """A chat-completions provider on 127.0.0.1.

    It answers each request from ``replies``, a map of ``payload_key`` to
    reply body, and a payload it has no reply for with a 404. ``faults``
    maps a request's number (1-based, in arrival order) to the Fault sent
    in its place; ``every`` is the one sent for every other request. With
    ``close_after_reply`` it closes each connection after its reply without
    saying so. ``requests`` holds each request's path, headers and payload.
    With ``tls`` it speaks HTTPS under LOOPBACK_CERT.
    """

    def __init__(
        self,
        replies: Optional[Mapping[str, dict]] = None,
        faults: Optional[Mapping[int, Fault]] = None,
        every: Fault = Fault(),
        close_after_reply: bool = False,
        tls: bool = False,
    ) -> None:
        super().__init__(_ProviderHandler)
        self.replies = {} if replies is None else replies
        self.faults = faults or {}
        self.every = every
        self.close_after_reply = close_after_reply
        self.requests: list[tuple[str, dict, dict]] = []
        self.tls = None
        if tls:
            self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.tls.load_cert_chain(LOOPBACK_CERT, LOOPBACK_KEY)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self.port}/v1/chat/completions"

    def finish_request(self, request, client_address) -> None:
        if self.tls is None:
            return super().finish_request(request, client_address)
        with self.tls.wrap_socket(request, server_side=True) as wrapped:
            super().finish_request(wrapped, client_address)


class _TunnelHandler(socketserver.StreamRequestHandler):
    def handle(self):
        target = self.rfile.readline().split()[1].decode("ascii")  # CONNECT host:port HTTP/1.1
        while self.rfile.readline().strip():  # the rest of the header
            pass
        host, port = target.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as upstream:
            with self.server.lock:
                self.server.tunnels.append(target)
            self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
            with selectors.DefaultSelector() as ready:
                ready.register(self.connection, selectors.EVENT_READ, upstream)
                ready.register(upstream, selectors.EVENT_READ, self.connection)
                while True:
                    for key, _ in ready.select():
                        data = key.fileobj.recv(65536)
                        if not data:
                            return
                        key.data.sendall(data)


class ConnectProxy(_LoopbackServer):
    """An HTTP proxy on 127.0.0.1 that only tunnels (CONNECT); ``tunnels``
    holds the host:port of each tunnel it opened."""

    def __init__(self) -> None:
        super().__init__(_TunnelHandler)
        self.tunnels: list[str] = []
        self.url = f"http://127.0.0.1:{self.port}"


def close_connections(live) -> None:
    """Close the idle keep-alive connections a live backend, or the gateway
    over one, holds open."""
    backend = getattr(live, "_backend", live)
    with backend._lock:
        idle, backend._idle = backend._idle, []
    for connection in idle:
        connection.close()


# ---------------------------------------------------------------------------
# canned end-to-end scenarios (pipeline mode, n_samples=3, 2 debate agents)
#
# Exact per-stage completions each scenario consumes, assuming every response
# parses on the first try:
#   consistent: 3 cot
#   fixable:    3 cot + 1 judge + 4 evaluator + 2 debate + 1 reanswer = 11
#   unfixable:  3 cot + 1 judge + 3 evaluator + 6 debate + 3 reanswer = 16

CONSISTENT_EXPECTED_CALLS = {"cot": 3}
FIXABLE_EXPECTED_CALLS = {"cot": 3, "judge": 1, "evaluator": 4, "debate": 2, "reanswer": 1}
UNFIXABLE_EXPECTED_CALLS = {"cot": 3, "judge": 1, "evaluator": 3, "debate": 6, "reanswer": 3}


def consistent_script(qid: str, answer: str = "B") -> list[dict]:
    """Three samples that agree outright; never reaches the judge."""
    steps = [
        "Restate what the question is asking for.",
        "Work out each candidate in turn.",
        "Keep the one that satisfies the condition.",
    ]
    return [entry(STAGE_COT, qid, cot_text(steps, answer)) for _ in range(3)]


def fixable_script(qid: str, wrong: str = "A", right: str = "B") -> list[dict]:
    """Derailed, repaired by one correction, certified on the second pass.

    Pass 1 flags step 2 of the selected 3-step path; the re-answered path
    keeps the trusted prefix and lands on the right answer. Pass 2 finds
    nothing left to fix.
    """
    steps = [
        "Identify the given quantities.",
        "Combine them with the wrong operation.",
        "Read off the result.",
    ]
    corrected = "Combine them with the correct operation."
    closing = "Read off the corrected result."
    return [
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_COT, qid, cot_text(steps, right)),
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_JUDGE, qid, judge_selects(1)),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=1),
        entry(STAGE_EVALUATOR, qid, evaluator_yes(corrected), step_index=2),
        entry(STAGE_DEBATE, qid, debate_agree(), step_index=2, agent_id=1, round_no=1),
        entry(STAGE_DEBATE, qid, debate_agree(), step_index=2, agent_id=2, round_no=1),
        entry(STAGE_REANSWER, qid, cot_text([steps[0], corrected, closing], right)),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=2),
        entry(STAGE_EVALUATOR, qid, evaluator_no(), step_index=3),
    ]


def unfixable_script(qid: str, wrong: str = "A") -> list[dict]:
    """Derailed and never clean: every pass flags step 1 until the cap."""
    steps = [
        "Assume an equation that does not model the problem.",
        "Carry the assumption to a result.",
    ]
    fixes = [
        "Assume a second equation that still misses a constraint.",
        "Assume a third equation with the sign flipped.",
        "Assume a fourth equation no better than the others.",
    ]
    continuations = [
        "Carry the second assumption through.",
        "Carry the third assumption through.",
        "Carry the fourth assumption through.",
    ]
    script = [
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_COT, qid, cot_text(steps, "C")),
        entry(STAGE_COT, qid, cot_text(steps, wrong)),
        entry(STAGE_JUDGE, qid, judge_selects(1)),
    ]
    for fix, continuation in zip(fixes, continuations):
        script.append(entry(STAGE_EVALUATOR, qid, evaluator_yes(fix), step_index=1))
        script.append(entry(STAGE_DEBATE, qid, debate_agree(), step_index=1, agent_id=1, round_no=1))
        script.append(entry(STAGE_DEBATE, qid, debate_agree(), step_index=1, agent_id=2, round_no=1))
        script.append(entry(STAGE_REANSWER, qid, cot_text([fix, continuation], wrong)))
    return script


def rerailer_fixture(consistent: int, fixable: int, unfixable: int) -> tuple[list[Question], list[dict]]:
    """Questions q01, q02, ... with their script: the consistent ones first,
    then the fixable ones, then the unfixable ones."""
    scripts = [consistent_script] * consistent + [fixable_script] * fixable + [unfixable_script] * unfixable
    questions = [mcqa_question(qid=f"q{number:02d}") for number in range(1, len(scripts) + 1)]
    return questions, [e for question, script in zip(questions, scripts) for e in script(question.id)]


def sc_regen_script(qid: str) -> list[dict]:
    """Five `sc` samples, the second unparseable, so its regeneration is
    dealt the sixth."""
    return [
        entry(STAGE_COT, qid, "Step 1: no answer marker" if answer is None else cot_text(["Weigh the options."], answer))
        for answer in ("B", None, "A", "B", "B", "C")
    ]


def mad_reask_script(qid: str) -> list[dict]:
    """Two `mad` agents that agree in round 2; agent 1's first reply has no
    fence, so it is asked again."""
    return [
        entry(STAGE_MAD, qid, "no fence here", agent_id=1, round_no=1),
        entry(STAGE_MAD, qid, mad_answer("A"), agent_id=1, round_no=1),
        entry(STAGE_MAD, qid, mad_answer("B"), agent_id=2, round_no=1),
        entry(STAGE_MAD, qid, mad_answer("B"), agent_id=1, round_no=2),
        entry(STAGE_MAD, qid, mad_answer("B"), agent_id=2, round_no=2),
    ]


def usage_row(**counts) -> dict:
    """A stage's usage row: ``counts``, and 0 (wall_time_s 0.0) in every
    other field."""
    return dict(zip(USAGE_FIELDS, (0,) * 6 + (0.0,)), **counts)


def stage_calls(outcome_usage: dict[str, dict]) -> dict[str, int]:
    """Per-stage completion counts from an outcome's usage."""
    return {stage: row["live_calls"] + row["cached_calls"] for stage, row in outcome_usage.items()}


__all__ = [name for name in dir() if not name.startswith("_")]

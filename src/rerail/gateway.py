"""Uniform completion interface.

Two backends sit behind one Gateway:

* ScriptedBackend replays pre-authored responses from a JSONL script,
  matched by pipeline stage / question id / step / agent / round. Fully
  deterministic, used by the test suite and `--backend scripted`.
* LiveBackend talks to a chat-completions HTTP endpoint. The API key comes
  from an environment variable named in the config, never from the CLI.

The Gateway adds content-addressed response caching, bounded retry with
exponential backoff or the wait a provider asks for, in-flight and
requests-per-minute throttles, and a usage ledger per question. The cache
is one append-only ``completions.jsonl`` in the cache directory, a line per
completion. It lives for a run: entering ``Gateway.run_scope`` opens the
stream and reads it into memory, and leaving it closes the stream once
every fan-out thread has joined.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, TypeVar
from urllib.parse import SplitResult, urlsplit

from . import jsonl
from .prompts import PromptPair
from .types import RerailError

RETRY_BASE_SLEEP_S = 1.0
RETRY_FACTOR = 2.0
RETRY_MAX_ATTEMPTS = 5
RETRY_AFTER_MAX_S = 60.0  # the longest wait a provider's Retry-After gets

CACHE_FILE = "completions.jsonl"

REASK_REMINDER = "Respond ONLY with the JSON object in triple backticks."

T = TypeVar("T")

_FENCE_RE = re.compile(r"```(?:json)?[ \t]*\n?(.*?)```", re.DOTALL)


class ProviderError(RerailError):
    """A provider-side failure; retriable ones get the backoff treatment,
    or wait the ``retry_after_s`` seconds the provider asked for."""

    retry_after_s: Optional[float] = None

    def __init__(self, message: str, retriable: bool) -> None:
        super().__init__(message)
        self.retriable = retriable


class CompletionTimeout(ProviderError):
    def __init__(self, message: str) -> None:
        super().__init__(message, retriable=True)


class ScriptExhausted(RerailError):
    """No unconsumed script entry matches the call context."""


class ScriptFormatError(RerailError):
    """A script entry violates the script schema."""


class MalformedReply(RerailError, ValueError):
    """The completion holds no fenced JSON object."""


@dataclass(frozen=True)
class CompletionParams:
    model_id: str
    temperature: float
    seed: int


@dataclass(frozen=True, slots=True)
class CompletionResult:
    """One completion; its token counts are checked where it is built."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float
    from_cache: bool = False


@dataclass(frozen=True)
class CallContext:
    """Who is calling: routes script matching and usage attribution, and
    keys the call's seed (``config.call_params``)."""

    stage: str
    question_id: str
    step_index: Optional[int] = None
    agent_id: Optional[int] = None
    round: Optional[int] = None  # a debate round, or a re-answer's repair pass
    # Position among a question's independent samples: it offsets the seed,
    # and the scripted backend deals entries by it.
    sample_index: Optional[int] = None


_OPTIONAL_MATCH_KEYS = ("step_index", "agent_id", "round")
_MATCH_REQUIRED = frozenset(("stage", "question_id"))
_MATCH_ALLOWED = _MATCH_REQUIRED.union(_OPTIONAL_MATCH_KEYS)
_ENTRY_REQUIRED = frozenset(("match", "response", "usage"))
_ENTRY_ALLOWED = _ENTRY_REQUIRED | {"latency_ms"}
# The longest latency a script entry may give, the longest a live call can
# wait, so a run's summed wall time stays finite.
MAX_LATENCY_MS = threading.TIMEOUT_MAX * 1000
_ANY = (None, None, None)


@dataclass(slots=True)
class _ScriptEntry:
    """What one script line says; its CompletionResult is built when the
    entry is served, at most once."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float
    # the call's (step_index, agent_id, round) it matches, None for any;
    # stage and question_id key the entry's list
    where: tuple
    served: bool = False


class ScriptedBackend:
    """Deterministic backend replaying a JSONL script.

    Each line: {"match": {"stage": ..., "question_id": ..., "step_index"?,
    "agent_id"?, "round"?}, "response": str, "usage": {"prompt_tokens": int,
    "completion_tokens": int}, "latency_ms"?: number}. An entry matches a call
    when all its match keys equal the call's context. A call without a
    ``sample_index`` is served the first unserved matching entry in file
    order, so several entries with the same match form a queue. A call with
    ``sample_index`` k is dealt the k-th matching entry in file order, served
    or not, so concurrent samples each get the same entry whatever order they
    arrive in. Each entry is served once. Entries are kept per
    (stage, question_id), since both keys are required and a call can only
    match entries that carry its own.
    """

    def __init__(self, entries: Iterable[dict] = ()) -> None:
        self._entries: dict[tuple[str, str], list[_ScriptEntry]] = {}
        self._wheres: dict[tuple, tuple] = {}  # one copy of each match tuple
        self._lock = threading.Lock()
        for number, raw in enumerate(entries, start=1):
            try:
                self._add(raw)
            except (ScriptFormatError, ValueError) as exc:
                raise ScriptFormatError(f"script entry {number}: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """The script at ``path``, each line checked and kept before the
        next is read; the first bad line is the error."""
        backend = cls()
        for line_no, line in jsonl.lines(path, whole=True):
            try:
                backend._add(jsonl.loads(line))
            except (ScriptFormatError, ValueError) as exc:
                raise ScriptFormatError(f"script {path} line {line_no}: {exc}") from None
        return backend

    def _add(self, raw: dict) -> None:
        """Queue one entry; ScriptFormatError or ValueError saying what is
        wrong if it breaks the script schema."""
        jsonl.fields(raw, _ENTRY_REQUIRED, _ENTRY_ALLOWED)
        try:
            match = jsonl.fields(raw["match"], _MATCH_REQUIRED, _MATCH_ALLOWED)
        except ValueError as exc:
            raise ScriptFormatError(f"match: {exc}") from None
        stage, question_id = match["stage"], match["question_id"]
        if not isinstance(stage, str) or not isinstance(question_id, str):
            raise ScriptFormatError("stage and question_id must be strings")
        prompt_tokens, completion_tokens = jsonl.usage_counts(raw["usage"])
        latency_ms = raw.get("latency_ms", 0)
        if "latency_ms" in raw and not jsonl.is_amount(latency_ms):
            raise ScriptFormatError(f"latency_ms must be a finite number >= 0, got {latency_ms!r}")
        if latency_ms > MAX_LATENCY_MS:
            raise ScriptFormatError(f"latency_ms must be at most {MAX_LATENCY_MS}, got {latency_ms!r}")
        text = raw["response"]
        if not isinstance(text, str):
            raise ScriptFormatError(f"response must be a string, got {text!r}")
        wanted = _ANY
        if len(match) > 2:
            for key in _OPTIONAL_MATCH_KEYS:
                # a count, as True would match step 1
                if key in match and not jsonl.is_count(match[key], 1):
                    raise ScriptFormatError(f"{key} must be an integer >= 1, got {match[key]!r}")
            wanted = tuple(map(match.get, _OPTIONAL_MATCH_KEYS))
            wanted = self._wheres.setdefault(wanted, wanted)
        queue = self._entries.get((stage, question_id))
        if queue is None:  # the key keeps one copy of each stage and question id
            queue = self._entries[sys.intern(stage), sys.intern(question_id)] = []
        queue.append(_ScriptEntry(text, prompt_tokens, completion_tokens, latency_ms / 1000.0, wanted))

    def call(self, prompt: PromptPair, params: CompletionParams, context: CallContext) -> CompletionResult:
        rank = context.sample_index  # matching entries a dealt call skips
        asked = (context.step_index, context.agent_id, context.round)
        served = None
        with self._lock:
            for entry in self._entries.get((context.stage, context.question_id), ()):
                if rank is None and entry.served:
                    continue
                if entry.where is not _ANY and entry.where != asked and not all(
                    wanted is None or wanted == got for wanted, got in zip(entry.where, asked)
                ):
                    continue
                if rank:
                    rank -= 1
                    continue
                if not entry.served:
                    entry.served = True
                    served = entry
                break
        if served is not None:
            return CompletionResult(served.text, served.prompt_tokens, served.completion_tokens, served.latency_s)
        raise ScriptExhausted(
            f"no script entry left for stage={context.stage!r} "
            f"question_id={context.question_id!r} step_index={context.step_index} "
            f"agent_id={context.agent_id} round={context.round} sample_index={context.sample_index}"
        )


def chat_payload(prompt: PromptPair, params: CompletionParams) -> dict:
    """The chat-completions request body of one call. The format
    instructions ride along in the user message."""
    user_text = prompt.user
    if prompt.format_instructions:
        user_text = f"{user_text}\n\n{prompt.format_instructions}"
    return {
        "model": params.model_id,
        "temperature": params.temperature,
        "messages": [
            {"role": "system", "content": prompt.system},
            {"role": "user", "content": user_text},
        ],
        "seed": params.seed,
    }


def _http_url(url: str, what: str) -> SplitResult:
    """``url`` split; a non-retriable ProviderError naming it as ``what``
    unless it is an http:// or https:// URL with a host and a valid port."""
    try:
        parts = urlsplit(url)
        parts.port  # ValueError for a port that is not a number in range
        if parts.scheme in ("http", "https") and parts.hostname:
            return parts
    except ValueError:
        pass
    raise ProviderError(f"{what} {url!r} is not an http:// or https:// URL", retriable=False)


class LiveBackend:
    """Chat-completions HTTP backend (OpenAI-compatible payload shape).

    It speaks HTTP/1.1 through the standard library's http.client, which it
    imports when built: no other run, replay or report loads an HTTP stack.
    A call takes an idle keep-alive connection, or opens one, and puts it
    back once it has read the whole reply, so as many are open as calls
    were ever in flight at once. A proxy named in HTTPS_PROXY or HTTP_PROXY
    is reached by CONNECT, unless NO_PROXY names the host."""

    def __init__(self, endpoint: str, api_key_env: str, timeout_s: float) -> None:
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ProviderError(
                f"environment variable {api_key_env} is not set (required for live mode)",
                retriable=False,
            )
        import http.client
        import ssl
        import urllib.request

        url = _http_url(endpoint, "endpoint")
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._timeout_s = timeout_s
        self._connection_class = http.client.HTTPConnection
        if url.scheme == "https":  # one trust store, read once
            self._connection_class = partial(http.client.HTTPSConnection, context=ssl.create_default_context())
        self._address, self._tunnel = (url.hostname, url.port), None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy = _http_url(proxy if "://" in proxy else f"http://{proxy}", f"{url.scheme} proxy")
            self._address, self._tunnel = (proxy.hostname, proxy.port or 80), self._address
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # Keep the key off the object's repr and out of logs.
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }

    def _connection(self):
        """An idle connection the server has not closed, or a new one. An
        idle connection whose socket reads as ready is at its end: the
        server closed it."""
        import selectors

        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if connection.sock is None:  # reopened by its next request
                return connection
            with selectors.DefaultSelector() as ready:
                ready.register(connection.sock, selectors.EVENT_READ)
                if not ready.select(0):
                    return connection
            connection.close()
        connection = self._connection_class(*self._address, timeout=self._timeout_s)
        if self._tunnel is not None:
            connection.set_tunnel(*self._tunnel)
        return connection

    def call(self, prompt: PromptPair, params: CompletionParams, context: CallContext) -> CompletionResult:
        import http.client

        payload = json.dumps(chat_payload(prompt, params)).encode()
        started = time.monotonic()
        connection = self._connection()
        try:
            connection.request("POST", self._path, payload, self._headers)
            response = connection.getresponse()
            reply = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            if isinstance(exc, TimeoutError):
                raise CompletionTimeout(f"provider call exceeded {self._timeout_s}s") from exc
            raise ProviderError(f"provider connection failure: {exc}", retriable=True) from exc
        latency = time.monotonic() - started
        with self._lock:
            self._idle.append(connection)

        if response.status == 429 or response.status >= 500:
            error = ProviderError(f"provider returned HTTP {response.status}", retriable=True)
            # a 429 or 503 may say how long to wait: Retry-After in seconds
            # is read, an HTTP-date is not
            asked = (response.getheader("Retry-After") or "").strip()
            if response.status in (429, 503) and asked.isdecimal():
                error.retry_after_s = float(asked)
            raise error
        if response.status >= 300:
            raise ProviderError(f"provider returned HTTP {response.status}", retriable=False)

        try:
            body = jsonl.loads(reply)
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}", retriable=False) from exc
        if not isinstance(text, str):
            raise ProviderError(f"malformed provider response: content is {text!r}", retriable=False)
        usage = body.get("usage")
        known = usage if isinstance(usage, dict) else {}
        counts = known.get("prompt_tokens"), known.get("completion_tokens")
        if not (jsonl.is_count(counts[0], 0) and jsonl.is_count(counts[1], 0)) or max(counts) > jsonl.MAX_TOKENS:
            raise ProviderError(f"malformed provider usage: {usage!r}", retriable=False)
        return CompletionResult(text, *counts, latency)


# The fields of a stage's usage row: six counts, then wall_time_s.
USAGE_FIELDS = ("live_calls", "cached_calls", "prompt_tokens", "completion_tokens",
                "billed_prompt_tokens", "billed_completion_tokens", "wall_time_s")


class UsageLedger:
    """One question's completions, as (stage, result) pairs. The calls of a
    fan-out append from several threads, so the order is not call order."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, CompletionResult]] = []

    def question_usage(self) -> dict[str, dict]:
        """A usage row per stage, in stage order: USAGE_FIELDS to their
        values. wall_time_s is the exact sum of the stage's latencies
        (math.fsum), so the order the calls were recorded in does not
        change it."""
        by_stage: dict[str, list[CompletionResult]] = {}
        for stage, result in self.calls:
            by_stage.setdefault(stage, []).append(result)
        rows = {}
        for stage in sorted(by_stage):
            live = cached = prompt = completion = billed_prompt = billed_completion = 0
            for result in by_stage[stage]:
                prompt += result.prompt_tokens
                completion += result.completion_tokens
                if result.from_cache:
                    cached += 1
                else:
                    live += 1
                    billed_prompt += result.prompt_tokens
                    billed_completion += result.completion_tokens
            wall_time_s = math.fsum(result.latency_s for result in by_stage[stage])
            values = live, cached, prompt, completion, billed_prompt, billed_completion, wall_time_s
            rows[stage] = dict(zip(USAGE_FIELDS, values))
        return rows


# The key hashes the bytes jsonl.SORTED_KEYS writes for {"format_instructions",
# "model_id", "seed", "system", "temperature" (its repr), "user"}, which every
# cache/completions.jsonl depends on. The calls of a fan-out share one prompt
# object, so its texts are escaped once, into the parts around model_id and
# seed and around temperature, kept for as long as the prompt lives.
_escape = json.encoder.encode_basestring_ascii  # what json.dumps makes of a str
_PROMPT_PARTS: "weakref.WeakKeyDictionary[PromptPair, tuple[str, str, str]]" = weakref.WeakKeyDictionary()


def cache_key(prompt: PromptPair, params: CompletionParams) -> str:
    """Content hash over everything that determines a completion."""
    parts = _PROMPT_PARTS.get(prompt)
    if parts is None:
        parts = _PROMPT_PARTS[prompt] = (
            f'{{"format_instructions": {_escape(prompt.format_instructions)}, "model_id": ',
            f', "system": {_escape(prompt.system)}, "temperature": ',
            f', "user": {_escape(prompt.user)}}}',
        )
    material = (
        f'{parts[0]}{_escape(params.model_id)}, "seed": {params.seed}'
        f"{parts[1]}{_escape(repr(params.temperature))}{parts[2]}"
    )
    return hashlib.sha256(material.encode()).hexdigest()


# A backend call at least this long is waiting on something other than this
# process (a model, a network), so independent calls gain from overlapping.
# Shorter calls are the process's own work, which threads would only slow.
BLOCKING_CALL_S = 0.001


class Gateway:
    """Backend wrapper adding cache, retry, throttles, usage recording, and
    the fan-out of a question's independent calls."""

    def __init__(
        self,
        backend,
        cache_dir: Optional[str | Path] = None,
        cache_enabled: bool = False,
        max_in_flight: Optional[int] = None,
        requests_per_minute: Optional[int] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if cache_enabled and cache_dir is None:
            raise ValueError("cache_enabled requires a cache_dir")
        self._backend = backend
        self._cache_file = Path(cache_dir) / CACHE_FILE if cache_enabled else None
        # the cache's completions by key and its stream, while a run scope is open
        self._cache: Optional[dict[str, CompletionResult]] = None
        self._cache_out: Optional[TextIO] = None
        self._cache_lock = threading.Lock()
        self._gate = threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        self._max_in_flight = max_in_flight
        self._rpm = requests_per_minute
        self._recent_calls: deque[float] = deque()
        self._rpm_lock = threading.Lock()
        self._sleep = sleeper
        self._pool: Optional[ThreadPoolExecutor] = None
        self._ledgers: dict[str, UsageLedger] = {}  # the open ones, by question id
        # Per thread: whether its latest completion waited on the backend
        # ("blocking"), which gates the fan-outs the thread starts.
        self._thread = threading.local()

    @contextmanager
    def recording(self, question_id: str) -> Iterator[UsageLedger]:
        """A new ledger that takes every completion whose context names
        ``question_id`` while the block runs, on any thread. A run opens
        each question once; a question with no ledger open records nothing."""
        self._ledgers[question_id] = ledger = UsageLedger()
        try:
            yield ledger
        finally:
            del self._ledgers[question_id]

    @contextmanager
    def run_scope(self) -> Iterator[None]:
        """What a run holds while the block runs, released on exit: the
        cache stream, opened (its torn tail cut) and read on entry, and the
        threads that help ``fan_out``, all joined on exit before the stream
        closes. A cache-on completion needs one open. A helper thread starts
        only when a call is handed over and no helper is idle, so there are
        never more than calls that waited for one at once, and never more
        than max_in_flight."""
        with ExitStack() as held:  # released in reverse order
            if self._cache_file is not None:
                self._cache_out = held.enter_context(jsonl.append(self._cache_file))
                self._cache = self._cache_load()
                held.callback(setattr, self, "_cache", None)
                held.callback(setattr, self, "_cache_out", None)
            width = self._max_in_flight or sys.maxsize
            self._pool = held.enter_context(ThreadPoolExecutor(width, thread_name_prefix="rerail-fan-out"))
            held.callback(setattr, self, "_pool", None)
            yield

    def fan_out(self, calls: list[Callable[[], T]]) -> list[T]:
        """Run independent calls and return their results in call order.

        The caller runs the calls itself, in order, while its latest
        completion did not wait on the backend for BLOCKING_CALL_S: a cache
        hit, a fast backend, or no completion yet on this thread. From the
        first call after one that did, while a run scope is open, pool
        threads also take the calls the caller has not reached; the caller
        waits only for those. So a wave of slow calls takes at most two
        dependent rounds, while cache hits and fast calls never leave the
        caller's thread. Either way every call records into the ledger of
        the question its context names, and the first error in call order is
        raised once the calls already running have finished; from the failed
        call on, calls no pool thread has taken never start.
        """
        pool = self._pool
        results = []
        for index, call in enumerate(calls):
            if pool is not None and index < len(calls) - 1 and getattr(self._thread, "blocking", False):
                return results + self._overlap(pool, calls[index:])
            results.append(call())
        return results

    def _overlap(self, pool: ThreadPoolExecutor, calls: list[Callable[[], T]]) -> list[T]:
        """The calls run by the caller and idle pool threads at once."""
        futures = [pool.submit(call) for call in calls[1:]]
        try:
            results = [calls[0]()]
            for call, future in zip(calls[1:], futures):
                # a call no pool thread has started is the caller's to run
                results.append(call() if future.cancel() else future.result())
            return results
        finally:
            # cancel() is true for a call that never started; a cancelled
            # one is done only once a pool thread dequeues it, so only the
            # running ones are waited for
            wait([future for future in futures if not future.cancel()])

    def _record(self, context: CallContext, result: CompletionResult) -> None:
        ledger = self._ledgers.get(context.question_id)
        if ledger is not None:
            ledger.calls.append((context.stage, result))

    def complete(
        self,
        prompt: PromptPair,
        params: CompletionParams,
        context: CallContext,
    ) -> CompletionResult:
        """One completion: cache lookup, throttled backend call, recording."""
        key = cache_key(prompt, params) if self._cache_file is not None else None
        if key is not None:
            if self._cache is None:
                raise RuntimeError("a cache-on completion needs an open Gateway.run_scope")
            cached = self._cache.get(key)
            if cached is not None:
                self._thread.blocking = False
                self._record(context, cached)
                return cached

        result = self._call_with_retry(prompt, params, context)
        if key is not None:
            self._cache_append(key, result)
        self._record(context, result)
        return result

    def _call_with_retry(
        self, prompt: PromptPair, params: CompletionParams, context: CallContext
    ) -> CompletionResult:
        delay = RETRY_BASE_SLEEP_S
        for attempt in range(1, RETRY_MAX_ATTEMPTS + 1):
            self._throttle()
            if self._gate is not None:
                self._gate.acquire()
            try:
                started = time.perf_counter()
                result = self._backend.call(prompt, params, context)
                self._thread.blocking = time.perf_counter() - started >= BLOCKING_CALL_S
                return result
            except ProviderError as exc:
                if not exc.retriable or attempt == RETRY_MAX_ATTEMPTS:
                    raise
                pause = delay if exc.retry_after_s is None else min(exc.retry_after_s, RETRY_AFTER_MAX_S)
            finally:
                if self._gate is not None:
                    self._gate.release()
            self._sleep(pause)
            delay *= RETRY_FACTOR

    def _throttle(self) -> None:
        if self._rpm is None:
            return
        with self._rpm_lock:
            now = time.monotonic()
            while self._recent_calls and now - self._recent_calls[0] > 60.0:
                self._recent_calls.popleft()
            if len(self._recent_calls) >= self._rpm:
                wait = 60.0 - (now - self._recent_calls[0])
                if wait > 0:
                    self._sleep(wait)
            self._recent_calls.append(time.monotonic())

    def _cache_load(self) -> dict[str, CompletionResult]:
        """The stream's completions by key, the last line for a key winning.
        A malformed line is skipped, so its key misses; its ``usage`` is
        read by ``jsonl.usage_counts``."""
        entries: dict[str, CompletionResult] = {}
        for _, line in jsonl.lines(self._cache_file):
            try:
                payload = jsonl.loads(line)
                text, counts = payload["text"], jsonl.usage_counts(payload["usage"])
                if isinstance(text, str):
                    entries[payload["key"]] = CompletionResult(text, *counts, 0.0, from_cache=True)
            except (ValueError, KeyError, TypeError):
                pass
        return entries

    def _cache_append(self, key: str, result: CompletionResult) -> None:
        usage = {"prompt_tokens": result.prompt_tokens, "completion_tokens": result.completion_tokens}
        line = jsonl.encode({"key": key, "text": result.text, "usage": usage})
        with self._cache_lock:
            self._cache_out.write(line)
            self._cache_out.flush()  # committed before the completion returns
            self._cache[key] = replace(result, latency_s=0.0, from_cache=True)


def parse_structured_output(text: str) -> dict[str, str]:
    """Extract the first fenced JSON object as a string->string map.

    Non-string values are stringified canonically (compact JSON), never
    rejected. Raises MalformedReply, also for JSON nested too deeply to
    parse or to stringify.
    """
    match = _FENCE_RE.search(text)
    if match is None:
        raise MalformedReply("no triple-backtick fence in completion")
    body = match.group(1).strip("\n").strip()
    try:
        parsed = json.loads(body)
        if not isinstance(parsed, dict):
            raise MalformedReply("fenced JSON is not an object")
        return {
            key: value if isinstance(value, str) else json.dumps(value, sort_keys=True, separators=(",", ":"))
            for key, value in parsed.items()
        }
    except json.JSONDecodeError as exc:
        raise MalformedReply(f"fenced block is not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise MalformedReply("fenced JSON is nested too deeply") from None


def complete_structured(
    gateway: Gateway,
    prompt: PromptPair,
    params: CompletionParams,
    context: CallContext,
    read: Callable[[dict[str, str]], T],
) -> Optional[T]:
    """A structured reply read into the calling stage's value, with one re-ask.

    ``read`` turns the reply's fields into the stage's value, or raises
    ValueError when they are well-formed JSON but unusable (e.g. an
    out-of-range judge selection); that spends the same single re-ask as a
    reply with no fenced JSON object. The re-ask appends a reminder line to
    the user message and shifts the seed by one, so a live provider does
    not replay the identical bad output. After a second failure the result
    is None, and the caller fails open.
    """
    for _ in range(2):
        try:
            return read(parse_structured_output(gateway.complete(prompt, params, context).text))
        except ValueError:
            prompt = replace(prompt, user=f"{prompt.user}\n{REASK_REMINDER}")
            params = replace(params, seed=params.seed + 1)
    return None

"""Uniform completion interface.

Two backends sit behind one Gateway:

* ScriptedBackend replays pre-authored responses from a JSONL script,
  matched by pipeline stage / question id / step / agent / round. Fully
  deterministic, used by the test suite and `--backend scripted`.
* LiveBackend talks to a chat-completions HTTP endpoint. The API key comes
  from an environment variable named in the config, never from the CLI.

The Gateway adds content-addressed response caching, bounded retry with
exponential backoff, in-flight and requests-per-minute throttles, and a
thread-safe usage ledger split by live/cached calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import requests

from .prompts import PromptPair
from .types import RerailError

RETRY_BASE_SLEEP_S = 1.0
RETRY_FACTOR = 2.0
RETRY_MAX_ATTEMPTS = 5
DEFAULT_TIMEOUT_S = 120.0

REASK_REMINDER = "Respond ONLY with the JSON object in triple backticks."

_FENCE_RE = re.compile(r"```(?:json)?[ \t]*\n?(.*?)```", re.DOTALL)


class ProviderError(RerailError):
    """A provider-side failure; retriable ones get the backoff treatment."""

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


class NoFenceFound(RerailError):
    """The completion contains no triple-backtick fence."""


class MalformedJson(RerailError):
    """The fenced block is not a JSON object."""


class StructuredOutputFailure(RerailError):
    """Structured parsing failed twice (original call plus one re-ask)."""


@dataclass(frozen=True)
class CompletionParams:
    model_id: str
    temperature: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    usage: Usage
    latency_s: float
    from_cache: bool = False


@dataclass(frozen=True)
class CallContext:
    """Who is calling: routes script matching and usage attribution."""

    stage: str
    question_id: str
    step_index: Optional[int] = None
    agent_id: Optional[int] = None
    round: Optional[int] = None

    def match_values(self) -> dict:
        return {
            "stage": self.stage,
            "question_id": self.question_id,
            "step_index": self.step_index,
            "agent_id": self.agent_id,
            "round": self.round,
        }


_MATCH_KEYS = ("stage", "question_id", "step_index", "agent_id", "round")
_ENTRY_KEYS = {"match", "response", "usage", "latency_ms"}


@dataclass
class _ScriptEntry:
    match: dict
    response: str
    usage: Usage
    latency_s: float


class ScriptedBackend:
    """Deterministic backend replaying a JSONL script.

    Each line: {"match": {"stage": ..., "question_id": ..., "step_index"?,
    "agent_id"?, "round"?}, "response": str, "usage": {"prompt_tokens": int,
    "completion_tokens": int}, "latency_ms"?: number}. A call consumes the
    first unconsumed entry whose match keys all equal the call's context, in
    file order, so several entries with the same match form a queue. Entries
    are kept in per-(stage, question_id) queues, since both keys are required
    and a call can only match entries that carry its own.
    """

    def __init__(self, entries: list[dict]) -> None:
        self._queues: dict[tuple[str, str], list[_ScriptEntry]] = {}
        for line_no, raw in enumerate(entries, start=1):
            parsed = self._parse_entry(raw, line_no)
            key = (parsed.match["stage"], parsed.match["question_id"])
            self._queues.setdefault(key, []).append(parsed)
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        entries = []
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ScriptFormatError(f"script line {line_no}: invalid JSON ({exc.msg})") from None
        return cls(entries)

    @staticmethod
    def _parse_entry(raw: dict, line_no: int) -> _ScriptEntry:
        if not isinstance(raw, dict):
            raise ScriptFormatError(f"script entry {line_no}: expected an object")
        unknown = raw.keys() - _ENTRY_KEYS
        if unknown:
            raise ScriptFormatError(f"script entry {line_no}: unknown field {min(unknown)!r}")
        for required in ("match", "response", "usage"):
            if required not in raw:
                raise ScriptFormatError(f"script entry {line_no}: missing field {required!r}")
        match = raw["match"]
        if not isinstance(match, dict) or "stage" not in match or "question_id" not in match:
            raise ScriptFormatError(
                f"script entry {line_no}: match must be an object with at least stage and question_id"
            )
        if not isinstance(match["stage"], str) or not isinstance(match["question_id"], str):
            raise ScriptFormatError(f"script entry {line_no}: stage and question_id must be strings")
        bad = match.keys() - _MATCH_KEYS
        if bad:
            raise ScriptFormatError(f"script entry {line_no}: unknown match field {min(bad)!r}")
        usage_raw = raw["usage"]
        if not isinstance(usage_raw, dict):
            raise ScriptFormatError(f"script entry {line_no}: usage must be an object")
        try:
            return _ScriptEntry(
                match=dict(match),
                response=str(raw["response"]),
                usage=Usage(
                    prompt_tokens=int(usage_raw.get("prompt_tokens", 0)),
                    completion_tokens=int(usage_raw.get("completion_tokens", 0)),
                ),
                latency_s=float(raw.get("latency_ms", 0)) / 1000.0,
            )
        except (TypeError, ValueError) as exc:
            raise ScriptFormatError(f"script entry {line_no}: {exc}") from None

    def call(self, prompt: PromptPair, params: CompletionParams, context: CallContext) -> CompletionResult:
        values = context.match_values()
        with self._lock:
            queue = self._queues.get((context.stage, context.question_id), [])
            for position, entry in enumerate(queue):
                if all(entry.match[key] == values[key] for key in entry.match):
                    del queue[position]
                    return CompletionResult(
                        text=entry.response,
                        usage=entry.usage,
                        latency_s=entry.latency_s,
                    )
        raise ScriptExhausted(
            f"no script entry left for stage={context.stage!r} "
            f"question_id={context.question_id!r} step_index={context.step_index} "
            f"agent_id={context.agent_id} round={context.round}"
        )


class LiveBackend:
    """Chat-completions HTTP backend (OpenAI-compatible payload shape)."""

    def __init__(
        self,
        endpoint: str,
        api_key_env: str,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        session: Optional[requests.Session] = None,
    ) -> None:
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ProviderError(
                f"environment variable {api_key_env} is not set (required for live mode)",
                retriable=False,
            )
        self._endpoint = endpoint
        self._timeout_s = timeout_s
        self._session = session or requests.Session()
        # Keep the key off the object's repr and out of logs.
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }

    def call(self, prompt: PromptPair, params: CompletionParams, context: CallContext) -> CompletionResult:
        user_text = prompt.user
        if prompt.format_instructions:
            user_text = f"{user_text}\n\n{prompt.format_instructions}"
        payload: dict = {
            "model": params.model_id,
            "temperature": params.temperature,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": user_text},
            ],
        }
        if params.seed is not None:
            payload["seed"] = params.seed

        started = time.monotonic()
        try:
            response = self._session.post(
                self._endpoint, json=payload, headers=self._headers, timeout=self._timeout_s
            )
        except requests.Timeout as exc:
            raise CompletionTimeout(f"provider call exceeded {self._timeout_s}s") from exc
        except requests.RequestException as exc:
            raise ProviderError(f"provider connection failure: {exc}", retriable=True) from exc
        latency = time.monotonic() - started

        if response.status_code == 429 or response.status_code >= 500:
            raise ProviderError(f"provider returned HTTP {response.status_code}", retriable=True)
        if response.status_code >= 400:
            raise ProviderError(f"provider returned HTTP {response.status_code}", retriable=False)

        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}", retriable=False) from exc
        usage_raw = body.get("usage") or {}
        usage = Usage(
            prompt_tokens=int(usage_raw.get("prompt_tokens", 0)),
            completion_tokens=int(usage_raw.get("completion_tokens", 0)),
        )
        return CompletionResult(text=text, usage=usage, latency_s=latency)


@dataclass
class StageUsage:
    """Accumulated usage for one (question, stage) pair."""

    live_calls: int = 0
    cached_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    billed_prompt_tokens: int = 0
    billed_completion_tokens: int = 0
    wall_time_s: float = 0.0

    def add(self, result: CompletionResult) -> None:
        self.prompt_tokens += result.usage.prompt_tokens
        self.completion_tokens += result.usage.completion_tokens
        self.wall_time_s += result.latency_s
        if result.from_cache:
            self.cached_calls += 1
        else:
            self.live_calls += 1
            self.billed_prompt_tokens += result.usage.prompt_tokens
            self.billed_completion_tokens += result.usage.completion_tokens

    def merge(self, other: "StageUsage") -> None:
        self.live_calls += other.live_calls
        self.cached_calls += other.cached_calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.billed_prompt_tokens += other.billed_prompt_tokens
        self.billed_completion_tokens += other.billed_completion_tokens
        self.wall_time_s += other.wall_time_s

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, payload: dict) -> "StageUsage":
        return cls(**payload)


class UsageLedger:
    """Thread-safe per-(question, stage) usage accumulation."""

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, StageUsage]] = {}
        self._lock = threading.Lock()

    def record(self, question_id: str, stage: str, result: CompletionResult) -> None:
        with self._lock:
            row = self._rows.setdefault(question_id, {}).setdefault(stage, StageUsage())
            row.add(result)

    def question_usage(self, question_id: str) -> dict[str, StageUsage]:
        with self._lock:
            return {
                stage: StageUsage(**vars(row))
                for stage, row in self._rows.get(question_id, {}).items()
            }


def cache_key(prompt: PromptPair, params: CompletionParams) -> str:
    """Content hash over everything that determines a completion."""
    material = json.dumps(
        {
            "model_id": params.model_id,
            "temperature": repr(params.temperature),
            "seed": params.seed,
            "system": prompt.system,
            "user": prompt.user,
            "format_instructions": prompt.format_instructions,
        },
        sort_keys=True,
        ensure_ascii=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class Gateway:
    """Backend wrapper adding cache, retry, throttles, and usage recording."""

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
        self.ledger = UsageLedger()
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache_enabled = cache_enabled
        self._gate = threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        self._rpm = requests_per_minute
        self._recent_calls: deque[float] = deque()
        self._rpm_lock = threading.Lock()
        self._sleep = sleeper

    def complete(
        self,
        prompt: PromptPair,
        params: CompletionParams,
        context: CallContext,
    ) -> CompletionResult:
        """One completion: cache lookup, throttled backend call, recording."""
        key = cache_key(prompt, params)
        if self._cache_enabled:
            cached = self._cache_read(key)
            if cached is not None:
                self.ledger.record(context.question_id, context.stage, cached)
                return cached

        result = self._call_with_retry(prompt, params, context)
        if self._cache_enabled:
            self._cache_write(key, result)
        self.ledger.record(context.question_id, context.stage, result)
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
                return self._backend.call(prompt, params, context)
            except ProviderError as exc:
                if not exc.retriable or attempt == RETRY_MAX_ATTEMPTS:
                    raise
            finally:
                if self._gate is not None:
                    self._gate.release()
            self._sleep(delay)
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

    def _cache_path(self, key: str) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"{key}.json"

    def _cache_read(self, key: str) -> Optional[CompletionResult]:
        path = self._cache_path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            return None  # a corrupt cache file is treated as a miss
        return CompletionResult(
            text=payload["text"],
            usage=Usage(**payload["usage"]),
            latency_s=0.0,
            from_cache=True,
        )

    def _cache_write(self, key: str, result: CompletionResult) -> None:
        assert self._cache_dir is not None
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "text": result.text,
            "usage": {
                "prompt_tokens": result.usage.prompt_tokens,
                "completion_tokens": result.usage.completion_tokens,
            },
        }
        # Write-temp-then-rename keeps concurrent readers off partial files.
        fd, temp_path = tempfile.mkstemp(dir=self._cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp_path, self._cache_path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


def parse_structured_output(text: str) -> dict[str, str]:
    """Extract the first fenced JSON object as a string->string map.

    Non-string values are stringified canonically (compact JSON), never
    rejected. Raises NoFenceFound / MalformedJson.
    """
    match = _FENCE_RE.search(text)
    if match is None:
        raise NoFenceFound("no triple-backtick fence in completion")
    body = match.group(1).strip("\n").strip()
    try:
        parsed = json.loads(body)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"fenced block is not valid JSON: {exc.msg}") from None
    if not isinstance(parsed, dict):
        raise MalformedJson("fenced JSON is not an object")
    output: dict[str, str] = {}
    for key, value in parsed.items():
        if isinstance(value, str):
            output[key] = value
        else:
            output[key] = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return output


def complete_structured(
    gateway: Gateway,
    prompt: PromptPair,
    params: CompletionParams,
    context: CallContext,
    validate: Optional[Callable[[dict[str, str]], None]] = None,
) -> dict[str, str]:
    """Completion plus structured parsing, with the one-re-ask policy.

    ``validate``, when given, may raise ValueError to reject a map that is
    well-formed JSON but semantically unusable (e.g. an out-of-range judge
    selection); that rejection spends the same single re-ask as a fence
    failure. The re-ask appends a reminder line to the user message and
    shifts the seed so a live provider does not replay the identical bad
    output. A second failure raises StructuredOutputFailure.
    """

    def attempt(p: PromptPair, cp: CompletionParams) -> dict[str, str]:
        parsed = parse_structured_output(gateway.complete(p, cp, context).text)
        if validate is not None:
            validate(parsed)
        return parsed

    try:
        return attempt(prompt, params)
    except (NoFenceFound, MalformedJson, ValueError):
        pass
    retry_prompt = replace(prompt, user=f"{prompt.user}\n{REASK_REMINDER}")
    retry_params = params if params.seed is None else replace(params, seed=params.seed + 1)
    try:
        return attempt(retry_prompt, retry_params)
    except (NoFenceFound, MalformedJson, ValueError) as exc:
        raise StructuredOutputFailure(
            f"unparseable structured output after re-ask at stage {context.stage!r} "
            f"for question {context.question_id!r}: {exc}"
        ) from None

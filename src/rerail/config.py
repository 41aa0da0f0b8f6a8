"""Run configuration.

A run is configured by a single JSON file plus a handful of CLI overrides
(mode, backend, seed, parallelism). Secrets never appear in the file or on
the command line: the file names the environment variable that holds the API
key and the variable is read at backend construction time.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import jsonl
from .gateway import CallContext, CompletionParams
from .types import RerailError, STAGE_DEBATE, STAGE_EVALUATOR, STAGE_MAD, STAGE_REANSWER

DEFAULT_API_KEY_ENV = "RERAIL_API_KEY"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


class ConfigError(RerailError):
    """The config file is malformed or inconsistent."""


# The settings that are counts >= 1; the two throttles may also be null.
_THROTTLES = ("max_in_flight", "requests_per_minute")
_COUNT_FIELDS = ("n_samples", "sc_budget", "mad_agents", "mad_rounds", "n_debate_agents", "n_debate_rounds",
                 "max_reanswer_steps", "max_rerail_iterations", "parallelism", *_THROTTLES)


@dataclass(frozen=True)
class RunSettings:
    """Every knob of a run, fully resolved (file values + defaults)."""

    model_id: str = "gpt-4"
    endpoint: str = DEFAULT_ENDPOINT
    api_key_env: str = DEFAULT_API_KEY_ENV
    temperature: float = 0.0
    sampling_temperature: float = 0.7
    n_samples: int = 3
    sc_budget: int = 40
    mad_agents: int = 2
    mad_rounds: int = 3
    n_debate_agents: int = 2
    n_debate_rounds: int = 3
    max_reanswer_steps: int = 12
    max_rerail_iterations: int = 3
    parallelism: int = 1
    seed: int = 0
    timeout_s: float = 120.0
    max_in_flight: int | None = None
    requests_per_minute: int | None = None
    cache_enabled: bool | None = None  # None = backend default (live on, scripted off)
    abs_tolerance: float = 1e-6
    rel_tolerance: float = 1e-4
    # model id -> {"prompt_per_1k": $, "completion_per_1k": $}
    price_table: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not jsonl.is_count(value, 1) and not (value is None and name in _THROTTLES):
                raise ConfigError(f"config field {name!r} must be an integer >= 1, got {value!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"config field 'seed' must be an integer, got {self.seed!r}")
        if self.cache_enabled is not None and type(self.cache_enabled) is not bool:
            raise ConfigError(
                f"config field 'cache_enabled' must be true, false or null, got {self.cache_enabled!r}"
            )
        if self.mad_agents < 2:
            raise ConfigError("config field 'mad_agents' must be >= 2")
        for name in ("temperature", "sampling_temperature", "timeout_s", "abs_tolerance", "rel_tolerance"):
            value = getattr(self, name)
            if not jsonl.is_amount(value):
                raise ConfigError(f"config field {name!r} must be a finite number >= 0, got {value!r}")
        # a longer timeout makes every socket operation raise OverflowError
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"config field 'timeout_s' must be > 0 and <= {threading.TIMEOUT_MAX}, got {self.timeout_s!r}"
            )
        for name in ("model_id", "endpoint", "api_key_env"):
            if type(getattr(self, name)) is not str:
                raise ConfigError(f"config field {name!r} must be a string, got {getattr(self, name)!r}")
        if not self.model_id:
            raise ConfigError("config field 'model_id' must be non-empty")

    def to_json(self) -> dict:
        return asdict(self)

    def with_overrides(self, **overrides) -> "RunSettings":
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered) if filtered else self


FIELD_NAMES = frozenset(RunSettings.__dataclass_fields__)
_PRICE_FIELDS = frozenset(("prompt_per_1k", "completion_per_1k"))
MAX_PRICE = 10**6  # $ per 1k tokens; the cost of a run's tokens at it stays finite


def _parse_price_table(raw, source: str) -> dict[str, dict[str, float]]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: 'price_table' must be an object")
    table = {}
    for model, entry in raw.items():
        try:
            jsonl.fields(entry, _PRICE_FIELDS, _PRICE_FIELDS)
        except ValueError as exc:
            raise ConfigError(f"{source}: price_table[{model!r}] {exc}") from None
        for name, price in entry.items():
            if not jsonl.is_amount(price):
                raise ConfigError(
                    f"{source}: price_table[{model!r}] {name} must be a finite number >= 0, got {price!r}"
                )
            if price > MAX_PRICE:
                raise ConfigError(f"{source}: price_table[{model!r}] {name} must be at most {MAX_PRICE}, got {price!r}")
        table[model] = {
            "prompt_per_1k": float(entry["prompt_per_1k"]),
            "completion_per_1k": float(entry["completion_per_1k"]),
        }
    return table


def settings_from_dict(raw: dict, source: str = "config") -> RunSettings:
    try:
        values = dict(jsonl.fields(raw, frozenset(), FIELD_NAMES))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    if "price_table" in values:
        values["price_table"] = _parse_price_table(values["price_table"], source)
    return RunSettings(**values)


def question_seed(base_seed: int, question_id: str) -> int:
    """Stable per-question seed; execution order can never change a call's
    parameters because each question derives its own seed space."""
    digest = hashlib.sha256(f"{base_seed}:{question_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:6], "big")


# Each stage's part of the seed key; cot and judge calls have none.
_SEED_TAGS = {
    STAGE_EVALUATOR: "eval", STAGE_DEBATE: "debate", STAGE_REANSWER: "reanswer", STAGE_MAD: "mad",
}


def call_params(settings: RunSettings, context: CallContext) -> CompletionParams:
    """Parameters of the call a context describes.

    The seed is ``question_seed`` of a key joining the question id, the
    stage's tag and the step, agent and round the context sets
    (``"q1:debate:2:1:3"`` for step 2, agent 1, round 3), plus the sample
    index. A sample runs at the sampling temperature, every other call at
    the deterministic one.
    """
    tag = _SEED_TAGS.get(context.stage)
    step, agent, round_no, sample = context.step_index, context.agent_id, context.round, context.sample_index
    key = (
        f"{context.question_id}{'' if tag is None else ':' + tag}{'' if step is None else f':{step}'}"
        f"{'' if agent is None else f':{agent}'}{'' if round_no is None else f':{round_no}'}"
    )
    return CompletionParams(
        settings.model_id,
        settings.temperature if sample is None else settings.sampling_temperature,
        question_seed(settings.seed, key) + (sample or 0),
    )


def load_settings(path: str | Path) -> RunSettings:
    try:
        raw = jsonl.loads(Path(path).read_bytes())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return settings_from_dict(raw, source=str(path))

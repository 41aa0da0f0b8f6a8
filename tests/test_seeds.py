"""Call seeds and cache keys are pinned: a refactor must not move them.

Every call's seed is ``question_seed(settings.seed, key)`` plus a small
offset (sample index, retry or re-ask bump). The key is derived from the
call's context: the question id, the stage's tag, then the step, agent and
round it sets (``"q1:debate:2:1:1"``). The cache key hashes the seed
together with the prompt. A change here invalidates every
cached completion of every earlier run. The bytes a run writes (report,
outcomes, traces) are pinned per scenario too.
"""

import hashlib
import json

import pytest

from helpers import (
    RecordingBackend,
    RecordingGateway,
    cot_text,
    entry,
    fixable_script,
    mad_reask_script,
    make_settings,
    mcqa_question,
    sc_regen_script,
    unfixable_script,
)
from rerail.config import question_seed
from rerail.gateway import Gateway, ScriptedBackend, cache_key
from rerail.harness import run, run_cot, run_mad_baseline, run_rerailer_mode, run_sc_baseline
from rerail.types import STAGE_COT

SEED = 5
GOLDEN_FIRST_SAMPLE_KEY = "95502375cc57305e9ad8cdd6a837947bfc241e058942430881dd253247671d22"


def seed_of(tag: str, offset: int = 0) -> int:
    return question_seed(SEED, tag) + offset


def recorded(entries, runner):
    backend = RecordingBackend(ScriptedBackend(entries))
    settings = make_settings(seed=SEED)
    runner(mcqa_question(), Gateway(backend), settings)
    return [
        (ctx.stage, ctx.step_index, ctx.agent_id, ctx.round, params.temperature, params.seed)
        for params, ctx in backend.calls
    ]


def test_fixable_scenario_seeds_follow_the_documented_derivation():
    calls = recorded(fixable_script("q1"), run_rerailer_mode)
    assert calls == [
        ("cot", None, None, None, 0.7, seed_of("q1", 0)),
        ("cot", None, None, None, 0.7, seed_of("q1", 1)),
        ("cot", None, None, None, 0.7, seed_of("q1", 2)),
        ("judge", None, None, None, 0.0, seed_of("q1")),
        ("evaluator", 1, None, None, 0.0, seed_of("q1:eval:1")),
        ("evaluator", 2, None, None, 0.0, seed_of("q1:eval:2")),
        ("debate", 2, 1, 1, 0.0, seed_of("q1:debate:2:1:1")),
        ("debate", 2, 2, 1, 0.0, seed_of("q1:debate:2:2:1")),
        ("reanswer", None, None, 1, 0.0, seed_of("q1:reanswer:1")),
        ("evaluator", 2, None, None, 0.0, seed_of("q1:eval:2")),
        ("evaluator", 3, None, None, 0.0, seed_of("q1:eval:3")),
    ]


def test_mad_scenario_seeds_include_the_reask_bump():
    calls = recorded(mad_reask_script("q1"), run_mad_baseline)
    assert calls == [
        ("mad", None, 1, 1, 0.0, seed_of("q1:mad:1:1")),
        ("mad", None, 1, 1, 0.0, seed_of("q1:mad:1:1", 1)),
        ("mad", None, 2, 1, 0.0, seed_of("q1:mad:2:1")),
        ("mad", None, 1, 2, 0.0, seed_of("q1:mad:1:2")),
        ("mad", None, 2, 2, 0.0, seed_of("q1:mad:2:2")),
    ]


def test_golden_cache_key_of_the_first_sample():
    backend = RecordingBackend(ScriptedBackend(fixable_script("q1")))
    gw = RecordingGateway(backend)
    run_rerailer_mode(mcqa_question(), gw, make_settings(seed=SEED))
    (_, prompt), (params, _) = gw.records[0], backend.calls[0]
    assert params.seed == 61982573072121
    assert cache_key(prompt, params) == GOLDEN_FIRST_SAMPLE_KEY


def test_cache_stream_holds_the_key_of_every_call(tmp_path):
    backend = RecordingBackend(ScriptedBackend(fixable_script("q1")))
    gw = RecordingGateway(backend, cache_dir=tmp_path, cache_enabled=True)
    with gw.run_scope():
        run_rerailer_mode(mcqa_question(), gw, make_settings(seed=SEED))
    lines = (tmp_path / "completions.jsonl").read_text().splitlines()
    keys = [json.loads(line)["key"] for line in lines]
    called = {cache_key(prompt, params) for (_, prompt), (params, _) in zip(gw.records, backend.calls)}
    # one line per distinct call, keyed as the file names of the old layout were
    assert sorted(keys) == sorted(called)
    assert keys[0] == GOLDEN_FIRST_SAMPLE_KEY


class KeyedBackend:
    """Wraps a backend and records each call's stage, seed and cache key."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.keys: list[tuple[str, int, str]] = []

    def call(self, prompt, params, context):
        self.keys.append((context.stage, params.seed, cache_key(prompt, params)))
        return self.inner.call(prompt, params, context)


@pytest.mark.parametrize(
    "entries, runner, settings, calls, digest",
    [
        (fixable_script("q1"), run_rerailer_mode, {}, 11,
         "9df661f8a76c624a7684c58e962356a1cea398737a6e1774bc3191bc355621ba"),
        (unfixable_script("q1"), run_rerailer_mode, {}, 16,
         "a0e3e77d4253ce21a7d0ab740d954d7a0f13acfda3ca0f92b5ee2ae873ff917e"),
        (sc_regen_script("q1"), run_sc_baseline, {"sc_budget": 5}, 6,
         "e27882b8f2080e90c3b34330af5a84c0bfb7893260071e2e12a2d899baa8417e"),
        (mad_reask_script("q1"), run_mad_baseline, {}, 5,
         "647b1a9a45baed183c485dab787d7bb17b18d5960409b3e685221da5c83644f8"),
        ([entry(STAGE_COT, "q1", cot_text(["Reason."], "B"))], run_cot, {}, 1,
         "4cb12a1a52ab2edb72b834e5d75a82fe11461f13c5525269745b67da65243cf7"),
    ],
    ids=["fixable", "unfixable", "sc", "mad-reask", "cot"],
)
def test_golden_digest_of_every_call(entries, runner, settings, calls, digest):
    # Pins every prompt byte and parameter a scenario sends, call by call.
    backend = KeyedBackend(ScriptedBackend(entries))
    runner(mcqa_question(), Gateway(backend), make_settings(seed=SEED, **settings))
    assert len(backend.keys) == calls
    assert hashlib.sha256(json.dumps(backend.keys).encode("utf-8")).hexdigest() == digest


ARTIFACTS = ("report.json", "outcomes.jsonl", "traces.jsonl")


@pytest.mark.parametrize(
    "entries, mode, settings, digest",
    [
        (fixable_script("q1"), "rerailer", {},
         "b75e77016394a50c47bcccf29c4b045980c65510143f2b3d3991fed8f765cc0c"),
        (unfixable_script("q1"), "rerailer", {},
         "f930e86987b1a2beadee954dbb798aeb531fe4cd8eabfca2d401a498cf817132"),
        (sc_regen_script("q1"), "sc", {"sc_budget": 5},
         "8b754f3200b2bdc7bc3f27dbf238304a20a21a306ec03d2ab9386b89faaca704"),
        (mad_reask_script("q1"), "mad", {},
         "f3c6732372e1487424c02f0063f99886c21a17fc92d9704138734820cf689954"),
        ([entry(STAGE_COT, "q1", cot_text(["Reason."], "B"))], "cot", {},
         "3c90be87a64cd3231ebfc8f24e5687ab74c619231f51bcabc361d17e3c341074"),
    ],
    ids=["fixable", "unfixable", "sc", "mad-reask", "cot"],
)
def test_golden_digest_of_the_run_artifacts(tmp_path, entries, mode, settings, digest):
    # Pins every byte a run writes for a scenario: report, outcomes, traces.
    run([mcqa_question()], make_settings(seed=SEED, parallelism=1, **settings), mode, tmp_path,
        Gateway(ScriptedBackend(entries)))
    written = b"".join((tmp_path / name).read_bytes() for name in ARTIFACTS)
    assert hashlib.sha256(written).hexdigest() == digest

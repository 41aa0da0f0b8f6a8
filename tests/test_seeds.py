"""Call seeds and cache keys are pinned: a refactor must not move them.

Every call's seed is ``question_seed(settings.seed, "<question id>[:<tag>]")``
plus a small offset (sample index, retry or re-ask bump), and the cache key
hashes the seed together with the prompt. A change here invalidates every
cached completion of every earlier run.
"""

import json

from helpers import (
    RecordingBackend,
    RecordingGateway,
    entry,
    fixable_script,
    mad_answer,
    make_settings,
    mcqa_question,
)
from rerail.config import question_seed
from rerail.gateway import Gateway, ScriptedBackend, cache_key
from rerail.harness import run_mad_baseline, run_rerailer_mode
from rerail.types import STAGE_MAD

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
        ("reanswer", None, None, None, 0.0, seed_of("q1:reanswer:1")),
        ("evaluator", 2, None, None, 0.0, seed_of("q1:eval:2")),
        ("evaluator", 3, None, None, 0.0, seed_of("q1:eval:3")),
    ]


def test_mad_scenario_seeds_include_the_reask_bump():
    entries = [
        entry(STAGE_MAD, "q1", "no fence here", agent_id=1, round_no=1),
        entry(STAGE_MAD, "q1", mad_answer("A"), agent_id=1, round_no=1),
        entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=2, round_no=1),
        entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=1, round_no=2),
        entry(STAGE_MAD, "q1", mad_answer("B"), agent_id=2, round_no=2),
    ]
    calls = recorded(entries, run_mad_baseline)
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
    run_rerailer_mode(mcqa_question(), gw, make_settings(seed=SEED))
    lines = (tmp_path / "completions.jsonl").read_text().splitlines()
    keys = [json.loads(line)["key"] for line in lines]
    called = {cache_key(prompt, params) for (_, prompt), (params, _) in zip(gw.records, backend.calls)}
    # one line per distinct call, keyed as the file names of the old layout were
    assert sorted(keys) == sorted(called)
    assert keys[0] == GOLDEN_FIRST_SAMPLE_KEY

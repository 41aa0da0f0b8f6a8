"""Harness cost per question must not grow with the dataset.

Timing checks are flaky, so this counts work instead: the Python line
events a run executes, on every thread, over the benchmark's generated
rerailer-overhead inputs at two sizes. A scan that grows with the dataset
(the script, a ledger, the cache) would show as more events per question
in the larger run. Loading the script is measured in memory: it may hold
little more at its peak than the backend it builds.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
import threading
from pathlib import Path

from helpers import allocated
from rerail.config import load_settings
from rerail.dataset import load_dataset
from rerail.gateway import Gateway, ScriptedBackend
from rerail.harness import run

BENCH = Path(__file__).resolve().parent.parent / "bench"
QUESTIONS_PER_BLOCK = 36


def generator():
    spec = importlib.util.spec_from_file_location("rerail_bench_generate", BENCH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line_events_per_question(tmp_path: Path, blocks: int) -> float:
    inputs = tmp_path / f"inputs-{blocks}"
    generator().generate("rerailer-overhead", 1, inputs, blocks={"rerailer": blocks})
    settings = load_settings(inputs / "config.json")
    questions = load_dataset(inputs / "rerailer.dataset.jsonl")
    gateway = Gateway(ScriptedBackend.from_file(inputs / "rerailer.script.jsonl"))
    counter = itertools.count()  # next() on it is atomic, so every thread can count

    def trace(frame, event, arg):
        return count_lines

    def count_lines(frame, event, arg):
        if event == "line":
            next(counter)
        return count_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        report = run(questions, settings, "rerailer", tmp_path / f"run-{blocks}", gateway)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    assert len(questions) == blocks * QUESTIONS_PER_BLOCK
    assert report["counts"]["failed"] == 0
    return next(counter) / len(questions)


def test_line_events_per_question_stay_flat_as_the_dataset_grows(tmp_path):
    small = line_events_per_question(tmp_path, 4)
    large = line_events_per_question(tmp_path, 16)
    assert large <= 1.05 * small, (small, large)


def test_loading_the_script_holds_little_more_than_it_keeps(tmp_path):
    generator().generate("rerailer-overhead", 1, tmp_path, blocks={"rerailer": 4})
    backend, kept, peak = allocated(lambda: ScriptedBackend.from_file(tmp_path / "rerailer.script.jsonl"))
    assert backend._entries and peak <= 1.25 * kept, (kept, peak)

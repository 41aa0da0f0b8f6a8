"""The benchmark's span tracer still finds and reads what it wraps.

``bench/tracing.py`` wraps package functions by name and reads fields of
their return values (its INSPECT table). A refactor that renames a target
or changes such a value makes the traced metrics read 0 or the traced run
fail, so this checks the tracer's contract against a scripted run.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from helpers import fixable_script, make_settings, mcqa_question
from rerail import harness
from rerail.gateway import Gateway, ScriptedBackend

BENCH = Path(__file__).resolve().parent.parent / "bench"


def tracing():
    spec = importlib.util.spec_from_file_location("rerail_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes() -> dict[tuple, object]:
    """Every attribute of each loaded rerail module, and of each class
    defined in one, by (owner, name)."""
    attributes = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "rerail" and not module_name.startswith("rerail."):
            continue
        for key, value in vars(module).items():
            attributes[module_name, key] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, raw in vars(value).items():
                    attributes[module_name, key, attr] = raw
    return attributes


def test_the_tracer_finds_every_target_and_restores_each_one(tmp_path):
    module = tracing()
    for module_name, _, _ in module.TARGETS:  # loaded before the snapshot
        importlib.import_module(module_name)
    before = package_attributes()
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert package_attributes() != before  # the targets are wrapped
        gateway = Gateway(ScriptedBackend(fixable_script("q1")))
        report = harness.run([mcqa_question()], make_settings(), "rerailer", tmp_path, gateway)
    finally:
        tracer.uninstall()
    after = package_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    assert report["counts"] == {"total": 1, "failed": 0, "consistent": 0, "derailed": 1}
    evaluations = [extra for name, extra in tracer.events if name == "rerailer.evaluate_step"]
    assert evaluations and all(type(auto) is bool for auto in evaluations)
    assert any(evaluations)  # the second pass passes the verified prefix without a call
    completions = [span[6] for span in tracer.spans if span[1] == "gateway.Gateway.complete"]
    assert completions and all(type(from_cache) is bool for from_cache in completions)
    assert {span[1] for span in tracer.spans} >= {"harness.run", "harness.run_question", "rerailer.rerail"}

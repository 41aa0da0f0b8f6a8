"""A run directory damaged in one place (a JSON value, a key of an object
dropped, a truncated line, a byte that is not UTF-8): ``rerail replay`` and a resumed ``rerail run``
each end in a documented exit code and raise nothing. A resume over a
config snapshot that no longer holds the run's config is refused and
writes nothing."""

import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from helpers import consistent_script, fixable_script, mcqa_question, write_dataset, write_script
from rerail import jsonl
from rerail.cli import EXIT_OK, EXIT_RUNTIME_ERROR, EXIT_USER_ERROR, main
from rerail.harness import CONFIG_FILE, OUTCOMES_FILE, TRACES_FILE

STREAMS = (OUTCOMES_FILE, TRACES_FILE, CONFIG_FILE, "cache/completions.jsonl")
VALUES = (None, True, 0, -1, 1.5, "x", [], {})
EXIT_CODES = (EXIT_OK, EXIT_USER_ERROR, EXIT_RUNTIME_ERROR)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A scripted, cache-on, priced rerailer run of a consistent and a
    fixable question, and the arguments that resume it (all but --out)."""
    root = tmp_path_factory.mktemp("pristine")
    write_dataset(root / "questions.jsonl", [mcqa_question(qid="c1"), mcqa_question(qid="f1")])
    script = write_script(root / "script.jsonl", consistent_script("c1") + fixable_script("f1"))
    config = root / "config.json"
    price = {"prompt_per_1k": 0.03, "completion_per_1k": 0.06}
    config.write_text(json.dumps({"cache_enabled": True, "model_id": "m", "price_table": {"m": price}}))
    run = [
        "run", "--config", str(config), "--dataset", str(root / "questions.jsonl"),
        "--mode", "rerailer", "--backend", "scripted", "--script", str(script),
    ]
    assert main(run + ["--out", str(root / "run")]) == EXIT_OK
    return root / "run", run


def json_paths(value, prefix=()):
    """The path of a JSON value and of every value inside it."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_paths(child, prefix + (key,))


def holder(document, path):
    """The object or array holding the value at ``path`` (not empty)."""
    inner = document
    for key in path[:-1]:
        inner = inner[key]
    return inner


def with_value(document, path, new):
    if not path:
        return new
    holder(document, path)[path[-1]] = new
    return document


def damage(data, target):
    """Change one JSON value, drop one key of an object, truncate one line,
    or put a byte that is not UTF-8 in place of one byte of a committed
    line, of ``target``."""
    how = data.draw(st.sampled_from(("value", "drop", "truncate", "byte")), label="how")
    if how in ("truncate", "byte"):
        lines = target.read_bytes().splitlines(keepends=True)
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[index]
        if how == "truncate":  # may cut only the newline, gluing two lines or leaving a torn tail
            lines[index] = line[:data.draw(st.integers(0, len(line) - 1), label="cut")]
        else:
            at = data.draw(st.integers(0, len(line.rstrip(b"\n")) - 1), label="at")
            lines[index] = line[:at] + b"\xff" + line[at + 1:]
        target.write_bytes(b"".join(lines))
        return
    text = target.read_text(encoding="utf-8")
    # the config snapshot is one JSON document, a stream one per line
    units = [text] if target.name == CONFIG_FILE else text.splitlines()
    index = data.draw(st.integers(0, len(units) - 1), label="line")
    document = json.loads(units[index])
    if how == "drop":  # a key of an object is a string, an index of an array an int
        keys = [path for path in json_paths(document) if path and isinstance(path[-1], str)]
        path = data.draw(st.sampled_from(keys), label="key")
        del holder(document, path)[path[-1]]
    else:
        path = data.draw(st.sampled_from(list(json_paths(document))), label="path")
        document = with_value(document, path, data.draw(st.sampled_from(VALUES), label="value"))
    units[index] = json.dumps(document)
    target.write_text("\n".join(units) + "\n", encoding="utf-8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_replay_and_resume_of_a_damaged_run_end_in_an_exit_code(pristine, tmp_path_factory, data):
    source, run = pristine
    out = tmp_path_factory.mktemp("damaged") / "run"
    shutil.copytree(source, out)
    damage(data, out / data.draw(st.sampled_from(STREAMS), label="file"))
    assert main(["replay", "--trace", str(out)]) in EXIT_CODES
    before = contents(out)
    changed = parsed(out / CONFIG_FILE) != parsed(source / CONFIG_FILE)
    resumed = main(run + ["--out", str(out)])
    assert resumed in EXIT_CODES
    if changed:
        assert resumed == EXIT_USER_ERROR
        assert contents(out) == before


def contents(directory):
    """The bytes of every file under ``directory``, by relative path."""
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def parsed(path):
    """The JSON value the file holds, or None if it holds none."""
    try:
        return jsonl.loads(path.read_bytes())
    except ValueError:
        return None

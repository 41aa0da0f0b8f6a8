"""Opening a stream for appending: ``jsonl.append`` cuts a torn tail, which
it finds by reading back from the end of the stream, never the whole of it.
Reading a JSON value: anything unreadable is a ValueError, worded as
json.loads words it."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DEEP_JSON, allocated, reference_loads
from rerail import jsonl
from rerail.jsonl import TAIL_BLOCK

LINE = b'{"key": "k"}\n'


@pytest.mark.parametrize(
    "data,kept",
    [
        (b"", b""),
        (LINE * 3, LINE * 3),
        (LINE + b'{"key": "to', LINE),
        (b'{"key": "torn', b""),  # no newline at all
        (LINE + b"x" * (3 * TAIL_BLOCK + 5), LINE),  # a tail over four blocks
        (b"x" * (2 * TAIL_BLOCK), b""),  # no newline in two whole blocks
        (b"x" * (TAIL_BLOCK - 1) + b"\n" + b"y" * TAIL_BLOCK, b"x" * (TAIL_BLOCK - 1) + b"\n"),
    ],
    ids=["empty", "committed", "torn", "no-newline", "tail-over-blocks", "blocks-no-newline", "block-edge"],
)
def test_append_cuts_the_stream_back_to_its_last_newline(tmp_path, data, kept):
    path = tmp_path / "stream.jsonl"
    path.write_bytes(data)
    with jsonl.append(path) as out:
        out.write(jsonl.encode({"key": "next"}))
    assert path.read_bytes() == kept + b'{"key": "next"}\n'


def test_opening_a_large_committed_stream_reads_only_its_tail(tmp_path):
    path = tmp_path / "stream.jsonl"
    line = b'{"key": "' + b"k" * 88 + b'"}\n'
    path.write_bytes(line * (8 * 2**20 // len(line)))
    size = path.stat().st_size
    _, _, peak = allocated(lambda: jsonl.append(path).close())
    assert path.stat().st_size == size and peak < 2**20, peak


def test_json_nested_too_deeply_is_a_value_error():
    # json.loads raised RecursionError, which no reader caught
    with pytest.raises(ValueError, match=r"invalid JSON \(nested too deeply\)"):
        jsonl.loads(DEEP_JSON.encode())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),  # floats include NaN and Infinity
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# characters that change what a JSON text means, and some that JSON never allows
TOKENS = '{}[],:"\\ \n\t0-1.eE+aeflnrstuINy\x00\x7f\u00e9\u2028\ufeff'
PREFIXES = ("", "\ufeff", " ", "\n", "\r\n\t")
SUFFIXES = ("", "\n", " \n", "\r\n", "\t\t", "\x0b", "\x0c", "\u00a0", "\u2028", "x", " 1", "{}", "\n\n")
NOT_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xc0\xaf")


@st.composite
def documents(draw):
    """A line as a reader meets it: a JSON text, a nesting deeper than the
    recursion limit, or a literal, maybe mutated or holding a byte that is
    not UTF-8, framed by whitespace, a BOM or trailing data."""
    kind = draw(st.sampled_from(("value", "nested", "literal")))
    if kind == "value":
        text = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    elif kind == "nested":
        # deeper than any recursion limit Python or Hypothesis sets
        depth = draw(st.sampled_from((5_000, 20_000, 100_000)))
        opener, closer = draw(st.sampled_from((("[", "]"), ('{"k": ', "}"))))
        text = opener * depth + "1" + closer * depth
    else:  # an integer longer than int() converts, and the constants json.dumps writes
        text = draw(st.sampled_from(("1" * 4301, "-" + "9" * 5000, "NaN", "Infinity", "-Infinity")))
    damage = draw(st.sampled_from(("none", "mutate", "not-utf8")))
    if damage == "mutate":
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("delete", "insert", "replace")))
        token = "" if how == "delete" else draw(st.sampled_from(TOKENS))
        text = text[:at] + token + text[at + (how != "insert"):]
    data = (draw(st.sampled_from(PREFIXES)) + text + draw(st.sampled_from(SUFFIXES))).encode("utf-8", "surrogatepass")
    if damage == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def read(loads, data: bytes):
    """What ``loads`` makes of ``data``: the repr of the value (so 1, 1.0
    and True differ, and NaN equals NaN), or the type and message of the
    error."""
    try:
        return "value", repr(loads(data))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=documents())
def test_loads_reads_every_line_as_json_loads_does(data):
    assert read(jsonl.loads, data) == read(reference_loads, data)


@pytest.mark.parametrize(
    "value, count, amount",
    [
        (0, True, True),
        (10**400, True, False),  # float() of it overflows
        (1.7976931348623157e308, False, True),
        (True, False, False),
        (1.0, False, True),
        (-1, False, False),
        (float("nan"), False, False),
        (float("inf"), False, False),
        ("1", False, False),
        (None, False, False),
    ],
    ids=["0", "10**400", "max-float", "true", "1.0", "-1", "nan", "inf", "string", "null"],
)
def test_the_count_and_amount_rules(value, count, amount):
    assert jsonl.is_count(value, 0) is count
    assert jsonl.is_amount(value) is amount


@pytest.mark.parametrize(
    "value, error",
    [
        ({"a": 1, "b": 2}, None),
        ({"a": 1}, None),
        ({"b": 2}, "missing field 'a'"),
        ({"b": 2, "z": 0, "c": 0}, "unknown field 'c'"),  # an unknown key is named before a missing one
        ([], "expected a JSON object"),
        (None, "expected a JSON object"),
    ],
)
def test_the_exact_fields_rule(value, error):
    if error is None:
        assert jsonl.fields(value, frozenset("a"), frozenset("ab")) is value
    else:
        with pytest.raises(ValueError) as raised:
            jsonl.fields(value, frozenset("a"), frozenset("ab"))
        assert str(raised.value) == error


@pytest.mark.parametrize(
    "block, read",
    [
        ({}, (0, 0)),
        ({"completion_tokens": 3}, (0, 3)),
        ({"prompt_tokens": 2**53 - 1, "completion_tokens": 3}, (2**53 - 1, 3)),
        ({"prompt_tokens": 5, "completion_tokns": 3}, "usage: unknown field 'completion_tokns'"),
        ([5, 3], "usage: expected a JSON object"),
        ({"prompt_tokens": 1.0}, "token counts must be non-negative integers, got {'prompt_tokens': 1.0}"),
        ({"completion_tokens": -1}, "token counts must be non-negative integers, got {'completion_tokens': -1}"),
        # a count a float cannot hold exactly made a priced run's cost raise OverflowError
        ({"completion_tokens": 2**53},
         "token counts must be at most 9007199254740991, got {'completion_tokens': 9007199254740992}"),
        pytest.param({"prompt_tokens": 10**400},
                     f"token counts must be at most 9007199254740991, got {{'prompt_tokens': {10**400}}}", id="10**400"),
    ],
)
def test_the_usage_block_rule(block, read):
    if isinstance(read, tuple):
        assert jsonl.usage_counts(block) == read
    else:
        with pytest.raises(ValueError) as raised:
            jsonl.usage_counts(block)
        assert str(raised.value) == read

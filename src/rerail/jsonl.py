"""How the program reads JSON and writes a run's streams.

Every file parsed as JSON (the config, a config snapshot, the dataset, the
script and the three streams) is read as bytes and decoded as strict UTF-8,
a JSON Lines file line by line, so a bad byte is the error of its line.

A run's streams (outcomes, traces, the completion cache) are append-only
JSON Lines. A line is committed once its newline is written, so a crash
mid-append leaves at most an unterminated last line, a torn tail: readers
skip it, and ``append`` cuts it off before the stream is written to, so the
next line is not glued onto it. ``append`` finds the tail by reading back
from the end of the stream in blocks of TAIL_BLOCK bytes to the last
newline, so opening a stream costs the size of its tail, not of the stream.

Every reader of a JSON input holds its values to the same four rules, kept
here: an object's exact fields (``fields``), a count (``is_count``), an
amount (``is_amount``), and a script entry's or cache line's usage block
(``usage_counts``), whose token counts are at most MAX_TOKENS.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

TAIL_BLOCK = 64 * 1024

# json.dumps(..., sort_keys=True) with its other options at their defaults,
# built once rather than per call. Threads share it: encode keeps no state
# between calls.
SORTED_KEYS = json.JSONEncoder(sort_keys=True)

# The scanner of a default JSONDecoder, the one json.loads runs, and the
# whitespace JSON allows after a value.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
_WHITESPACE = " \t\n\r"

_USAGE_KEYS = frozenset(("prompt_tokens", "completion_tokens"))
# The most tokens one call may report: 2**53 - 1, up to which a float holds
# every integer exactly. A run's token sums, and the cost priced from them,
# then stay finite.
MAX_TOKENS = 2**53 - 1
_NO_KEYS = frozenset()


def fields(value, required: frozenset, allowed: frozenset) -> dict:
    """``value`` if it is a JSON object with every ``required`` key and no
    key outside ``allowed``; ValueError naming the least unknown key, else
    the least missing one, otherwise."""
    if type(value) is not dict:
        raise ValueError("expected a JSON object")
    keys = value.keys()
    if keys != allowed and not required <= keys <= allowed:
        unknown = keys - allowed
        if unknown:
            raise ValueError(f"unknown field {min(unknown)!r}")
        raise ValueError(f"missing field {min(required - keys)!r}")
    return value


def is_count(value, least: int) -> bool:
    """Whether ``value`` is a JSON integer, not a bool, >= ``least``."""
    # type() rather than isinstance(): a bool is an int subclass
    return type(value) is int and value >= least


def is_amount(value) -> bool:
    """Whether ``value`` is a JSON number, not a bool, from 0 to the largest
    float: 10**400 is none, as float() of it overflows."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


def usage_counts(block) -> tuple[int, int]:
    """The (prompt_tokens, completion_tokens) of a script entry's or cache
    line's usage block: an object with no other key, each a count from 0 to
    MAX_TOKENS, one left out counting as 0. ValueError saying what is wrong
    otherwise."""
    if type(block) is not dict or not block.keys() <= _USAGE_KEYS:
        try:
            fields(block, _NO_KEYS, _USAGE_KEYS)  # raises: not an object, or an unknown key
        except ValueError as exc:
            raise ValueError(f"usage: {exc}") from None
    counts = block.get("prompt_tokens", 0), block.get("completion_tokens", 0)
    if not (is_count(counts[0], 0) and is_count(counts[1], 0)):
        raise ValueError(f"token counts must be non-negative integers, got {block}")
    if counts[0] > MAX_TOKENS or counts[1] > MAX_TOKENS:
        raise ValueError(f"token counts must be at most {MAX_TOKENS}, got {block}")
    return counts


def encode(record: dict) -> str:
    """One record as a committed line."""
    return SORTED_KEYS.encode(record) + "\n"


def decode(data: bytes) -> str:
    """``data`` decoded as strict UTF-8; ValueError naming the first bad
    byte and where it is otherwise."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        where = f"line {line}, " if line > 1 else ""
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ValueError(f"not UTF-8 (byte {data[exc.start]:#04x} at {where}column {column})") from None


def loads(data: bytes):
    """The JSON value ``data`` holds; ValueError saying what is wrong
    otherwise, a value nested too deeply for the parser included. The bytes
    are decoded here, as strict UTF-8: json.loads would also take UTF-16 and
    UTF-32.

    A value that starts at the first character is read by the scanner
    json.loads itself runs, without its wrappers; anything else, and any
    error, goes through json.loads, which words the error."""
    text = decode(data)
    try:
        value, end = _scan_once(text, 0)
        if not text[end:].strip(_WHITESPACE):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None


def lines(path: str | Path, whole: bool = False) -> Iterator[tuple[int, bytes]]:
    """The file's non-blank lines with their 1-based numbers. A stream's
    torn tail is left out; ``whole`` keeps it, for an input file, whose
    last line need not end in a newline."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if (whole or line.endswith(b"\n")) and not line.isspace():
                yield line_no, line


def append(path: Path) -> TextIO:
    """The stream opened for appending: created with its directory if
    missing, and cut back to its last newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab+") as handle:
        size = handle.seek(0, os.SEEK_END)
        committed = _committed_size(handle, size)
        if committed < size:
            handle.truncate(committed)
    return open(path, "a", encoding="utf-8")


def _committed_size(handle: BinaryIO, size: int) -> int:
    """The stream's bytes up to and with its last newline, 0 if it has none,
    found reading back from its ``size`` bytes in TAIL_BLOCK blocks."""
    end = size
    while end:
        start = max(0, end - TAIL_BLOCK)
        handle.seek(start)
        newline = handle.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0

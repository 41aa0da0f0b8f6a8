"""How the program reads JSON and writes a run's streams.

Every file parsed as JSON (the config, a config snapshot, the dataset, the
script and the three streams) is read as bytes and decoded as strict UTF-8,
a JSON Lines file line by line, so a bad byte is the error of its line.

A run's streams (outcomes, traces, the completion cache) are append-only
JSON Lines. A line is committed once its newline is written, so a crash
mid-append leaves at most an unterminated last line, a torn tail: readers
skip it, and ``append`` cuts it off before the stream is written to, so the
next line is not glued onto it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, TextIO


def encode(record: dict) -> str:
    """One record as a committed line."""
    return json.dumps(record, sort_keys=True) + "\n"


def loads(data: bytes):
    """The JSON value ``data`` holds; ValueError saying what is wrong
    otherwise. The bytes are decoded here, as strict UTF-8: json.loads would
    also take UTF-16 and UTF-32."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        where = f"line {line}, " if line > 1 else ""
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ValueError(f"not UTF-8 (byte {data[exc.start]:#04x} at {where}column {column})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None


def lines(path: str | Path, whole: bool = False) -> Iterator[tuple[int, bytes]]:
    """The file's non-blank lines with their 1-based numbers. A stream's
    torn tail is left out; ``whole`` keeps it, for an input file, whose
    last line need not end in a newline."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if (whole or line.endswith(b"\n")) and line.strip():
                yield line_no, line


def append(path: Path) -> TextIO:
    """The stream opened for appending: created with its directory if
    missing, and cut back to its last newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab+") as handle:
        handle.seek(0)
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)
    return open(path, "a", encoding="utf-8")

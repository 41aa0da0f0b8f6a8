"""The one format of a run's streams (outcomes, traces, the completion
cache): append-only JSON Lines. A line is committed once its newline is
written, so a crash mid-append leaves at most an unterminated last line, a
torn tail: readers skip it, and a writer cuts it off before its first
append, so the next line is not glued onto it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


def encode(record: dict) -> str:
    """One record as a committed line."""
    return json.dumps(record, sort_keys=True) + "\n"


def committed_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The stream's committed, non-blank lines with their 1-based numbers."""
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.endswith("\n") and line.strip():
                yield line_no, line


def drop_torn_tail(path: Path) -> None:
    """Cut the stream back to its last newline."""
    with open(path, "rb+") as handle:
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)

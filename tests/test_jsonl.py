"""Opening a stream for appending: ``jsonl.append`` cuts a torn tail, which
it finds by reading back from the end of the stream, never the whole of it.
Reading a JSON value: anything unreadable is a ValueError."""

import pytest

from helpers import DEEP_JSON, allocated
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

"""The line-oriented text format every input file shares: objects, hierarchy
and manifest files.

Files are UTF-8, and a leading byte-order mark is not part of the text. Text
mode turns \\r\\n and \\r into \\n, and only \\n ends a line: \\v, \\f, \\x1c-\\x1e,
\\x85, \\u2028 and \\u2029 may occur inside a field. A line is a record unless
it is all whitespace or its first non-blank character is '#'. A record's
fields are separated by TABs.

`record_blocks` is the one reader, and every file is read through it once.
It yields the record lines of a block of about `BLOCK_CHARS` characters at
a time, with each line's TAB count and 1-based line number, so a caller
names the first faulty line of a block from the block itself. It reads a
block's line structure from its UTF-8 bytes: the newline positions, each
line's first byte and each line's TAB count. A line whose first byte is
printable ASCII other than ' ' and '#' is certainly a record and skips the
rule; only the other lines take it, and the block is cut around those that
fail it.

A byte that is not UTF-8 does not stop the read: the file is decoded with
escapes, and encoding a block stops at the first escaped byte. The lines
before that byte's line are yielded, then the caller's error class is
raised, naming the line with the message of a strict decode of its bytes.
Each fault is thus met in file order, whatever the block size: a caller
that checks every block it is given names the first faulty line of the
file.
"""
from __future__ import annotations

from typing import Callable, Generator, Iterator

import numpy as np

# characters of file text per block
BLOCK_CHARS = 1 << 16

# the first bytes that certainly start a record: printable ASCII but ' ' and '#'
_RECORD_START = np.zeros(256, dtype=bool)
_RECORD_START[0x21:0x7F] = True
_RECORD_START[ord("#")] = False

# a block of record lines: the lines joined by \n, their TAB counts and their line numbers
Block = tuple[str, np.ndarray, np.ndarray]
# what is wrong with a record's fields, or None
Fault = Callable[[list[str]], "str | None"]


class TextFormatError(ValueError):
    """A malformed input, naming its file and 1-based line where known."""

    def __init__(self, message: str, line_number: int | None = None, path: str | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.path = path

    @classmethod
    def first_of(cls, path: str, text: str, lines: np.ndarray, fault: Fault) -> TextFormatError:
        """The error of the first record line of a block (`text` and `lines`
        as `record_blocks` yields them) whose fields `fault` finds a fault
        in, with its message; the block must hold one."""
        lineno, message = next((n, m) for n, f in numbered_fields(text, lines) if (m := fault(f)))
        return cls(message, lineno, path)


def _is_record(line: str) -> bool:
    """The record rule: a line is a record unless it is all whitespace or
    its first non-blank character is '#'."""
    return bool((s := line.lstrip()) and s[0] != "#")


def record_blocks(path: str, error: type[TextFormatError]) -> Iterator[Block]:
    """The record lines of `path` a block at a time: the lines joined by \\n,
    each line's TAB count and each line's 1-based line number. A block holds
    whole lines of about `BLOCK_CHARS` characters; a line that is not UTF-8
    raises `error` once the lines before it are yielded."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        # the pieces of the text after the last newline read so far, joined
        # once a newline ends them, so a long line is copied once
        pieces: list[str] = []
        lineno = 1
        while True:
            chunk = fh.read(BLOCK_CHARS)
            # a block ends before its last newline; the rest goes with the next block
            cut = chunk.rfind("\n") if chunk else 0
            if cut < 0:
                pieces.append(chunk)
                continue
            block = "".join([*pieces, chunk[:cut]])
            pieces = [chunk[cut + 1 :]]
            if not (block or chunk):
                return
            try:
                raw = (block + "\n").encode()
            except UnicodeEncodeError as exc:
                # the lines before the escaped byte's line are a block of
                # their own; a strict decode of that line's bytes names it
                start = block.rfind("\n", 0, exc.start) + 1
                head, line = block[:start], block[start:].partition("\n")[0]
                lineno += yield from _records(head[:-1], head.encode(), lineno)
                try:
                    line.encode(errors="surrogateescape").decode()
                except UnicodeDecodeError as fault:
                    raise error(str(fault), lineno, path) from None
            lineno += yield from _records(block, raw, lineno)


def _records(block: str, raw: bytes, lineno: int) -> Generator[Block, None, int]:
    """Yield the record lines of `block`, whole lines numbered from
    `lineno`, with their TAB counts and line numbers, unless none is a
    record; return the number of lines. `raw` is the block's UTF-8 bytes,
    each line with its newline."""
    data = np.frombuffer(raw, dtype=np.uint8)
    # the TABs and newlines in order: a line's TAB count is the number of
    # separators between its newline and the one before
    sep = np.flatnonzero((data == 9) | (data == 10))
    newlines = np.flatnonzero(data[sep] == 10)
    tabs = np.diff(newlines, prepend=-1) - 1
    lines = np.arange(lineno, lineno + len(newlines))
    ends = sep[newlines]
    starts = np.concatenate(([0], ends + 1))[:-1]
    # only a line whose first byte may begin a non-record takes the rule, and
    # the block is cut around the lines that fail it
    maybe = np.flatnonzero(~_RECORD_START[data[starts]]).tolist()
    drop = [k for k in maybe if not _is_record(raw[starts[k] : ends[k]].decode())]
    if len(drop) == len(ends):
        return len(ends)
    if drop:
        keep = np.ones(len(ends), dtype=bool)
        keep[drop] = False
        # the stretches of kept lines between the dropped ones, each line
        # with its newline
        cuts = np.column_stack((starts[drop], ends[drop] + 1)).ravel().tolist()
        bounds = [0, *cuts, len(raw)]
        kept = b"".join(raw[a:b] for a, b in zip(bounds[::2], bounds[1::2]))
        block, tabs, lines = kept[:-1].decode(), tabs[keep], lines[keep]
    yield block, tabs, lines
    return len(ends)


def numbered_fields(text: str, lines: np.ndarray) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each record line of a block that
    `record_blocks` yields."""
    return zip(lines.tolist(), (line.split("\t") for line in text.split("\n")))

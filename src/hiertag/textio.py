"""The line-oriented text format every input file shares: objects, hierarchy
and manifest files.

Files are UTF-8, and a leading byte-order mark is not part of the text. Text
mode turns \\r\\n and \\r into \\n, and only \\n ends a line: \\v, \\f, \\x1c-\\x1e,
\\x85, \\u2028 and \\u2029 may occur inside a field. A line is a record unless
it is all whitespace or its first non-blank character is '#'. A record's
fields are separated by TABs.

There are two readers with the same record rule, `_is_record`.
`record_blocks` yields the record lines of a block of about `BLOCK_CHARS`
characters at a time, and objects and hierarchy files are read through it.
`record_lines` yields one record with its line number at a time; it reads
manifests, and re-reads an objects or hierarchy file the block reader found
malformed, only to number the fault.

`record_blocks` reads a block's line structure from its UTF-8 bytes: the
newline positions, each line's first byte and each line's TAB count. A line
whose first byte is printable ASCII other than ' ' and '#' is certainly a
record and skips the rule; only the other lines take it, and the block is
cut around those that fail it. A UTF-8 fault raises the caller's error
class, naming the file and the first bad line.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

# characters of file text per block
BLOCK_CHARS = 1 << 16

# the first bytes that certainly start a record: printable ASCII but ' ' and '#'
_RECORD_START = np.zeros(256, dtype=bool)
_RECORD_START[0x21:0x7F] = True
_RECORD_START[ord("#")] = False


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
    def undecodable(cls, path: str) -> "TextFormatError":
        """The error for a file that is not valid UTF-8, at its first bad line.

        Only called once text-mode reading has failed, so loading stays one
        pass: the file is re-read in binary, without its byte-order mark, and
        split at the same line breaks text mode uses (\\n, \\r\\n, \\r). Neither
        break byte occurs inside a UTF-8 sequence, so the fault always falls
        within one line.
        """
        with open(path, "rb") as fh:
            lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return cls(str(exc), lineno, path)
        return cls("not valid UTF-8", path=path)


def _is_record(line: str) -> bool:
    """The record rule: a line is a record unless it is all whitespace or
    its first non-blank character is '#'."""
    return bool((s := line.lstrip()) and s[0] != "#")


def record_lines(path: str, error: type[TextFormatError]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each record of `path`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if _is_record(line):
                    yield lineno, line.rstrip("\n").split("\t")
    except UnicodeDecodeError:
        raise error.undecodable(path) from None


def record_blocks(path: str, error: type[TextFormatError]) -> Iterator[tuple[str, np.ndarray]]:
    """The record lines of `path` a block at a time, as the lines joined by
    \\n and each line's TAB count; a block holds whole lines of about
    `BLOCK_CHARS` characters."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            carry = ""
            while text := carry + (chunk := fh.read(BLOCK_CHARS)):
                # a block ends before its last newline; the rest goes with the next block
                cut = text.rfind("\n") if chunk else len(text)
                if cut < 0:
                    carry = text
                    continue
                block, carry = text[:cut], text[cut + 1 :]
                raw = (block + "\n").encode()
                data = np.frombuffer(raw, dtype=np.uint8)
                # the TABs and newlines in order: a line's TAB count is the
                # number of separators between its newline and the one before
                sep = np.flatnonzero((data == 9) | (data == 10))
                newlines = np.flatnonzero(data[sep] == 10)
                tabs = np.diff(newlines, prepend=-1) - 1
                ends = sep[newlines]
                starts = np.concatenate(([0], ends[:-1] + 1))
                # only a line whose first byte may begin a non-record takes the
                # rule, and the block is cut around the lines that fail it
                maybe = np.flatnonzero(~_RECORD_START[data[starts]]).tolist()
                drop = [k for k in maybe if not _is_record(raw[starts[k] : ends[k]].decode())]
                if drop:
                    if len(drop) == len(starts):
                        continue
                    keep = np.ones(len(starts), dtype=bool)
                    keep[drop] = False
                    # the stretches of kept lines between the dropped ones,
                    # each line with its newline
                    cuts = np.column_stack((starts[drop], ends[drop] + 1)).ravel().tolist()
                    bounds = [0, *cuts, len(raw)]
                    kept = b"".join(raw[a:b] for a, b in zip(bounds[::2], bounds[1::2]))
                    block, tabs = kept[:-1].decode(), tabs[keep]
                yield block, tabs
    except UnicodeDecodeError:
        raise error.undecodable(path) from None

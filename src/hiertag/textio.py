"""The line-oriented text format every input file shares: objects, hierarchy
and manifest files.

Files are UTF-8, and a leading byte-order mark is not part of the text. Text
mode turns \\r\\n and \\r into \\n, and only \\n ends a line: \\v, \\f, \\x1c-\\x1e,
\\x85, \\u2028 and \\u2029 may occur inside a field. A line is a record unless
it is all whitespace or its first non-blank character is '#'. A record's
fields are separated by TABs.

There are two readers with the same record rule: `record_lines` yields one
record with its line number at a time, and `record_blocks` yields the record
lines of a block of about `BLOCK_CHARS` characters at a time, for the
objects-file fast path. A UTF-8 fault raises the caller's error class,
naming the file and the first bad line.
"""
from __future__ import annotations

from typing import Iterator

# characters of file text per block
BLOCK_CHARS = 1 << 16


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


def record_lines(path: str, error: type[TextFormatError]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each record of `path`."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if (s := line.lstrip()) and s[0] != "#":
                    yield lineno, line.rstrip("\n").split("\t")
    except UnicodeDecodeError:
        raise error.undecodable(path) from None


def record_blocks(path: str, error: type[TextFormatError]) -> Iterator[list[str]]:
    """The record lines of `path`, without their \\n, a block at a time; a
    block holds whole lines of about `BLOCK_CHARS` characters."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            carry = ""
            while text := carry + (chunk := fh.read(BLOCK_CHARS)):
                # a block ends at its last newline; the rest goes with the next block
                cut = text.rfind("\n") + 1 if chunk else len(text)
                carry = text[cut:]
                # split("\n"), not splitlines(), which also breaks inside fields
                rows = [r for r in text[:cut].split("\n") if (s := r.lstrip()) and s[0] != "#"]
                if rows:
                    yield rows
    except UnicodeDecodeError:
        raise error.undecodable(path) from None

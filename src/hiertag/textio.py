"""Errors shared by the line-oriented text formats (objects and hierarchy files)."""
from __future__ import annotations


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
        pass: the file is re-read in binary and split at the same line breaks
        text mode uses (\\n, \\r\\n, \\r). Neither break byte occurs inside a
        UTF-8 sequence, so the fault always falls within one line.
        """
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return cls(str(exc), lineno, path)
        return cls("not valid UTF-8", path=path)

"""The line-by-line reference every input reader is checked against.

It reads a file's bytes one line at a time and knows nothing of blocks:
strip a leading byte-order mark, split at \\n, \\r\\n and \\r, decode each line
strictly, keep the lines the record rule keeps (not all whitespace, first
non-blank character not '#'), then apply the field rule of the file kind.
The first line that fails to decode or breaks the field rule is the file's
first faulty line, whatever the fault.
"""
from __future__ import annotations

BOM = b"\xef\xbb\xbf"


def read_records(data: bytes, rule=lambda fields: None):
    """(records, fault): each record before the first faulty line as (line
    number, fields), and that line's (line number, message), or None."""
    records = []
    for lineno, raw in enumerate(data.removeprefix(BOM).splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return records, (lineno, str(exc))
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if message := rule(fields):
            return records, (lineno, message)
        records.append((lineno, fields))
    return records, None


def hierarchy_rule(fields):
    """A hierarchy record is one tag, or a parent and a child that are
    distinct and not empty."""
    if len(fields) > 2:
        return f"expected 1 or 2 fields, got {len(fields)}"
    if len(fields) == 2:
        parent, child = fields
        if not parent or not child:
            return "empty tag in edge"
        if parent == child:
            return f"self-loop on tag {parent!r}"
    return None


def objects_rule(with_ids):
    """An objects record holds at least one tag, after its id with ids, and
    no empty tag."""

    def rule(fields):
        tags = fields[1:] if with_ids else fields
        if not tags:
            return "object with no tags"
        if "" in tags:
            return "empty tag field"
        return None

    return rule


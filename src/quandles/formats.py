"""Text and JSON serialization for tables and phase rules.

Table text: a ``quandle <n>`` header, then n lines of n integers in 1..n.
Phase text: a ``phase`` header, then 3 lines of 3 integers in 0..2.
``#`` begins a comment line; blank lines are skipped. Emission is canonical
(right-aligned columns, no trailing whitespace), so emit-then-parse is the
identity.
"""

from __future__ import annotations

import json

from .construct import PhaseRule
from .core import Quandle, _check_quandle


class TableFormatError(ValueError):
    """Parse failure; the message cites line and column positions."""


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_grid(text: str, header: str, rows_expected, entry_range, what: str):
    """Shared line scanner; rows_expected None means the header carries n."""
    n = rows_expected
    rows = []
    header_seen = False
    for lineno, line in _significant_lines(text):
        parts = line.split()
        if not header_seen:
            if parts[0] != header:
                raise TableFormatError(
                    f"line {lineno}: expected {what} header {header!r}, got {line!r}")
            if rows_expected is None:
                if len(parts) != 2:
                    raise TableFormatError(
                        f"line {lineno}: expected '{header} <n>', got {line!r}")
                try:
                    n = int(parts[1])
                except ValueError:
                    raise TableFormatError(
                        f"line {lineno}: order {parts[1]!r} is not an integer") from None
                if n < 1:
                    raise TableFormatError(f"line {lineno}: order must be >= 1, got {n}")
            elif len(parts) != 1:
                raise TableFormatError(
                    f"line {lineno}: expected bare header {header!r}, got {line!r}")
            header_seen = True
            continue
        if len(rows) == n:
            raise TableFormatError(f"line {lineno}: unexpected content after {what}")
        if len(parts) != n:
            raise TableFormatError(
                f"line {lineno}: expected {n} entries, got {len(parts)}")
        row = []
        for col, tok in enumerate(parts, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise TableFormatError(
                    f"line {lineno}, column {col}: {tok!r} is not an integer") from None
            lo, hi = entry_range if entry_range else (1, n)
            if not lo <= v <= hi:
                raise TableFormatError(
                    f"line {lineno}, column {col}: entry {v} out of range {lo}..{hi}")
            row.append(v)
        rows.append(tuple(row))
    if not header_seen:
        raise TableFormatError(f"empty input: missing {header!r} header")
    if len(rows) != n:
        raise TableFormatError(f"expected {n} rows, got {len(rows)}")
    return n, tuple(rows)


def parse_table_text(text: str) -> Quandle:
    n, rows = _parse_grid(text, "quandle", None, None, "table")
    try:
        return Quandle(n, rows)
    except ValueError as err:
        raise TableFormatError(str(err)) from None


def parse_table_json(text: str) -> Quandle:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nesting too deep
        raise TableFormatError(f"invalid JSON: {err}") from None
    if not isinstance(obj, dict) or "order" not in obj or "table" not in obj:
        raise TableFormatError("JSON table needs fields 'order' and 'table'")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise TableFormatError("'name' must be a string")
    try:
        return Quandle(obj["order"], tuple(tuple(row) for row in obj["table"]), name=name)
    except (TypeError, ValueError) as err:
        raise TableFormatError(str(err)) from None


def parse_table(text: str) -> Quandle:
    """Sniff the format: a leading '{' means the structured-object form."""
    if text.lstrip().startswith("{"):
        return parse_table_json(text)
    return parse_table_text(text)


def emit_table(q: Quandle) -> str:
    _check_quandle(q)
    w = len(str(q.order))
    lines = [f"quandle {q.order}"]
    for row in q.table:
        lines.append(" ".join(str(v).rjust(w) for v in row))
    return "\n".join(lines) + "\n"


def table_obj(q: Quandle) -> dict:
    _check_quandle(q)
    obj = {"order": q.order, "table": [list(row) for row in q.table]}
    if q.name:
        obj["name"] = q.name
    return obj


def emit_table_json(q: Quandle) -> str:
    return json.dumps(table_obj(q), indent=2) + "\n"


def parse_phase_text(text: str) -> PhaseRule:
    _, rows = _parse_grid(text, "phase", 3, (0, 2), "phase rule")
    return PhaseRule(rows)


def emit_phase(rule: PhaseRule) -> str:
    lines = ["phase"]
    for row in rule.f:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def phase_obj(rule: PhaseRule) -> dict:
    obj = {"table": [list(row) for row in rule.f]}
    if rule.name:
        obj["name"] = rule.name
    return obj

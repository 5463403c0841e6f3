"""Canonical rendering of reports and CSV tables.

Every artifact the CLI writes goes through this module so that identical
inputs produce byte-identical files: dictionary keys are emitted sorted,
floats are printed at 17 significant digits, and rationals keep their exact
numerator/denominator form.  Timing and other run-to-run noise must never
enter a rendered body.
"""

from __future__ import annotations

import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np

__all__ = ["render_value", "render_report", "csv_text", "write_artifact"]


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def _int_text(n: int) -> str:
    """Decimal digits of an exact integer of any size.

    ``str`` refuses integers past the interpreter's conversion limit
    (4,300 digits by default); ``Decimal`` holds an integer exactly and
    prints it without that limit and without touching the limit itself."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def render_value(value, indent: int = 0) -> str:
    """Render a value as deterministic JSON-style text."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value.keys(), key=str)
        rows = [f'{inner}"{k}": {render_value(value[k], indent + 1)}'
                for k in keys]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        rows = [f"{inner}{render_value(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n"))
        return f'"{escaped}"'
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, Fraction):
        return (f'"{_int_text(value.numerator)}/'
                f'{_int_text(value.denominator)}"')
    if isinstance(value, (int, np.integer)):
        return _int_text(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, np.ndarray):
        return render_value(value.tolist(), indent)
    if isinstance(value, numbers.Real):
        return _fmt_float(float(value))
    raise TypeError(f"cannot render {type(value)!r} deterministically")


def render_report(report: dict) -> str:
    return render_value(report) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, Fraction):
        return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"
    if isinstance(v, int):
        return _int_text(v)
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_artifact(path, text: str):
    """Write text with a fixed encoding and newline convention."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)

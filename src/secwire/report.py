"""Deterministic rendering of result objects to JSON or CSV.

Floats are always printed with %.10g and dicts in insertion order, so a rerun
with the same seed produces byte-identical output regardless of environment.

A list (or tuple, or array) of plain ints, and a list of equal-width rows of
plain ints such as the phrase spans of ``parse --phrases``, is printed through
one string template instead of one recursive call per number. The output is
byte-for-byte what the recursion prints; bools, numpy scalars, floats, ragged
or empty rows and any other item fall through to the recursion.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

import numpy as np

from .errors import ValidationError


def fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return "%.10g" % x


def _render(obj, indent: int | None, level: int) -> str:
    """One pass over the document: read each node as plain JSON data and print it.

    numpy scalars print as the Python numbers they convert to, arrays and
    tuples as lists. Exact-type checks come first: they are the common case
    and never take a bool for an int. Containers, numpy values and subclasses
    of the plain types fall through to the isinstance checks.
    """
    t = type(obj)
    if t is int:
        return str(obj)
    if t is float:
        return fmt_float(obj)
    if t is str:
        return json.dumps(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if isinstance(obj, (list, tuple)):
        return _render_list(obj, indent, level)
    if isinstance(obj, dict):
        return _render_dict(obj, indent, level)
    if isinstance(obj, np.ndarray):
        return _render_list(obj.tolist(), indent, level)
    if isinstance(obj, np.floating):
        return fmt_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValidationError(f"cannot render object of type {type(obj).__name__}")


def _join(items, indent: int | None, level: int, brackets: str = "[]") -> str:
    """The JSON list (or, with brackets "{}", object) of already rendered, nonempty items."""
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    return brackets[0] + "\n" + pad_in + (",\n" + pad_in).join(items) + "\n" + pad + brackets[1]


def _render_list(obj, indent: int | None, level: int) -> str:
    if len(obj) == 0:  # not truth: a 0-d array's tolist() is a scalar, which must still raise
        return "[]"
    # the first item's type decides whether a whole-list scan can pay off
    t = type(obj[0])
    # "%d" prints an int as str() does, and one % over a template beats a str() call per int
    if t is int and set(map(type, obj)) == {int}:
        return _join(["%d"] * len(obj), indent, level) % tuple(obj)
    if (t is list or t is tuple) and obj[0]:
        width = len(obj[0])
        if set(map(type, obj)) <= {list, tuple} and set(map(len, obj)) == {width}:
            flat = tuple(itertools.chain.from_iterable(obj))
            if set(map(type, flat)) == {int}:
                # pads are spaces, so the template holds no "%" but the %d fields
                row = _join(["%d"] * width, indent, level + 1)
                return _join([row] * len(obj), indent, level) % flat
    return _join([_render(v, indent, level + 1) for v in obj], indent, level)


def _render_dict(obj, indent: int | None, level: int) -> str:
    items = []
    for k, v in obj.items():
        if not isinstance(k, str):
            raise ValidationError(f"report keys must be strings, got {k!r}")
        items.append(f"{json.dumps(k)}: {_render(v, indent, level + 1)}")
    return _join(items, indent, level, "{}") if items else "{}"


def render_json(obj, indent: int | None = 2) -> str:
    """Render to JSON text; indent None gives a single line."""
    return _render(obj, indent, 0)


def flatten(obj, prefix: str = "") -> list:
    """Depth-first (key path, scalar) pairs; lists index as name[i].

    Arrays and tuples flatten as lists; floats (numpy ones too) become their
    %.10g text, bools "true"/"false", None "", numpy integers int. The
    document is checked as render_json checks it.
    """
    out: list = []
    _flatten_into(obj, prefix, out)
    return out


def _flatten_into(obj, prefix: str, out: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValidationError(f"report keys must be strings, got {k!r}")
            _flatten_into(v, f"{prefix}.{k}" if prefix else k, out)
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        for i, v in enumerate(obj.tolist() if isinstance(obj, np.ndarray) else obj):
            _flatten_into(v, f"{prefix}[{i}]", out)
        return
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    if isinstance(obj, float):
        obj = fmt_float(obj)
    elif isinstance(obj, bool):
        obj = "true" if obj else "false"
    elif obj is None:
        obj = ""
    elif not isinstance(obj, (int, str)):
        raise ValidationError(f"cannot render object of type {type(obj).__name__}")
    out.append((prefix, obj))


def render_csv(obj) -> str:
    """One header row of flattened key paths, one row of values."""
    pairs = flatten(obj)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([k for k, _ in pairs])
    writer.writerow([v for _, v in pairs])
    return buf.getvalue()


def render_csv_rows(rows: list, common: dict | None = None) -> str:
    """CSV with one line per row dict, all sharing a header (union of keys).

    common, when given, is flattened and prepended to every row.
    """
    flat_rows = []
    header: list = []
    seen = set()
    for row in rows:
        merged = dict(common or {})
        merged.update(row)
        pairs = flatten(merged)
        flat_rows.append(dict(pairs))
        for k, _ in pairs:
            if k not in seen:
                seen.add(k)
                header.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for fr in flat_rows:
        writer.writerow([fr.get(k, "") for k in header])
    return buf.getvalue()

"""File formats, number serialization, and table rendering for the CLI.

Vector and problem files are human-writable structured text with '#'
comments.  Machine output is a flat tab-separated table with a fixed
header row; numbers use the shortest decimal representation that
round-trips exactly, with infinities spelled "inf".
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from .kernel import DivboundError, _limit_order


class ParseFailure(DivboundError, ValueError):
    """Input text failed to parse; message carries source and line/field."""


def fmt_real(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_vector_text(text: str, source: str = "<input>") -> List[float]:
    """Whitespace/newline separated probability masses, '#' comments allowed."""
    values: List[float] = []
    for lineno, line in _content_lines(text):
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseFailure(f"{source}:{lineno}: not a number: {token!r}")
    if not values:
        raise ParseFailure(f"{source}: no numbers found")
    return values


_PROBLEM_KEYS = ("priors", "cond1", "cond2", "label")


def parse_problem_text(text: str, source: str = "<input>") -> Dict[str, object]:
    """Two-class problem file: 'priors:', 'cond1:', 'cond2:', optional 'label:'."""
    fields: Dict[str, object] = {}
    for lineno, line in _content_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip().lower()
        if not sep or key not in _PROBLEM_KEYS:
            raise ParseFailure(
                f"{source}:{lineno}: expected one of {', '.join(_PROBLEM_KEYS)}, got {line!r}"
            )
        if key in fields:
            raise ParseFailure(f"{source}:{lineno}: duplicate field {key!r}")
        if key == "label":
            fields[key] = rest.strip()
            continue
        try:
            fields[key] = [float(tok) for tok in rest.split()]
        except ValueError:
            raise ParseFailure(f"{source}:{lineno}: field {key!r} has a non-numeric token")
    for key in ("priors", "cond1", "cond2"):
        if key not in fields:
            raise ParseFailure(f"{source}: missing required field {key!r}")
    if len(fields["priors"]) != 2:
        raise ParseFailure(f"{source}: field 'priors' must hold exactly 2 numbers")
    return fields


def load_vector(path: str) -> List[float]:
    return parse_vector_text(_read(path), source=path)


def load_problem(path: str) -> Dict[str, object]:
    return parse_problem_text(_read(path), source=path)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc.strerror or exc}")


def _snap(s: float) -> float:
    order = _limit_order(s)
    return s if order is None else order


# The most points a range spec a:b:n may name, checked before the grid is
# built: far past any sweep (the benchmarks use at most 25), while a huge n
# would otherwise build an n-element list before anything fails.
S_GRID_MAX_POINTS = 1 << 16


def parse_s_grid(spec: str, source: str = "--s-grid") -> List[float]:
    """Grid spec: 'a:b:n' (n evenly spaced points from a to b, finite ends
    included, n at most S_GRID_MAX_POINTS) or a comma-separated list;
    points within the limit band of 0 or 1 snap to the exact limit value."""
    text = spec.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseFailure(f"{source}: range spec must be a:b:n, got {spec!r}")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseFailure(f"{source}: bad range spec {spec!r}")
        if not 2 <= n <= S_GRID_MAX_POINTS:
            raise ParseFailure(
                f"{source}: range spec needs n in [2, {S_GRID_MAX_POINTS}], got {n}"
            )
        if not a < b:
            raise ParseFailure(f"{source}: range spec needs a < b, got {spec!r}")
        if math.isinf(a) or math.isinf(b):
            raise ParseFailure(f"{source}: range spec needs finite ends, got {spec!r}")
        if math.isinf(b - a):
            # the width overflows: interpolate between the ends, which stays finite
            ts = [i / (n - 1) for i in range(n)]
            return [_snap(a * (1.0 - t) + b * t) for t in ts]
        step = (b - a) / (n - 1)
        return [_snap(a + i * step) for i in range(n)]
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseFailure(f"{source}: bad grid list {spec!r}")
    if not values:
        raise ParseFailure(f"{source}: empty grid")
    return [_snap(v) for v in values]


def render_rows(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    """Render a table: 'machine' is tab-separated, 'table' is aligned columns."""
    if fmt == "machine":
        lines = ["\t".join(header)]
        lines.extend("\t".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt != "table":
        raise ParseFailure(f"unknown format {fmt!r} (expected 'table' or 'machine')")
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [line(header), line(["-" * w for w in widths])]
    lines.extend(line(row) for row in rows)
    return "\n".join(lines) + "\n"

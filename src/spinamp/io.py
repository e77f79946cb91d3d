"""File output and argument parsing helpers for the CLI.

All data files are written atomically (write to a sibling temp file, then
rename) with LF line endings, '#'-prefixed header comments carrying the
full config echo, and locale-independent numbers at 15 significant
digits.  Headers carry no timestamps so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from typing import Iterable, Mapping, Sequence

__all__ = [
    "format_number",
    "parse_time",
    "header_lines",
    "render_csv",
    "write_text_atomic",
]

_PI_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<num>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def parse_time(text: str) -> float:
    """Parse a finite time argument; accepts plain floats and pi tokens.

    "pi", "pi/2", "-3pi/4" and "2*pi" all work, avoiding decimal drift in
    configs that mean exact fractions of pi.  "nan", "inf", "pi/0" and
    values that overflow (like "1e999") raise ValueError.
    """
    m = _PI_RE.match(text)
    if m:
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise ValueError(f"time value {text!r} divides by zero")
        value = (-num if m.group("sign") == "-" else num) * math.pi / den
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"cannot parse time value {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"time value {text!r} is not finite")
    return value


def header_lines(config: Mapping, version: str) -> list:
    """Config echo for a data file header."""
    echo = json.dumps(dict(sorted(config.items())), separators=(", ", ": "))
    return [f"# spinamp v{version}", f"# config: {echo}"]


def render_csv(columns: Sequence[str], rows: Iterable[Sequence],
               comments: Sequence[str] = ()) -> str:
    lines = list(comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spinamp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

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


def _column(values: tuple) -> list:
    """``format_number`` of each value; one pass unless bools or floats mix with other kinds."""
    kinds = set(map(type, values))
    if all(issubclass(kind, float) for kind in kinds):
        return ("\n".join(["%.15g"] * len(values)) % values).split("\n")
    if kinds == {bool}:
        return [("false", "true")[v] for v in values]
    if not any(issubclass(kind, (bool, float)) for kind in kinds):
        return list(map(str, values))
    return [format_number(v) for v in values]


def render_csv(columns: Sequence[str], rows: Iterable[Sequence],
               comments: Sequence[str] = ()) -> str:
    cells = [_column(values) for values in zip(*rows)]      # a column at a time
    return "\n".join([*comments, ",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """``text`` as UTF-8 into a new sibling ``.spinamp-<12 hex digits>``, renamed
    onto ``path``.  O_EXCL follows no link planted there; the umask applies."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".spinamp-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:      # closes fd, written or not
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise

"""Result files in a stable format: CSV tables and indented JSON.

Kept apart from the harness and free of numpy, so that a command which only
writes a table (``validate-lemma``) loads neither.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence


def _fmt(value) -> str:
    """A cell's text: None and NaN leave it empty, a bool is 0 or 1, and a
    float is written as ``repr`` writes it."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[col]) for col in columns) + "\n")


def write_json(path: str | Path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")

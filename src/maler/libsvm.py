"""Reader and writer for the sparse LIBSVM text format.

Each line is `<label> <index>:<value> ...` with 1-based, strictly unique
indices and a label in {-1, +1}. Parsing is strict: any malformed line
fails with its line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class LibsvmFormatError(ValueError):
    """A line failed to parse; message carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


@dataclass(frozen=True)
class LibsvmRow:
    """One example: binary label and sorted sparse features."""

    label: float
    indices: tuple
    values: tuple


def parse_libsvm(path) -> list:
    """Parse a LIBSVM file into rows, failing fast on malformed input."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                label = float(fields[0])
            except ValueError:
                raise LibsvmFormatError(line_no, f"non-numeric label {fields[0]!r}") from None
            if label not in (-1.0, 1.0):
                raise LibsvmFormatError(line_no, f"label must be -1 or +1, got {fields[0]!r}")
            seen = {}
            for tok in fields[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise LibsvmFormatError(line_no, f"expected index:value, got {tok!r}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise LibsvmFormatError(line_no, f"non-numeric index {idx_s!r}") from None
                if idx < 1:
                    raise LibsvmFormatError(line_no, f"indices are 1-based, got {idx}")
                try:
                    val = float(val_s)
                except ValueError:
                    raise LibsvmFormatError(line_no, f"non-numeric value {val_s!r}") from None
                if not math.isfinite(val):
                    raise LibsvmFormatError(line_no, f"non-finite value {val_s!r}")
                if idx in seen:
                    raise LibsvmFormatError(line_no, f"duplicate index {idx}")
                seen[idx] = val
            items = sorted(seen.items())
            rows.append(
                LibsvmRow(
                    label=label,
                    indices=tuple(i for i, _ in items),
                    values=tuple(v for _, v in items),
                )
            )
    return rows


def write_libsvm(rows, path) -> None:
    """Serialize rows in canonical form: sorted indices, %.17g values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            label = "+1" if row.label > 0 else "-1"
            feats = " ".join(f"{i}:{v:.17g}" for i, v in zip(row.indices, row.values))
            fh.write(f"{label} {feats}\n" if feats else f"{label}\n")


def to_dense(rows) -> tuple:
    """Densify rows into (X, y), one column per index up to the largest seen."""
    d = max((r.indices[-1] for r in rows if r.indices), default=0)
    X = np.zeros((len(rows), d))
    y = np.empty(len(rows))
    for i, r in enumerate(rows):
        y[i] = r.label
        if r.indices:
            X[i, np.array(r.indices) - 1] = r.values
    return X, y

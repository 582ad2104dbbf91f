"""Reader and writer for the sparse LIBSVM text format.

Each line is `<label> <index>:<value> ...` with 1-based, unique indices in
any order and a label in {-1, +1}. Parsing is strict: any malformed line
fails with its line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

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
            keys = sorted(seen)
            rows.append(LibsvmRow(label=label, indices=tuple(keys),
                                  values=tuple(map(seen.__getitem__, keys))))
    return rows


def write_libsvm(rows, path) -> None:
    """Serialize rows in canonical form: `+1` or `-1`, then each index:value
    pair in the row's order (sorted, for rows from `parse_libsvm`), values as
    %.17g, one LF-ended line per row.

    A row whose label is not exactly -1 or +1, or whose indices and values
    differ in length, raises ValueError naming its position in `rows`; the
    file then holds the rows before it.
    """
    templates = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pos, row in enumerate(rows):
            indices, values = row.indices, row.values
            n = len(indices)
            if len(values) != n:
                raise ValueError(f"rows[{pos}]: {n} indices but {len(values)} values")
            if row.label == 1.0:
                label = "+1"
            elif row.label == -1.0:
                label = "-1"
            else:
                raise ValueError(f"rows[{pos}]: label must be -1 or +1, got {row.label!r}")
            fmt = templates.get(n)
            if fmt is None:
                # %s, as f"{i}" would print any index type.
                fmt = templates[n] = "%s" + " %s:%.17g" * n + "\n"
            fields = [label] * (2 * n + 1)
            fields[1::2] = indices
            fields[2::2] = values
            fh.write(fmt % tuple(fields))


def to_dense(rows) -> tuple:
    """Densify rows into (X, y), one column per index up to the largest seen.

    A row with an index below 1, or with more or fewer values than indices,
    raises ValueError: the one scatter would put its values into other rows.
    """
    lens = [len(r.indices) for r in rows]
    if lens != [len(r.values) for r in rows]:
        raise ValueError("every row needs as many values as indices")
    flat = np.fromiter(chain.from_iterable(r.indices for r in rows), dtype=np.intp,
                       count=sum(lens))
    if flat.min(initial=1) < 1:
        raise ValueError(f"indices are 1-based, got {flat.min()}")
    d = int(flat.max(initial=0))
    X = np.zeros((len(rows), d))
    # Row i's index j lands at flat position i*d + j - 1.
    flat += np.repeat(np.arange(len(rows)) * d - 1, lens)
    X.put(flat, np.fromiter(chain.from_iterable(r.values for r in rows), dtype=float,
                            count=flat.size))
    y = np.array([r.label for r in rows], dtype=float)
    return X, y

"""Shared trajectory container and the text output every netspread file
goes through: one sink for "path or open handle", one CSV cell format."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

__all__ = ["Trajectory"]


def _write_text(destination: str | Path | IO[str], text: str) -> str:
    """Write ``text`` to an open text handle, or as UTF-8 to the file at a
    path, and return it."""
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
    else:
        Path(destination).write_text(text, encoding="utf-8")
    return text


def _write_csv(
    destination: str | Path | IO[str],
    names: Sequence[str],
    columns: Sequence[np.ndarray],
) -> str:
    """Write a header of ``names`` and one row per index of ``columns``, and
    return the text written.

    Integer columns are written as ``%d``; every other column as ``%.12e``
    (13 significant digits), so reruns give identical bytes.  The rows are
    built by two format operations.  The trailing run of rows whose cells
    after the first column have the bytes of the row before (an ODE at its
    fixed point, say) takes one template: the first column's format plus
    that suffix, formatted once, repeated once per row and applied to the
    first column's values.  The rows before the run take the row template
    repeated once per row, applied to the row-major tuple of every cell.
    Bytes are compared, not values, so +0.0 and -0.0 stay apart.
    """
    formats = ["%d" if np.issubdtype(col.dtype, np.integer) else "%.12e" for col in columns]
    rows, width = len(columns[0]), len(columns)
    start = 0  # the run's first row; the run is empty only when rows == 0
    for col in columns[1:]:
        raw = col.view(f"V{col.itemsize}")  # same size: strided columns view too
        changed = np.flatnonzero(raw[1:] != raw[:-1])
        if changed.size:
            start = max(start, int(changed[-1]) + 1)
    cells = [None] * (start * width)
    for j, col in enumerate(columns):
        cells[j::width] = col[:start].tolist()
    text = (",".join(formats) + "\n") * start % tuple(cells)
    if start < rows:
        suffix = "".join("," + f for f in formats[1:]) % tuple(
            col[start].item() for col in columns[1:])
        template = formats[0] + suffix.replace("%", "%%") + "\n"
        text += template * (rows - start) % tuple(columns[0][start:].tolist())
    return _write_text(destination, ",".join(names) + "\n" + text)


@dataclass
class Trajectory:
    """Time-stamped rows of named columns.

    ``times`` must be strictly increasing; every column must have the same
    length as ``times``.  Column order is preserved for CSV output.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, col in self.columns.items():
            arr = np.asarray(col)
            if arr.shape != self.times.shape:
                raise ValueError(
                    f"column {name!r} has shape {arr.shape}, expected {self.times.shape}"
                )
            self.columns[name] = arr

    def __len__(self) -> int:
        return len(self.times)

    def write_csv(self, destination: str | Path | IO[str]) -> str:
        """Write ``t,<columns...>`` rows, floats with 13 significant digits,
        and return the text written."""
        return _write_csv(
            destination, ["t", *self.columns], [self.times, *self.columns.values()]
        )
